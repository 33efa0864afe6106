"""Reproduction of Shenjing (DATE 2020): a reconfigurable SNN accelerator
with partial-sum and spike networks-on-chip.

The package is organised as:

* :mod:`repro.core` — hardware model and cycle-level functional simulator;
* :mod:`repro.mapping` — the software mapping toolchain (logical mapping,
  placement, routing, program emission, estimator);
* :mod:`repro.nn` — numpy ANN substrate (layers, training, quantisation);
* :mod:`repro.snn` — ANN-to-SNN conversion into a layer graph, spike
  encoders, IF dynamics and layer specs;
* :mod:`repro.datasets` — synthetic MNIST / CIFAR-10 substitutes;
* :mod:`repro.power` — energy table, frequency and architectural power model;
* :mod:`repro.baselines` — block-level-spike baseline and published chip data;
* :mod:`repro.apps` — the paper's four applications and the experiment pipeline;
* :mod:`repro.ir` — the layer-graph IR (the one model representation),
  the abstract SNN runner and the pass-based compilation pipeline;
* :mod:`repro.opt` — NoC-aware placement & routing optimization passes;
* :mod:`repro.timing` — schedule-aware analytic cycle model;
* :mod:`repro.engine` — batched/sharded execution backends;
* :mod:`repro.bench` — the bench gate table of machine-independent checks
  (``python -m repro.bench --check``); speed on the paper's nets is
  measured by ``perfbench/``.

Standalone documentation lives in ``docs/`` (architecture, pipeline,
backends, timing), linted by ``tests/test_docs.py``.
"""

__version__ = "0.1.0"
