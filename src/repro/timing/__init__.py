"""``repro.timing`` — schedule-aware analytic cycle model.

The paper's Table IV cycle counts are the headline reproduction target.
This package prices a *compiled* mapping from the schedule it will actually
execute — the packed waves of the route plan and the emitted program —
instead of per-layer closed-form heuristics, so estimates track whatever
the :mod:`repro.opt` NoC optimizations did to the schedule (multicast chains,
reduction trees, congestion-aware placement):

* each delivery or reduction wave costs its depth (longest route in hops,
  via-waypoint multicast segments included, plus the delivery step);
* each layer's ``ACC`` phase costs ``arch.long_op_cycles`` and its fire
  phase one cycle (:mod:`repro.mapping.program` group latencies);
* reduction cost follows the emitted round shape — O(log k) tree rounds
  under ``optimize_noc``, the serial O(k) member chain otherwise.

These are exactly the rules program emission and the simulator follow, so
the wave-derived estimate equals the simulator's
``ExecutionStats.cycles / (frames * timesteps)`` — the parity suite in
``tests/test_estimator_parity.py`` pins this for every benchmark builder
under both the default and NoC-optimized pipelines, against the
:data:`TIMING_TOLERANCE` band and exact equality.  See ``docs/timing.md``
for the formulas and the measured estimate-vs-simulated table.

Usage
-----
::

    from repro.ir import compile
    from repro.timing import time_route_plan, time_program

    compiled = compile(network, arch)          # compile ends in the
    print(compiled.timing.describe())          # 'timing-model' step

    timing = time_route_plan(compiled.routes, arch)   # price a plan directly
    timing = time_program(compiled.program)           # or the emitted program
    timing.cycles_per_timestep                        # scalar estimate
    timing.per_layer()                                # {layer: cycles}

    # estimator integration: schedule-aware cycles in MappingEstimate
    from repro.mapping import estimate_mapping
    estimate = estimate_mapping(network, arch, logical=compiled.logical,
                                placement=compiled.placement,
                                routes=compiled.routes)

    # command line: per-layer breakdown, default vs optimized pipeline
    #   python -m repro.timing mnist-inception-small
    #   python -m repro.timing --timesteps 8 --optimized cifar-strided-small
"""

from .model import (
    TIMING_TOLERANCE,
    LayerTiming,
    TimingEstimate,
    WaveTiming,
    relative_error,
    serialization_lower_bound,
    time_program,
    time_route_plan,
    time_wave,
    wave_cycles,
)

__all__ = [
    "TIMING_TOLERANCE",
    "LayerTiming",
    "TimingEstimate",
    "WaveTiming",
    "relative_error",
    "serialization_lower_bound",
    "time_program",
    "time_route_plan",
    "time_wave",
    "wave_cycles",
]
