"""Block-level spike communication baseline (the architecture Shenjing improves on).

Section II ("Reconfigurability and accuracy") describes how prior SNN
architectures without partial-sum NoCs handle layers that do not fit in one
core: every core integrates-and-fires on its *partial* weighted sum, and an
aggregating core sums the resulting spikes to approximate the full weighted
sum.  Re-quantising partial sums into 1-bit spikes loses information and is
the source of the accuracy loss that Shenjing's PS NoCs eliminate.

:class:`BlockSpikeRunner` simulates exactly that baseline on the same
abstract SNN (same integer weights, thresholds and input spike trains), so
the accuracy gap attributable to the communication scheme can be measured
directly — the ablation benchmark of DESIGN.md.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..core.config import ArchitectureConfig
from ..ir.graph import GRAPH_INPUT, LayerGraph
from ..ir.runner import _linear_sum
from ..snn.neurons import BatchedIfState
from ..snn.runner import SnnRunResult, _dense_sum
from ..snn.spec import DenseSpec, LayerSpec


class BaselineError(RuntimeError):
    """Raised on unsupported baseline configurations."""


class _BlockSplitDenseState:
    """A dense layer executed with block-level spike aggregation.

    The layer's inputs are split into blocks of at most ``core_inputs``; each
    block is a separate core with its own IF state firing on its *partial*
    sum.  An aggregator core receives only those 1-bit spikes, weighs them by
    the firing threshold (its best available estimate of the partial sum) and
    fires the layer's output spikes.
    """

    def __init__(self, spec: DenseSpec, arch: ArchitectureConfig, batch: int):
        self.spec = spec
        self.arch = arch
        self.n_blocks = max(1, math.ceil(spec.in_size / arch.core_inputs))
        self.block_states = [
            BatchedIfState.create(batch, spec.out_size, spec.threshold)
            for _ in range(self.n_blocks)
        ]
        self.aggregator = BatchedIfState.create(batch, spec.out_size, spec.threshold)

    def step(self, spikes: np.ndarray) -> np.ndarray:
        if self.n_blocks == 1:
            # Fits in one core: identical to the exact computation.
            return self.block_states[0].step(_dense_sum(spikes, self.spec))
        aggregate = np.zeros((spikes.shape[0], self.spec.out_size), dtype=np.int64)
        for block in range(self.n_blocks):
            lo = block * self.arch.core_inputs
            hi = min(lo + self.arch.core_inputs, self.spec.in_size)
            partial = spikes[:, lo:hi].astype(np.int64) @ self.spec.weights[lo:hi]
            block_spikes = self.block_states[block].step(partial)
            # The aggregating core only sees 1-bit spikes; each spike stands
            # for (at least) one threshold's worth of partial sum.
            aggregate += block_spikes.astype(np.int64) * self.spec.threshold
        return self.aggregator.step(aggregate)


class BlockSpikeRunner:
    """Abstract SNN runner with block-level (spike-quantised) cross-core sums.

    Runs a chain :class:`~repro.ir.graph.LayerGraph` (the baseline has no
    partial-sum NoC, so it cannot add contributions: add-joins and concats
    are rejected).  Only fully connected layers larger than one core are
    affected — they are the layers whose split the paper's Fig. 1
    illustrates; other layers run exactly, so any accuracy difference
    against :class:`~repro.ir.GraphSnnRunner` is attributable purely to the
    cross-core communication scheme.
    """

    def __init__(self, graph: LayerGraph, arch: ArchitectureConfig):
        graph.validate()
        previous = GRAPH_INPUT
        for node in graph.topological()[1:]:
            if node.kind != "fire" or node.inputs != (previous,):
                raise BaselineError(
                    f"the block-spike baseline runs chains only; node "
                    f"{node.name!r} is a {'join' if node.is_join else node.kind}"
                )
            previous = node.name
        self.graph = graph
        self.arch = arch
        self.specs: List[LayerSpec] = [node.specs[0] for node in graph.fire_nodes()]

    def _is_split(self, spec: LayerSpec) -> bool:
        return isinstance(spec, DenseSpec) and spec.in_size > self.arch.core_inputs

    def run_spike_trains(self, spike_trains: np.ndarray) -> SnnRunResult:
        spike_trains = np.asarray(spike_trains, dtype=bool)
        if spike_trains.ndim == 2:
            spike_trains = spike_trains[None, ...]
        if spike_trains.ndim != 3 or spike_trains.shape[2] != self.graph.input_size:
            raise BaselineError(
                "spike_trains must have shape (N, T, input_size) with input_size "
                f"{self.graph.input_size}"
            )
        batch, timesteps, _ = spike_trains.shape
        states = [
            _BlockSplitDenseState(spec, self.arch, batch) if self._is_split(spec)
            else BatchedIfState.create(batch, spec.out_size, spec.threshold)
            for spec in self.specs
        ]
        counts = np.zeros((batch, self.graph.output_size), dtype=np.int64)
        for step in range(timesteps):
            spikes = spike_trains[:, step, :]
            for spec, state in zip(self.specs, states):
                if isinstance(state, _BlockSplitDenseState):
                    spikes = state.step(spikes)
                else:
                    spikes = state.step(_linear_sum(spikes, spec))
            counts += spikes
        return SnnRunResult(
            spike_counts=counts,
            predictions=np.argmax(counts, axis=1),
            timesteps=timesteps,
        )

    def split_layer_names(self) -> List[str]:
        """Names of the layers that suffer block-level spike aggregation."""
        return [spec.name for spec in self.specs if self._is_split(spec)]
