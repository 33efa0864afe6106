"""Abstract SNN execution of a :class:`~repro.ir.graph.LayerGraph`.

The abstract runner: executes a layer graph node by node in topological
order, time step by time step, with exactly the hardware's integer
arithmetic — integer weighted sums, add-joins summed before one
integrate-and-fire stage (the PS-NoC addition), concat nodes as pure
wiring.  Its accuracy is the "Abstract SNN Accu." row of Table IV.  The
compiled program must reproduce this runner's spikes bit-exactly; the
test-suite checks the property on every workload.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..snn.encoding import EncoderName, encode, flatten_images
from ..snn.neurons import BatchedIfState
from ..snn.runner import RunnerError, SnnRunResult, _conv_sum, _dense_sum
from ..snn.spec import ConvSpec, DenseSpec, LayerSpec
from .graph import GRAPH_INPUT, LayerGraph


def _linear_sum(spikes: np.ndarray, spec: LayerSpec) -> np.ndarray:
    if isinstance(spec, DenseSpec):
        return _dense_sum(spikes, spec)
    if isinstance(spec, ConvSpec):
        return _conv_sum(spikes, spec)
    raise RunnerError(f"unsupported layer spec {spec!r}")


class GraphSnnRunner:
    """Topological, step-by-step simulator of a layer-graph SNN."""

    def __init__(self, graph: LayerGraph):
        graph.validate()
        self.graph = graph

    # ------------------------------------------------------------------
    def run_spike_trains(self, spike_trains: np.ndarray,
                         return_output_trains: bool = False) -> SnnRunResult:
        """Simulate pre-encoded spike trains of shape ``(N, T, input_size)``."""
        graph = self.graph
        spike_trains = np.asarray(spike_trains, dtype=bool)
        if spike_trains.ndim == 2:
            spike_trains = spike_trains[None, ...]
        if spike_trains.ndim != 3 or spike_trains.shape[2] != graph.input_size:
            raise RunnerError(
                "spike_trains must have shape (N, T, input_size) with "
                f"input_size {graph.input_size}"
            )
        batch, timesteps, _ = spike_trains.shape
        states: Dict[str, BatchedIfState] = {
            node.name: BatchedIfState.create(batch, node.out_size, node.threshold)
            for node in graph.fire_nodes()
        }
        concat_parts = {
            node.name: graph.concat_parts(node.name)
            for node in graph.topological() if node.kind == "concat"
        }
        counts = np.zeros((batch, graph.output_size), dtype=np.int64)
        spike_totals: Dict[str, int] = {
            node.name: 0 for node in graph.topological() if node.kind != "input"
        }
        spike_totals["input"] = 0
        output_trains = (
            np.zeros((batch, timesteps, graph.output_size), dtype=bool)
            if return_output_trains else None
        )
        for step in range(timesteps):
            values: Dict[str, np.ndarray] = {
                GRAPH_INPUT: spike_trains[:, step, :]
            }
            spike_totals["input"] += int(values[GRAPH_INPUT].sum())
            for node in graph.topological():
                if node.kind == "input":
                    continue
                if node.kind == "concat":
                    out = np.zeros((batch, node.out_size), dtype=bool)
                    for producer, indices in concat_parts[node.name]:
                        out[:, indices] = values[producer]
                else:
                    total = np.zeros((batch, node.out_size), dtype=np.int64)
                    for spec, source in node.contributions():
                        total += _linear_sum(values[source], spec)
                    out = states[node.name].step(total)
                values[node.name] = out
                spike_totals[node.name] += int(out.sum())
            counts += values[graph.output]
            if output_trains is not None:
                output_trains[:, step, :] = values[graph.output]
        activity = self._activity(spike_totals, batch, timesteps)
        return SnnRunResult(
            spike_counts=counts,
            predictions=np.argmax(counts, axis=1),
            timesteps=timesteps,
            layer_activity=activity,
            output_spike_trains=output_trains,
        )

    def run(self, inputs: np.ndarray, timesteps: Optional[int] = None,
            encoder: EncoderName = "deterministic", seed: int = 0,
            return_output_trains: bool = False) -> SnnRunResult:
        """Encode real-valued inputs into spike trains and simulate them."""
        timesteps = timesteps or self.graph.timesteps
        flat = flatten_images(np.asarray(inputs, dtype=np.float64))
        if flat.ndim == 1:
            flat = flat[None, :]
        if flat.shape[1] != self.graph.input_size:
            raise RunnerError(
                f"input size {flat.shape[1]} does not match graph input "
                f"{self.graph.input_size}"
            )
        spike_trains = encode(flat, timesteps, method=encoder, seed=seed)
        return self.run_spike_trains(spike_trains,
                                     return_output_trains=return_output_trains)

    def accuracy(self, inputs: np.ndarray, labels: np.ndarray,
                 timesteps: Optional[int] = None,
                 encoder: EncoderName = "deterministic", seed: int = 0) -> float:
        """Classification accuracy on a labelled set."""
        result = self.run(inputs, timesteps=timesteps, encoder=encoder, seed=seed)
        return result.accuracy(labels)

    # ------------------------------------------------------------------
    def _activity(self, spike_totals: Dict[str, int], batch: int,
                  timesteps: int) -> Dict[str, float]:
        sizes = {"input": self.graph.input_size}
        for node in self.graph.topological():
            if node.kind != "input":
                sizes[node.name] = node.out_size
        activity = {}
        for name, total in spike_totals.items():
            denominator = batch * timesteps * sizes[name]
            activity[name] = total / denominator if denominator else 0.0
        return activity
