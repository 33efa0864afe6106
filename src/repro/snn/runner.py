"""Result type and integer kernels of the abstract SNN simulator.

:class:`repro.ir.GraphSnnRunner` executes a layer graph time step by time
step with exactly the integer arithmetic the hardware performs: integer
weighted sums (:func:`_dense_sum`, :func:`_conv_sum`, shared with the
block-level spike baseline), integrate-and-fire with reset by subtraction,
binary spikes between layers.  Its accuracy is the "Abstract SNN Accu." row
of Table IV; the hardware functional simulator must reproduce its spike
output bit-exactly once the network is mapped ("Shenjing Accu." row).

:class:`SnnRunResult` also reports per-layer spike activity, which feeds the
power model's switching-activity estimate (the paper quotes 6.25 % for MNIST
MLP).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .spec import ConvSpec, DenseSpec


class RunnerError(RuntimeError):
    """Raised on invalid runner usage."""


@dataclass
class SnnRunResult:
    """Result of simulating a batch of inputs on the abstract SNN."""

    spike_counts: np.ndarray
    predictions: np.ndarray
    timesteps: int
    layer_activity: Dict[str, float] = field(default_factory=dict)
    output_spike_trains: Optional[np.ndarray] = None

    def accuracy(self, labels: np.ndarray) -> float:
        labels = np.asarray(labels).ravel()
        if labels.shape[0] != self.predictions.shape[0]:
            raise RunnerError("label count does not match prediction count")
        return float(np.mean(self.predictions == labels))

    @property
    def mean_activity(self) -> float:
        """Average spike activity across all layers (including the input)."""
        if not self.layer_activity:
            return 0.0
        return float(np.mean(list(self.layer_activity.values())))


def _conv_sum(spikes: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Integer convolution of a batch of spike maps with a ConvSpec kernel."""
    batch = spikes.shape[0]
    h, w, cin = spec.input_shape
    x = spikes.reshape(batch, h, w, cin).astype(np.int64)
    if spec.pad:
        x = np.pad(x, ((0, 0), (spec.pad, spec.pad), (spec.pad, spec.pad), (0, 0)))
    out_h, out_w, cout = spec.output_shape
    k, stride = spec.kernel, spec.stride
    cols = np.empty((batch, out_h, out_w, k, k, cin), dtype=np.int64)
    for i in range(k):
        i_end = i + stride * out_h
        for j in range(k):
            j_end = j + stride * out_w
            cols[:, :, :, i, j, :] = x[:, i:i_end:stride, j:j_end:stride, :]
    cols = cols.reshape(batch, out_h * out_w, k * k * cin)
    kernel = spec.weights.reshape(k * k * cin, cout).astype(np.int64)
    sums = cols @ kernel
    return sums.reshape(batch, out_h * out_w * cout)


def _dense_sum(spikes: np.ndarray, spec: DenseSpec) -> np.ndarray:
    return spikes.astype(np.int64) @ spec.weights
