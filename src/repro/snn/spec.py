"""Abstract SNN layer specifications.

After ANN-to-SNN conversion (:mod:`repro.snn.conversion`) every layer is a
*layer specification* holding integer weights and an integer firing
threshold: a :class:`DenseSpec` or a :class:`ConvSpec` (pooling is a
diagonal :class:`ConvSpec`, see :func:`pool_spec`).  A network is a
:class:`~repro.ir.graph.LayerGraph` over these specs, which both

* the abstract SNN simulator (:class:`repro.ir.GraphSnnRunner`) executes to
  obtain the "Abstract SNN Accu." row of Table IV, and
* the mapping toolchain (:func:`repro.ir.compile`) lowers onto Shenjing cores.

Because both consumers start from the same integer weights and thresholds,
the paper's claim that mapping is lossless can be checked bit-exactly: the
hardware simulator must emit the same spikes as the abstract runner.

Tensor layout conventions: images are HWC, flattened in C order (row-major
over ``(h, w, c)``); fully connected layers operate on already-flattened
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np


class SpecError(ValueError):
    """Raised on inconsistent layer specifications."""


def _as_int_array(values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        if not np.allclose(values, np.round(values)):
            raise SpecError(f"{name} must be integer-valued")
        values = np.round(values)
    return values.astype(np.int64)


@dataclass
class DenseSpec:
    """A fully connected spiking layer (``in_size -> out_size``)."""

    name: str
    weights: np.ndarray
    threshold: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        self.weights = _as_int_array(self.weights, f"{self.name} weights")
        if self.weights.ndim != 2:
            raise SpecError(f"{self.name}: dense weights must be 2-D")
        if self.threshold <= 0:
            raise SpecError(f"{self.name}: threshold must be positive")
        if self.scale <= 0:
            raise SpecError(f"{self.name}: scale must be positive")

    @property
    def in_size(self) -> int:
        return int(self.weights.shape[0])

    @property
    def out_size(self) -> int:
        return int(self.weights.shape[1])

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return (self.in_size,)

    @property
    def output_shape(self) -> Tuple[int, ...]:
        return (self.out_size,)


@dataclass
class ConvSpec:
    """A 2-D convolutional spiking layer (stride >= 1, symmetric zero padding).

    Average pooling is represented as a :class:`ConvSpec` with a diagonal
    kernel and ``stride == kernel`` (see :func:`pool_spec`), matching how the
    paper maps pooling onto cores.
    """

    name: str
    weights: np.ndarray
    threshold: int
    input_shape: Tuple[int, int, int]
    stride: int = 1
    pad: int = 0
    scale: float = 1.0

    def __post_init__(self) -> None:
        self.weights = _as_int_array(self.weights, f"{self.name} weights")
        if self.weights.ndim != 4:
            raise SpecError(f"{self.name}: conv weights must be (k, k, cin, cout)")
        if self.weights.shape[0] != self.weights.shape[1]:
            raise SpecError(f"{self.name}: only square kernels are supported")
        self.input_shape = tuple(int(v) for v in self.input_shape)
        if len(self.input_shape) != 3:
            raise SpecError(f"{self.name}: input_shape must be (h, w, cin)")
        if self.input_shape[2] != self.weights.shape[2]:
            raise SpecError(
                f"{self.name}: input channels {self.input_shape[2]} do not match "
                f"kernel channels {self.weights.shape[2]}"
            )
        if self.stride <= 0 or self.pad < 0:
            raise SpecError(f"{self.name}: invalid stride/pad")
        if self.pad >= self.kernel:
            # a border output would then read nothing but padding
            raise SpecError(
                f"{self.name}: pad {self.pad} must be smaller than the "
                f"kernel {self.kernel}")
        if self.threshold <= 0:
            raise SpecError(f"{self.name}: threshold must be positive")
        if self.scale <= 0:
            raise SpecError(f"{self.name}: scale must be positive")
        out_h, out_w, _ = self.output_shape
        if out_h <= 0 or out_w <= 0:
            raise SpecError(f"{self.name}: kernel does not fit the input")

    @property
    def kernel(self) -> int:
        return int(self.weights.shape[0])

    @property
    def in_channels(self) -> int:
        return int(self.weights.shape[2])

    @property
    def out_channels(self) -> int:
        return int(self.weights.shape[3])

    @property
    def output_shape(self) -> Tuple[int, int, int]:
        h, w, _ = self.input_shape
        out_h = (h + 2 * self.pad - self.kernel) // self.stride + 1
        out_w = (w + 2 * self.pad - self.kernel) // self.stride + 1
        return (out_h, out_w, self.out_channels)

    @property
    def in_size(self) -> int:
        return int(np.prod(self.input_shape))

    @property
    def out_size(self) -> int:
        return int(np.prod(self.output_shape))


LayerSpec = Union[DenseSpec, ConvSpec]


def pool_spec(name: str, channels: int, pool: int, input_shape: Tuple[int, int, int],
              weight_value: int = 1) -> ConvSpec:
    """Average pooling expressed as a strided convolution with diagonal weights.

    Each output neuron sums ``pool * pool`` input spikes of its own channel
    with weight ``weight_value`` and fires when the count reaches
    ``pool * pool * weight_value`` — the spiking equivalent of the mean.
    """
    if channels <= 0 or pool <= 0:
        raise SpecError("channels and pool must be positive")
    weights = np.zeros((pool, pool, channels, channels), dtype=np.int64)
    for channel in range(channels):
        weights[:, :, channel, channel] = weight_value
    return ConvSpec(
        name=name,
        weights=weights,
        threshold=pool * pool * weight_value,
        input_shape=input_shape,
        stride=pool,
        pad=0,
        scale=1.0 / (pool * pool * weight_value),
    )
