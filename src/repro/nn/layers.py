"""Numpy implementation of the ANN layers used by the paper's benchmarks.

Table III of the paper builds its four applications out of fully connected
layers, 2-D convolutions, average pooling and residual (shortcut) blocks,
all with ReLU activations.  This module provides exactly those layers as
plain numpy code with explicit forward and backward passes, so that the
reference ANNs can be trained offline (no PyTorch/TensorFlow available) and
then converted to spiking networks by :mod:`repro.snn.conversion`.

Tensor layout is ``NHWC`` (batch, height, width, channels) for images and
``NC`` for flat features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


class LayerError(ValueError):
    """Raised on shape mismatches or illegal layer configurations."""


class Layer:
    """Base class of all layers.

    Sub-classes implement :meth:`forward` and :meth:`backward`; layers with
    parameters also expose ``params`` / ``grads`` dictionaries keyed by
    parameter name so the optimisers in :mod:`repro.nn.training` can update
    them uniformly.

    ``training`` says whether :meth:`forward` keeps what :meth:`backward`
    reads (inputs, im2col columns, ReLU masks, input shapes).  With it off,
    a forward keeps nothing and drops what an earlier one kept, so a layer
    holds no arrays but ``params`` and ``grads``;
    :meth:`repro.nn.model.Sequential.inference` turns it off for a whole
    model.
    """

    #: True for layers whose forward pass is an affine map (mappable to cores)
    has_weights = False

    def __init__(self, name: str = ""):
        self.name = name or self.__class__.__name__
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.training = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape of the output for a single sample of ``input_shape``."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.__class__.__name__}(name={self.name!r})"


def _kaiming_std(fan_in: int) -> float:
    return float(np.sqrt(2.0 / max(fan_in, 1)))


class Dense(Layer):
    """Fully connected layer ``y = x W + b``."""

    has_weights = True

    def __init__(self, in_features: int, out_features: int, *, bias: bool = True,
                 rng: Optional[np.random.Generator] = None, name: str = ""):
        super().__init__(name)
        if in_features <= 0 or out_features <= 0:
            raise LayerError("Dense dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.use_bias = bias
        self.params["weight"] = rng.normal(
            0.0, _kaiming_std(in_features), size=(in_features, out_features)
        ).astype(np.float64)
        if bias:
            self.params["bias"] = np.zeros(out_features, dtype=np.float64)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise LayerError(
                f"{self.name}: expected input (N, {self.in_features}), got {x.shape}"
            )
        self._x = x if self.training else None
        y = x @ self.params["weight"]
        if self.use_bias:
            y = y + self.params["bias"]
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise LayerError(f"{self.name}: backward called before forward")
        self.grads["weight"] = self._x.T @ grad
        if self.use_bias:
            self.grads["bias"] = grad.sum(axis=0)
        return grad @ self.params["weight"].T

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.out_features,)


class ReLU(Layer):
    """Rectified linear activation (the only activation used by the paper)."""

    def __init__(self, name: str = ""):
        super().__init__(name)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        mask = x > 0
        self._mask = mask if self.training else None
        return np.where(mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise LayerError(f"{self.name}: backward called before forward")
        return grad * self._mask

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return input_shape


class Flatten(Layer):
    """Flatten ``NHWC`` feature maps into ``NC`` vectors."""

    def __init__(self, name: str = ""):
        super().__init__(name)
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._shape = x.shape if self.training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise LayerError(f"{self.name}: backward called before forward")
        return grad.reshape(self._shape)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)


def _im2col(x: np.ndarray, kernel: int, stride: int, pad: int
            ) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Rearrange image patches into columns for convolution by matmul."""
    n, h, w, c = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    cols = np.empty((n, out_h, out_w, kernel, kernel, c), dtype=x.dtype)
    for i in range(kernel):
        i_end = i + stride * out_h
        for j in range(kernel):
            j_end = j + stride * out_w
            cols[:, :, :, i, j, :] = x[:, i:i_end:stride, j:j_end:stride, :]
    return cols.reshape(n, out_h, out_w, kernel * kernel * c), (out_h, out_w)


def _col2im(cols: np.ndarray, input_shape: Tuple[int, int, int, int],
            kernel: int, stride: int, pad: int) -> np.ndarray:
    """Scatter column gradients back to image gradients (adjoint of im2col)."""
    n, h, w, c = input_shape
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    cols = cols.reshape(n, out_h, out_w, kernel, kernel, c)
    padded = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=cols.dtype)
    for i in range(kernel):
        i_end = i + stride * out_h
        for j in range(kernel):
            j_end = j + stride * out_w
            padded[:, i:i_end:stride, j:j_end:stride, :] += cols[:, :, :, i, j, :]
    if pad:
        return padded[:, pad:-pad, pad:-pad, :]
    return padded


class Conv2D(Layer):
    """2-D convolution with a ``k x k`` kernel, NHWC layout.

    The paper's networks use "same" spatial behaviour only implicitly through
    their layer dimensioning; padding is configurable and defaults to "same"
    so that Table III's feature-map sizes are reproduced.
    """

    has_weights = True

    def __init__(self, in_channels: int, out_channels: int, kernel: int, *,
                 stride: int = 1, padding: str | int = "same", bias: bool = True,
                 rng: Optional[np.random.Generator] = None, name: str = ""):
        super().__init__(name)
        if in_channels <= 0 or out_channels <= 0 or kernel <= 0:
            raise LayerError("Conv2D dimensions must be positive")
        if stride <= 0:
            raise LayerError("Conv2D stride must be positive")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        if padding == "same":
            if stride != 1:
                raise LayerError("padding='same' requires stride 1")
            self.pad = (kernel - 1) // 2
        elif padding == "valid":
            self.pad = 0
        elif isinstance(padding, int) and padding >= 0:
            self.pad = padding
        else:
            raise LayerError(f"invalid padding {padding!r}")
        self.use_bias = bias
        fan_in = kernel * kernel * in_channels
        self.params["weight"] = rng.normal(
            0.0, _kaiming_std(fan_in), size=(kernel, kernel, in_channels, out_channels)
        ).astype(np.float64)
        if bias:
            self.params["bias"] = np.zeros(out_channels, dtype=np.float64)
        self._cols: Optional[np.ndarray] = None
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise LayerError(
                f"{self.name}: expected input (N, H, W, {self.in_channels}), got {x.shape}"
            )
        cols, (out_h, out_w) = _im2col(x, self.kernel, self.stride, self.pad)
        self._input_shape = x.shape if self.training else None
        self._cols = cols if self.training else None
        w = self.params["weight"].reshape(-1, self.out_channels)
        y = cols @ w
        if self.use_bias:
            y = y + self.params["bias"]
        return y.reshape(x.shape[0], out_h, out_w, self.out_channels)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cols is None or self._input_shape is None:
            raise LayerError(f"{self.name}: backward called before forward")
        n, out_h, out_w, _ = grad.shape
        grad_flat = grad.reshape(n, out_h, out_w, self.out_channels)
        cols = self._cols
        grad_cols = grad_flat.reshape(-1, self.out_channels)
        cols_flat = cols.reshape(-1, cols.shape[-1])
        self.grads["weight"] = (cols_flat.T @ grad_cols).reshape(self.params["weight"].shape)
        if self.use_bias:
            self.grads["bias"] = grad_cols.sum(axis=0)
        w = self.params["weight"].reshape(-1, self.out_channels)
        grad_cols_full = (grad_cols @ w.T).reshape(n, out_h, out_w, -1)
        return _col2im(grad_cols_full, self._input_shape, self.kernel, self.stride, self.pad)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        h, w, _ = input_shape
        out_h = (h + 2 * self.pad - self.kernel) // self.stride + 1
        out_w = (w + 2 * self.pad - self.kernel) // self.stride + 1
        return (out_h, out_w, self.out_channels)


class AvgPool2D(Layer):
    """Average pooling over non-overlapping ``k x k`` windows.

    In the spiking domain average pooling becomes a fixed-weight layer whose
    synaptic weights are ``1 / k**2`` (Section III maps pooling onto cores
    like any other layer), which is why the layer also exposes its equivalent
    convolution weights through :meth:`equivalent_conv_weights`.
    """

    def __init__(self, pool: int, name: str = ""):
        super().__init__(name)
        if pool <= 0:
            raise LayerError("pool size must be positive")
        self.pool = pool
        self._input_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        n, h, w, c = x.shape
        if h % self.pool or w % self.pool:
            raise LayerError(
                f"{self.name}: input {h}x{w} not divisible by pool {self.pool}"
            )
        self._input_shape = x.shape if self.training else None
        reshaped = x.reshape(n, h // self.pool, self.pool, w // self.pool, self.pool, c)
        return reshaped.mean(axis=(2, 4))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise LayerError(f"{self.name}: backward called before forward")
        n, h, w, c = self._input_shape
        scale = 1.0 / (self.pool * self.pool)
        grad = grad[:, :, None, :, None, :] * scale
        grad = np.broadcast_to(
            grad, (n, h // self.pool, self.pool, w // self.pool, self.pool, c)
        )
        return grad.reshape(n, h, w, c)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        h, w, c = input_shape
        if h % self.pool or w % self.pool:
            raise LayerError(f"input {h}x{w} not divisible by pool {self.pool}")
        return (h // self.pool, w // self.pool, c)

    def equivalent_conv_weights(self, channels: int) -> np.ndarray:
        """Weights of the equivalent strided convolution (per-channel mean)."""
        weights = np.zeros((self.pool, self.pool, channels, channels), dtype=np.float64)
        for c in range(channels):
            weights[:, :, c, c] = 1.0 / (self.pool * self.pool)
        return weights
