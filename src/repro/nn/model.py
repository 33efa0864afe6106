"""Network containers: sequential models, residual blocks and branch joins.

The paper's four benchmarks (Table III) are sequential stacks of layers,
except the CIFAR-10 ResNet which inserts residual blocks whose shortcut skips
a stack of convolutions and is added to the block output.  ``Sequential`` and
``ResidualBlock`` cover both; :class:`Branches` generalises the pattern to
arbitrary DAG topologies — several parallel branches over one input, merged
by element-wise addition (skip connections of any span, nested freely) or by
channel concatenation (inception-style multi-kernel stages).  All three
composites are themselves layers, so every network stays a sequential model
at the top level — which is also how the conversion toolchain walks it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .layers import Layer, LayerError, ReLU


class ResidualBlock(Layer):
    """A residual block ``y = relu(F(x) + x)``.

    ``body`` is the stack of layers computing ``F``; the shortcut is the
    identity (the paper's small ResNet keeps channel counts equal inside a
    block, so no projection is needed — when it is, pass ``projection``).
    """

    def __init__(self, body: Sequence[Layer], projection: Optional[Layer] = None,
                 name: str = ""):
        super().__init__(name)
        if not body:
            raise LayerError("residual block body must not be empty")
        self.body = list(body)
        self.projection = projection
        self.activation = ReLU(name=f"{self.name}.relu")

    # -- forward / backward -------------------------------------------------
    def merge(self, body_out: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Add the (projected) shortcut to the body output and activate.

        Shared by :meth:`forward` and the conversion toolchain's activation
        capture, so the merge semantics exist exactly once.
        """
        shortcut = x if self.projection is None else self.projection.forward(x)
        if body_out.shape != shortcut.shape:
            raise LayerError(
                f"{self.name}: body output {body_out.shape} does not match "
                f"shortcut {shortcut.shape}"
            )
        return self.activation.forward(body_out + shortcut)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = x
        for layer in self.body:
            out = layer.forward(out)
        return self.merge(out, x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self.activation.backward(grad)
        grad_body = grad
        for layer in reversed(self.body):
            grad_body = layer.backward(grad_body)
        if self.projection is None:
            grad_short = grad
        else:
            grad_short = self.projection.backward(grad)
        return grad_body + grad_short

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        shape = input_shape
        for layer in self.body:
            shape = layer.output_shape(shape)
        return shape

    # -- inner layers (parameters, training mode) ----------------------------
    def sublayers(self) -> List[Layer]:
        layers = list(self.body)
        if self.projection is not None:
            layers.append(self.projection)
        layers.append(self.activation)
        return layers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResidualBlock(name={self.name!r}, body={len(self.body)} layers)"


class Branches(Layer):
    """Parallel branches over one input, merged by addition or concatenation.

    ``branches`` is a list of layer stacks all reading the same input; an
    empty stack is the identity.  With ``merge="add"`` the branch outputs are
    summed and passed through a ReLU — a residual block is the two-branch
    case with an identity branch, and nesting :class:`Branches` inside a
    branch yields multi-skip topologies.  With ``merge="concat"`` the branch
    outputs (feature maps of equal height/width) are concatenated along the
    channel axis — the inception pattern.

    For SNN conversion (:func:`repro.snn.conversion.convert_ann_to_graph`)
    an ``add`` merge becomes a partial-sum add-join node (every branch must
    end with a bias-free ``Conv2D``, or be empty/identity); a ``concat``
    merge becomes a wiring-only concat node.
    """

    MERGES = ("add", "concat")

    def __init__(self, branches: Sequence[Sequence[Layer]], merge: str = "concat",
                 name: str = ""):
        super().__init__(name)
        if merge not in self.MERGES:
            raise LayerError(f"unknown merge {merge!r} (expected one of {self.MERGES})")
        if len(branches) < 2:
            raise LayerError("Branches needs at least two branches")
        self.branches: List[List[Layer]] = [list(branch) for branch in branches]
        self.merge = merge
        self.activation = ReLU(name=f"{self.name}.relu") if merge == "add" else None
        self._split_channels: List[int] = []

    # -- forward / backward -------------------------------------------------
    def _branch_forward(self, branch: List[Layer], x: np.ndarray) -> np.ndarray:
        out = x
        for layer in branch:
            out = layer.forward(out)
        return out

    def merge_outputs(self, outputs: List[np.ndarray]) -> np.ndarray:
        """Merge per-branch outputs (add+ReLU or channel concat).

        Shared by :meth:`forward` and the conversion toolchain's activation
        capture, so the merge semantics exist exactly once.
        """
        if self.merge == "add":
            shapes = {out.shape for out in outputs}
            if len(shapes) != 1:
                raise LayerError(
                    f"{self.name}: add-merge branch outputs differ in shape "
                    f"({shapes})"
                )
            total = outputs[0]
            for out in outputs[1:]:
                total = total + out
            return self.activation.forward(total)
        if any(out.ndim != 4 for out in outputs):
            raise LayerError(
                f"{self.name}: concat-merge needs NHWC branch outputs"
            )
        spatial = {out.shape[:3] for out in outputs}
        if len(spatial) != 1:
            raise LayerError(
                f"{self.name}: concat-merge branch outputs differ spatially "
                f"({spatial})"
            )
        self._split_channels = ([out.shape[-1] for out in outputs]
                                if self.training else [])
        return np.concatenate(outputs, axis=-1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        outputs = [self._branch_forward(branch, x) for branch in self.branches]
        return self.merge_outputs(outputs)

    def _branch_backward(self, branch: List[Layer], grad: np.ndarray) -> np.ndarray:
        out = grad
        for layer in reversed(branch):
            out = layer.backward(out)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.merge == "add":
            grad = self.activation.backward(grad)
            total = None
            for branch in self.branches:
                piece = self._branch_backward(branch, grad)
                total = piece if total is None else total + piece
            return total
        if not self._split_channels:
            raise LayerError(f"{self.name}: backward before forward")
        total = None
        offset = 0
        for branch, channels in zip(self.branches, self._split_channels):
            piece = self._branch_backward(
                branch, grad[..., offset:offset + channels])
            total = piece if total is None else total + piece
            offset += channels
        return total

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        shapes = []
        for branch in self.branches:
            shape = input_shape
            for layer in branch:
                shape = layer.output_shape(shape)
            shapes.append(tuple(shape))
        if self.merge == "add":
            if len(set(shapes)) != 1:
                raise LayerError(
                    f"{self.name}: add-merge branch shapes differ ({set(shapes)})"
                )
            return shapes[0]
        if any(len(shape) != 3 for shape in shapes):
            raise LayerError(f"{self.name}: concat-merge needs (h, w, c) branches")
        if len({shape[:2] for shape in shapes}) != 1:
            raise LayerError(f"{self.name}: concat-merge branches differ spatially")
        h, w = shapes[0][:2]
        return (h, w, sum(shape[2] for shape in shapes))

    # -- inner layers (parameters, training mode) ----------------------------
    def sublayers(self) -> List[Layer]:
        layers = [layer for branch in self.branches for layer in branch]
        if self.activation is not None:
            layers.append(self.activation)
        return layers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = "/".join(str(len(branch)) for branch in self.branches)
        return (f"Branches(name={self.name!r}, merge={self.merge!r}, "
                f"branches={sizes})")


class Sequential:
    """A feed-forward stack of layers with a flat parameter view."""

    def __init__(self, layers: Sequence[Layer], input_shape: Tuple[int, ...],
                 name: str = "model"):
        if not layers:
            raise LayerError("a model needs at least one layer")
        self.layers = list(layers)
        self.input_shape = tuple(int(v) for v in input_shape)
        self.name = name

    # -- inference / training ------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        out = grad
        for layer in reversed(self.layers):
            out = layer.backward(out)
        return out

    @contextmanager
    def inference(self) -> Iterator["Sequential"]:
        """Run the forwards inside with every layer's ``training`` off.

        Every layer of :meth:`all_layers` (merge activations included)
        keeps nothing for a backward pass, and drops what an earlier
        training forward kept; on exit each layer gets its own setting
        back.  :meth:`predict`, :meth:`accuracy` and
        :func:`repro.snn.conversion.convert_ann_to_graph` run inside it.
        """
        layers = list(self.all_layers())
        modes = [layer.training for layer in layers]
        for layer in layers:
            layer.training = False
        try:
            yield self
        finally:
            for layer, mode in zip(layers, modes):
                layer.training = mode

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions for a batch of inputs, run in :meth:`inference`
        (the layers keep no backward state)."""
        x = np.asarray(x, dtype=np.float64)
        outputs = []
        with self.inference():
            for start in range(0, x.shape[0], batch_size):
                outputs.append(self.forward(x[start:start + batch_size]))
        return np.argmax(np.concatenate(outputs, axis=0), axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray, batch_size: int = 256) -> float:
        labels = np.asarray(labels).ravel()
        return float(np.mean(self.predict(x, batch_size=batch_size) == labels))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- structure ------------------------------------------------------------
    def output_shape(self) -> Tuple[int, ...]:
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def layer_shapes(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """Per-layer output shapes for a single sample (used for reporting)."""
        shapes = []
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
            shapes.append((layer.name, shape))
        return shapes

    def all_layers(self) -> Iterator[Layer]:
        """Iterate over every layer, recursing into composite blocks (their
        merge activations included)."""
        def walk(layer: Layer) -> Iterator[Layer]:
            yield layer
            if isinstance(layer, (ResidualBlock, Branches)):
                for sub in layer.sublayers():
                    yield from walk(sub)

        for layer in self.layers:
            yield from walk(layer)

    # -- parameters -----------------------------------------------------------
    def parameters(self) -> Dict[str, np.ndarray]:
        """All trainable parameters, keyed by ``layer_name/param_name``."""
        params: Dict[str, np.ndarray] = {}
        for layer in self.all_layers():
            for key, value in layer.params.items():
                params[f"{layer.name}/{key}"] = value
        return params

    def gradients(self) -> Dict[str, np.ndarray]:
        grads: Dict[str, np.ndarray] = {}
        for layer in self.all_layers():
            for key, value in layer.grads.items():
                grads[f"{layer.name}/{key}"] = value
        return grads

    def load_parameters(self, params: Dict[str, np.ndarray]) -> None:
        """Load parameters previously produced by :meth:`parameters`."""
        own = self.parameters()
        missing = set(own) - set(params)
        if missing:
            raise LayerError(f"missing parameters: {sorted(missing)}")
        for layer in self.all_layers():
            for key in layer.params:
                full_key = f"{layer.name}/{key}"
                value = np.asarray(params[full_key], dtype=np.float64)
                if value.shape != layer.params[key].shape:
                    raise LayerError(
                        f"parameter {full_key} has shape {value.shape}, "
                        f"expected {layer.params[key].shape}"
                    )
                layer.params[key] = value.copy()

    def parameter_count(self) -> int:
        return int(sum(p.size for p in self.parameters().values()))

    def summary(self) -> str:
        lines = [f"Sequential '{self.name}' (input {self.input_shape})"]
        for name, shape in self.layer_shapes():
            lines.append(f"  {name:<24} -> {shape}")
        lines.append(f"  parameters: {self.parameter_count()}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sequential(name={self.name!r}, layers={len(self.layers)})"
