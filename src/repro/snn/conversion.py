"""ANN-to-SNN conversion.

The paper's central deployment story is transfer learning: take a
conventionally trained ANN, convert it to a rate-coded SNN (following Cao et
al. [6] and, for residual networks, Hu et al. [5]) and map it onto Shenjing
without retraining.  :func:`convert_ann_to_graph` implements that
conversion:

1. **Data-based weight normalisation** — the activations of every firing
   point are profiled on calibration data; each layer's weights are rescaled
   by ``previous_scale / current_scale`` so that with a firing threshold of
   1.0 the spike rates approximate the ANN activations.  The scale is
   tracked *per channel*, so branches profiled to different activation
   scales feed downstream layers correctly.
2. **Fixed-point quantisation** — the normalised weights are quantised to the
   hardware's signed weight width (5 bits) with a per-layer scale, and the
   threshold is expressed in the same integer units.
3. **Partial-sum joins** — every addition merge (residual shortcuts, and any
   multi-branch skip topology built with :class:`~repro.nn.model.Branches`)
   synthesises its contributions with one *shared* quantisation scale: on
   hardware the contributions' partial sums are added as raw integers
   through the PS NoC, exactly the mechanism of Section III.3.  Identity
   branches become normalisation layers with weights ``diag(lambda)``.

The output is a :class:`~repro.ir.graph.LayerGraph`: plain layers become
fire nodes, addition merges become add-join nodes, concatenation merges
become wiring-only concat nodes.  A ``Sequential`` model without merges is
simply a chain graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.layers import AvgPool2D, Conv2D, Dense, Flatten, Layer, ReLU
from ..nn.model import Branches, ResidualBlock, Sequential
from ..nn.quantize import quantize_symmetric, quantize_threshold
from .spec import ConvSpec, DenseSpec, pool_spec


class ConversionError(ValueError):
    """Raised when a model cannot be converted (unsupported layer, biases...)."""


@dataclass(frozen=True)
class ConversionConfig:
    """Parameters of the ANN-to-SNN conversion."""

    weight_bits: int = 5
    timesteps: int = 20
    percentile: float = 99.9
    max_calibration_samples: int = 256

    def __post_init__(self) -> None:
        if self.weight_bits < 2:
            raise ConversionError("weight_bits must be at least 2")
        if self.timesteps <= 0:
            raise ConversionError("timesteps must be positive")
        if not 0 < self.percentile <= 100:
            raise ConversionError("percentile must be in (0, 100]")
        if self.max_calibration_samples <= 0:
            raise ConversionError("max_calibration_samples must be positive")


def _activation_scale(values: np.ndarray, percentile: float) -> float:
    """Robust scale of a firing point: a high percentile of its activations."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    positive = flat[flat > 0]
    if positive.size == 0:
        return 1.0
    scale = float(np.percentile(positive, percentile))
    return scale if scale > 0 else 1.0


def _check_no_bias(layer: Layer) -> None:
    bias = layer.params.get("bias")
    if bias is not None and np.any(bias != 0):
        raise ConversionError(
            f"layer {layer.name} has non-zero biases; train the reference ANN "
            "with bias=False (Shenjing cores have no bias inputs)"
        )


def _prepare_calibration(model: Sequential, calibration: np.ndarray,
                         config: ConversionConfig) -> np.ndarray:
    calibration = np.asarray(calibration, dtype=np.float64)
    if calibration.ndim == len(model.input_shape):
        calibration = calibration[None, ...]
    calibration = calibration[: config.max_calibration_samples]
    if calibration.shape[1:] != tuple(model.input_shape):
        raise ConversionError(
            f"calibration data shape {calibration.shape[1:]} does not match the "
            f"model input shape {model.input_shape}"
        )
    return calibration


def _capture(layer: Layer, x: np.ndarray,
             activations: Dict[str, np.ndarray]) -> np.ndarray:
    """Forward one layer, recording every firing point's activations.

    Composite layers recurse so every *inner* firing point is profiled; the
    merge step itself is delegated back to the layer (``merge`` /
    ``merge_outputs``) so its semantics live in exactly one place.
    """
    if isinstance(layer, ResidualBlock):
        inner = x
        for sub in layer.body:
            inner = _capture(sub, inner, activations)
        out = layer.merge(inner, x)
        activations[layer.name] = out
        return out
    if isinstance(layer, Branches):
        outputs = []
        for branch in layer.branches:
            current = x
            for sub in branch:
                current = _capture(sub, current, activations)
            outputs.append(current)
        out = layer.merge_outputs(outputs)
        activations[layer.name] = out
        return out
    out = layer.forward(x)
    activations[layer.name] = out
    return out


def _capture_activations(model: Sequential, x: np.ndarray) -> Dict[str, np.ndarray]:
    """Forward ``x`` through the model capturing every firing point's output."""
    activations: Dict[str, np.ndarray] = {}
    out = np.asarray(x, dtype=np.float64)
    for layer in model.layers:
        out = _capture(layer, out, activations)
    return activations


class _GraphConverter:
    """Walks an ANN recursively, emitting layer-graph nodes.

    The conversion state flowing along every path is ``(node, shape,
    scales)``: the graph node producing the current tensor, its shape, and
    the activation scale *per channel* (image shapes) or *per element*
    (flat shapes) — branches profiled to different scales stay correct
    through concatenation because downstream weights are normalised
    slice-wise by this vector.
    """

    def __init__(self, graph, activations: Dict[str, np.ndarray],
                 config: ConversionConfig):
        self.graph = graph
        self.activations = activations
        self.config = config

    # -- helpers -------------------------------------------------------
    def scale_of(self, name: str) -> float:
        try:
            values = self.activations[name]
        except KeyError:
            raise ConversionError(
                f"no profiled activations for layer {name!r}"
            ) from None
        return _activation_scale(values, self.config.percentile)

    @staticmethod
    def _flat_scales(shape: Tuple[int, ...], scales: np.ndarray) -> np.ndarray:
        if len(shape) == 1:
            return scales
        h, w, _ = shape
        return np.tile(scales, h * w)

    def _quantize(self, normalised: np.ndarray):
        return quantize_symmetric(normalised, self.config.weight_bits)

    # -- the walk ------------------------------------------------------
    def convert_sequence(self, layers: Sequence[Layer], node: str,
                         shape: Tuple[int, ...], scales: np.ndarray):
        for layer in layers:
            node, shape, scales = self.convert_layer(layer, node, shape, scales)
        return node, shape, scales

    def convert_layer(self, layer: Layer, node: str, shape: Tuple[int, ...],
                      scales: np.ndarray):
        if isinstance(layer, ReLU):
            return node, shape, scales
        if isinstance(layer, Flatten):
            flat = self._flat_scales(shape, scales)
            return node, (int(np.prod(shape)),), flat
        if isinstance(layer, Dense):
            return self._convert_dense(layer, node, shape, scales)
        if isinstance(layer, Conv2D):
            return self._convert_conv(layer, node, shape, scales)
        if isinstance(layer, AvgPool2D):
            return self._convert_pool(layer, node, shape, scales)
        if isinstance(layer, ResidualBlock):
            branches: List[List[Layer]] = [list(layer.body)]
            branches.append([] if layer.projection is None else [layer.projection])
            return self._convert_add_merge(layer.name, branches, node, shape, scales)
        if isinstance(layer, Branches):
            if layer.merge == "add":
                return self._convert_add_merge(layer.name, layer.branches,
                                               node, shape, scales)
            return self._convert_concat(layer, node, shape, scales)
        raise ConversionError(
            f"unsupported layer type {type(layer).__name__} ({layer.name})"
        )

    def _convert_dense(self, layer: Dense, node: str, shape: Tuple[int, ...],
                       scales: np.ndarray):
        _check_no_bias(layer)
        if int(np.prod(shape)) != layer.in_features:
            raise ConversionError(
                f"layer {layer.name} expects {layer.in_features} inputs, but "
                f"the current tensor has {int(np.prod(shape))} elements "
                f"(shape {shape})"
            )
        element_scales = self._flat_scales(shape, scales)
        current = self.scale_of(layer.name)
        normalised = layer.params["weight"] * (element_scales[:, None] / current)
        quantised = self._quantize(normalised)
        spec = DenseSpec(
            name=layer.name,
            weights=quantised.values,
            threshold=quantize_threshold(1.0, quantised.scale),
            scale=quantised.scale,
        )
        out = self.graph.add_layer(spec, input=node)
        return out, (layer.out_features,), np.full(layer.out_features, current)

    def _convert_conv(self, layer: Conv2D, node: str, shape: Tuple[int, ...],
                      scales: np.ndarray):
        _check_no_bias(layer)
        if len(shape) != 3:
            raise ConversionError(
                f"layer {layer.name} needs an image input, current shape is {shape}"
            )
        current = self.scale_of(layer.name)
        normalised = layer.params["weight"] * (
            scales[None, None, :, None] / current)
        quantised = self._quantize(normalised)
        spec = ConvSpec(
            name=layer.name,
            weights=quantised.values,
            threshold=quantize_threshold(1.0, quantised.scale),
            input_shape=shape,
            stride=layer.stride,
            pad=layer.pad,
            scale=quantised.scale,
        )
        out = self.graph.add_layer(spec, input=node)
        return out, spec.output_shape, np.full(spec.out_channels, current)

    def _convert_pool(self, layer: AvgPool2D, node: str, shape: Tuple[int, ...],
                      scales: np.ndarray):
        if len(shape) != 3:
            raise ConversionError(
                f"layer {layer.name} needs an image input, current shape is {shape}"
            )
        spec = pool_spec(
            name=layer.name,
            channels=shape[2],
            pool=layer.pool,
            input_shape=shape,
        )
        out = self.graph.add_layer(spec, input=node)
        # Pooling does not change the activation scale (mean <= max).
        return out, spec.output_shape, scales

    # -- addition merges (residuals and arbitrary skips) ----------------
    def _convert_add_merge(self, name: str, branches: Sequence[Sequence[Layer]],
                           node: str, shape: Tuple[int, ...], scales: np.ndarray):
        """Convert an addition merge into one add-join node.

        Every branch's final layer (a bias-free ``Conv2D``; an empty branch
        is the identity, for which a ``diag(lambda)`` normalisation layer is
        synthesised) contributes raw partial sums to the join, so all final
        layers are quantised with a *shared* scale — the generalisation of
        Section III.3's residual treatment to any number of branches.
        """
        output_scale = self.scale_of(name)
        qmax = (1 << (self.config.weight_bits - 1)) - 1
        pending: List[Tuple[str, np.ndarray, Tuple[int, int, int], int, int, str]] = []
        identity_count = 0
        for position, branch in enumerate(branches):
            branch = list(branch)
            if not branch:
                if len(shape) != 3:
                    raise ConversionError(
                        f"join {name}: identity branches need an image input "
                        f"(current shape {shape})"
                    )
                channels = shape[2]
                lam = scales / output_scale
                weights = np.zeros((1, 1, channels, channels), dtype=np.float64)
                weights[0, 0, np.arange(channels), np.arange(channels)] = lam
                suffix = f".shortcut{identity_count}" if identity_count else ".shortcut"
                identity_count += 1
                pending.append((f"{name}{suffix}", weights, shape, 1, 0, node))
                continue
            final = branch[-1]
            if isinstance(final, ReLU):
                raise ConversionError(
                    f"join {name}: branch {position} must end with the layer "
                    "whose output is added (the merge applies the ReLU)"
                )
            if not isinstance(final, Conv2D):
                raise ConversionError(
                    f"join {name}: branch {position} must end with a Conv2D "
                    f"(got {type(final).__name__})"
                )
            _check_no_bias(final)
            branch_node, branch_shape, branch_scales = self.convert_sequence(
                branch[:-1], node, shape, scales)
            if len(branch_shape) != 3:
                raise ConversionError(
                    f"join {name}: branch {position} feeds its final Conv2D a "
                    f"non-image tensor (shape {branch_shape})"
                )
            normalised = final.params["weight"] * (
                branch_scales[None, None, :, None] / output_scale)
            pending.append((final.name, normalised, branch_shape,
                            final.stride, final.pad, branch_node))

        magnitude = max(
            float(np.abs(weights).max(initial=0.0))
            for _, weights, _, _, _, _ in pending
        )
        shared_scale = magnitude / qmax if magnitude > 0 else 1.0
        threshold = quantize_threshold(1.0, shared_scale)
        contributions = []
        for spec_name, weights, in_shape, stride, pad, source in pending:
            quantised = quantize_symmetric(weights, self.config.weight_bits,
                                           scale=shared_scale)
            spec = ConvSpec(
                name=spec_name,
                weights=quantised.values,
                threshold=threshold,
                input_shape=in_shape,
                stride=stride,
                pad=pad,
                scale=shared_scale,
            )
            contributions.append((spec, source))
        shapes = {spec.output_shape for spec, _ in contributions}
        if len(shapes) != 1:
            raise ConversionError(
                f"join {name}: contribution output shapes differ ({shapes})"
            )
        out = self.graph.add_join(name, contributions)
        out_shape = contributions[0][0].output_shape
        return out, out_shape, np.full(out_shape[2], output_scale)

    # -- concatenation merges -------------------------------------------
    def _convert_concat(self, layer: Branches, node: str,
                        shape: Tuple[int, ...], scales: np.ndarray):
        """Convert a concatenation merge into one wiring-only concat node.

        Each branch keeps its own firing layers and activation scale; the
        per-channel scale vectors concatenate, so downstream weights are
        normalised channel-group by channel-group.
        """
        ends: List[str] = []
        end_scales: List[np.ndarray] = []
        for position, branch in enumerate(layer.branches):
            if branch:
                branch_node, branch_shape, branch_scales = self.convert_sequence(
                    branch, node, shape, scales)
            else:
                branch_node, branch_shape, branch_scales = node, shape, scales
            if len(branch_shape) != 3:
                raise ConversionError(
                    f"concat {layer.name}: branch {position} produces a "
                    f"non-image tensor (shape {branch_shape})"
                )
            ends.append(branch_node)
            end_scales.append(np.asarray(branch_scales, dtype=np.float64))
        out = self.graph.add_concat(layer.name, ends)
        out_shape = self.graph.node(out).output_shape
        return out, out_shape, np.concatenate(end_scales)


def convert_ann_to_graph(model: Sequential, calibration: np.ndarray,
                         config: Optional[ConversionConfig] = None,
                         name: Optional[str] = None):
    """Convert a trained ANN into an abstract SNN layer graph.

    Supports ``Dense``, ``Conv2D``, ``AvgPool2D``, ``Flatten``, ``ReLU``
    and ``ResidualBlock`` layers (parameterised layers must have zero
    biases) and arbitrary DAG topologies built with
    :class:`~repro.nn.model.Branches` (addition merges of any span,
    channel concatenations, nested freely).  ``calibration`` is a batch of
    representative inputs used to profile activations for weight
    normalisation; ``config`` defaults to the paper's operating point
    (5-bit weights).  Returns a
    :class:`~repro.ir.graph.LayerGraph` ready for
    :func:`repro.ir.compile` and :class:`repro.ir.GraphSnnRunner`.
    """
    from ..ir.graph import GRAPH_INPUT, LayerGraph

    config = config or ConversionConfig()
    calibration = _prepare_calibration(model, calibration, config)
    activations = _capture_activations(model, calibration)
    input_scale = _activation_scale(calibration, config.percentile)

    graph = LayerGraph(
        name or f"{model.name}-snn",
        model.input_shape,
        timesteps=config.timesteps,
        metadata={
            "weight_bits": config.weight_bits,
            "percentile": config.percentile,
            "source_model": model.name,
        },
    )
    converter = _GraphConverter(graph, activations, config)
    shape = tuple(model.input_shape)
    if len(shape) == 3:
        scales = np.full(shape[2], input_scale)
    else:
        scales = np.full(int(np.prod(shape)), input_scale)
    node, _, _ = converter.convert_sequence(model.layers, GRAPH_INPUT,
                                            shape, scales)
    graph.output = node
    graph.validate()
    return graph
