"""SNN substrate: conversion, encoding, IF dynamics and layer specifications.

This package turns trained ANNs into abstract spiking networks (integer
weights, integer thresholds, binary spikes) held as a
:class:`~repro.ir.graph.LayerGraph`, which :class:`repro.ir.GraphSnnRunner`
simulates exactly as the hardware does — which is what makes the paper's
"no accuracy loss from mapping" claim checkable bit for bit.
"""

from .conversion import ConversionConfig, ConversionError, convert_ann_to_graph
from .encoding import (
    EncodingError,
    deterministic_encode,
    encode,
    flatten_images,
    poisson_encode,
    spike_rates,
)
from .neurons import BatchedIfState, IfNeuronArray, NeuronError
from .runner import RunnerError, SnnRunResult
from .spec import ConvSpec, DenseSpec, LayerSpec, SpecError, pool_spec

__all__ = [
    "BatchedIfState",
    "ConversionConfig",
    "ConversionError",
    "ConvSpec",
    "DenseSpec",
    "EncodingError",
    "IfNeuronArray",
    "LayerSpec",
    "NeuronError",
    "RunnerError",
    "SnnRunResult",
    "SpecError",
    "convert_ann_to_graph",
    "deterministic_encode",
    "encode",
    "flatten_images",
    "pool_spec",
    "poisson_encode",
    "spike_rates",
]
