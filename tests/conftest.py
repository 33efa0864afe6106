"""Shared fixtures for the test suite.

All hardware-level tests run on a deliberately tiny architecture (16x16
cores, small fabrics) so that cycle-accurate simulation stays fast while
exercising exactly the same code paths as the paper's 256x256 cores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ArchitectureConfig, small_test_arch
from repro.ir import LayerGraph
from repro.snn.spec import ConvSpec, DenseSpec, pool_spec


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def arch() -> ArchitectureConfig:
    """Tiny architecture: 16-synapse / 16-neuron cores on an 8x8 chip."""
    return small_test_arch(core_inputs=16, core_neurons=16, chip_rows=8, chip_cols=8)


@pytest.fixture
def conv_arch() -> ArchitectureConfig:
    """Architecture large enough for 3x3 kernels (36 synapses per core)."""
    return small_test_arch(core_inputs=36, core_neurons=16, chip_rows=8, chip_cols=8)


@pytest.fixture
def dense_snn(rng) -> LayerGraph:
    """A two-layer dense SNN chain that spans several 16x16 cores."""
    w1 = rng.integers(-7, 8, size=(40, 24))
    w2 = rng.integers(-7, 8, size=(24, 5))
    return LayerGraph.chain("toy-dense", (40,), [
        DenseSpec(name="fc1", weights=w1, threshold=25),
        DenseSpec(name="fc2", weights=w2, threshold=20),
    ], timesteps=8)


@pytest.fixture
def conv_snn(rng) -> LayerGraph:
    """A small conv + pool + residual + dense SNN for equivalence tests.

    The residual block is ``res1 -> res2`` with a 1x1 shortcut from
    ``pool1``: ``res2`` is an add-join of the body's last conv and the
    shortcut, so its partial sums meet on the PS NoC.
    """
    h, w, cin = 8, 8, 2
    conv1 = ConvSpec(name="conv1", weights=rng.integers(-2, 4, size=(3, 3, cin, 4)),
                     threshold=10, input_shape=(h, w, cin), stride=1, pad=1)
    pool1 = pool_spec("pool1", channels=4, pool=2, input_shape=conv1.output_shape)
    body1 = ConvSpec(name="res1", weights=rng.integers(-2, 3, size=(3, 3, 4, 4)),
                     threshold=8, input_shape=pool1.output_shape, stride=1, pad=1)
    body2 = ConvSpec(name="res2", weights=rng.integers(-2, 3, size=(3, 3, 4, 4)),
                     threshold=8, input_shape=body1.output_shape, stride=1, pad=1)
    shortcut = ConvSpec(
        name="shortcut",
        weights=(np.eye(4, dtype=np.int64) * 2).reshape(1, 1, 4, 4),
        threshold=1, input_shape=pool1.output_shape, stride=1, pad=0,
    )
    fc = DenseSpec(name="fc", weights=rng.integers(-3, 4, size=(body2.out_size, 5)),
                   threshold=35)
    graph = LayerGraph("toy-conv", (h, w, cin), timesteps=6)
    graph.add_layer(conv1)
    graph.add_layer(pool1, input="conv1")
    graph.add_layer(body1, input="pool1")
    graph.add_join("res2", [(body2, "res1"), (shortcut, "pool1")])
    graph.add_layer(fc, input="res2")
    return graph


@pytest.fixture
def dense_inputs(rng, dense_snn) -> np.ndarray:
    return rng.random((5, dense_snn.input_size)) * 0.9


@pytest.fixture
def conv_inputs(rng, conv_snn) -> np.ndarray:
    return rng.random((4, conv_snn.input_size)) * 0.8
