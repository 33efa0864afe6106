"""Tests for the layer-graph IR: construction, validation, conversion."""

import numpy as np
import pytest

from repro.ir import GRAPH_INPUT, GraphError, LayerGraph, compile as ir_compile
from repro.nn.layers import Conv2D, ReLU
from repro.nn.model import ResidualBlock, Sequential
from repro.snn.conversion import convert_ann_to_graph
from repro.snn.spec import ConvSpec, DenseSpec


def _dense(rng, name, n_in, n_out, threshold=10):
    return DenseSpec(name=name, weights=rng.integers(-4, 5, size=(n_in, n_out)),
                     threshold=threshold)


def _conv(rng, name, shape, cout, k=3, pad=1, threshold=8):
    return ConvSpec(name=name,
                    weights=rng.integers(-2, 3, size=(k, k, shape[2], cout)),
                    threshold=threshold, input_shape=shape, stride=1, pad=pad)


class TestGraphConstruction:
    def test_linear_chain(self, rng):
        graph = LayerGraph("toy", (12,), timesteps=4)
        a = graph.add_layer(_dense(rng, "a", 12, 8))
        b = graph.add_layer(_dense(rng, "b", 8, 4), input=a)
        graph.validate()
        assert graph.output == b
        assert graph.output_size == 4
        assert [node.name for node in graph.topological()] == [GRAPH_INPUT, "a", "b"]

    def test_duplicate_names_rejected(self, rng):
        graph = LayerGraph("toy", (12,))
        graph.add_layer(_dense(rng, "a", 12, 8))
        with pytest.raises(GraphError, match="duplicate"):
            graph.add_layer(_dense(rng, "a", 8, 4), input="a")

    def test_unknown_input_rejected(self, rng):
        graph = LayerGraph("toy", (12,))
        with pytest.raises(GraphError, match="no node named"):
            graph.add_layer(_dense(rng, "a", 12, 8), input="ghost")

    def test_size_mismatch_rejected(self, rng):
        graph = LayerGraph("toy", (12,))
        with pytest.raises(GraphError, match="expects"):
            graph.add_layer(_dense(rng, "a", 10, 8))

    def test_join_shape_mismatch_rejected(self, rng):
        graph = LayerGraph("toy", (12,))
        with pytest.raises(GraphError, match="differ"):
            graph.add_join("j", [
                (_dense(rng, "a", 12, 8), GRAPH_INPUT),
                (_dense(rng, "b", 12, 6), GRAPH_INPUT),
            ])

    def test_join_threshold_is_primary_contribution(self, rng):
        graph = LayerGraph("toy", (12,))
        join = graph.add_join("j", [
            (_dense(rng, "a", 12, 8, threshold=7), GRAPH_INPUT),
            (_dense(rng, "b", 12, 8, threshold=3), GRAPH_INPUT),
        ])
        assert graph.node(join).threshold == 7

    def test_concat_needs_two_inputs(self, rng):
        graph = LayerGraph("toy", (12,))
        a = graph.add_layer(_dense(rng, "a", 12, 8))
        with pytest.raises(GraphError, match="at least two"):
            graph.add_concat("cat", [a])

    def test_concat_of_external_input_rejected(self, rng):
        graph = LayerGraph("toy", (12,))
        a = graph.add_layer(_dense(rng, "a", 12, 8))
        with pytest.raises(GraphError, match="external input"):
            graph.add_concat("cat", [a, GRAPH_INPUT])

    def test_cycle_detected_by_validate(self, rng):
        graph = LayerGraph("toy", (12,))
        a = graph.add_layer(_dense(rng, "a", 12, 12))
        b = graph.add_layer(_dense(rng, "b", 12, 12), input=a)
        # tamper: make a read from b, creating a 2-cycle
        graph.nodes[a].inputs = (b,)
        with pytest.raises(GraphError, match="cycle"):
            graph.validate()

    def test_describe_lists_nodes(self, rng):
        graph = LayerGraph("toy", (12,))
        graph.add_layer(_dense(rng, "a", 12, 8))
        text = graph.describe()
        assert "a" in text and "DenseSpec" in text


class TestConcatParts:
    def test_flat_concat_parts_are_contiguous(self, rng):
        graph = LayerGraph("toy", (12,))
        a = graph.add_layer(_dense(rng, "a", 12, 5))
        b = graph.add_layer(_dense(rng, "b", 12, 7))
        cat = graph.add_concat("cat", [a, b])
        parts = dict(graph.concat_parts(cat))
        np.testing.assert_array_equal(parts["a"], np.arange(5))
        np.testing.assert_array_equal(parts["b"], np.arange(5, 12))

    def test_channel_concat_interleaves_hwc(self, rng):
        shape = (3, 3, 2)
        graph = LayerGraph("toy", shape)
        a = graph.add_layer(_conv(rng, "a", shape, cout=2))
        b = graph.add_layer(_conv(rng, "b", shape, cout=1))
        cat = graph.add_concat("cat", [a, b])
        node = graph.node(cat)
        assert node.output_shape == (3, 3, 3)
        parts = dict(graph.concat_parts(cat))
        # scatter both producers' row-major HWC vectors and check layout
        out = np.zeros(node.out_size, dtype=np.int64)
        out[parts["a"]] = np.arange(100, 100 + 18)  # 3*3*2 elements
        out[parts["b"]] = np.arange(200, 200 + 9)
        grid = out.reshape(3, 3, 3)
        a_grid = np.arange(100, 118).reshape(3, 3, 2)
        b_grid = np.arange(200, 209).reshape(3, 3, 1)
        np.testing.assert_array_equal(grid[:, :, :2], a_grid)
        np.testing.assert_array_equal(grid[:, :, 2:], b_grid)


class TestGraphFromSnn:
    """Graphs built from SNN layer specs: chains, and residual blocks that
    the converter expands into add-joins."""

    def test_dense_network_stays_linear(self, rng):
        specs = [_dense(rng, "a", 12, 8), _dense(rng, "b", 8, 4)]
        graph = LayerGraph.chain("toy", (12,), specs, timesteps=5)
        kinds = [node.kind for node in graph.topological()]
        assert kinds == ["input", "fire", "fire"]
        assert [node.inputs for node in graph.fire_nodes()] == \
            [(GRAPH_INPUT,), ("a",)]
        assert graph.output == "b"
        assert graph.output_size == 4
        assert graph.timesteps == 5

    def test_residual_block_expands_to_add_join(self, rng):
        """A projection-shortcut block: the body's fire nodes, then one
        add-join of the body's last conv and the projection."""
        layers_rng = np.random.default_rng(0)
        body = [Conv2D(2, 3, 3, padding="same", bias=False, rng=layers_rng,
                       name="rc1"),
                ReLU(name="rr"),
                Conv2D(3, 3, 3, padding="same", bias=False, rng=layers_rng,
                       name="rc2")]
        projection = Conv2D(2, 3, 1, bias=False, rng=layers_rng, name="proj")
        model = Sequential([
            Conv2D(1, 2, 3, padding="same", bias=False, rng=layers_rng,
                   name="conv1"),
            ReLU(name="r1"),
            ResidualBlock(body, projection=projection, name="block"),
        ], input_shape=(6, 6, 1), name="proj-resnet")
        graph = convert_ann_to_graph(model, rng.random((8, 6, 6, 1)))
        assert [node.name for node in graph.fire_nodes()] == \
            ["conv1", "rc1", "block"]
        join = graph.node("block")
        # the body's last conv reads the body; the projection reads the
        # block's input layer
        assert join.inputs == ("rc1", "conv1")
        assert [spec.name for spec in join.specs] == ["rc2", "proj"]
        assert join.specs[1].kernel == 1
        assert len({spec.scale for spec in join.specs}) == 1
        assert graph.output == "block"

    def test_graph_build_passes_graphs_through(self, arch, dense_snn):
        compiled = ir_compile(dense_snn, arch, pipeline=["graph-build"])
        assert compiled.graph is dense_snn
        with pytest.raises(GraphError, match="cannot compile a int"):
            ir_compile(42, arch, pipeline=["graph-build"])
