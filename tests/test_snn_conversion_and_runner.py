"""Tests for ANN-to-SNN conversion and the abstract SNN runner."""

import numpy as np
import pytest

from repro.nn.layers import AvgPool2D, Conv2D, Dense, Flatten, ReLU
from repro.nn.model import ResidualBlock, Sequential
from repro.nn.training import SGD, Trainer
from repro.ir import GraphSnnRunner
from repro.snn.conversion import ConversionConfig, ConversionError, convert_ann_to_graph
from repro.snn.runner import RunnerError
from repro.snn.spec import DenseSpec


def _mlp(seed=0, hidden=16, inputs=20, outputs=4):
    rng = np.random.default_rng(seed)
    return Sequential([
        Dense(inputs, hidden, bias=False, rng=rng, name="fc1"),
        ReLU(name="relu1"),
        Dense(hidden, outputs, bias=False, rng=rng, name="fc2"),
    ], input_shape=(inputs,), name="mlp")


def _cnn(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([
        Conv2D(1, 3, 3, padding="same", bias=False, rng=rng, name="conv1"),
        ReLU(name="relu1"),
        AvgPool2D(2, name="pool1"),
        Flatten(name="flat"),
        Dense(3 * 16, 5, bias=False, rng=rng, name="fc"),
    ], input_shape=(8, 8, 1), name="cnn")


def _resnet(seed=0):
    rng = np.random.default_rng(seed)
    body = [Conv2D(3, 3, 3, padding="same", bias=False, rng=rng, name="rc1"),
            Conv2D(3, 3, 3, padding="same", bias=False, rng=rng, name="rc2")]
    return Sequential([
        Conv2D(1, 3, 3, padding="same", bias=False, rng=rng, name="conv1"),
        ReLU(name="relu1"),
        ResidualBlock(body, name="block"),
        AvgPool2D(2, name="pool"),
        Flatten(name="flat"),
        Dense(3 * 16, 4, bias=False, rng=rng, name="fc"),
    ], input_shape=(8, 8, 1), name="resnet")


class TestConversionStructure:
    def test_mlp_converts_to_dense_specs(self, rng):
        model = _mlp()
        calibration = rng.random((32, 20))
        graph = convert_ann_to_graph(model, calibration, ConversionConfig(timesteps=10))
        nodes = graph.fire_nodes()
        assert len(nodes) == len(graph.nodes) - 1 == 2
        assert all(isinstance(node.specs[0], DenseSpec) for node in nodes)
        assert graph.timesteps == 10
        assert graph.output_size == 4

    def test_cnn_converts_with_pool_as_conv(self, rng):
        model = _cnn()
        calibration = rng.random((16, 8, 8, 1))
        graph = convert_ann_to_graph(model, calibration)
        specs = [node.specs[0] for node in graph.fire_nodes()]
        kinds = [type(spec).__name__ for spec in specs]
        assert kinds == ["ConvSpec", "ConvSpec", "DenseSpec"]
        pool = specs[1]
        assert pool.stride == pool.kernel == 2

    def test_resnet_converts_with_shortcut(self, rng):
        model = _resnet()
        calibration = rng.random((16, 8, 8, 1))
        graph = convert_ann_to_graph(model, calibration)
        joins = [node for node in graph.fire_nodes() if node.is_join]
        assert len(joins) == 1
        join = joins[0]
        # one add-join named after the block: the body's last conv reads the
        # body, the synthesised shortcut reads the block's input
        assert join.name == "block"
        assert [spec.name for spec in join.specs] == ["rc2", "block.shortcut"]
        assert join.inputs == ("rc1", "conv1")
        body, shortcut = join.specs
        assert shortcut.kernel == 1
        # shortcut and block output layer share the same integer scale
        assert shortcut.scale == pytest.approx(body.scale)

    def test_weights_respect_bit_range(self, rng):
        model = _mlp(seed=3)
        graph = convert_ann_to_graph(model, rng.random((32, 20)),
                                     ConversionConfig(weight_bits=5))
        for node in graph.fire_nodes():
            for spec in node.specs:
                assert np.abs(spec.weights).max() <= 15

    def test_thresholds_positive(self, rng):
        graph = convert_ann_to_graph(_mlp(), rng.random((32, 20)))
        for node in graph.fire_nodes():
            assert node.threshold >= 1

    def test_rejects_nonzero_biases(self, rng):
        model = Sequential([Dense(4, 2, bias=True, name="fc")], input_shape=(4,))
        model.parameters()["fc/bias"][:] = 1.0
        with pytest.raises(ConversionError):
            convert_ann_to_graph(model, rng.random((8, 4)))

    def test_rejects_wrong_calibration_shape(self, rng):
        with pytest.raises(ConversionError):
            convert_ann_to_graph(_mlp(), rng.random((8, 21)))

    def test_config_validation(self):
        with pytest.raises(ConversionError):
            ConversionConfig(weight_bits=1)
        with pytest.raises(ConversionError):
            ConversionConfig(timesteps=0)
        with pytest.raises(ConversionError):
            ConversionConfig(percentile=0.0)


class TestRunner:
    def test_runner_rejects_bad_input_size(self, rng):
        graph = convert_ann_to_graph(_mlp(), rng.random((16, 20)))
        runner = GraphSnnRunner(graph)
        with pytest.raises(RunnerError):
            runner.run(rng.random((2, 21)))

    def test_spike_counts_bounded_by_timesteps(self, rng):
        graph = convert_ann_to_graph(_mlp(), rng.random((16, 20)))
        runner = GraphSnnRunner(graph)
        result = runner.run(rng.random((3, 20)), timesteps=12)
        assert result.spike_counts.max() <= 12
        assert result.spike_counts.min() >= 0

    def test_layer_activity_reported(self, rng):
        graph = convert_ann_to_graph(_resnet(), rng.random((8, 8, 8, 1)))
        runner = GraphSnnRunner(graph)
        result = runner.run(rng.random((3, 8, 8, 1)), timesteps=10)
        # one entry per fire node (the residual body's inner conv included)
        # plus the input
        expected = {node.name for node in graph.fire_nodes()} | {"input"}
        assert set(result.layer_activity) == expected
        assert 0.0 <= result.mean_activity <= 1.0

    def test_output_trains_shape(self, rng):
        graph = convert_ann_to_graph(_mlp(), rng.random((16, 20)))
        runner = GraphSnnRunner(graph)
        result = runner.run(rng.random((2, 20)), timesteps=7, return_output_trains=True)
        assert result.output_spike_trains.shape == (2, 7, 4)
        np.testing.assert_array_equal(
            result.output_spike_trains.sum(axis=1), result.spike_counts)

    def test_residual_runner_executes(self, rng):
        graph = convert_ann_to_graph(_resnet(), rng.random((8, 8, 8, 1)))
        runner = GraphSnnRunner(graph)
        result = runner.run(rng.random((2, 8, 8, 1)), timesteps=6)
        assert result.spike_counts.shape == (2, 4)


class TestRateCodingFidelity:
    def test_snn_rates_track_ann_activations_single_layer(self, rng):
        """With enough time steps, spike rates approximate the ReLU output."""
        weights = rng.normal(scale=0.4, size=(10, 6))
        model = Sequential([Dense(10, 6, bias=False, name="fc"), ReLU(name="r")],
                           input_shape=(10,))
        model.parameters()["fc/weight"][:] = weights
        calibration = rng.random((64, 10))
        graph = convert_ann_to_graph(model, calibration,
                                     ConversionConfig(weight_bits=8, timesteps=64))
        runner = GraphSnnRunner(graph)
        x = rng.random((8, 10))
        result = runner.run(x, timesteps=64)
        rates = result.spike_counts / 64.0
        ann = np.maximum(x @ weights, 0.0)
        # normalise both to their maxima and compare orderings per sample
        for row in range(8):
            if ann[row].max() > 0:
                assert np.argmax(rates[row]) == np.argmax(ann[row])

    def test_trained_snn_keeps_most_of_ann_accuracy(self, rng):
        """Conversion of a trained classifier loses only a few points."""
        features, classes = 16, 4
        centers = rng.normal(scale=2.0, size=(classes, features))
        labels = rng.integers(0, classes, size=400)
        data = np.clip(np.abs(centers[labels] + rng.normal(scale=0.4, size=(400, features))) / 6, 0, 1)
        model = Sequential([
            Dense(features, 32, bias=False, rng=rng, name="fc1"), ReLU(name="r1"),
            Dense(32, classes, bias=False, rng=rng, name="fc2"),
        ], input_shape=(features,))
        Trainer(model, SGD(0.1), batch_size=32, seed=0).fit(data[:300], labels[:300], epochs=15)
        ann_acc = model.accuracy(data[300:], labels[300:])
        graph = convert_ann_to_graph(model, data[:128], ConversionConfig(timesteps=32))
        snn_acc = GraphSnnRunner(graph).accuracy(data[300:], labels[300:], timesteps=32)
        assert ann_acc > 0.8
        assert snn_acc >= ann_acc - 0.15
