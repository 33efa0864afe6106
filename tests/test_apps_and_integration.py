"""Tests for the Table III network builders and the end-to-end pipeline."""

import numpy as np
import pytest

from repro.apps.networks import (
    TABLE_III_BUILDERS,
    build_cifar_cnn,
    build_cifar_cnn_small,
    build_cifar_resnet,
    build_cifar_resnet_small,
    build_mnist_cnn,
    build_mnist_cnn_small,
    build_mnist_mlp,
    build_mnist_mlp_small,
)
from repro.apps.pipeline import (
    ExperimentConfig,
    PipelineError,
    format_table,
    load_dataset,
    run_experiment,
)
from repro.core.config import DEFAULT_ARCH, small_test_arch


class TestTableIIIStructures:
    def test_mnist_mlp_matches_table(self):
        model = build_mnist_mlp()
        shapes = dict(model.layer_shapes())
        assert shapes["fc1"] == (512,)
        assert shapes["fc2"] == (10,)
        assert model.input_shape == (28, 28, 1)

    def test_mnist_cnn_matches_table(self):
        model = build_mnist_cnn()
        shapes = dict(model.layer_shapes())
        assert shapes["conv1"] == (28, 28, 16)
        assert shapes["pool1"] == (14, 14, 16)
        assert shapes["conv2"] == (14, 14, 32)
        assert shapes["pool2"] == (7, 7, 32)
        assert shapes["fc1"] == (128,)
        assert shapes["fc2"] == (10,)

    def test_cifar_cnn_matches_table(self):
        model = build_cifar_cnn()
        shapes = dict(model.layer_shapes())
        assert shapes["conv1"] == (24, 24, 16)
        assert shapes["conv2"] == (12, 12, 32)
        assert shapes["conv3"] == (6, 6, 64)
        assert shapes["pool3"] == (3, 3, 64)
        assert shapes["fc1"] == (256,)
        assert shapes["fc3"] == (10,)

    def test_cifar_resnet_matches_table(self):
        model = build_cifar_resnet()
        shapes = dict(model.layer_shapes())
        assert shapes["res_conv1"] == (12, 12, 32)
        assert shapes["res_block"] == (12, 12, 32)
        assert shapes["conv3"] == (6, 6, 64)
        assert shapes["fc3"] == (10,)

    def test_resnet_body_fires_between_its_convs(self):
        """The SNN fires at ``res_conv2``, so the ANN must apply its ReLU."""
        from repro.nn.layers import Conv2D, ReLU
        from repro.nn.model import ResidualBlock

        for builder in (build_cifar_resnet, build_cifar_resnet_small):
            block = next(layer for layer in builder().layers
                         if isinstance(layer, ResidualBlock))
            assert [type(layer) for layer in block.body] == [Conv2D, ReLU, Conv2D]
            assert [layer.name for layer in block.body] == \
                ["res_conv2", "res_relu", "res_conv3"]

    def test_all_builders_have_no_biases(self):
        for builder in TABLE_III_BUILDERS.values():
            model = builder()
            for name, value in model.parameters().items():
                if name.endswith("/bias"):
                    assert not np.any(value)

    def test_small_variants_keep_structure(self):
        for small, full in [
            (build_mnist_mlp_small(), build_mnist_mlp()),
            (build_mnist_cnn_small(), build_mnist_cnn()),
            (build_cifar_cnn_small(), build_cifar_cnn()),
            (build_cifar_resnet_small(), build_cifar_resnet()),
        ]:
            assert small.input_shape == full.input_shape
            assert small.output_shape() == full.output_shape() or small.output_shape() == (10,)
            assert small.parameter_count() < full.parameter_count()

    def test_builders_forward_pass(self):
        model = build_mnist_cnn_small()
        out = model.forward(np.random.default_rng(0).random((2, 28, 28, 1)))
        assert out.shape == (2, 10)
        model = build_cifar_resnet_small()
        out = model.forward(np.random.default_rng(0).random((2, 24, 24, 3)))
        assert out.shape == (2, 10)


class TestPipelineConfig:
    def test_rejects_unknown_dataset(self):
        with pytest.raises(PipelineError):
            ExperimentConfig(name="x", model_builder=build_mnist_mlp_small, dataset="imagenet")

    def test_rejects_bad_sizes(self):
        with pytest.raises(PipelineError):
            ExperimentConfig(name="x", model_builder=build_mnist_mlp_small, timesteps=0)
        with pytest.raises(PipelineError):
            ExperimentConfig(name="x", model_builder=build_mnist_mlp_small, train_size=0)

    def test_load_dataset_dispatch(self):
        assert load_dataset("mnist", 5, 5, 0).image_shape == (28, 28, 1)
        assert load_dataset("cifar", 5, 5, 0).image_shape == (24, 24, 3)
        with pytest.raises(PipelineError):
            load_dataset("svhn", 5, 5, 0)

    def test_format_table_renders_all_rows(self):
        text = format_table({"a": {"Power (mW)": 1.0}, "b": {"Power (mW)": 2.0}})
        assert "Power (mW)" in text and "a" in text and "b" in text


class TestEndToEndPipeline:
    """Slow-ish integration tests covering the whole toolchain."""

    def test_mlp_experiment_with_hardware_simulation(self):
        config = ExperimentConfig(
            name="mlp-e2e", model_builder=lambda: build_mnist_mlp_small(hidden=32),
            dataset="mnist", timesteps=10, target_fps=40,
            train_epochs=3, train_size=300, test_size=60,
            hardware_frames=5, seed=1,
        )
        result = run_experiment(config)
        # hardware simulation reproduces the abstract SNN exactly
        assert result.hardware_matches_abstract is True
        # the model learned something and conversion keeps most of it
        assert result.ann_accuracy > 0.5
        assert result.snn_accuracy > result.ann_accuracy - 0.3
        assert result.cores >= 3
        assert result.power.total_power_w > 0
        assert result.mapping_time_ms > 0
        row = result.table_iv_row()
        assert set(row) >= {"ANN Accu.", "Abstract SNN Accu.", "Shenjing Accu.",
                            "#Cores", "Power (mW)", "mJ/frame"}

    def test_cnn_experiment_estimator_path(self):
        config = ExperimentConfig(
            name="cnn-e2e", model_builder=build_mnist_cnn_small,
            dataset="mnist", timesteps=8, target_fps=30,
            train_epochs=1, train_size=120, test_size=40,
            hardware_frames=0, seed=0, optimizer="adam", learning_rate=1e-3,
        )
        result = run_experiment(config)
        assert result.shenjing_accuracy == pytest.approx(result.snn_accuracy)
        assert result.cores > 10
        assert result.power.frequency_hz > 0

    def test_dag_experiment_with_noc_optimization(self):
        """The Table IV flow on a Branches (DAG) model, NoC passes enabled.

        Exercises ``run_experiment`` end to end on a branching model:
        convert_ann_to_graph + GraphSnnRunner for the abstract run,
        the repro.opt pipeline for the mapping, and a cycle-verified
        hardware simulation that must match the graph runner bit-exactly.
        """
        from repro.apps.networks import build_mnist_inception_small

        config = ExperimentConfig(
            name="dag-e2e", model_builder=build_mnist_inception_small,
            dataset="mnist", timesteps=6, target_fps=30,
            train_epochs=1, train_size=64, test_size=16,
            hardware_frames=3, backend="vectorized", optimize_noc=True,
            seed=0,
        )
        result = run_experiment(config)
        assert result.hardware_matches_abstract is True
        assert result.metadata["optimize_noc"] is True
        # compiled mappings price cycles from the packed waves (repro.timing)
        assert result.metadata["timing_source"] == "waves"
        noc = result.metadata["noc"]
        assert noc is not None and noc["wave_depth"] > 0
        row = result.table_iv_row()
        assert row["Shenjing Accu."] is not None

    def test_dag_experiment_estimator_path(self):
        """DAG models also take the estimator-only path (no simulation)."""
        from repro.apps.networks import build_cifar_strided_small

        config = ExperimentConfig(
            name="dag-est", model_builder=build_cifar_strided_small,
            dataset="cifar", timesteps=5, target_fps=30,
            train_epochs=1, train_size=48, test_size=12,
            hardware_frames=0, optimize_noc=True, seed=0,
        )
        result = run_experiment(config)
        assert result.shenjing_accuracy == pytest.approx(result.snn_accuracy)
        assert result.cores > 10
        # even without a program, the optimize_noc estimator path routes the
        # optimized mapping weightless so cycles come from the wave schedule
        assert result.metadata["timing_source"] == "waves"

    def test_mlp_full_size_core_count_matches_paper(self):
        """The full 784-512-10 MLP maps onto exactly 10 cores (Fig. 1 / Table IV)."""
        from repro.mapping.estimator import estimate_mapping
        from repro.snn.conversion import ConversionConfig, convert_ann_to_graph
        from repro.datasets import synthetic_mnist

        data = synthetic_mnist(train_size=16, test_size=4, seed=0)
        graph = convert_ann_to_graph(build_mnist_mlp(), data.train_images,
                                     ConversionConfig(timesteps=20))
        estimate = estimate_mapping(graph, DEFAULT_ARCH)
        assert estimate.total_cores == 10
        assert estimate.chips == 1
