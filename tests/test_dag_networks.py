"""End-to-end tests for the DAG benchmark workloads.

The acceptance property of the layer-graph compiler: the inception-lite
MNIST net (two-branch channel concat) and the multi-skip CIFAR net (nested
addition joins) convert, compile through the pass pipeline, and run
bit-exactly — abstract graph runner == hardware, and
reference/vectorized/sharded agree on counts, predictions *and statistics*.
"""

import numpy as np
import pytest

from repro.apps.networks import (
    ALL_BUILDERS,
    build_cifar_multiskip,
    build_cifar_multiskip_small,
    build_mnist_inception,
    build_mnist_inception_small,
)
from repro.core.config import DEFAULT_ARCH
from repro.engine import assert_backend_parity, run as engine_run
from repro.ir import GraphSnnRunner, compile as ir_compile
from repro.nn.layers import LayerError
from repro.nn.model import Branches, Sequential
from repro.nn.training import SGD, Trainer
from repro.snn.conversion import ConversionConfig, convert_ann_to_graph
from repro.snn.encoding import deterministic_encode


def _convert_small(builder, rng, timesteps=6):
    model = builder()
    calibration = rng.random((8,) + model.input_shape)
    config = ConversionConfig(timesteps=timesteps, max_calibration_samples=8)
    return model, convert_ann_to_graph(model, calibration, config)


class TestBranchesLayer:
    def test_concat_forward_shape(self, rng):
        model = build_mnist_inception_small()
        out = model.forward(rng.random((2, 28, 28, 1)))
        assert out.shape == (2, 10)

    def test_add_forward_shape(self, rng):
        model = build_cifar_multiskip_small()
        out = model.forward(rng.random((2, 24, 24, 3)))
        assert out.shape == (2, 10)

    def test_needs_two_branches(self):
        with pytest.raises(LayerError, match="at least two"):
            Branches([[]], merge="add")

    def test_unknown_merge_rejected(self):
        with pytest.raises(LayerError, match="unknown merge"):
            Branches([[], []], merge="average")

    def test_all_layers_descends_into_branches(self):
        model = build_cifar_multiskip_small()
        names = [layer.name for layer in model.all_layers()]
        # the nested inner join's convs are reachable for training/optimisers
        assert "ms_c2" in names and "ms_c3" in names and "ms_c4" in names
        assert len(model.parameters()) >= 7

    def test_training_updates_branch_parameters(self, rng):
        model = build_mnist_inception_small()
        images = rng.random((12, 28, 28, 1))
        labels = rng.integers(0, 10, size=12)
        before = {k: v.copy() for k, v in model.parameters().items()}
        trainer = Trainer(model, optimizer=SGD(learning_rate=0.05),
                          batch_size=6, seed=0)
        trainer.fit(images, labels, epochs=1)
        after = model.parameters()
        changed = [k for k in before if not np.array_equal(before[k], after[k])]
        assert any(k.startswith("inc_b3") for k in changed)
        assert any(k.startswith("inc_b5") for k in changed)


class TestDagConversion:
    def test_inception_converts_to_concat_graph(self, rng):
        _, graph = _convert_small(build_mnist_inception_small, rng)
        concats = [n for n in graph.topological() if n.kind == "concat"]
        assert len(concats) == 1
        assert concats[0].inputs == ("inc_b3", "inc_b5")
        assert graph.output_size == 10

    def test_multiskip_converts_to_nested_joins(self, rng):
        _, graph = _convert_small(build_cifar_multiskip_small, rng)
        joins = [n for n in graph.fire_nodes() if n.is_join]
        assert {n.name for n in joins} == {"ms_inner", "ms_outer"}
        inner, outer = (graph.node("ms_inner"), graph.node("ms_outer"))
        # identity branches synthesise diag(lambda) shortcut contributions
        assert any(spec.name.endswith(".shortcut") for spec in inner.specs)
        assert any(spec.name.endswith(".shortcut") for spec in outer.specs)
        # contributions of one join share a quantisation scale
        for join in (inner, outer):
            assert len({spec.scale for spec in join.specs}) == 1

    def test_all_builders_convert_through_graph_path(self, rng):
        """Every builder — Table III and DAG — takes the graph route."""
        for name, builder in ALL_BUILDERS.items():
            if not name.endswith("-small"):
                continue
            model = builder()
            calibration = rng.random((2,) + model.input_shape)
            graph = convert_ann_to_graph(
                model, calibration,
                ConversionConfig(timesteps=4, max_calibration_samples=2))
            graph.validate()
            assert graph.output_size == 10, name


class TestDagAcceptance:
    """Both new DAG networks: compile, place, run bit-exact on all backends."""

    @pytest.mark.parametrize("builder", [build_mnist_inception_small,
                                         build_cifar_multiskip_small])
    def test_lossless_and_three_way_parity(self, builder, rng):
        model, graph = _convert_small(builder, rng)
        compiled = ir_compile(graph, DEFAULT_ARCH, validate=True)
        assert compiled.core_count > 50  # genuinely multi-core mappings
        trains = deterministic_encode(
            rng.random((2, graph.input_size)), graph.timesteps)
        abstract = GraphSnnRunner(graph).run_spike_trains(trains)
        hardware = engine_run(compiled.program, trains, backend="vectorized")
        np.testing.assert_array_equal(abstract.spike_counts,
                                      hardware.spike_counts)
        report = assert_backend_parity(
            compiled.program, trains,
            backends=("reference", "vectorized", "sharded"))
        assert set(report.results) == {"reference", "vectorized", "sharded"}


@pytest.mark.slow
class TestDagFullSize:
    """Full-size DAG builders compile and estimate (no cycle simulation)."""

    @pytest.mark.parametrize("builder", [build_mnist_inception,
                                         build_cifar_multiskip])
    def test_full_size_compiles_structurally(self, builder, rng):
        from repro.mapping import estimate_mapping

        model = builder()
        calibration = rng.random((2,) + model.input_shape)
        graph = convert_ann_to_graph(
            model, calibration,
            ConversionConfig(timesteps=8, max_calibration_samples=2))
        estimate = estimate_mapping(graph, DEFAULT_ARCH)
        assert estimate.total_cores > 500
        assert estimate.cycles_per_timestep > 0
