"""Tests for the compile function.

Covers the step trace of both pipelines (default and ``optimize_noc``),
``materialize=False``, the per-step invariant checks, and end-to-end DAG
compilation — concat joins whose consumer cores read *several* producer
layers, and dense add-joins — with bit-exact three-way backend parity.
"""

import inspect

import numpy as np
import pytest

from repro.apps.networks import seeded_benchmark_graph
from repro.core.config import DEFAULT_ARCH
from repro.engine import assert_backend_parity, run as engine_run
from repro.ir import GraphSnnRunner, LayerGraph, compile as ir_compile
from repro.ir.pipeline import build_routes, check_placement, logical_map
from repro.mapping import MappingError, verify_waves
from repro.snn.encoding import deterministic_encode
from repro.snn.spec import DenseSpec

from frame_split import forced_split


def _dense(rng, name, n_in, n_out, threshold=12):
    return DenseSpec(name=name, weights=rng.integers(-5, 6, size=(n_in, n_out)),
                     threshold=threshold)


@pytest.fixture
def dag_graph(rng) -> LayerGraph:
    """Two dense branches -> concat -> dense head, plus a skip add-join.

    The head's cores read axons from *both* branches through the concat
    virtual source, and the final join adds a skip contribution straight
    from branch A — together covering every DAG mechanism.
    """
    graph = LayerGraph("dag-fixture", (20,), timesteps=8)
    a = graph.add_layer(_dense(rng, "branch_a", 20, 12, threshold=18))
    b = graph.add_layer(_dense(rng, "branch_b", 20, 18, threshold=22))
    cat = graph.add_concat("cat", [a, b])
    head = graph.add_layer(_dense(rng, "head", 30, 12, threshold=15), input=cat)
    graph.add_join("skip_add", [
        (_dense(rng, "main_c", 12, 6, threshold=12), head),
        (_dense(rng, "skip_c", 12, 6, threshold=12), a),
    ])
    return graph


#: the step names of ``compile``'s trace, in order
DEFAULT_STEPS = ["graph-build", "logical-map", "placement", "route-pack",
                 "emit-program", "timing-model"]
NOC_STEPS = ["graph-build", "logical-map", "placement",
             "congestion-placement", "route-pack", "emit-program",
             "timing-model"]


class TestCompile:
    def test_signature(self):
        assert list(inspect.signature(ir_compile).parameters) == [
            "graph", "arch", "rows", "optimize_noc", "materialize",
            "validate", "metrics"]

    def test_trace_records_every_step(self, arch, dense_snn):
        compiled = ir_compile(dense_snn, arch)
        assert [record.name for record in compiled.trace] == DEFAULT_STEPS
        assert all(record.seconds >= 0 for record in compiled.trace)
        assert "cores" in compiled.describe_trace()

    def test_optimize_noc_trace_order(self, arch, dense_snn):
        compiled = ir_compile(dense_snn, arch, optimize_noc=True)
        assert [record.name for record in compiled.trace] == NOC_STEPS

    @pytest.mark.parametrize("optimize_noc", [False, True])
    def test_materialize_false_stops_before_emit_program(self, arch, dense_snn,
                                                         optimize_noc):
        compiled = ir_compile(dense_snn, arch, optimize_noc=optimize_noc,
                              materialize=False)
        steps = NOC_STEPS if optimize_noc else DEFAULT_STEPS
        assert [record.name for record in compiled.trace] == \
            [name for name in steps if name != "emit-program"]
        assert compiled.program is None
        assert "cores" in compiled.describe()
        assert compiled.routes.wave_count() > 0
        full = ir_compile(dense_snn, arch, optimize_noc=optimize_noc)
        assert compiled.timing.as_dict() == full.timing.as_dict()


class TestPipelineEquivalence:
    def test_residual_network_through_pipeline(self, conv_arch, conv_snn,
                                               conv_inputs):
        """Residual blocks (add-joins of body and shortcut) stay lossless."""
        trains = deterministic_encode(conv_inputs, conv_snn.timesteps)
        compiled = ir_compile(conv_snn, conv_arch, validate=True)
        joins = [node for node in compiled.graph.fire_nodes() if node.is_join]
        assert len(joins) == 1
        abstract = GraphSnnRunner(conv_snn).run_spike_trains(trains)
        hardware = engine_run(compiled.program, trains, backend="vectorized")
        np.testing.assert_array_equal(abstract.spike_counts,
                                      hardware.spike_counts)


class TestOneWeightCopy:
    @pytest.mark.parametrize("name, optimize_noc", [
        ("mnist-cnn-small", True), ("cifar-resnet-small", False),
        ("mnist-inception-small", True)])
    def test_core_weights_are_views_of_their_tiles(self, name, optimize_noc):
        """After emission each logical core's weights are its corner of the
        tile's array (no second buffer), with the values the mapping gave
        it; the rest of the tile is zero."""
        graph, _ = seeded_benchmark_graph(name, 8)
        compiled = ir_compile(graph, DEFAULT_ARCH, optimize_noc=optimize_noc)
        # the same mapping again, routed on the same placement (which
        # orders each core's axons) but never emitted
        mapped = logical_map(graph, DEFAULT_ARCH)
        build_routes(mapped, compiled.placement, optimize_noc=optimize_noc)
        configs = compiled.program.tile_configs
        for layer, expected_layer in zip(compiled.logical.layers,
                                         mapped.layers):
            for core, expected in zip(layer.cores, expected_layer.cores):
                tile = configs[compiled.placement.position(core.index)].weights
                assert core.weights.base is tile
                np.testing.assert_array_equal(core.weights, expected.weights)
                padded = np.zeros_like(tile)
                padded[:core.n_axons, :core.lane_outputs.size] = expected.weights
                np.testing.assert_array_equal(tile, padded)


class TestPerPassInvariants:
    def test_validate_mode_runs_clean_on_dag(self, arch, dag_graph):
        compiled = ir_compile(dag_graph, arch, validate=True)
        assert compiled.program is not None

    def test_placement_invariant_catches_missing_cores(self, arch, dense_snn):
        compiled = ir_compile(dense_snn, arch)
        placement = compiled.placement
        victim = next(iter(placement.positions))
        del placement.positions[victim]
        with pytest.raises(MappingError, match="covers"):
            check_placement(compiled.logical, placement)

    def test_route_pack_invariant_checks_wave_conflicts(self, arch, dense_snn):
        compiled = ir_compile(dense_snn, arch)
        waves = list(compiled.routes.all_waves())
        assert waves, "fixture should route at least one wave"
        # duplicate a transfer inside one wave: same links, same steps
        victim = next(wave for wave in waves if wave.transfers)
        victim.transfers.append(victim.transfers[0])
        with pytest.raises(MappingError, match="used twice"):
            verify_waves(waves)


class TestDagCompilation:
    def test_concat_consumer_reads_both_producers(self, arch, dag_graph):
        compiled = ir_compile(dag_graph, arch)
        assert "cat" in compiled.logical.virtual_sources
        head = compiled.logical.layer_by_name("head")
        # the concat is wiring only: head cores source the virtual name
        assert {core.source for core in head.cores} == {"cat"}
        locators = compiled.logical.build_locators()
        producing_cores = {core for core, _ in locators["cat"].values()}
        branch_a = {c.index for c in compiled.logical.layer_by_name("branch_a").cores}
        branch_b = {c.index for c in compiled.logical.layer_by_name("branch_b").cores}
        assert producing_cores & branch_a and producing_cores & branch_b

    def test_add_join_merges_reduction_groups(self, arch, dag_graph):
        compiled = ir_compile(dag_graph, arch)
        join = compiled.logical.layer_by_name("skip_add")
        sources = {core.source for core in join.cores}
        assert sources == {"head", "branch_a"}
        for group in join.groups:
            member_sources = {join.core_by_index(i).source
                              for i in group.core_indices}
            assert member_sources == {"head", "branch_a"}

    def test_dag_lossless_and_three_way_parity(self, arch, dag_graph, rng):
        """The acceptance property on the fixture DAG: abstract == hardware,
        bit-exact (incl. stats) across reference and vectorized, whole and
        split into frame parts."""
        compiled = ir_compile(dag_graph, arch)
        trains = deterministic_encode(rng.random((5, dag_graph.input_size)),
                                      dag_graph.timesteps)
        abstract = GraphSnnRunner(dag_graph).run_spike_trains(trains)
        hardware = engine_run(compiled.program, trains, backend="vectorized")
        np.testing.assert_array_equal(abstract.spike_counts,
                                      hardware.spike_counts)
        assert_backend_parity(compiled.program, trains)
        with forced_split():
            assert_backend_parity(compiled.program, trains)

    def test_concat_node_has_no_activity_entry(self, dag_graph, rng):
        """A concat only rewires its producers' spikes: activity is reported
        for the input and the fire nodes, so nothing is counted twice."""
        trains = deterministic_encode(rng.random((3, dag_graph.input_size)),
                                      dag_graph.timesteps)
        result = GraphSnnRunner(dag_graph).run_spike_trains(trains)
        assert set(result.layer_activity) == \
            {"input", "branch_a", "branch_b", "head", "skip_add"}

    def test_fan_out_to_multiple_consumers(self, arch, rng):
        """One producer feeding three consumers (fan-out) compiles and runs."""
        graph = LayerGraph("fan-out", (16,), timesteps=6)
        stem = graph.add_layer(_dense(rng, "stem", 16, 10, threshold=14))
        a = graph.add_layer(_dense(rng, "fan_a", 10, 6, threshold=9), input=stem)
        b = graph.add_layer(_dense(rng, "fan_b", 10, 6, threshold=11), input=stem)
        graph.add_join("merge", [
            (_dense(rng, "m_a", 6, 4, threshold=8), a),
            (_dense(rng, "m_b", 6, 4, threshold=8), b),
            (_dense(rng, "m_skip", 10, 4, threshold=8), stem),
        ])
        compiled = ir_compile(graph, arch, validate=True)
        trains = deterministic_encode(rng.random((4, 16)), 6)
        abstract = GraphSnnRunner(graph).run_spike_trains(trains)
        hardware = engine_run(compiled.program, trains, backend="reference")
        np.testing.assert_array_equal(abstract.spike_counts,
                                      hardware.spike_counts)

    def test_output_can_be_concat_node(self, arch, rng):
        """A concat as the graph output binds outputs across producers."""
        graph = LayerGraph("cat-out", (16,), timesteps=6)
        a = graph.add_layer(_dense(rng, "out_a", 16, 5, threshold=10))
        b = graph.add_layer(_dense(rng, "out_b", 16, 3, threshold=10))
        graph.add_concat("both", [a, b])
        compiled = ir_compile(graph, arch, validate=True)
        assert compiled.program.output_size == 8
        trains = deterministic_encode(rng.random((3, 16)), 6)
        abstract = GraphSnnRunner(graph).run_spike_trains(trains)
        hardware = engine_run(compiled.program, trains, backend="vectorized")
        np.testing.assert_array_equal(abstract.spike_counts,
                                      hardware.spike_counts)
