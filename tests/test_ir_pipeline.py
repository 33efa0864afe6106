"""Tests for the pass-based compilation pipeline.

Covers the PassManager mechanics (ordering, artifact requirements, traces,
surgery), per-pass invariant checks, and end-to-end DAG compilation —
concat joins whose consumer cores read *several* producer layers, and dense
add-joins — with bit-exact three-way backend parity.
"""

import numpy as np
import pytest

from repro.engine import assert_backend_parity, run as engine_run
from repro.ir import (
    GRAPH_INPUT,
    CompileContext,
    FunctionPass,
    GraphSnnRunner,
    LayerGraph,
    PROGRAM_PASSES,
    PassError,
    PassManager,
    build_pipeline,
    compile as ir_compile,
    default_pipeline,
)
from repro.snn.encoding import deterministic_encode
from repro.snn.spec import DenseSpec


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


class TestPassManager:
    def test_default_pipeline_names(self):
        assert tuple(default_pipeline().names()) == PROGRAM_PASSES
        schedule = default_pipeline(to="schedule")
        assert schedule.names()[-2:] == ["lower", "optimize"]

    def test_unknown_pass_name_rejected(self):
        with pytest.raises(PassError, match="unknown pass"):
            build_pipeline(["graph-build", "frobnicate"])

    def test_missing_artifact_fails_clearly(self, arch):
        ctx = CompileContext(arch)  # no network artifact
        with pytest.raises(PassError, match="requires artifact 'network'"):
            default_pipeline().run(ctx)

    def test_trace_records_every_pass(self, arch, dense_snn):
        compiled = ir_compile(dense_snn, arch)
        assert [record.name for record in compiled.trace] == list(PROGRAM_PASSES)
        assert all(record.seconds >= 0 for record in compiled.trace)
        assert "cores" in compiled.describe_trace()

    def test_custom_pass_insertion(self, arch, dense_snn):
        seen = {}

        def spy(ctx):
            seen["cores"] = ctx.require("logical").n_cores
            return "spied"

        pipeline = default_pipeline().insert_after(
            "logical-map",
            FunctionPass("spy", spy, requires=("logical",)))
        compiled = ir_compile(dense_snn, arch, pipeline=pipeline)
        assert seen["cores"] == compiled.logical.n_cores
        assert "spy" in [record.name for record in compiled.trace]

    def test_replace_and_without(self):
        pipeline = default_pipeline()
        shorter = pipeline.without("emit-program")
        assert "emit-program" not in shorter.names()
        swapped = pipeline.replace(
            "emit-program", FunctionPass("emit-program", lambda ctx: None))
        assert swapped.names() == pipeline.names()

    def test_duplicate_pass_names_rejected(self):
        with pytest.raises(PassError, match="duplicate"):
            PassManager([FunctionPass("x", lambda ctx: None),
                         FunctionPass("x", lambda ctx: None)])

    def test_pipeline_by_names(self, arch, dense_snn):
        compiled = ir_compile(dense_snn, arch,
                              pipeline=["graph-build", "logical-map"])
        assert compiled.logical is not None
        assert compiled.program is None


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

    def test_schedule_target_runs_engine_passes(self, arch, dense_snn):
        compiled = ir_compile(dense_snn, arch, to="schedule")
        assert compiled.schedule is not None
        assert compiled.schedule.optimized
        assert [record.name for record in compiled.trace][-2:] == \
            ["lower", "optimize"]


class TestPerPassInvariants:
    def test_validate_mode_runs_clean_on_dag(self, arch, dag_graph):
        compiled = ir_compile(dag_graph, arch, validate=True)
        assert compiled.program is not None

    def test_placement_invariant_catches_missing_cores(self, arch, dense_snn):
        from repro.ir import build_pass
        from repro.mapping import MappingError

        ctx = CompileContext(arch, network=dense_snn)
        build_pipeline(["graph-build", "logical-map", "placement"]).run(ctx)
        placement = ctx.require("placement")
        victim = next(iter(placement.positions))
        del placement.positions[victim]
        with pytest.raises(MappingError, match="covers"):
            build_pass("placement").verify(ctx)

    def test_route_pack_invariant_checks_wave_conflicts(self, arch, dense_snn):
        from repro.ir import build_pass
        from repro.mapping import MappingError

        ctx = CompileContext(arch, network=dense_snn)
        build_pipeline(["graph-build", "logical-map", "placement",
                        "route-pack"]).run(ctx)
        routes = ctx.require("routes")
        waves = list(routes.all_waves())
        assert waves, "fixture should route at least one wave"
        # duplicate a transfer inside one wave: same links, same steps
        victim = next(wave for wave in waves if wave.transfers)
        victim.transfers.append(victim.transfers[0])
        with pytest.raises(MappingError, match="used twice"):
            build_pass("route-pack").verify(ctx)


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
        bit-exact (incl. stats) across reference/vectorized/sharded."""
        compiled = ir_compile(dag_graph, arch)
        trains = deterministic_encode(rng.random((5, dag_graph.input_size)),
                                      dag_graph.timesteps)
        abstract = GraphSnnRunner(dag_graph).run_spike_trains(trains)
        hardware = engine_run(compiled.program, trains, backend="vectorized")
        np.testing.assert_array_equal(abstract.spike_counts,
                                      hardware.spike_counts)
        assert_backend_parity(compiled.program, trains,
                              backends=("reference", "vectorized", "sharded"))

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
