"""Compiler tests — including the paper's central lossless-mapping invariant.

The key claim of the paper is that, thanks to the partial-sum NoCs, mapping a
network onto Shenjing hardware never changes its outputs ("Shenjing Accu." ==
"Abstract SNN Accu." in Table IV).  These tests verify the claim bit-exactly:
for every supported layer type, the cycle-level hardware simulation of the
compiled program produces the same spikes, time step by time step, as the
abstract SNN runner.
"""

import numpy as np
import pytest

from repro.core.simulator import ShenjingSimulator
from repro.ir import GraphSnnRunner, LayerGraph, compile as ir_compile
from repro.mapping.estimator import estimate_mapping
from repro.snn.encoding import deterministic_encode, poisson_encode
from repro.snn.spec import DenseSpec


def _run_both(snn, arch, inputs, rows=None):
    trains = deterministic_encode(inputs, snn.timesteps)
    reference = GraphSnnRunner(snn).run_spike_trains(trains, return_output_trains=True)
    compiled = ir_compile(snn, arch, rows=rows)
    simulator = ShenjingSimulator(compiled.program)
    hardware = simulator.run(trains)
    return reference, hardware, compiled, simulator


class TestLosslessMapping:
    def test_dense_network_matches_abstract_runner(self, arch, dense_snn, dense_inputs):
        reference, hardware, _, _ = _run_both(dense_snn, arch, dense_inputs)
        np.testing.assert_array_equal(reference.spike_counts, hardware.spike_counts)

    def test_dense_network_matches_per_timestep(self, arch, dense_snn, dense_inputs):
        trains = deterministic_encode(dense_inputs[:2], dense_snn.timesteps)
        reference = GraphSnnRunner(dense_snn).run_spike_trains(
            trains, return_output_trains=True)
        compiled = ir_compile(dense_snn, arch)
        simulator = ShenjingSimulator(compiled.program)
        for frame in range(2):
            result = simulator.run_frame(trains[frame])
            np.testing.assert_array_equal(
                result.per_timestep, reference.output_spike_trains[frame])

    def test_conv_pool_residual_network_matches(self, conv_arch, conv_snn, conv_inputs):
        reference, hardware, _, _ = _run_both(conv_snn, conv_arch, conv_inputs)
        np.testing.assert_array_equal(reference.spike_counts, hardware.spike_counts)

    def test_poisson_encoded_inputs_also_match(self, arch, dense_snn, dense_inputs):
        trains = poisson_encode(dense_inputs, dense_snn.timesteps, seed=7)
        reference = GraphSnnRunner(dense_snn).run_spike_trains(trains)
        compiled = ir_compile(dense_snn, arch)
        hardware = ShenjingSimulator(compiled.program).run(trains)
        np.testing.assert_array_equal(reference.spike_counts, hardware.spike_counts)

    def test_single_core_network(self, arch, rng):
        snn = LayerGraph.chain(
            "tiny", (8,),
            [DenseSpec(name="fc", weights=rng.integers(-3, 4, size=(8, 4)),
                       threshold=5)],
            timesteps=6,
        )
        inputs = rng.random((3, 8))
        reference, hardware, compiled, _ = _run_both(snn, arch, inputs)
        assert compiled.core_count == 1
        np.testing.assert_array_equal(reference.spike_counts, hardware.spike_counts)


class TestCompiledArtifacts:
    def test_tile_configs_cover_all_cores(self, arch, dense_snn):
        compiled = ir_compile(dense_snn, arch)
        assert len(compiled.program.tile_configs) == compiled.logical.n_cores
        assert compiled.program.used_tiles == compiled.core_count

    def test_output_bindings_cover_output_vector(self, arch, dense_snn):
        compiled = ir_compile(dense_snn, arch)
        indices = sorted(
            index
            for binding in compiled.program.output_bindings
            for index in binding.output_indices
        )
        assert indices == list(range(dense_snn.output_size))

    def test_input_bindings_only_on_first_layer_tiles(self, arch, dense_snn):
        compiled = ir_compile(dense_snn, arch)
        first_layer = compiled.logical.layers[0]
        first_tiles = {compiled.placement.position(core.index)
                       for core in first_layer.cores}
        for binding in compiled.program.input_bindings:
            assert binding.tile in first_tiles

    def test_phase_structure_per_layer(self, arch, dense_snn):
        compiled = ir_compile(dense_snn, arch)
        names = [phase.name for phase in compiled.program.phases]
        assert "fc1/accumulate" in names
        assert "fc1/ps-reduce" in names
        assert "fc1/fire" in names
        assert "fc2/deliver" in names
        assert names.index("fc1/fire") < names.index("fc2/deliver")

    def test_describe_mentions_core_counts(self, arch, dense_snn):
        compiled = ir_compile(dense_snn, arch)
        text = compiled.describe()
        assert "fc1" in text and "cores" in text

    def test_structure_only_network_cannot_be_compiled_directly(self, arch, dense_snn):
        from repro.ir import build_routes, emit_program, logical_map
        from repro.mapping.logical import MappingError
        from repro.mapping.placement import place_network

        logical = logical_map(dense_snn, arch, materialize=False)
        placement = place_network(logical, arch)
        routes = build_routes(logical, placement)
        with pytest.raises(MappingError):
            emit_program(logical, placement, routes, arch)


class TestEstimatorConsistency:
    def test_estimator_core_count_matches_compiler(self, arch, dense_snn):
        compiled = ir_compile(dense_snn, arch)
        estimate = estimate_mapping(dense_snn, arch)
        assert estimate.total_cores == compiled.core_count
        assert estimate.chips == compiled.chips_used

    def test_estimator_op_counts_match_simulator(self, arch, dense_snn, dense_inputs):
        """The structural estimate reproduces the simulator's per-frame op counts."""
        trains = deterministic_encode(dense_inputs[:1], dense_snn.timesteps)
        compiled = ir_compile(dense_snn, arch)
        simulator = ShenjingSimulator(compiled.program)
        simulator.run(trains)
        measured = simulator.stats.lanes_by_key()
        measured.pop("core_ld_wt", None)

        estimate = estimate_mapping(dense_snn, arch)
        estimated = estimate.lanes_per_frame()
        # spike_bypass in the estimate folds RECV and BYPASS together, as does
        # the simulator (same energy key), so the keys line up exactly.
        assert set(estimated) == set(measured)
        for key, value in measured.items():
            assert estimated[key] == value, key

    def test_estimator_conv_consistency(self, conv_arch, conv_snn, conv_inputs):
        trains = deterministic_encode(conv_inputs[:1], conv_snn.timesteps)
        compiled = ir_compile(conv_snn, conv_arch)
        simulator = ShenjingSimulator(compiled.program)
        simulator.run(trains)
        measured = simulator.stats.lanes_by_key()
        measured.pop("core_ld_wt", None)
        estimated = estimate_mapping(conv_snn, conv_arch).lanes_per_frame()
        for key, value in measured.items():
            assert estimated[key] == value, key

    def test_estimate_describe_and_cycles(self, arch, dense_snn):
        estimate = estimate_mapping(dense_snn, arch)
        assert estimate.cycles_per_timestep > 0
        assert estimate.cycles_per_frame == estimate.cycles_per_timestep * dense_snn.timesteps
        assert dense_snn.fire_nodes()[0].name in estimate.describe()
