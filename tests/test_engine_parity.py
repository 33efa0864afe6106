"""Backend parity: the vectorized backend is bit-exact with the reference.

These tests enforce the engine's central contract on the MLP and conv
example mappings: identical ``spike_counts``, ``predictions`` and execution
statistics between the ``reference`` interpreter and the ``vectorized``
batch executor, across multi-frame batches and edge cases.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import (
    ArchitectureConfig,
    CoreAccumulate,
    PsSend,
    PsSum,
    SpikeFire,
)
from repro.core.isa import Direction
from repro.core.neuron_core import NeuronCoreError
from repro.core.ps_router import PsRouterError
from repro.core.simulator import SimulationError
from repro.core.tile import TileCoordinate
from repro.engine import (
    ParityError,
    assert_backend_parity,
    create_backend,
    run,
    run_backends,
)
from repro.ir import GraphSnnRunner, compile as ir_compile
from repro.mapping.program import (
    InputBinding,
    OutputBinding,
    Program,
    TileConfig,
)
from repro.snn import deterministic_encode

from frame_split import forced_split

#: 4x4 cores with 6-bit partial sums: the PS range is [-32, 31]
OVERFLOW_ARCH = ArchitectureConfig(core_inputs=4, core_neurons=4, chip_rows=2,
                                   chip_cols=2, ps_bits=6, sram_banks=4)


def _overflow_program(weight: int, tiles: int) -> Program:
    """A row of ``tiles`` cores, each fed all 4 inputs through weight
    ``weight``; with two tiles the first SENDs its partial sums east and
    the second SUMs them onto its own before firing."""
    arch = OVERFLOW_ARCH
    row = [TileCoordinate(0, col) for col in range(tiles)]
    program = Program(arch=arch, rows=1, cols=tiles, input_size=4,
                      output_size=4)
    for tile in row:
        program.add_tile_config(TileConfig(
            tile=tile, weights=np.full((4, 4), weight, dtype=np.int16),
            thresholds=np.full(4, 4, dtype=np.int64)))
        program.input_bindings.append(InputBinding(tile=tile,
                                                   indices=np.arange(4)))
    acc = program.new_phase("acc").new_group()
    for tile in row:
        acc.add(tile, CoreAccumulate())
    if tiles == 2:
        reduce = program.new_phase("reduce")
        reduce.new_group().add(row[0], PsSend(dst=Direction.EAST))
        reduce.new_group().add(row[1], PsSum(src=Direction.WEST))
    program.new_phase("fire").new_group().add(
        row[-1], SpikeFire(use_noc_sum=tiles == 2))
    program.output_bindings.append(OutputBinding(
        tile=row[-1], lanes=(0, 1, 2, 3), output_indices=(0, 1, 2, 3)))
    return program


def _acc_overflow_program() -> Program:
    """One core whose ACC overflows: 4 axons x weight 15 = 60 > 31."""
    return _overflow_program(OVERFLOW_ARCH.weight_max, tiles=1)


def _sum_overflow_program() -> Program:
    """Two cores whose ACCs stay in range (4 axons x weight 7 = 28) but
    whose router SUM overflows (28 + 28 = 56 > 31)."""
    return _overflow_program(7, tiles=2)


@pytest.fixture
def dense_program(arch, dense_snn):
    return ir_compile(dense_snn, arch).program


@pytest.fixture
def conv_program(conv_arch, conv_snn):
    return ir_compile(conv_snn, conv_arch).program


class TestMlpParity:
    def test_multi_frame_batch(self, dense_program, dense_snn, dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        report = assert_backend_parity(dense_program, trains)
        assert report.baseline.spike_counts.shape == (len(dense_inputs),
                                                      dense_snn.output_size)
        # spikes actually flowed through the fabric, so parity is not vacuous
        assert report.baseline.stats.active_axons > 0

    def test_single_frame_batch(self, dense_program, dense_snn, dense_inputs):
        trains = deterministic_encode(dense_inputs[:1], dense_snn.timesteps)
        assert trains.shape[0] == 1
        assert_backend_parity(dense_program, trains)

    @pytest.mark.parametrize("shape", [(0, "T"), (3, 0)])
    def test_degenerate_batches_agree(self, dense_program, dense_snn, shape):
        """Zero frames / zero timesteps: same results AND same stats keys."""
        frames, timesteps = shape
        if timesteps == "T":
            timesteps = dense_snn.timesteps
        trains = np.zeros((frames, timesteps, dense_program.input_size), dtype=bool)
        assert_backend_parity(dense_program, trains)

    def test_two_dimensional_input_promoted(self, dense_program, dense_snn,
                                            dense_inputs):
        trains = deterministic_encode(dense_inputs[:1], dense_snn.timesteps)
        results = run_backends(dense_program, trains[0])
        for result in results.values():
            assert result.spike_counts.shape[0] == 1
        ref, vec = results["reference"], results["vectorized"]
        np.testing.assert_array_equal(ref.spike_counts, vec.spike_counts)

    def test_vectorized_matches_abstract_snn(self, dense_program, dense_snn,
                                             dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        abstract = GraphSnnRunner(dense_snn).run_spike_trains(trains)
        vectorized = run(dense_program, trains, backend="vectorized")
        np.testing.assert_array_equal(vectorized.spike_counts, abstract.spike_counts)
        np.testing.assert_array_equal(vectorized.predictions, abstract.predictions)


class TestConvParity:
    def test_multi_frame_batch(self, conv_program, conv_snn, conv_inputs):
        trains = deterministic_encode(conv_inputs, conv_snn.timesteps)
        assert_backend_parity(conv_program, trains)
        with forced_split():
            assert_backend_parity(conv_program, trains)

    def test_single_frame(self, conv_program, conv_snn, conv_inputs):
        trains = deterministic_encode(conv_inputs[:1], conv_snn.timesteps)
        assert_backend_parity(conv_program, trains)

    def test_vectorized_matches_abstract_snn(self, conv_program, conv_snn,
                                             conv_inputs):
        trains = deterministic_encode(conv_inputs, conv_snn.timesteps)
        abstract = GraphSnnRunner(conv_snn).run_spike_trains(trains)
        vectorized = run(conv_program, trains)
        np.testing.assert_array_equal(vectorized.spike_counts, abstract.spike_counts)


class TestErrorPaths:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_mismatched_input_size_rejected(self, dense_program, backend):
        bad = np.zeros((2, 4, dense_program.input_size + 1), dtype=bool)
        with pytest.raises(SimulationError):
            create_backend(backend, dense_program).run(bad)

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_bad_rank_rejected(self, dense_program, backend):
        bad = np.zeros((2, 3, 4, dense_program.input_size), dtype=bool)
        with pytest.raises(SimulationError):
            create_backend(backend, dense_program).run(bad)

    @pytest.mark.parametrize("backend", ["reference", "vectorized", "split"])
    def test_overflow_raises_same_error_class(self, backend):
        """Partial-sum overflow fails the same way on every backend, in the
        core's ACC and in a router SUM alike."""
        # 4 frames: the split runs them as three frame parts
        trains = np.ones((4, 3, 4), dtype=bool)
        cases = (
            (_acc_overflow_program(), NeuronCoreError,
             r"overflowed the .*range \[-32, 31\]"),
            (_sum_overflow_program(), PsRouterError,
             r"partial-sum overflow outside \[-32, 31\]"),
        )
        name = "vectorized" if backend == "split" else backend
        for program, error, match in cases:
            with forced_split() if backend == "split" else nullcontext(), \
                    create_backend(name, program) as instance:
                with pytest.raises(error, match=match):
                    instance.run(trains)

    def test_parity_error_reports_disagreement(self, dense_program, dense_snn,
                                               dense_inputs, monkeypatch):
        trains = deterministic_encode(dense_inputs[:2], dense_snn.timesteps)
        from repro.engine.vectorized import VectorizedBackend

        original = VectorizedBackend.run

        def corrupted(self, spike_trains, probes=None):
            result = original(self, spike_trains, probes=probes)
            result.spike_counts[0, 0] += 1
            return result

        monkeypatch.setattr(VectorizedBackend, "run", corrupted)
        with pytest.raises(ParityError, match="spike-count"):
            assert_backend_parity(dense_program, trains)


@pytest.mark.slow
class TestSlowParitySweeps:
    """Larger multi-frame sweeps, deselected from the fast tier-1 run."""

    def test_mlp_32_frame_sweep(self, dense_program, dense_snn, rng):
        inputs = rng.random((32, dense_snn.input_size))
        trains = deterministic_encode(inputs, dense_snn.timesteps)
        report = assert_backend_parity(dense_program, trains)
        assert report.baseline.spike_counts.shape[0] == 32
        with forced_split():
            assert_backend_parity(dense_program, trains)

    def test_conv_sweep_across_seeds(self, conv_program, conv_snn):
        for seed in range(3):
            inputs = np.random.default_rng(seed).random((8, conv_snn.input_size))
            trains = deterministic_encode(inputs, conv_snn.timesteps)
            assert_backend_parity(conv_program, trains)

    def test_mlp_long_timestep_sweep(self, arch, dense_snn, rng):
        inputs = rng.random((16, dense_snn.input_size))
        trains = deterministic_encode(inputs, 40)
        program = ir_compile(dense_snn, arch).program
        assert_backend_parity(program, trains)
