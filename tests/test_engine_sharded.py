"""Sharded backend and auto-selection tests.

Covers the multiprocess edge cases the ISSUE calls out — 1 worker, more
workers than frames, empty batches, worker-side overflow propagating the
correct error class — plus bit-exact three-way parity (counts, predictions,
statistics) and the ``auto`` policy.
"""

import ctypes
import os

import numpy as np
import pytest

from repro.core import ArchitectureConfig, CoreAccumulate, SpikeFire
from repro.core.neuron_core import NeuronCoreError
from repro.core.tile import TileCoordinate
from repro.engine import (
    AutoBackend,
    EngineError,
    ShardedBackend,
    assert_backend_parity,
    create_backend,
    resolve_worker_count,
    run,
    select_backend_name,
)
from repro.engine.sharded import (
    BLAS_THREAD_SETTERS,
    MAX_DEFAULT_WORKERS,
    WORKERS_ENV_VAR,
    _openblas_libraries,
)
from repro.ir import compile as ir_compile
from repro.snn import deterministic_encode


@pytest.fixture
def dense_program(arch, dense_snn):
    return ir_compile(dense_snn, arch).program


@pytest.fixture
def conv_program(conv_arch, conv_snn):
    return ir_compile(conv_snn, conv_arch).program


def _overflow_program():
    """Tiny program whose partial sums overflow on all-ones input."""
    arch = ArchitectureConfig(core_inputs=4, core_neurons=4, chip_rows=2,
                              chip_cols=2, ps_bits=6, sram_banks=4)
    from repro.mapping.program import (
        InputBinding, OutputBinding, Program, TileConfig,
    )
    tile = TileCoordinate(0, 0)
    program = Program(arch=arch, rows=1, cols=1, input_size=4, output_size=4)
    program.add_tile_config(TileConfig(
        tile=tile, weights=np.full((4, 4), arch.weight_max, dtype=np.int16),
        thresholds=np.full(4, 4, dtype=np.int64)))
    program.input_bindings.append(InputBinding(tile=tile, indices=np.arange(4)))
    program.new_phase("acc").new_group().add(tile, CoreAccumulate())
    program.new_phase("fire").new_group().add(tile, SpikeFire(use_noc_sum=False))
    program.output_bindings.append(OutputBinding(
        tile=tile, lanes=(0, 1, 2, 3), output_indices=(0, 1, 2, 3)))
    return program


def _blas_threads():
    """Thread count of every loaded OpenBLAS that exports a known setter,
    read through the matching getter (runs in workers: module level)."""
    counts = []
    for library in _openblas_libraries():
        for setter in BLAS_THREAD_SETTERS:
            getter = getattr(library, setter.replace("_set_", "_get_"), None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts.append(getter())
                break
    return counts


class TestWorkerResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert resolve_worker_count(3) == 3

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert resolve_worker_count() == 5

    def test_invalid_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "lots")
        with pytest.raises(EngineError, match=WORKERS_ENV_VAR):
            resolve_worker_count()

    def test_nonpositive_rejected(self):
        with pytest.raises(EngineError, match=">= 1"):
            resolve_worker_count(0)

    def test_default_capped(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert 1 <= resolve_worker_count() <= MAX_DEFAULT_WORKERS


class TestShardedParity:
    def test_multiprocess_bit_exact_with_vectorized(self, dense_program,
                                                    dense_snn, dense_inputs):
        """Real multiprocess run (forced 2 workers): counts, predictions and
        full statistics agree with the single-process backends."""
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        sharded = ShardedBackend(dense_program, workers=2)
        assert sharded.shard_count(trains.shape[0]) == 2
        ours = sharded.run(trains)
        vectorized = create_backend("vectorized", dense_program).run(trains)
        reference = create_backend("reference", dense_program).run(trains)
        for other in (vectorized, reference):
            np.testing.assert_array_equal(ours.spike_counts, other.spike_counts)
            np.testing.assert_array_equal(ours.predictions, other.predictions)
            assert ours.stats.summary() == other.stats.summary()

    def test_three_way_parity_harness(self, dense_program, dense_snn,
                                      dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        assert_backend_parity(dense_program, trains,
                              backends=("reference", "vectorized", "sharded"))

    def test_single_worker_runs_in_process(self, dense_program, dense_snn,
                                           dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        backend = ShardedBackend(dense_program, workers=1)
        assert backend.shard_count(trains.shape[0]) == 1
        result = backend.run(trains)
        vectorized = create_backend("vectorized", dense_program).run(trains)
        np.testing.assert_array_equal(result.spike_counts,
                                      vectorized.spike_counts)
        assert result.stats.summary() == vectorized.stats.summary()

    def test_more_workers_than_frames(self, dense_program, dense_snn,
                                      dense_inputs):
        trains = deterministic_encode(dense_inputs[:2], dense_snn.timesteps)
        backend = ShardedBackend(dense_program, workers=16)
        # never more shards than frames
        assert backend.shard_count(2) == 2
        result = backend.run(trains)
        vectorized = create_backend("vectorized", dense_program).run(trains)
        np.testing.assert_array_equal(result.spike_counts,
                                      vectorized.spike_counts)

    @pytest.mark.parametrize("shape", [(0, 8), (3, 0)])
    def test_degenerate_batches(self, dense_program, shape):
        frames, timesteps = shape
        trains = np.zeros((frames, timesteps, dense_program.input_size),
                          dtype=bool)
        backend = ShardedBackend(dense_program, workers=4)
        result = backend.run(trains)
        assert result.spike_counts.shape == (frames, dense_program.output_size)
        vectorized = create_backend("vectorized", dense_program).run(trains)
        assert result.stats.summary() == vectorized.stats.summary()

    def test_collect_stats_false(self, dense_program, dense_snn, dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        result = ShardedBackend(dense_program, workers=2,
                                collect_stats=False).run(trains)
        assert result.stats.total_operations == 0

    def test_worker_overflow_reraises_same_class(self):
        """Partial-sum overflow inside a worker process surfaces in the
        parent as the same NeuronCoreError every backend raises."""
        program = _overflow_program()
        trains = np.ones((4, 3, 4), dtype=bool)
        backend = ShardedBackend(program, workers=2)
        assert backend.shard_count(4) == 2
        with pytest.raises(NeuronCoreError, match="overflow"):
            backend.run(trains)

    def test_module_level_run_forwards_options(self, dense_program, dense_snn,
                                               dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        result = run(dense_program, trains, backend="sharded", workers=2)
        vectorized = run(dense_program, trains, backend="vectorized")
        np.testing.assert_array_equal(result.spike_counts,
                                      vectorized.spike_counts)


class TestAutoSelection:
    def test_policy_reference_for_single_frame(self):
        assert select_backend_name(1, workers=8) == "reference"

    def test_policy_vectorized_for_small_batches(self):
        assert select_backend_name(2, workers=8) == "vectorized"
        assert select_backend_name(255, workers=8) == "vectorized"

    def test_policy_sharded_above_threshold(self):
        assert select_backend_name(256, workers=8) == "sharded"
        assert select_backend_name(10_000, workers=8) == "sharded"

    def test_policy_never_shards_without_workers(self):
        assert select_backend_name(10_000, workers=1) == "vectorized"

    def test_policy_zero_frames(self):
        assert select_backend_name(0, workers=8) == "vectorized"

    def test_auto_backend_delegates_and_records(self, dense_program, dense_snn,
                                                dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        backend = AutoBackend(dense_program)
        assert backend.last_selection is None
        single = backend.run(trains[:1])
        assert backend.last_selection == "reference"
        batch = backend.run(trains)
        assert backend.last_selection == "vectorized"
        reference = create_backend("reference", dense_program).run(trains)
        np.testing.assert_array_equal(batch.spike_counts,
                                      reference.spike_counts)
        np.testing.assert_array_equal(single.spike_counts,
                                      reference.spike_counts[:1])

    def test_auto_backend_shards_large_batches(self, dense_program, dense_snn,
                                               rng):
        backend = AutoBackend(dense_program, sharded_min_frames=4, workers=2)
        trains = deterministic_encode(rng.random((6, dense_snn.input_size)),
                                      dense_snn.timesteps)
        result = backend.run(trains)
        assert backend.last_selection == "sharded"
        vectorized = create_backend("vectorized", dense_program).run(trains)
        np.testing.assert_array_equal(result.spike_counts,
                                      vectorized.spike_counts)
        assert result.stats.summary() == vectorized.stats.summary()

    def test_auto_delegates_cached(self, dense_program):
        backend = AutoBackend(dense_program)
        assert backend.delegate("vectorized") is backend.delegate("vectorized")

    def test_auto_delegate_cache_respects_collect_stats(self, dense_program,
                                                        dense_snn,
                                                        dense_inputs):
        """Regression: flipping collect_stats on an AutoBackend must not
        reuse a delegate frozen with the old setting."""
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        backend = AutoBackend(dense_program)
        assert backend.run(trains).stats.total_operations > 0
        with_stats = backend.delegate("vectorized")
        backend.collect_stats = False
        assert backend.run(trains).stats.total_operations == 0
        assert backend.delegate("vectorized") is not with_stats
        backend.collect_stats = True
        assert backend.run(trains).stats.total_operations > 0
        assert backend.delegate("vectorized") is with_stats

    def test_auto_registered(self, dense_program, dense_snn, dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        result = run(dense_program, trains, backend="auto")
        vectorized = run(dense_program, trains, backend="vectorized")
        np.testing.assert_array_equal(result.spike_counts,
                                      vectorized.spike_counts)


class TestPersistentPool:
    """The worker pool survives across run() calls and tears down cleanly."""

    def test_pool_reused_across_runs(self, dense_program, dense_snn,
                                     dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        backend = ShardedBackend(dense_program, workers=2)
        try:
            assert not backend.pool_alive  # lazy: no pool before first run
            first = backend.run(trains)
            assert backend.pool_alive
            pool = backend._pool
            second = backend.run(trains)
            assert backend._pool is pool  # same pool, fork paid once
            np.testing.assert_array_equal(first.spike_counts,
                                          second.spike_counts)
        finally:
            backend.close()

    def test_tiny_batches_never_fork_a_pool(self, dense_program, dense_snn,
                                            dense_inputs):
        trains = deterministic_encode(dense_inputs[:1], dense_snn.timesteps)
        backend = ShardedBackend(dense_program, workers=4)
        backend.run(trains)  # 1 frame -> in-process fallback
        assert not backend.pool_alive

    def test_close_is_idempotent_and_reopens(self, dense_program, dense_snn,
                                             dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        backend = ShardedBackend(dense_program, workers=2)
        expected = backend.run(trains)
        backend.close()
        backend.close()  # idempotent
        assert not backend.pool_alive
        result = backend.run(trains)  # re-forks transparently
        assert backend.pool_alive
        np.testing.assert_array_equal(result.spike_counts,
                                      expected.spike_counts)
        backend.close()

    def test_context_manager_closes_pool(self, dense_program, dense_snn,
                                         dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        with ShardedBackend(dense_program, workers=2) as backend:
            backend.run(trains)
            assert backend.pool_alive
        assert not backend.pool_alive

    def test_pool_survives_worker_error(self):
        """A worker exception re-raises in the parent but keeps the pool
        usable for the next run."""
        program = _overflow_program()
        backend = ShardedBackend(program, workers=2)
        try:
            bad = np.ones((4, 3, 4), dtype=bool)
            with pytest.raises(NeuronCoreError):
                backend.run(bad)
            pool = backend._pool
            assert pool is not None
            good = np.zeros((4, 3, 4), dtype=bool)
            result = backend.run(good)
            assert backend._pool is pool
            assert result.spike_counts.shape == (4, 4)
        finally:
            backend.close()

    def test_engine_close_closes_cached_backends(self, dense_program,
                                                 dense_snn, dense_inputs):
        from repro.engine import ExecutionEngine

        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        with ExecutionEngine(dense_program, backend="sharded",
                             backend_options={"sharded": {"workers": 2}}) \
                as engine:
            engine.run(trains)
            backend = engine.backend("sharded")
            assert backend.pool_alive
        assert not backend.pool_alive

    def test_auto_close_propagates_to_delegates(self, dense_program,
                                                dense_snn, rng):
        backend = AutoBackend(dense_program, sharded_min_frames=4, workers=2)
        trains = deterministic_encode(rng.random((6, dense_snn.input_size)),
                                      dense_snn.timesteps)
        backend.run(trains)
        assert backend.last_selection == "sharded"
        delegate = backend.delegate("sharded")
        assert delegate.pool_alive
        backend.close()
        assert not delegate.pool_alive


class TestWorkerBlasThreads:
    def test_workers_split_the_cores(self):
        """Each of 2 workers runs BLAS on ``cpu_count // 2`` threads (at
        least 1); the parent keeps its own count."""
        parent = _blas_threads()
        if not parent:
            pytest.skip("no OpenBLAS with a known thread setter is loaded")
        expected = [max(1, (os.cpu_count() or 1) // 2)] * len(parent)
        backend = ShardedBackend(_overflow_program(), workers=2)
        try:
            backend.warm_pool()
            futures = [backend._pool.submit(_blas_threads) for _ in range(4)]
            assert [future.result(timeout=60)
                    for future in futures] == [expected] * 4
        finally:
            backend.close()
        assert _blas_threads() == parent


@pytest.mark.slow
class TestSlowShardedSweeps:
    """Multi-frame multiprocess sweeps, deselected from fast tier-1 runs."""

    def test_mlp_32_frame_multiprocess_sweep(self, dense_program, dense_snn,
                                             rng):
        inputs = rng.random((32, dense_snn.input_size))
        trains = deterministic_encode(inputs, dense_snn.timesteps)
        sharded = ShardedBackend(dense_program, workers=4).run(trains)
        vectorized = create_backend("vectorized", dense_program).run(trains)
        np.testing.assert_array_equal(sharded.spike_counts,
                                      vectorized.spike_counts)
        assert sharded.stats.summary() == vectorized.stats.summary()

    def test_conv_multiprocess_parity(self, conv_program, conv_snn):
        inputs = np.random.default_rng(7).random((8, conv_snn.input_size))
        trains = deterministic_encode(inputs, conv_snn.timesteps)
        sharded = ShardedBackend(conv_program, workers=3).run(trains)
        reference = create_backend("reference", conv_program).run(trains)
        np.testing.assert_array_equal(sharded.spike_counts,
                                      reference.spike_counts)
        np.testing.assert_array_equal(sharded.predictions,
                                      reference.predictions)
        assert sharded.stats.summary() == reference.stats.summary()
