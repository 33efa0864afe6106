"""The frame split of ``vectorized`` and the ``auto`` backend.

A batch of ``2 * PART_FRAMES`` or more frames runs as contiguous frame
parts, one thread each.  These tests force the split down to a few frames
(:func:`frame_split.forced_split`) and hold it to the engine's contract: bit
for bit the same counts, statistics, ``frame_active_axons``, probe
captures and overflow errors as an unsplit run, ``optimize=False`` and the
``reference`` interpreter, with each part keeping its own run state.
"""

import pickle
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np
import pytest

from repro.apps.networks import ALL_BUILDERS
from repro.core import ArchitectureConfig, CoreAccumulate, SpikeFire
from repro.core.config import DEFAULT_ARCH
from repro.core.neuron_core import NeuronCoreError
from repro.core.tile import TileCoordinate
from repro.engine import (
    AutoBackend,
    ExecutionEngine,
    assert_backend_parity,
    create_backend,
    part_count,
    run,
    vectorized,
)
from repro.engine.parity import _compare_probes
from repro.ir import compile as ir_compile
from repro.mapping.program import (
    InputBinding, OutputBinding, Program, TileConfig,
)
from repro.obs import MetricsRegistry, ProbeSet
from repro.snn import deterministic_encode
from repro.snn.conversion import ConversionConfig, convert_ann_to_graph

from frame_split import forced_split

#: 4x4 cores with 6-bit partial sums: the PS range is [-32, 31], so three
#: axons on at weight 15 (45) overflow an ACC and two (30) do not
OVERFLOW_ARCH = ArchitectureConfig(core_inputs=4, core_neurons=4, chip_rows=2,
                                   chip_cols=2, ps_bits=6, sram_banks=4)


@pytest.fixture
def dense_program(arch, dense_snn):
    return ir_compile(dense_snn, arch).program


@pytest.fixture
def conv_program(conv_arch, conv_snn):
    return ir_compile(conv_snn, conv_arch).program


def _overflow_program(tiles: int = 1) -> Program:
    """``tiles`` independent cores in a row, core ``c`` fed inputs
    ``4c .. 4c + 3`` at ``weight_max``; all-ones input overflows each
    core's ACC."""
    arch = OVERFLOW_ARCH
    row = [TileCoordinate(0, col) for col in range(tiles)]
    program = Program(arch=arch, rows=1, cols=tiles, input_size=4 * tiles,
                      output_size=4 * tiles)
    acc = program.new_phase("acc").new_group()
    fire = program.new_phase("fire").new_group()
    for col, tile in enumerate(row):
        program.add_tile_config(TileConfig(
            tile=tile,
            weights=np.full((4, 4), arch.weight_max, dtype=np.int16),
            thresholds=np.full(4, 4, dtype=np.int64)))
        program.input_bindings.append(InputBinding(
            tile=tile, indices=np.arange(4 * col, 4 * col + 4)))
        acc.add(tile, CoreAccumulate())
        fire.add(tile, SpikeFire(use_noc_sum=False))
        program.output_bindings.append(OutputBinding(
            tile=tile, lanes=(0, 1, 2, 3),
            output_indices=tuple(range(4 * col, 4 * col + 4))))
    return program


def _batch(rng, dense_snn, frames):
    return deterministic_encode(rng.random((frames, dense_snn.input_size)),
                                dense_snn.timesteps)


def _assert_same_run(result, expected) -> None:
    np.testing.assert_array_equal(result.spike_counts, expected.spike_counts)
    np.testing.assert_array_equal(result.frame_active_axons,
                                  expected.frame_active_axons)
    assert result.stats.summary() == expected.stats.summary()
    _compare_probes("split", "whole", result, expected)


def _error_of(backend, trains):
    """``(class, message)`` of the error a run raises."""
    with pytest.raises(Exception) as caught:
        backend.run(trains)
    return type(caught.value), str(caught.value)


def _blas_threads():
    """The thread count of every OpenBLAS the split pins."""
    return [get() for get, _ in vectorized._blas_thread_controls()]


class _FailAtStep:
    """A probe collector that raises at the end of timestep ``step``, with
    the part's state half written, and forwards every other capture to the
    run's own collector (if any)."""

    def __init__(self, step, collector=None):
        self.step, self.collector = step, collector

    def capture(self, state, step):
        if step == self.step:
            raise RuntimeError(f"injected failure at step {step}")
        if self.collector is not None:
            self.collector.capture(state, step)


def _fail_part(patch, failing, step=2):
    """Within ``patch``, frame part ``failing`` of every run raises at the
    end of timestep ``step``."""
    original = vectorized.execute_schedule

    def execute(schedule, spike_trains, collector=None, metrics=None,
                part=0):
        if part == failing:
            collector = _FailAtStep(step, collector)
        return original(schedule, spike_trains, collector, metrics, part)

    patch.setattr(vectorized, "execute_schedule", execute)


SMALL_BUILDERS = sorted(name for name in ALL_BUILDERS
                        if name.endswith("-small"))

_BUILDER_CASES = {}


def _builder_case(name, optimize_noc):
    """``(program, trains)``: small builder ``name`` converted at T=5 and
    compiled on ``optimize_noc``'s pipeline, with 7 encoded frames (three
    parts of 3, 2 and 2 under a forced split); built once per module."""
    key = (name, optimize_noc)
    if key not in _BUILDER_CASES:
        rng = np.random.default_rng(11)
        model = ALL_BUILDERS[name]()
        config = ConversionConfig(timesteps=5, max_calibration_samples=4)
        graph = convert_ann_to_graph(
            model, rng.random((4,) + model.input_shape), config)
        program = ir_compile(graph, DEFAULT_ARCH,
                             optimize_noc=optimize_noc).program
        trains = deterministic_encode(rng.random((7, graph.input_size)),
                                      graph.timesteps)
        _BUILDER_CASES[key] = program, trains
    return _BUILDER_CASES[key]


#: frame -> (core, step) at which that frame overflows its core's ACC, in
#: a 4-frame batch on two cores that a forced split runs as parts (0, 1),
#: (2) and (3)
OVERFLOW_CASES = {
    "last-part-only": {3: (0, 0)},
    "first-part-earlier-step-wins": {0: (1, 1), 1: (0, 3)},
    "first-part-second-frame-first": {0: (0, 3), 1: (1, 1)},
    "middle-part-before-last": {2: (1, 0), 3: (0, 0)},
    "every-part": {1: (0, 2), 2: (0, 0), 3: (1, 0)},
    "one-step-two-cores": {0: (1, 2), 1: (0, 2)},
}

#: the frames of each part of a forced 4-frame split
SPLIT_PARTS = ((0, 1), (2,), (3,))


def _overflow_trains(overflows):
    """4 frames of 4 steps on the two-core overflow program: each frame of
    ``overflows`` turns on all four inputs of its core at its step; every
    frame also keeps one input of each core on at every step, which never
    overflows."""
    trains = np.zeros((4, 4, 8), dtype=bool)
    trains[:, :, [1, 6]] = True
    for frame, (core, step) in overflows.items():
        trains[frame, step, 4 * core:4 * core + 4] = True
    return trains


class TestPartCount:
    def test_rule(self, monkeypatch):
        """``min(CPUS, MAX_PARTS, frames // PART_FRAMES)``, no split below
        two parts."""
        assert (vectorized.PART_FRAMES, vectorized.MAX_PARTS) == (512, 8)
        monkeypatch.setattr(vectorized, "CPUS", 2)
        assert [part_count(f) for f in (0, 1, 1023, 1024, 2048, 4096)] == \
            [1, 1, 1, 2, 2, 2]
        monkeypatch.setattr(vectorized, "CPUS", 16)
        assert [part_count(f) for f in (1535, 1536, 4096, 100_000)] == \
            [2, 3, 8, 8]
        monkeypatch.setattr(vectorized, "CPUS", 1)
        assert part_count(100_000) == 1

    def test_serving_and_cnn_batches_never_split(self, monkeypatch):
        monkeypatch.setattr(vectorized, "CPUS", 64)
        assert part_count(32) == part_count(256) == 1

    def test_forced_split(self):
        with forced_split():
            assert [part_count(f) for f in (1, 2, 3, 7, 100)] == \
                [1, 2, 3, 3, 3]
        assert part_count(7) == 1


class TestSplitParity:
    def test_bit_exact_with_whole_runs(self, dense_program, dense_snn,
                                       dense_inputs):
        """Counts, predictions, statistics, ``frame_active_axons`` and
        every probe of a 3-part run equal an unsplit run's, an
        ``optimize=False`` run's and the reference's."""
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        probes = ProbeSet.full()
        whole = create_backend("vectorized", dense_program).run(
            trains, probes=probes)
        with forced_split():
            assert part_count(len(trains)) == 3
            split = create_backend("vectorized", dense_program).run(
                trains, probes=probes)
            unoptimized = create_backend("vectorized", dense_program,
                                         optimize=False).run(trains,
                                                             probes=probes)
        _assert_same_run(split, whole)
        _assert_same_run(unoptimized, whole)
        reference = create_backend("reference", dense_program).run(
            trains, probes=probes)
        np.testing.assert_array_equal(split.spike_counts,
                                      reference.spike_counts)
        np.testing.assert_array_equal(split.predictions,
                                      reference.predictions)
        assert split.stats.summary() == reference.stats.summary()
        _compare_probes("split", "reference", split, reference)
        assert split.stats.active_axons > 0

    def test_parity_harness(self, dense_program, dense_snn, dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        with forced_split():
            assert_backend_parity(dense_program, trains,
                                  backends=("reference", "vectorized"),
                                  probes=ProbeSet.full())

    @pytest.mark.parametrize("frames", [1, 2, 7])
    def test_frame_counts(self, dense_program, dense_snn, rng, frames):
        """A 1-frame batch runs whole; 2 frames run as two 1-frame parts;
        7 frames as three parts the frame count does not divide (3, 2,
        2)."""
        trains = _batch(rng, dense_snn, frames)
        whole = create_backend("vectorized", dense_program).run(trains)
        with forced_split():
            with create_backend("vectorized", dense_program) as backend:
                split = backend.run(trains)
                kept = backend.schedule._kept
                assert sorted((part, state.batch)
                              for part, state in kept.items()) == \
                    {1: [(0, 1)], 2: [(0, 1), (1, 1)],
                     7: [(0, 3), (1, 2), (2, 2)]}[frames]
        _assert_same_run(split, whole)

    @pytest.mark.parametrize("shape", [(0, 8), (3, 0)])
    def test_degenerate_batches(self, dense_program, shape):
        frames, timesteps = shape
        trains = np.zeros((frames, timesteps, dense_program.input_size),
                          dtype=bool)
        whole = create_backend("vectorized", dense_program).run(trains)
        with forced_split():
            result = create_backend("vectorized", dense_program).run(trains)
        assert result.spike_counts.shape == (frames, dense_program.output_size)
        assert result.stats.summary() == whole.stats.summary()

    def test_collect_stats_false(self, dense_program, dense_snn, dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        with forced_split():
            result = create_backend("vectorized", dense_program,
                                    collect_stats=False).run(trains)
        assert result.stats.total_operations == 0

    def test_module_level_run_forwards_options(self, dense_program,
                                               dense_snn, dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        whole = run(dense_program, trains, backend="vectorized")
        with forced_split():
            result = run(dense_program, trains, backend="vectorized",
                         collect_stats=False, optimize=False)
        np.testing.assert_array_equal(result.spike_counts,
                                      whole.spike_counts)
        np.testing.assert_array_equal(result.frame_active_axons,
                                      whole.frame_active_axons)
        assert result.stats.total_operations == 0

    def test_one_cpu_runs_whole_on_the_calling_thread(
            self, dense_program, dense_snn, rng, monkeypatch):
        """With one CPU no batch splits, however small ``PART_FRAMES``:
        the run never enters the split path and keeps one whole state."""
        monkeypatch.setattr(vectorized, "PART_FRAMES", 1)
        monkeypatch.setattr(vectorized, "CPUS", 1)

        def no_split(*args, **kwargs):
            raise AssertionError("a one-CPU run split")

        monkeypatch.setattr(vectorized, "_run_split", no_split)
        trains = _batch(rng, dense_snn, 7)
        with create_backend("vectorized", dense_program) as backend:
            result = backend.run(trains)
            assert [(part, state.batch) for part, state
                    in backend.schedule._kept.items()] == [(0, 7)]
        with create_backend("reference", dense_program) as reference:
            expected = reference.run(trains)
        np.testing.assert_array_equal(result.spike_counts,
                                      expected.spike_counts)
        assert result.stats.summary() == expected.stats.summary()

    def test_metrics_counters_add_up_over_parts(self, dense_program,
                                                dense_snn, dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        counters = []
        for split in (False, True):
            registry = MetricsRegistry()
            with forced_split() if split else nullcontext():
                create_backend("vectorized", dense_program).run(
                    trains, metrics=registry)
            counters.append({name: counter.value for name, counter
                             in registry.counters.items()})
            ops = registry.gauges["schedule/ops"].value
            kernel_count = sum(hist.count for name, hist
                               in registry.histograms.items()
                               if name.startswith("kernels/"))
            assert kernel_count == ops * (3 if split else 1)
        assert counters[0] == counters[1]
        assert counters[0]["schedule/frames"] == len(trains)


class TestSplitThreads:
    def test_part_zero_runs_here_and_helpers_are_reused(
            self, dense_program, dense_snn, rng, monkeypatch):
        seen = []
        original = vectorized.execute_schedule

        def spy(schedule, trains, collector=None, metrics=None, part=0):
            seen.append((part, threading.current_thread()))
            return original(schedule, trains, collector, metrics, part)

        monkeypatch.setattr(vectorized, "execute_schedule", spy)
        trains = _batch(rng, dense_snn, 6)
        with forced_split():
            with create_backend("vectorized", dense_program) as backend:
                for _ in range(4):
                    backend.run(trains)
        assert sorted(part for part, _ in seen) == [0] * 4 + [1] * 4 + [2] * 4
        here = threading.current_thread()
        assert all((thread is here) == (part == 0) for part, thread in seen)
        helpers = {thread for part, thread in seen if part}
        assert all(thread.name.startswith("repro-part") for thread in helpers)
        live = [thread for thread in threading.enumerate()
                if thread.name.startswith("repro-part")]
        assert len(live) <= vectorized.MAX_PARTS - 1

    def test_blas_runs_on_one_thread_during_a_split_only(
            self, dense_program, dense_snn, rng, monkeypatch):
        controls = vectorized._blas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS with a known thread getter is loaded")
        original_counts = _blas_threads()
        seen = []
        original = vectorized.execute_schedule

        def spy(*args, **kwargs):
            seen.append(_blas_threads())
            return original(*args, **kwargs)

        monkeypatch.setattr(vectorized, "execute_schedule", spy)
        trains = _batch(rng, dense_snn, 6)
        try:
            for _, set_threads in controls:
                set_threads(3)
            backend = create_backend("vectorized", dense_program)
            backend.run(trains)
            with forced_split():
                backend.run(trains)
            assert _blas_threads() == [3] * len(controls)
        finally:
            for (_, set_threads), count in zip(controls, original_counts):
                set_threads(count)
        assert seen == [[3] * len(controls)] + [[1] * len(controls)] * 3

    def test_concurrent_split_runs_never_share_a_state(
            self, dense_program, dense_snn, rng):
        batches = [_batch(rng, dense_snn, 7) for _ in range(4)]
        fresh = create_backend("vectorized", dense_program)
        expected = [fresh.run(trains) for trains in batches]
        backend = create_backend("vectorized", dense_program)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the runs
        try:
            with forced_split(), ThreadPoolExecutor(4) as pool:
                results = list(pool.map(backend.run, batches * 3,
                                        timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 12
        for result, want in zip(results, expected * 3):
            _assert_same_run(result, want)

    def test_unsplit_runs_start_no_helpers(self, dense_program, dense_snn,
                                           rng, monkeypatch):
        monkeypatch.setattr(vectorized, "_helpers", None)
        with create_backend("vectorized", dense_program) as backend:
            for frames in (1, 12):
                assert part_count(frames) == 1
                backend.run(_batch(rng, dense_snn, frames))
        assert vectorized._helpers is None

    def test_helpers_start_once_and_serve_every_backend(
            self, dense_program, dense_snn, rng, monkeypatch):
        monkeypatch.setattr(vectorized, "_helpers", None)
        trains = _batch(rng, dense_snn, 6)
        try:
            with forced_split():
                with create_backend("vectorized", dense_program) as first:
                    first.run(trains)
                    helpers = vectorized._helpers
                    assert helpers is not None
                    first.run(trains)
                    assert vectorized._helpers is helpers
                with create_backend("vectorized", dense_program,
                                    optimize=False) as second:
                    second.run(trains)
                assert vectorized._helpers is helpers
        finally:
            if vectorized._helpers is not None:
                vectorized._helpers.shutdown()

    def test_helpers_survive_a_part_error(self):
        """A part that raises on a helper thread leaves the helpers to the
        next run, which is exact."""
        program = _overflow_program()
        bad = np.zeros((4, 3, 4), dtype=bool)
        bad[3] = True  # only frame 3, part 2, overflows
        # at most two of the four inputs on: every partial sum fits
        safe = np.random.default_rng(5).random((4, 3, 4)) < 0.6
        safe[..., 2:] = False
        with forced_split(), create_backend("vectorized", program) as backend:
            backend.run(safe)
            helpers = vectorized._helpers
            with pytest.raises(NeuronCoreError):
                backend.run(bad)
            after = backend.run(safe)
            assert vectorized._helpers is helpers
        with create_backend("vectorized", program) as whole:
            _assert_same_run(after, whole.run(safe))
        assert after.spike_counts.sum() > 0

    def test_concurrent_split_runs_leave_blas_as_found(
            self, dense_program, dense_snn, rng, monkeypatch):
        """Split runs on four threads at once: every part runs on one BLAS
        thread, and the count the runs found is back afterwards, because
        no run restores it while another still has it pinned."""
        controls = vectorized._blas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS with a known thread getter is loaded")
        original_counts = _blas_threads()
        seen = []
        original = vectorized.execute_schedule

        def spy(*args, **kwargs):
            seen.append(_blas_threads())
            return original(*args, **kwargs)

        monkeypatch.setattr(vectorized, "execute_schedule", spy)
        batches = [_batch(rng, dense_snn, 6) for _ in range(4)]
        backend = create_backend("vectorized", dense_program)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the runs
        try:
            for _, set_threads in controls:
                set_threads(3)
            with forced_split(), ThreadPoolExecutor(4) as pool:
                list(pool.map(backend.run, batches * 2, timeout=120))
            assert _blas_threads() == [3] * len(controls)
        finally:
            sys.setswitchinterval(interval)
            for (_, set_threads), count in zip(controls, original_counts):
                set_threads(count)
        assert seen == [[1] * len(controls)] * (8 * 3)

    def test_blas_count_restored_after_a_part_error(self):
        controls = vectorized._blas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS with a known thread getter is loaded")
        original_counts = _blas_threads()
        program = _overflow_program()
        try:
            for _, set_threads in controls:
                set_threads(3)
            with forced_split(), \
                    create_backend("vectorized", program) as backend:
                with pytest.raises(NeuronCoreError):
                    backend.run(np.ones((4, 3, 4), dtype=bool))
            assert _blas_threads() == [3] * len(controls)
        finally:
            for (_, set_threads), count in zip(controls, original_counts):
                set_threads(count)


class TestClose:
    """``close()`` frees every part's kept state; the backend stays
    usable."""

    def test_close_is_idempotent_and_reruns(self, dense_program, dense_snn,
                                            rng):
        trains = _batch(rng, dense_snn, 6)
        with forced_split():
            backend = create_backend("vectorized", dense_program)
            first = backend.run(trains)
            backend.close()
            backend.close()
            assert backend.schedule._kept == {}
            _assert_same_run(backend.run(trains), first)
            assert sorted(backend.schedule._kept) == [0, 1, 2]
            backend.close()
        assert backend.schedule._kept == {}

    def test_context_manager_drops_every_parts_state(self, dense_program,
                                                     dense_snn, rng):
        trains = _batch(rng, dense_snn, 6)
        with forced_split():
            with create_backend("vectorized", dense_program) as backend:
                backend.run(trains)
                assert sorted(backend.schedule._kept) == [0, 1, 2]
            assert backend.schedule._kept == {}
            with pytest.raises(KeyError):
                with backend:
                    backend.run(trains)
                    raise KeyError("leaving the block by an error")
        assert backend.schedule._kept == {}

    def test_engine_close_closes_cached_backends(self, dense_program,
                                                 dense_snn, rng):
        trains = _batch(rng, dense_snn, 6)
        with forced_split(), ExecutionEngine(dense_program) as engine:
            engine.run(trains, backend="vectorized")
            schedule = engine.backend("vectorized").schedule
            assert sorted(schedule._kept) == [0, 1, 2]
        assert schedule._kept == {}

    def test_auto_close_propagates_to_delegates(self, dense_program,
                                                dense_snn, rng):
        backend = AutoBackend(dense_program)
        with forced_split():
            backend.run(_batch(rng, dense_snn, 6))
            backend.run(_batch(rng, dense_snn, 1))
        assert backend.last_selection == "reference"
        schedule = backend.delegate("vectorized").schedule
        assert sorted(schedule._kept) == [0, 1, 2]
        backend.close()
        assert schedule._kept == {}


#: the runs each overflowing frame alone must raise identically on
BACKEND_RUNS = (("reference", {}), ("vectorized", {}),
                ("vectorized", {"optimize": False}))


class TestSplitErrors:
    def test_overflow_class_and_message(self):
        """An all-ones batch overflows in every part: the split raises the
        same class and message as the unsplit run."""
        program = _overflow_program()
        trains = np.ones((4, 3, 4), dtype=bool)
        whole = _error_of(create_backend("vectorized", program), trains)
        assert whole[0] is NeuronCoreError and "overflowed" in whole[1]
        with forced_split():
            with create_backend("vectorized", program) as backend:
                assert _error_of(backend, trains) == whole

    def test_overflows_in_different_parts_raise_the_lowest_parts_error(
            self):
        """Frame 0 overflows core 1 at step 2; frame 3 overflows core 0 at
        step 0.  Unsplit, the first error in step and op order is frame
        3's; split into (0, 1), (2), (3), it is the lowest raising part's,
        frame 0's, on every run.  Each frame alone raises its own error on
        every backend."""
        program = _overflow_program(tiles=2)
        trains = np.zeros((4, 4, 8), dtype=bool)
        trains[0, 2, 4:8] = True
        trains[3, 0, 0:4] = True
        trains[1:3, :, [0, 5]] = True  # busy, never overflowing
        alone = []
        for frame in (0, 3):
            errors = [_error_of(create_backend(name, program, **options),
                                trains[frame:frame + 1])
                      for name, options in (("reference", {}),
                                            ("vectorized", {}),
                                            ("vectorized",
                                             {"optimize": False}))]
            assert errors[0] == errors[1] == errors[2]
            alone.append(errors[0])
        assert alone[0] != alone[1]
        assert "(0, 1)" in alone[0][1] and "(0, 0)" in alone[1][1]
        assert _error_of(create_backend("vectorized", program),
                         trains) == alone[1]
        assert _error_of(create_backend("reference", program),
                         trains) == alone[0]
        with forced_split():
            with create_backend("vectorized", program) as backend:
                assert [_error_of(backend, trains)
                        for _ in range(3)] == [alone[0]] * 3
                # the raising parts kept nothing; the quiet one kept its own
                assert sorted(backend.schedule._kept) == [1]

    @pytest.mark.parametrize("case", list(OVERFLOW_CASES))
    def test_each_frame_alone_and_the_lowest_raising_part(self, case):
        """Each overflowing frame alone raises one error on every backend.
        A batch raises the reference's lowest overflowing frame's,
        unsplit ``vectorized``'s earliest step's, and split, the lowest
        raising part's (within it, the earliest step's) on every run:
        the error that part's frames raise run whole."""
        overflows = OVERFLOW_CASES[case]
        program = _overflow_program(tiles=2)
        trains = _overflow_trains(overflows)
        alone = {}
        for frame in overflows:
            errors = {_error_of(create_backend(name, program, **options),
                                trains[frame:frame + 1])
                      for name, options in BACKEND_RUNS}
            assert len(errors) == 1
            alone[frame] = errors.pop()
            assert alone[frame][0] is NeuronCoreError
            core = overflows[frame][0]
            assert f"(0, {core})" in alone[frame][1]

        def earliest(frames):
            """The errors of those of ``frames`` that overflow first."""
            step = min(overflows[frame][1] for frame in frames)
            return {alone[frame] for frame in frames
                    if overflows[frame][1] == step}

        assert _error_of(create_backend("reference", program), trains) == \
            alone[min(overflows)]
        assert _error_of(create_backend("vectorized", program), trains) in \
            earliest(overflows)
        part = next(part for part in SPLIT_PARTS if set(part) & set(overflows))
        with forced_split():
            with create_backend("vectorized", program) as backend:
                errors = [_error_of(backend, trains) for _ in range(3)]
        assert errors == [errors[0]] * 3
        assert errors[0] in earliest([frame for frame in part
                                      if frame in overflows])
        assert errors[0] == _error_of(create_backend("vectorized", program),
                                      trains[list(part)])

    def test_a_raising_part_waits_for_every_other_part(self, monkeypatch):
        """Part 0 raises at once while the helper parts are still running:
        the error surfaces only after they finished and kept their
        states."""
        program = _overflow_program()
        trains = np.zeros((4, 3, 4), dtype=bool)
        trains[0] = True  # frame 0, part 0, overflows at step 0
        finished = []
        original = vectorized.execute_schedule

        def slow_helpers(schedule, spike_trains, collector=None,
                         metrics=None, part=0):
            if part:
                time.sleep(0.2)  # well after part 0 raised
            result = original(schedule, spike_trains, collector, metrics,
                              part)
            finished.append(part)
            return result

        monkeypatch.setattr(vectorized, "execute_schedule", slow_helpers)
        with forced_split(), create_backend("vectorized", program) as backend:
            with pytest.raises(NeuronCoreError):
                backend.run(trains)
            assert sorted(finished) == [1, 2]
            assert sorted(backend.schedule._kept) == [1, 2]

    @pytest.mark.parametrize("split", [False, True])
    def test_run_after_overflow_matches_fresh(self, split):
        program = _overflow_program()
        # at most two of the four inputs on: every partial sum fits
        safe = np.random.default_rng(5).random((4, 6, 4)) < 0.6
        safe[..., 2:] = False
        with forced_split() if split else nullcontext():
            with create_backend("vectorized", program) as backend:
                backend.run(safe)
                with pytest.raises(NeuronCoreError):
                    backend.run(np.ones((4, 6, 4), dtype=bool))
                after = backend.run(safe)
            with create_backend("vectorized", program) as fresh:
                _assert_same_run(after, fresh.run(safe))
        assert after.spike_counts.sum() > 0


class TestKeptRunState:
    """Each frame part keeps its state on the schedule for its next run of
    the same frame count; every run still equals a fresh backend's."""

    @pytest.mark.parametrize("split", [False, True])
    def test_run_sequence_matches_fresh_backends(self, dense_program,
                                                 dense_snn, rng, split):
        a, b = (_batch(rng, dense_snn, 12) for _ in range(2))
        sequence = (a, b, a, _batch(rng, dense_snn, 7),
                    _batch(rng, dense_snn, 32))
        probes = ProbeSet.full()
        with forced_split() if split else nullcontext():
            with create_backend("vectorized", dense_program) as backend:
                for trains in sequence:
                    result = backend.run(trains, probes=probes)
                    with create_backend("vectorized", dense_program) as fresh:
                        _assert_same_run(result,
                                         fresh.run(trains, probes=probes))

    def test_one_state_per_part_reused_only_at_its_frame_count(
            self, dense_program, dense_snn, rng):
        backend = create_backend("vectorized", dense_program)
        schedule = backend.schedule
        steps = dense_snn.timesteps
        backend.run(_batch(rng, dense_snn, 12))
        kept = schedule.take_state(12, steps)
        # taken back reset: every array the schedule writes is zero again
        assert not kept.active_axons.any()
        assert not any(array.any() for array in kept.potential + kept.axons)
        # taking empties the keep, so a concurrent run gets its own state
        assert schedule.take_state(12, steps) is not kept
        schedule.keep_state(kept)
        backend.run(_batch(rng, dense_snn, 12))
        assert schedule.take_state(12, steps) is kept
        schedule.keep_state(kept)
        # a 7-frame run replaces the kept 12-frame state
        backend.run(_batch(rng, dense_snn, 7))
        assert schedule.take_state(7, steps).batch == 7
        assert schedule.take_state(12, steps) is not kept
        # split into (3, 2, 2): each part keeps and takes back its own
        with forced_split():
            backend.run(_batch(rng, dense_snn, 7))
            parts = dict(schedule._kept)
            assert [parts[part].batch for part in range(3)] == [3, 2, 2]
            backend.run(_batch(rng, dense_snn, 7))
            assert all(schedule._kept[part] is parts[part]
                       for part in range(3))
            assert schedule.take_state(2, steps, part=1) is parts[1]
            schedule.keep_state(parts[1], part=1)
            # a 2-part run frees what part 2 kept
            backend.run(_batch(rng, dense_snn, 2))
            assert sorted(schedule._kept) == [0, 1]
        # an unsplit run frees every part's but its own
        backend.run(_batch(rng, dense_snn, 7))
        assert sorted(schedule._kept) == [0]
        backend.close()
        assert schedule._kept == {}

    def test_concurrent_runs_never_share_a_state(self, dense_program,
                                                 dense_snn, rng):
        batches = [_batch(rng, dense_snn, 12) for _ in range(4)]
        fresh = create_backend("vectorized", dense_program)
        expected = [fresh.run(trains) for trains in batches]
        backend = create_backend("vectorized", dense_program)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the runs
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(backend.run, batches * 5,
                                        timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 20
        for result, want in zip(results, expected * 5):
            _assert_same_run(result, want)

    def test_results_never_alias_the_kept_state(self, dense_program,
                                                dense_snn, rng):
        a, b = (_batch(rng, dense_snn, 12) for _ in range(2))
        probes = ProbeSet.full()
        fresh = create_backend("vectorized", dense_program)
        expected = [fresh.run(trains, probes=probes) for trains in (a, b)]
        for split in (False, True):
            backend = create_backend("vectorized", dense_program)
            with forced_split() if split else nullcontext():
                first = backend.run(a, probes=probes)
                second = backend.run(b, probes=probes)
                # a later run leaves earlier results alone ...
                _assert_same_run(first, expected[0])
                # ... and what a caller does to a result never reaches the
                # next run
                second.spike_counts[:] = 99
                second.frame_active_axons[:] = -1
                for array in second.probes.potentials.values():
                    array[:] = 7
                _assert_same_run(backend.run(a, probes=probes), expected[0])

    def test_state_never_pickled_and_dropped_on_close(self, dense_program,
                                                      dense_snn, rng):
        backend = create_backend("vectorized", dense_program)
        schedule = backend.schedule
        size = len(pickle.dumps(schedule))
        with forced_split():
            backend.run(_batch(rng, dense_snn, 5))
        assert sorted(schedule._kept) == [0, 1, 2]
        assert len(pickle.dumps(schedule)) == size
        copy = pickle.loads(pickle.dumps(schedule))
        assert copy._kept == {}
        backend.close()
        assert schedule._kept == {}

    @pytest.mark.parametrize("split", [False, True])
    def test_kept_state_never_crosses_a_dtype_change(self, wide_program,
                                                     split):
        """The same frames at T=15 (int32 state) and T=17 (int64): each
        run equals a fresh backend's and the reference's, and a kept
        state is reused only at its own dtype."""
        rng = np.random.default_rng(17)
        frames = rng.random((6, 17, 4)) < 0.8
        frames[0] = True  # past int32 by T=17
        runs = (frames[:, :15], frames, frames[:, :15], frames)
        reference = create_backend("reference", wide_program)
        with forced_split() if split else nullcontext():
            with create_backend("vectorized", wide_program) as backend:
                schedule = backend.schedule
                assert [schedule.state_dtype(trains.shape[1]) for trains in
                        runs[:2]] == [np.int32, np.int64]
                for trains in runs:
                    result = backend.run(trains, probes=ProbeSet.full())
                    assert {state.dtype for state in
                            schedule._kept.values()} == \
                        {schedule.state_dtype(trains.shape[1])}
                    with create_backend("vectorized", wide_program) as fresh:
                        _assert_same_run(result, fresh.run(
                            trains, probes=ProbeSet.full()))
                    expected = reference.run(trains, probes=ProbeSet.full())
                    np.testing.assert_array_equal(result.spike_counts,
                                                  expected.spike_counts)
                    assert result.stats.summary() == \
                        expected.stats.summary()
                    _compare_probes("vectorized", "reference", result,
                                    expected)
        # a state kept at one dtype is never handed to the other
        backend = create_backend("vectorized", wide_program)
        schedule = backend.schedule
        backend.run(frames[:, :15])
        narrow = schedule.take_state(6, 15)
        assert narrow.dtype == np.int32
        schedule.keep_state(narrow)
        wide = schedule.take_state(6, 17)
        assert wide is not narrow and wide.dtype == np.int64
        schedule.keep_state(wide)
        assert schedule.take_state(6, 15) is not wide


class TestAutoSelection:
    def test_reference_for_one_frame_vectorized_otherwise(self):
        assert AutoBackend.select(1) == "reference"
        assert [AutoBackend.select(frames) for frames in (0, 2, 2048)] == \
            ["vectorized"] * 3

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
        vectorized_result = run(dense_program, trains, backend="vectorized")
        np.testing.assert_array_equal(result.spike_counts,
                                      vectorized_result.spike_counts)

    def test_auto_splits_large_batches(self, dense_program, dense_snn, rng):
        """``auto`` hands a large batch to ``vectorized``, which splits it
        itself."""
        trains = _batch(rng, dense_snn, 7)
        probes = ProbeSet.full()
        backend = AutoBackend(dense_program)
        with forced_split():
            result = backend.run(trains, probes=probes)
        assert backend.last_selection == "vectorized"
        kept = backend.delegate("vectorized").schedule._kept
        assert [kept[part].batch for part in range(3)] == [3, 2, 2]
        with create_backend("vectorized", dense_program) as whole:
            _assert_same_run(result, whole.run(trains, probes=probes))


@pytest.mark.parametrize("optimize_noc", [False, True])
@pytest.mark.parametrize("name", SMALL_BUILDERS)
class TestEveryBuilder:
    """On every small builder and both pipelines, a split run's kept
    states and a failed split run never reach a later run's results
    (``tests/test_opt_parity.py`` holds the split equal to whole runs and
    the reference)."""

    def test_kept_part_states_match_fresh_runs(self, name, optimize_noc):
        """7, 7, 4, 2, 4 and 7 frames through one split backend: parts
        reuse their kept states where the frame counts match and
        allocate where not, and each run equals an unsplit run from a
        fresh state."""
        program, trains = _builder_case(name, optimize_noc)
        sequence = (trains, trains[::-1], trains[:4], trains[3:5],
                    trains[1:5], trains)
        probes = ProbeSet.full()
        with create_backend("vectorized", program) as whole:
            expected = []
            for batch in sequence:
                whole.close()  # every expected run starts afresh
                expected.append(whole.run(batch, probes=probes))
        with forced_split(), create_backend("vectorized", program) as backend:
            for batch, want in zip(sequence, expected):
                _assert_same_run(backend.run(batch, probes=probes), want)

    def test_run_after_a_part_error_matches_fresh(self, name, optimize_noc):
        """Part 1 raises halfway through a run, its state half written:
        it keeps nothing, and the next run equals an unsplit run."""
        program, trains = _builder_case(name, optimize_noc)
        probes = ProbeSet.full()
        with create_backend("vectorized", program) as whole:
            expected = whole.run(trains, probes=probes)
        with forced_split(), create_backend("vectorized", program) as backend:
            backend.run(trains)
            with pytest.MonkeyPatch.context() as patch:
                _fail_part(patch, failing=1)
                with pytest.raises(RuntimeError, match="at step 2"):
                    backend.run(trains, probes=probes)
            assert sorted(backend.schedule._kept) == [0, 2]
            _assert_same_run(backend.run(trains, probes=probes), expected)
            assert sorted(backend.schedule._kept) == [0, 1, 2]

    def test_auto_one_frame_matches_its_split_batch(self, name,
                                                    optimize_noc):
        """``auto`` runs one frame on ``reference`` and a batch on
        ``vectorized``, split: frame 0 of the batch equals the one-frame
        run in counts, prediction, statistics and probe captures."""
        program, trains = _builder_case(name, optimize_noc)
        probes = ProbeSet.full()
        with forced_split(), AutoBackend(program) as backend:
            single = backend.run(trains[:1], probes=probes)
            assert backend.last_selection == "reference"
            batch = backend.run(trains, probes=probes)
            assert backend.last_selection == "vectorized"
            schedule = backend.delegate("vectorized").schedule
            assert sorted(schedule._kept) == [0, 1, 2]
            frame_stats = schedule.build_stats(
                1, trains.shape[1], batch.frame_active_axons[0])
        np.testing.assert_array_equal(batch.spike_counts[:1],
                                      single.spike_counts)
        assert batch.predictions[0] == single.predictions[0]
        assert frame_stats.summary() == single.stats.summary()
        ours, theirs = batch.probes.frame(0), single.probes
        for attr in ("spikes", "potentials", "acc_active"):
            mine, base = getattr(ours, attr), getattr(theirs, attr)
            assert set(mine) == set(base)
            for layer in mine:
                np.testing.assert_array_equal(mine[layer], base[layer])
        assert ours.telemetry.as_dict() == theirs.telemetry.as_dict()


@pytest.mark.slow
class TestSlowSplitSweeps:
    """Multi-frame split sweeps, deselected from fast tier-1 runs."""

    def test_mlp_32_frame_split_sweep(self, dense_program, dense_snn, rng):
        trains = _batch(rng, dense_snn, 32)
        whole = create_backend("vectorized", dense_program).run(
            trains, probes=ProbeSet.full())
        with forced_split():
            split = create_backend("vectorized", dense_program).run(
                trains, probes=ProbeSet.full())
        _assert_same_run(split, whole)

    def test_conv_split_parity(self, conv_program, conv_snn):
        inputs = np.random.default_rng(7).random((8, conv_snn.input_size))
        trains = deterministic_encode(inputs, conv_snn.timesteps)
        with forced_split():
            assert_backend_parity(conv_program, trains,
                                  backends=("reference", "vectorized"),
                                  probes=ProbeSet.full())
