"""The ``sharded`` backend: supervised multiprocess execution across workers.

One Python process caps sweep throughput no matter how well the inner loop
vectorizes.  The lowered (and optimized) schedule is *static picklable
state* — numpy arrays, slices and plain attributes — so it ships to worker
processes once, and each worker runs a contiguous shard of the batch's frame
axis through exactly the same executor the ``vectorized`` backend uses
(:func:`repro.engine.vectorized.execute_schedule`).  A shard's spike trains
travel bit-packed, eight inputs a byte, and each worker keeps its run state
for its next shard of the same frame count.

The worker pool is **persistent**: it is forked lazily on the first run that
actually shards and then kept alive across repeated
:meth:`ExecutionEngine.run <repro.engine.ExecutionEngine.run>` calls, so the
fork cost and the one-time schedule pickle/unpickle are amortised over a
whole sweep instead of being paid per batch.  Tear it down explicitly with
:meth:`ShardedBackend.close` or by using the backend (or the engine) as a
context manager; an unclosed backend terminates its pool on garbage
collection.  Runs whose batch is smaller than two frames per shard fall
back to in-process execution, so 1-worker and tiny-batch runs never pay
process overhead (and never fork a pool at all).

Execution is **supervised**, not fire-and-forget: shards are submitted
individually to a :class:`concurrent.futures.ProcessPoolExecutor` and
harvested asynchronously, so a worker process that dies (OOM-kill,
segfault) surfaces promptly as
:class:`~repro.resilience.WorkerCrashError` instead of blocking forever.
Passing a :class:`~repro.resilience.RunPolicy` upgrades detection to
recovery: hung workers are timed out
(:class:`~repro.resilience.ShardTimeoutError` when exhausted), the pool is
torn down and re-forked, failed shards are re-run with bounded
deterministic backoff, a whole-run deadline is enforced
(:class:`~repro.resilience.RunDeadlineExceeded`), and every observation
lands in a :class:`~repro.resilience.ResilienceReport` attached to the
result.  A :class:`~repro.resilience.FaultPlan` (tests only) injects
deterministic faults into workers through the same initializer payload that
carries the schedule.

Merging is deterministic: shards are contiguous frame ranges in order, spike
counts concatenate along the frame axis, predictions are recomputed from the
merged counts, and the data-dependent ``ACC`` activity sums linearly over
frames, so the analytically reconstructed
:class:`~repro.core.stats.ExecutionStats` is *identical* to a single-process
run — the sharded backend is bit-exact with ``vectorized`` and ``reference``
including statistics, **and recovered runs are bit-identical to unfaulted
ones** because retried shards recompute exactly the same frame range.

Worker-side errors (the one data-dependent error class: partial-sum
overflow) re-raise in the parent with the same exception classes the other
backends use (:class:`~repro.core.neuron_core.NeuronCoreError`,
:class:`~repro.core.ps_router.PsRouterError`), are **never retried** (they
are deterministic program errors, not infrastructure failures), and the
pool stays usable afterwards.

Worker count resolves from, in order: the ``workers`` constructor argument,
the ``REPRO_SHARDED_WORKERS`` environment variable, ``os.cpu_count()``
(capped at :data:`MAX_DEFAULT_WORKERS`).

The workers split the machine's cores for BLAS: each sets every OpenBLAS
it has loaded to ``max(1, os.cpu_count() // workers)`` threads at start-up
(through ctypes; a process without a known OpenBLAS setter is left as it
is), so concurrent shards do not oversubscribe the cores with the
accumulate matmuls.  The parent process keeps its own thread count, which
in-process runs use.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.simulator import SimulationResult
from ..mapping.program import Program
from ..resilience import (
    FaultInjector,
    FaultPlan,
    ResilienceReport,
    ResultIntegrityError,
    RunDeadlineExceeded,
    RunPolicy,
    ShardTimeoutError,
    TransientWorkerError,
    WorkerCrashError,
)
from .base import EngineError, ExecutionBackend, normalise_spike_trains
from .lowering import LoweredSchedule
from .registry import register_backend
from .vectorized import build_result, execute_schedule, prepare_schedule

#: environment variable overriding the default worker count
WORKERS_ENV_VAR = "REPRO_SHARDED_WORKERS"

#: default cap so a big machine does not fork dozens of workers per run
MAX_DEFAULT_WORKERS = 8


def resolve_worker_count(workers: Optional[int] = None) -> int:
    """The worker count to use: explicit argument, env var, or cpu count.

    Errors name the offending source — the ``workers=`` argument vs the
    ``REPRO_SHARDED_WORKERS`` environment variable — so misconfiguration in
    a service environment is diagnosable from the exception alone.
    """
    source = "the workers= argument"
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        if env is not None:
            source = f"the environment ({WORKERS_ENV_VAR}={env})"
            try:
                workers = int(env)
            except ValueError:
                raise EngineError(
                    f"{WORKERS_ENV_VAR}={env!r} (environment) must be an "
                    f"integer"
                ) from None
        else:
            source = "the machine default"
            workers = min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS)
    if workers < 1:
        raise EngineError(
            f"worker count must be >= 1, got {workers} from {source}")
    return workers


# ----------------------------------------------------------------------
# BLAS threads
# ----------------------------------------------------------------------
#: thread-count setters exported by OpenBLAS builds, tried in this order:
#: numpy's own wheel build, then ILP64 and LP64 system builds
BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                       "openblas_set_num_threads64_",
                       "openblas_set_num_threads")


def _openblas_libraries() -> List[ctypes.CDLL]:
    """Every OpenBLAS shared library mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        fields = line.split(None, 5)  # address perms offset dev inode path
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5]):
            paths.add(fields[5])
    libraries = []
    for path in sorted(paths):
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libraries


def _set_blas_threads(count: int) -> None:
    """Set every loaded OpenBLAS to ``count`` threads, through whichever
    setter of :data:`BLAS_THREAD_SETTERS` it exports (none: no change)."""
    for library in _openblas_libraries():
        for name in BLAS_THREAD_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(count)
                break


# ----------------------------------------------------------------------
# Worker-side state and entry points (module level: picklable by name)
# ----------------------------------------------------------------------
_WORKER_SCHEDULE: Optional[LoweredSchedule] = None
_WORKER_FAULTS: Optional[FaultPlan] = None


def _worker_init(payload: bytes, workers: int,
                 fault_payload: Optional[bytes] = None) -> None:
    global _WORKER_SCHEDULE, _WORKER_FAULTS
    _set_blas_threads(max(1, (os.cpu_count() or 1) // workers))
    _WORKER_SCHEDULE = pickle.loads(payload)
    _WORKER_FAULTS = (pickle.loads(fault_payload)
                      if fault_payload is not None else None)


def _worker_ready() -> None:
    """The no-op :meth:`ShardedBackend.warm_pool` waits for."""


def _worker_run(task):
    """Run one shard: ``(index, attempt, packed, probe_set, want_metrics)``
    -> ``(index, counts, active_axons, probe_result, metrics_snapshot)``.

    ``packed`` is the shard's spike trains bit-packed along the input axis
    (:meth:`ShardedBackend._shard_pieces`); the worker unpacks it to the
    program's input size.  ``attempt`` gates fault injection (a fault
    listed for attempt 0 does not refire on the supervised retry), and the
    optional :class:`~repro.obs.ProbeSet` — a small frozen dataclass,
    picklable with the task — is resolved worker-side so each shard returns
    its own :class:`~repro.obs.ProbeResult` for the parent's deterministic
    frame-axis merge.  When ``want_metrics`` is true, the worker records
    into a local :class:`~repro.obs.MetricsRegistry` and ships a picklable
    snapshot back for the parent's shard-index-ordered merge — exactly the
    ``ExecutionStats`` pattern.  Failed attempts never reach the parent, so
    retried shards contribute their counters exactly once.
    """
    index, attempt, packed, probe_set, want_metrics = task
    schedule = _WORKER_SCHEDULE
    shard = np.unpackbits(packed, axis=-1,
                          count=schedule.program.input_size).view(np.bool_)
    injector = None
    if _WORKER_FAULTS is not None:
        specs = _WORKER_FAULTS.for_shard(index, attempt)
        if specs:
            injector = FaultInjector(specs)
    collector = None
    if probe_set is not None:
        from ..obs.probes import ScheduleProbeRun

        frames, timesteps, _ = shard.shape
        collector = ScheduleProbeRun(probe_set.resolve(schedule.program),
                                     schedule, frames, timesteps)
    metrics = None
    if want_metrics:
        from ..obs.metrics import MetricsRegistry
        from ..obs.profile import span

        metrics = MetricsRegistry()
        with span(metrics, "sharded/shard"):
            counts, active_axons = execute_schedule(schedule, shard,
                                                    collector, fault=injector,
                                                    metrics=metrics)
    else:
        counts, active_axons = execute_schedule(schedule, shard, collector,
                                                fault=injector)
    probe_result = collector.result() if collector is not None else None
    if injector is not None:
        counts = injector.corrupt_result(counts)
    snapshot = metrics.snapshot() if metrics is not None else None
    return index, counts, active_axons, probe_result, snapshot


@register_backend
class ShardedBackend(ExecutionBackend):
    """Splits the batch's frame axis across a persistent worker pool."""

    name = "sharded"

    def __init__(self, program: Program, collect_stats: bool = True,
                 workers: Optional[int] = None, optimize: bool = True,
                 start_method: Optional[str] = None,
                 policy: Optional[RunPolicy] = None,
                 faults: Optional[FaultPlan] = None):
        super().__init__(program, collect_stats=collect_stats)
        self.workers = resolve_worker_count(workers)
        if policy is not None and not isinstance(policy, RunPolicy):
            raise EngineError(
                f"policy must be a repro.resilience.RunPolicy, "
                f"got {type(policy).__name__}")
        self.policy = policy
        schedule = prepare_schedule(program, optimize)
        self.schedule: LoweredSchedule = schedule
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None
        try:
            #: the schedule, serialized once; the pool ships it at fork time
            self._payload = pickle.dumps(schedule,
                                         protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # pragma: no cover - schedules are picklable
            raise EngineError(
                f"lowered schedule is not picklable, cannot shard: {exc}"
            ) from exc
        self.faults: Optional[FaultPlan] = None
        self._fault_payload: Optional[bytes] = None
        if faults:
            self.set_faults(faults)

    def set_faults(self, faults: Optional[FaultPlan]) -> None:
        """Replace the injected fault plan (tests only).

        The plan ships inside the pool initializer payload, so any live
        pool is torn down and the next run's re-fork picks the plan up.
        """
        if faults and not isinstance(faults, FaultPlan):
            raise EngineError(
                f"faults must be a repro.resilience.FaultPlan, "
                f"got {type(faults).__name__}")
        self.faults = faults or None
        self._fault_payload = (
            pickle.dumps(faults, protocol=pickle.HIGHEST_PROTOCOL)
            if faults else None)
        self._terminate_pool()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def pool_alive(self) -> bool:
        """True while a worker pool is forked and usable."""
        return self._pool is not None

    def warm_pool(self) -> None:
        """Fork the worker pool now instead of on the first run.

        The pool starts its processes at the first task, so this submits
        one no-op per worker and waits for them: each ran after its worker
        forked and unpickled the schedule.  Long-lived callers
        (:mod:`repro.serve`) thus pay both at load time, and the first
        sharded request is served at steady-state latency.  Idempotent
        while the pool lives.
        """
        pool = self._ensure_pool()
        for future in [pool.submit(_worker_ready)
                       for _ in range(self.workers)]:
            future.result()

    def _ensure_pool(self, metrics=None) -> ProcessPoolExecutor:
        """Fork the persistent pool on first use (``workers`` processes)."""
        if self._pool is None:
            tick = time.perf_counter()
            ctx = multiprocessing.get_context(self.start_method)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx,
                initializer=_worker_init,
                initargs=(self._payload, self.workers, self._fault_payload))
            if metrics is not None:
                metrics.record_span("sharded/fork",
                                    time.perf_counter() - tick)
        return self._pool

    def _terminate_pool(self) -> None:
        """Kill the pool outright (idempotent; a later run re-forks it).

        SIGKILL the workers before ``shutdown``: a polite shutdown would
        block behind a hung worker, and a crashed pool cannot be drained.
        """
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        for process in processes:
            process.kill()
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.join()

    def close(self) -> None:
        """Terminate the worker pool, and with it the workers' kept run
        states, and free the in-process one (idempotent; a later run
        re-forks the pool)."""
        self._terminate_pool()
        self.schedule.drop_state()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def shard_count(self, frames: int) -> int:
        """How many shards a ``frames``-sized batch actually splits into.

        Never more shards than frames (a worker with an empty shard is pure
        overhead), and a single shard runs in-process.  Because shards never
        outnumber workers either, every submitted shard starts executing
        immediately — which is what makes the policy's ``shard_timeout``
        (measured from submission) a fair per-shard bound.
        """
        return max(1, min(self.workers, frames))

    def run(self, spike_trains: np.ndarray,
            probes=None, metrics=None) -> SimulationResult:
        program = self.program
        spike_trains = normalise_spike_trains(spike_trains, program.input_size)
        frames, timesteps, _ = spike_trains.shape
        shards = self.shard_count(frames)
        if metrics is not None:
            metrics.gauge("sharded/schedule_bytes").set(len(self._payload))
            metrics.gauge("sharded/shards").set(shards)
        probe_result = None
        report: Optional[ResilienceReport] = None
        if shards <= 1:
            # in-process fallback: no pool, hence no faults and nothing to
            # supervise — a policy holder still gets a (clean) report
            collector = None
            if probes:
                from ..obs.probes import ScheduleProbeRun

                collector = ScheduleProbeRun(probes.resolve(program),
                                             self.schedule, frames, timesteps)
            tick = time.perf_counter()
            counts, active_axons = execute_schedule(self.schedule,
                                                    spike_trains, collector,
                                                    metrics=metrics)
            if metrics is not None:
                metrics.record_span("run/sharded/timesteps",
                                    time.perf_counter() - tick)
            if collector is not None:
                probe_result = collector.result()
            if self.policy is not None:
                report = ResilienceReport(self.policy)
        else:
            tick = time.perf_counter()
            counts, active_axons, probe_result, report = self._run_sharded(
                spike_trains, shards, probes if probes else None,
                metrics=metrics)
            if metrics is not None:
                metrics.record_span("run/sharded/timesteps",
                                    time.perf_counter() - tick)
            if self.policy is None:
                report = None
        result = build_result(self.schedule, counts, active_axons,
                              frames, timesteps, self.collect_stats)
        result.probes = probe_result
        result.resilience = report
        return result

    def _shard_pieces(self, spike_trains: np.ndarray,
                      shards: int) -> List[np.ndarray]:
        """The batch as ``shards`` contiguous frame ranges, each bit-packed
        along the input axis (uint8, eight inputs a byte), as the workers
        receive them."""
        return [np.packbits(piece, axis=-1)
                for piece in np.array_split(spike_trains, shards, axis=0)]

    # ------------------------------------------------------------------
    # Supervised execution
    # ------------------------------------------------------------------
    def _run_sharded(self, spike_trains: np.ndarray, shards: int, probes,
                     metrics=None):
        """Submit shards asynchronously, harvest under the policy, merge.

        Without a policy this still fails fast on a dead worker (the
        executor marks itself broken promptly) — it just never retries.
        The merge is deterministic regardless of completion order: results
        key on the shard index, and shard ``i`` always recomputes the same
        contiguous frame range, so recovered runs are bit-identical.
        Worker metrics snapshots merge the same way — absorbed in shard
        index order — so the aggregated registry is deterministic for a
        given shard decomposition, and work counters (frame-proportional
        by contract) reproduce single-process values exactly.
        """
        pieces = self._shard_pieces(spike_trains, shards)
        policy = self.policy
        report = ResilienceReport(policy)
        timeout = policy.shard_timeout if policy is not None else None
        max_retries = policy.max_retries if policy is not None else 0
        deadline = None
        if policy is not None and policy.run_deadline is not None:
            deadline = time.monotonic() + policy.run_deadline

        total = len(pieces)
        results: Dict[int, Tuple] = {}
        attempts = {index: 0 for index in range(total)}
        to_submit = list(range(total))
        retry_round = 0

        want_metrics = metrics is not None
        while len(results) < total:
            pool = self._ensure_pool(metrics)
            pending: Dict[object, int] = {}
            submitted: Dict[int, float] = {}
            failures: Dict[int, Tuple[str, str]] = {}
            broken = False
            try:
                for index in to_submit:
                    task = (index, attempts[index], pieces[index], probes,
                            want_metrics)
                    pending[pool.submit(_worker_run, task)] = index
                    submitted[index] = time.monotonic()
            except BrokenProcessPool:
                for index in to_submit:
                    if index not in submitted:
                        failures[index] = (
                            "crash", "worker pool broke during submission")
                broken = True
            to_submit = []

            while pending and not broken:
                now = time.monotonic()
                tick = None
                if timeout is not None:
                    earliest = min(submitted[i] for i in pending.values())
                    tick = max(0.0, earliest + timeout - now)
                if deadline is not None:
                    remaining = deadline - now
                    if remaining <= 0:
                        self._deadline_exceeded(report, pending)
                    tick = remaining if tick is None else min(tick, remaining)
                done, _ = wait(set(pending), timeout=tick,
                               return_when=FIRST_COMPLETED)
                if not done:
                    now = time.monotonic()
                    if deadline is not None and now >= deadline:
                        self._deadline_exceeded(report, pending)
                    overdue = {
                        index for index in pending.values()
                        if now - submitted[index] >= timeout
                    }
                    if not overdue:
                        continue
                    # A hung worker can only be reclaimed by tearing the
                    # whole pool down; shards still in flight elsewhere are
                    # preempted and re-run at the *same* attempt number —
                    # they never failed, so they keep their retry budget
                    # (and their attempt-gated faults).
                    for future, index in pending.items():
                        if index in overdue:
                            failures[index] = (
                                "timeout",
                                f"no result within shard_timeout={timeout}s")
                        else:
                            failures[index] = (
                                "preempted",
                                "pool torn down to reclaim a hung worker")
                    pending = {}
                    self._terminate_pool()
                    break
                for future in done:
                    index = pending.pop(future)
                    try:
                        (_, counts, active, probe_part,
                         metrics_part) = future.result()
                    except BrokenProcessPool:
                        # the executor cannot say *which* worker died, so
                        # every in-flight shard fails as a crash this round
                        failures[index] = ("crash", "worker process died")
                        broken = True
                    except TransientWorkerError as exc:
                        failures[index] = ("transient", str(exc), exc)
                    # any other exception (NeuronCoreError, PsRouterError,
                    # ...) is a deterministic program error: it re-raises
                    # unmasked with its original class, and the pool stays
                    # usable
                    else:
                        problems = self.schedule.check_shard_result(
                            counts, active, pieces[index].shape[0])
                        if problems:
                            failures[index] = ("corrupt", "; ".join(problems))
                        else:
                            results[index] = (counts, active, probe_part,
                                              metrics_part)

            if broken:
                for future, index in pending.items():
                    failures.setdefault(index, ("crash",
                                                "worker process died"))
                pending = {}
                self._terminate_pool()

            if failures:
                for index in sorted(failures):
                    kind, message = failures[index][:2]
                    cause = failures[index][2] if len(failures[index]) > 2 \
                        else None
                    report.record(kind, message, shard=index,
                                  attempt=attempts[index])
                    if kind == "preempted":
                        to_submit.append(index)
                        continue
                    attempts[index] += 1
                    if attempts[index] > max_retries:
                        raise self._exhausted(kind, message, index,
                                              attempts[index], report, cause)
                    report.record("retry", f"resubmitting after {kind}",
                                  shard=index, attempt=attempts[index])
                    to_submit.append(index)
                retry_round += 1
                if policy is not None:
                    pause = policy.backoff_for(retry_round)
                    if pause:
                        tick = time.perf_counter()
                        time.sleep(pause)
                        if metrics is not None:
                            metrics.record_span("sharded/backoff",
                                                time.perf_counter() - tick)

        tick = time.perf_counter()
        counts = np.concatenate([results[i][0] for i in range(total)], axis=0)
        active_axons = np.concatenate([results[i][1] for i in range(total)])
        probe_result = None
        if probes is not None:
            from ..obs.probes import ProbeResult

            probe_result = ProbeResult.concat(
                [results[i][2] for i in range(total)])
        if metrics is not None:
            # shard-index order: the merged registry is deterministic for a
            # given decomposition, like the stats/probe merges above
            for i in range(total):
                part = results[i][3]
                if part is not None:
                    metrics.absorb(part, track=f"shard{i}")
            metrics.record_span("sharded/merge", time.perf_counter() - tick)
        return counts, active_axons, probe_result, report

    def _deadline_exceeded(self, report: ResilienceReport, pending) -> None:
        policy = self.policy
        unfinished = len(pending)
        report.record(
            "deadline",
            f"run_deadline={policy.run_deadline}s exceeded with "
            f"{unfinished} shard(s) unfinished")
        self._terminate_pool()
        raise RunDeadlineExceeded(
            f"supervised sharded run exceeded run_deadline="
            f"{policy.run_deadline}s with {unfinished} shard(s) unfinished",
            report=report)

    def _exhausted(self, kind: str, message: str, shard: int,
                   attempt_count: int, report: ResilienceReport,
                   cause=None):
        if self.policy is None:
            suffix = "no RunPolicy set: supervised retry is disabled"
        else:
            suffix = f"RunPolicy exhausted after {attempt_count} attempt(s)"
        text = f"shard {shard}: {message} ({suffix})"
        if kind == "crash":
            return WorkerCrashError(text, report=report)
        if kind == "timeout":
            return ShardTimeoutError(text, report=report)
        if kind == "corrupt":
            return ResultIntegrityError(text, report=report)
        # transient: re-raise with the worker exception's own class (e.g.
        # InjectedFaultError), keeping the report attached
        error = type(cause)(text, report=report) if cause is not None \
            else TransientWorkerError(text, report=report)
        return error
