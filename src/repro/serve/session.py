"""A live serving session: request queue -> coalescer -> engine -> pool.

One :class:`Session` holds one compiled artifact resident and serves
single-frame requests against it.  Requests enter a bounded FIFO queue
(:meth:`Session.submit` / :meth:`Session.infer`); a dispatcher thread
holds the oldest request for at most the policy's ``batch_window`` while
more requests arrive, then coalesces the FIFO prefix (up to
``max_batch``, same timestep count) into one batch, runs it ``vectorized``
on the session's cached :class:`~repro.engine.ExecutionEngine`, and
splits the batched result back into per-request responses.

**The bit-exactness contract.**  A frame served through a coalesced
batch returns exactly what a standalone ``reference`` run of that frame
returns — spike counts, prediction, :class:`~repro.core.stats.ExecutionStats`
and probes alike.  Three properties make the decomposition exact:

* all backends are bit-exact on outputs, and a batch row is the frame's
  own arithmetic (frames never interact);
* the one data-dependent statistic, ``ACC`` switching activity, is
  measured per frame (``SimulationResult.frame_active_axons``), so
  ``schedule.build_stats(1, timesteps, vector[i])`` rebuilds frame
  ``i``'s stats bit-identically;
* probe arrays are frame-major and NoC telemetry is static, so
  :meth:`~repro.obs.ProbeResult.frame` slices/rescales exactly.

A deterministic program error (e.g. partial-sum overflow) raised by a
coalesced batch is re-tried frame by frame, so only the offending
request fails — a batchmate must never poison a frame that would have
succeeded standalone.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from ..core.simulator import SimulationError
from .errors import (
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ServerClosedError,
)
from .policy import ServePolicy


@dataclass
class InferenceResponse:
    """One served frame — bit-identical to a standalone run of the frame.

    ``queued_seconds`` is submission -> dispatch, ``latency_seconds``
    submission -> response; ``batch_size`` and ``backend`` record the
    coalesced batch the frame rode in.
    """

    spike_counts: np.ndarray
    prediction: int
    stats: object
    probes: Optional[object] = None
    backend: str = ""
    batch_size: int = 0
    queued_seconds: float = 0.0
    latency_seconds: float = 0.0


class _Request:
    """One queued frame plus its completion latch."""

    __slots__ = ("sequence", "frame", "timesteps", "deadline_at", "enqueued",
                 "event", "response", "error")

    def __init__(self, sequence: int, frame: np.ndarray,
                 deadline_at: Optional[float], enqueued: float):
        self.sequence = sequence
        self.frame = frame
        self.timesteps = frame.shape[1]
        self.deadline_at = deadline_at
        self.enqueued = enqueued
        self.event = threading.Event()
        self.response: Optional[InferenceResponse] = None
        self.error: Optional[BaseException] = None

    def resolve(self, response: InferenceResponse) -> None:
        self.response = response
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()


class PendingRequest:
    """Caller-side handle of one submitted frame (future-style)."""

    def __init__(self, request: _Request):
        self._request = request

    @property
    def sequence(self) -> int:
        """Admission order within the session (FIFO position)."""
        return self._request.sequence

    def done(self) -> bool:
        return self._request.event.is_set()

    def result(self, timeout: Optional[float] = None) -> InferenceResponse:
        """Block for the response; re-raises the typed error on failure."""
        if not self._request.event.wait(timeout):
            raise TimeoutError(
                f"request {self._request.sequence} not served within "
                f"{timeout}s")
        if self._request.error is not None:
            raise self._request.error
        assert self._request.response is not None
        return self._request.response


class Session:
    """A resident compiled model being served (the ``load()`` handle)."""

    def __init__(self, key: str, compiled, policy: ServePolicy,
                 probes=None, metrics=None,
                 metrics_lock: Optional[threading.Lock] = None,
                 name: str = ""):
        from ..engine import ExecutionEngine

        self.key = key
        self.name = name or key[:12]
        self.compiled = compiled
        self.policy = policy
        self.probes = probes
        self._metrics = metrics
        self._metrics_lock = metrics_lock or threading.Lock()
        self.engine = ExecutionEngine(compiled.program)
        self._cond = threading.Condition()
        self._queue: Deque[_Request] = deque()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._flush = False
        self._submitted = 0
        #: most recent dispatch: how many requests rode the batch
        self.last_batch_size = 0
        #: per-dispatch log of ``(backend, request sequences)`` — FIFO
        #: fairness is auditable: each batch is a contiguous arrival prefix
        self.batch_log: List[Tuple[str, Tuple[int, ...]]] = []
        #: responses completed so far
        self.served = 0
        # lowered now, so the first request is served at steady-state latency
        self.engine.backend("vectorized")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _normalise(self, frames: np.ndarray) -> np.ndarray:
        """Validate a request payload down to one ``(1, T, input)`` frame."""
        frame = np.asarray(frames, dtype=bool)
        if frame.ndim == 2:
            frame = frame[None, ...]
        if frame.ndim != 3 or frame.shape[0] != 1:
            raise ServeError(
                "a request carries exactly one frame of shape "
                f"(timesteps, input_size); got shape {np.shape(frames)} — "
                "coalescing frames into batches is the server's job")
        input_size = self.engine.program.input_size
        if frame.shape[2] != input_size:
            raise ServeError(
                f"request input size {frame.shape[2]} does not match the "
                f"model's input size {input_size}")
        return np.ascontiguousarray(frame)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def infer(self, frames: np.ndarray,
              deadline: Optional[float] = None,
              timeout: Optional[float] = None) -> InferenceResponse:
        """Serve one frame, blocking until its response (or typed error).

        ``deadline`` (seconds) bounds how long the frame may wait in the
        queue before dispatch; an expired request fails with
        :class:`DeadlineExceededError` instead of being executed late.
        """
        return self.submit(frames, deadline=deadline).result(timeout)

    def submit(self, frames: np.ndarray,
               deadline: Optional[float] = None) -> PendingRequest:
        """Enqueue one frame; returns a :class:`PendingRequest` handle.

        Admission control happens here: a closed session raises
        :class:`ServerClosedError` and a full queue raises
        :class:`QueueFullError` — the request is never enqueued.
        """
        frame = self._normalise(frames)
        if deadline is not None and deadline < 0:
            raise ServeError(f"deadline must be >= 0, got {deadline}")
        now = time.perf_counter()
        deadline_at = now + deadline if deadline is not None else None
        with self._cond:
            if self._closed:
                raise ServerClosedError(
                    f"session {self.name!r} is closed")
            if len(self._queue) >= self.policy.queue_limit:
                self._count("serve/rejected")
                raise QueueFullError(
                    f"session {self.name!r} queue is full "
                    f"({self.policy.queue_limit} pending requests)")
            request = _Request(self._submitted, frame, deadline_at, now)
            self._submitted += 1
            self._queue.append(request)
            self._set_gauge("serve/queue_depth", len(self._queue))
            self._count("serve/requests")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._serve_loop,
                    name=f"repro-serve-{self.name}", daemon=True)
                self._thread.start()
            self._cond.notify_all()
        return PendingRequest(request)

    def flush(self) -> None:
        """Dispatch whatever is queued now, without waiting out the window."""
        with self._cond:
            self._flush = True
            self._cond.notify_all()

    def close(self) -> None:
        """Drain the queue, stop the dispatcher, release engine resources.

        Requests already admitted are still served (graceful drain);
        submissions after ``close`` are rejected with
        :class:`ServerClosedError`.
        """
        with self._cond:
            self._closed = True
            self._flush = True
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join()
        self.engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _serve_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            if batch:
                self._dispatch(batch)

    def _next_batch(self) -> Optional[List[_Request]]:
        """Block for the next coalesced FIFO batch (None: closed + drained).

        The oldest request anchors the window: the dispatcher waits until
        ``batch_window`` has elapsed since *its* arrival (or the batch is
        full, or a flush/close), then takes the longest FIFO prefix with a
        uniform timestep count — mixed-length requests never coalesce, and
        fairness is strict arrival order.
        """
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait()
            first = self._queue[0]
            cutoff = first.enqueued + self.policy.batch_window
            while (len(self._queue) < self.policy.max_batch
                   and not self._flush and not self._closed):
                remaining = cutoff - time.perf_counter()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            self._flush = False
            batch = [self._queue.popleft()]
            while (self._queue and len(batch) < self.policy.max_batch
                   and self._queue[0].timesteps == batch[0].timesteps):
                batch.append(self._queue.popleft())
            self._set_gauge("serve/queue_depth", len(self._queue))
            return batch

    def _dispatch(self, batch: List[_Request]) -> None:
        started = time.perf_counter()
        live: List[_Request] = []
        for request in batch:
            if request.deadline_at is not None and \
                    started > request.deadline_at:
                self._count("serve/deadline_missed")
                request.fail(DeadlineExceededError(
                    f"request {request.sequence} waited "
                    f"{started - request.enqueued:.3f}s in the queue, past "
                    "its deadline"))
            else:
                live.append(request)
        if not live:
            return
        trains = np.concatenate([request.frame for request in live], axis=0)
        self.last_batch_size = len(live)
        self.batch_log.append(
            ("vectorized", tuple(request.sequence for request in live)))
        backend = self.engine.backend("vectorized")
        try:
            result = backend.run(trains, probes=self.probes)
        except SimulationError as exc:
            if len(live) == 1:
                live[0].fail(exc)
                return
            # A deterministic program error names the batch, not the frame.
            # Re-run frame by frame so only the guilty request fails — a
            # batchmate must never poison a frame that succeeds standalone.
            for request in live:
                self._dispatch([request])
            return
        except BaseException as exc:
            for request in live:
                request.fail(exc)
            return
        finished = time.perf_counter()
        self._count("serve/batches")
        self._observe("serve/batch_size", float(len(live)))
        self._observe("serve/batch_latency", finished - started)
        timesteps = live[0].timesteps
        schedule = backend.schedule
        per_frame = result.frame_active_axons
        for index, request in enumerate(live):
            response = InferenceResponse(
                spike_counts=result.spike_counts[index].copy(),
                prediction=int(result.predictions[index]),
                stats=schedule.build_stats(1, timesteps, per_frame[index]),
                probes=(result.probes.frame(index)
                        if result.probes is not None else None),
                backend=backend.name,
                batch_size=len(live),
                queued_seconds=started - request.enqueued,
                latency_seconds=finished - request.enqueued,
            )
            self._observe("serve/request_latency", response.latency_seconds)
            self.served += 1
            request.resolve(response)

    # ------------------------------------------------------------------
    # Metrics plumbing (all no-ops without a registry)
    # ------------------------------------------------------------------
    def _count(self, metric: str, amount: float = 1.0) -> None:
        if self._metrics is not None:
            with self._metrics_lock:
                self._metrics.counter(metric).inc(amount)

    def _set_gauge(self, metric: str, value: float) -> None:
        if self._metrics is not None:
            with self._metrics_lock:
                self._metrics.gauge(metric).set(value)

    def _observe(self, metric: str, value: float) -> None:
        if self._metrics is not None:
            with self._metrics_lock:
                self._metrics.histogram(metric).observe(value)
