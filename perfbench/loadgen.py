"""The benchmark's open-loop load generator.

One thread sends single-frame requests on a fixed arrival schedule, built
from the seed before any request is sent, whatever the server does: a
stall therefore delays every later request, and that wait is counted.
Each request is timed from when it was *due*, not from when it was
enqueued, and the generator reports how late it sent each request itself.
If that lateness grows, the generator limited the run, not the server.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.serve import DeadlineExceededError, QueueFullError


def poisson_schedule(rng: np.random.Generator, rate: float,
                     requests: int) -> np.ndarray:
    """Arrival offsets (s) of independent users at ``rate`` requests/s.

    Exponential gaps, rescaled so the schedule spans exactly
    ``(requests - 1) / rate`` seconds: the offered rate is then exactly
    ``rate`` on every seed, and only the burst pattern varies.
    """
    gaps = rng.exponential(1.0, size=requests - 1)
    gaps *= (requests - 1) / rate / gaps.sum()
    return np.concatenate([[0.0], np.cumsum(gaps)])


@dataclass
class Outcome:
    """What happened to one request."""

    frame: int
    due: float
    sent: float
    submit_seconds: float = 0.0
    #: due -> response arrival; None unless answered
    latency: Optional[float] = None
    queued: float = 0.0
    counts: Optional[np.ndarray] = None
    cycles: int = 0
    error: str = ""  # "", "rejected", "deadline", or "error"

    @property
    def late(self) -> float:
        return self.sent - self.due

    @property
    def arrival(self) -> float:
        return self.due + self.latency


def run_open_loop(session, frames: np.ndarray, frame_ids: np.ndarray,
                  offsets: np.ndarray, rate: float, tracer,
                  result_timeout: float) -> List[Outcome]:
    """Send ``frames[frame_ids[i]]`` at ``start + offsets[i]`` on ``session``.

    Responses are collected after the last send; each carries the
    server's own enqueue-to-response time, so the generator need not watch
    for arrivals while it sends.
    """
    outcomes: List[Outcome] = []
    pending = []
    start = time.perf_counter() + 0.01
    with tracer.span(f"loadgen/r{int(rate)}"):
        for frame_id, offset in zip(frame_ids, offsets):
            due = start + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            outcome = Outcome(int(frame_id), due, sent)
            try:
                with tracer.span("serve/Session.submit"):
                    handle = session.submit(frames[frame_id])
            except QueueFullError:
                outcome.error = "rejected"
                handle = None
            outcome.submit_seconds = time.perf_counter() - sent
            outcomes.append(outcome)
            pending.append(handle)
        for outcome, handle in zip(outcomes, pending):
            if handle is None:
                continue
            try:
                with tracer.span("serve/PendingRequest.result"):
                    response = handle.result(timeout=result_timeout)
            except DeadlineExceededError:
                outcome.error = "deadline"
                continue
            except Exception:  # an engine error reaches the caller here
                outcome.error = "error"
                continue
            outcome.latency = outcome.late + response.latency_seconds
            outcome.queued = response.queued_seconds
            outcome.counts = response.spike_counts
            outcome.cycles = response.stats.cycles
    return outcomes
