"""Span-based wall-clock profiling helpers over :mod:`repro.obs.metrics`.

Everything here degrades to (near) zero cost when ``metrics`` is
``None``, matching the observer/collector contract of the execution
backends: instrumented code pays one ``None`` check, nothing else.

The span *naming convention* is a slash-separated path:

``compile/<step>``
    one span per compile step, recorded by ``repro.ir.compile(...,
    metrics=registry)`` from its ``PassRecord`` seconds.
``pipeline/<step>``
    experiment-pipeline phases (e.g. ``pipeline/mapping``).
``run/<backend>/<phase>``
    per-run phases of every backend: ``setup``, ``timesteps``, ``merge``.
``schedule/timestep``
    per-timestep histogram, sampled for at most
    :data:`TIMESTEP_SAMPLE_LIMIT` steps so long runs stay cheap.
``kernels/<Op>``
    per-op-class buckets of the schedule executor, one histogram per
    lowered op class, measured on the first timestep only.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional

from .metrics import MetricsRegistry

__all__ = [
    "TIMESTEP_SAMPLE_LIMIT",
    "Stopwatch",
    "stopwatch",
    "span",
    "time_block",
]

#: per-timestep duration sampling stops after this many steps per run,
#: bounding instrumentation cost on long simulations.
TIMESTEP_SAMPLE_LIMIT = 64


class Stopwatch:
    """Context manager measuring elapsed wall-clock seconds."""

    __slots__ = ("seconds", "_start")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start


def stopwatch() -> Stopwatch:
    """Convenience constructor, pairs with ``with stopwatch() as sw:``."""
    return Stopwatch()


@contextmanager
def span(metrics: Optional[MetricsRegistry], name: str,
         track: str = "") -> Iterator[None]:
    """Time the enclosed block into ``metrics``; no-op when it is None."""
    if metrics is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        metrics.record_span(name, time.perf_counter() - start, track=track)


@contextmanager
def time_block(metrics: Optional[MetricsRegistry], name: str,
               track: str = "") -> Iterator[Stopwatch]:
    """Like :func:`span` but always yields a :class:`Stopwatch`.

    Call sites that need the elapsed seconds themselves (e.g. the
    experiment pipeline's ``mapping_time_ms``) read ``watch.seconds``
    after the block; the measurement lands in ``metrics`` too when one
    is supplied, so a single clock read feeds both consumers.
    """
    watch = Stopwatch()
    watch.__enter__()
    try:
        yield watch
    finally:
        watch.__exit__()
        if metrics is not None:
            metrics.record_span(name, watch.seconds, track=track)
