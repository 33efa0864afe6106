"""In-memory spans around the benchmark's calls into each layer.

A span is named ``<layer>/<call>``; its layer is the part before the first
slash.  Spans nest on one thread, so each span's parent is the span that
was open when it started.  A layer's self time is the sum over its spans
of the span's duration minus the durations of its direct children.

The benchmark only wraps the public entry points it calls; nothing inside
``src/`` is instrumented.  Measured runs use :class:`NullTracer`, whose
spans cost one context-manager call and record nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float,
                 parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def layer(self) -> str:
        return self.name.split("/", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; written out once the workload has ended."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def add_children(self, parent_name: str,
                     parts: Iterable[Tuple[str, float]]) -> None:
        """Attach already-timed sequential parts under the last span called
        ``parent_name``, laid end to end from its start.

        Used for the compile passes: ``repro.ir.compile`` reports each
        pass's duration in its ``PassRecord`` trace, not its start time.
        """
        parent = max(i for i, s in enumerate(self.spans)
                     if s.name == parent_name)
        cursor = self.spans[parent].start
        for name, seconds in parts:
            self.spans.append(Span(name, cursor, cursor + seconds, parent))
            cursor += seconds

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def layer_self_seconds(self) -> Dict[str, float]:
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.seconds
        totals: Dict[str, float] = {}
        for span, covered in zip(self.spans, children):
            totals[span.layer] = totals.get(span.layer, 0.0) \
                + span.seconds - covered
        return totals

    def write(self, path: Path, extra: Dict[str, object]) -> None:
        """Chrome-trace JSON with the layer self times and top-3 layers."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{"name": s.name, "cat": s.layer, "ph": "X", "pid": 0,
                   "tid": 0, "ts": (s.start - origin) * 1e6,
                   "dur": s.seconds * 1e6} for s in self.spans]
        self_seconds = self.layer_self_seconds()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events,
            "otherData": dict(extra, layer_self_s=self_seconds,
                              top3_layers=top_layers(self_seconds)),
        }, indent=1))


class NullTracer:
    """Records nothing: the tracer of every measured (untraced) run."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield

    def add_children(self, parent_name: str,
                     parts: Iterable[Tuple[str, float]]) -> None:
        pass


def top_layers(self_seconds: Dict[str, float],
               count: int = 3) -> Sequence[Tuple[str, float]]:
    return sorted(self_seconds.items(), key=lambda item: -item[1])[:count]
