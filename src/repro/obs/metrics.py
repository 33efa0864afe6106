"""Wall-clock metrics: counters, gauges, log-bucket histograms, spans.

``repro.obs`` (PR 6) reproduced the paper's *model-time* observability —
cycle-priced traces, probes, NoC telemetry.  This module adds the
*real-time* axis: a :class:`MetricsRegistry` that backends and the
compile pipeline write into, with a deterministic merge of the registries
a split run's frame parts record into, and OpenMetrics/JSON export.

Design contract (mirrors the probe hooks in ``execute_schedule``):

* **Disabled is free.**  A registry constructed with ``enabled=False``
  (and the ``metrics=None`` default everywhere) costs a single ``None``
  or attribute check per call site — hot loops stay hot.
* **Deterministic merge.**  ``vectorized`` runs a large batch as frame
  parts on threads, each recording into its own registry, and
  :meth:`MetricsRegistry.absorb` merges them in part order.  Counters
  add, gauges take the max, histograms add bucket counts.  Counters are
  reserved for *work counts* (frames, timesteps, ops) so their merged
  values are bit-identical whether or not the run split; wall-clock
  values live in histograms and spans.
* **Snapshots.**  :meth:`MetricsRegistry.snapshot` returns a plain-data
  deep copy (a server hands it out while its sessions keep recording).
"""
from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "MetricsError",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanRecord",
    "MetricsRegistry",
    "default_bounds",
    "render_openmetrics",
    "validate_openmetrics",
]


class MetricsError(ValueError):
    """Raised on invalid metric names, bounds, or merge mismatches."""


#: metric names are slash-separated paths, e.g. ``run/vectorized/setup``
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_./-]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricsError(f"invalid metric name: {name!r}")
    return name


def default_bounds(start: float = 1e-6, growth: float = 2.0,
                   count: int = 30) -> List[float]:
    """Fixed log-spaced histogram bucket upper bounds, in seconds.

    The defaults span 1 microsecond to ``1e-6 * 2**29`` ~= 537 seconds,
    which covers every timestep/kernel/phase duration the engine
    produces while keeping bucket merges exact (bounds are identical on
    every process by construction).
    """
    if start <= 0 or growth <= 1 or count < 1:
        raise MetricsError("bounds need start > 0, growth > 1, count >= 1")
    return [start * growth ** i for i in range(count)]


#: the default bounds, computed once — histogram construction is on the
#: per-run instrumentation path, so it must not re-derive (or re-validate)
#: 30 floats every time
_DEFAULT_BOUNDS = default_bounds()


class Counter:
    """Monotonic float counter; merge adds."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError("counters only go up")
        self.value += amount

    def __getstate__(self):
        return self.value

    def __setstate__(self, state):
        self.value = state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.value!r})"


class Gauge:
    """Last-written value; merge takes the max (associative, commutative)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def set(self, value: float) -> None:
        self.value = float(value)

    def __getstate__(self):
        return self.value

    def __setstate__(self, state):
        self.value = state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.value!r})"


class Histogram:
    """Fixed-bucket histogram with p50/p95/p99 estimates.

    ``bounds`` are inclusive upper bounds; ``counts`` has one extra
    slot for the +Inf overflow bucket.  Two histograms merge only when
    their bounds are identical, which the registry guarantees by always
    building them from the same ``bounds`` argument.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "minimum", "maximum")

    def __init__(self, bounds: Optional[Sequence[float]] = None):
        if bounds is None:
            bounds = _DEFAULT_BOUNDS.copy()
        else:
            bounds = [float(b) for b in bounds]
            if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
                raise MetricsError(
                    "histogram bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise MetricsError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation in-bucket."""
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            lower = self.bounds[i - 1] if i > 0 else 0.0
            upper = self.bounds[i] if i < len(self.bounds) else self.maximum
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                fraction = (target - previous) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - cumulative == count above

    def percentiles(self) -> Dict[str, float]:
        return {"p50": self.quantile(0.50),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "count": self.count,
            "sum": self.sum,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }
        out.update(self.percentiles())
        return out

    def __getstate__(self):
        return (self.bounds, self.counts, self.count, self.sum,
                self.minimum, self.maximum)

    def __setstate__(self, state):
        (self.bounds, self.counts, self.count, self.sum,
         self.minimum, self.maximum) = state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram(count={self.count}, sum={self.sum:.6f})"


class _NullMetric:
    """Shared no-op stand-in returned by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


@dataclass
class SpanRecord:
    """One timed region: ``start`` is seconds since the registry epoch."""

    name: str
    start: float
    seconds: float
    track: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "start": self.start,
                "seconds": self.seconds, "track": self.track}


@dataclass
class MetricsRegistry:
    """Named counters/gauges/histograms plus an ordered span log.

    A disabled registry (``enabled=False``) hands out a shared null
    metric and drops spans, so instrumented code needs no branches
    beyond the ones it already has for ``metrics=None``.
    """

    enabled: bool = True
    span_limit: int = 1024
    counters: Dict[str, Counter] = field(default_factory=dict)
    gauges: Dict[str, Gauge] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)

    # -- accessors ------------------------------------------------------
    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_METRIC  # type: ignore[return-value]
        metric = self.counters.get(name)
        if metric is None:
            self._claim(name)
            metric = self.counters[_check_name(name)] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_METRIC  # type: ignore[return-value]
        metric = self.gauges.get(name)
        if metric is None:
            self._claim(name)
            metric = self.gauges[_check_name(name)] = Gauge()
        return metric

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        if not self.enabled:
            return _NULL_METRIC  # type: ignore[return-value]
        metric = self.histograms.get(name)
        if metric is None:
            self._claim(name)
            metric = self.histograms[_check_name(name)] = Histogram(bounds)
        return metric

    def _claim(self, name: str) -> None:
        for kind, table in (("counter", self.counters),
                            ("gauge", self.gauges),
                            ("histogram", self.histograms)):
            if name in table:
                raise MetricsError(
                    f"metric {name!r} already registered as a {kind}")

    # -- spans ----------------------------------------------------------
    def record_span(self, name: str, seconds: float, track: str = "",
                    start: Optional[float] = None) -> None:
        """Record a completed timed region and feed its histogram.

        ``start`` is an offset in seconds on this registry's timeline;
        when omitted the span is laid immediately after the previous
        span on the same track (or at 0), which keeps trace rendering
        deterministic without reading any clock here.
        """
        if not self.enabled:
            return
        seconds = float(seconds)
        if start is None:
            start = 0.0
            for span in reversed(self.spans):
                if span.track == track:
                    start = span.start + span.seconds
                    break
        if len(self.spans) < self.span_limit:
            self.spans.append(SpanRecord(name, max(float(start), 0.0),
                                         seconds, track))
        self.histogram(name).observe(seconds)

    # -- aggregation ----------------------------------------------------
    def snapshot(self) -> "MetricsRegistry":
        """Plain-data deep copy, safe to pickle across process boundaries."""
        copy = MetricsRegistry(enabled=self.enabled,
                               span_limit=self.span_limit)
        for name, c in self.counters.items():
            copy.counters[name] = Counter(c.value)
        for name, g in self.gauges.items():
            copy.gauges[name] = Gauge(g.value)
        for name, h in self.histograms.items():
            twin = Histogram(h.bounds)
            twin.merge(h)
            copy.histograms[name] = twin
        copy.spans = [SpanRecord(s.name, s.start, s.seconds, s.track)
                      for s in self.spans]
        return copy

    def absorb(self, other: "MetricsRegistry", track: str = "") -> None:
        """Merge ``other`` into self; optionally re-tag its span tracks.

        Called in part order by a split ``vectorized`` run so the merged
        registry is deterministic for a given frame split.
        """
        for name, c in other.counters.items():
            self.counter(name).inc(c.value)
        for name, g in other.gauges.items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, g.value))
        for name, h in other.histograms.items():
            self.histogram(name, h.bounds).merge(h)
        for span in other.spans:
            if track:
                sub = f"{track}/{span.track}" if span.track else track
            else:
                sub = span.track
            if len(self.spans) < self.span_limit:
                self.spans.append(
                    SpanRecord(span.name, span.start, span.seconds, sub))

    @classmethod
    def merge(cls, parts: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        merged = cls()
        for part in parts:
            merged.absorb(part)
        return merged

    # -- export ---------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "counters": {name: self.counters[name].value
                         for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name].value
                       for name in sorted(self.gauges)},
            "histograms": {name: self.histograms[name].as_dict()
                           for name in sorted(self.histograms)},
            "spans": [span.as_dict() for span in self.spans],
        }

    def describe(self) -> str:
        lines = [f"metrics ({len(self.counters)} counters, "
                 f"{len(self.gauges)} gauges, "
                 f"{len(self.histograms)} histograms, "
                 f"{len(self.spans)} spans)"]
        for name in sorted(self.counters):
            lines.append(f"  counter   {name:<32} {self.counters[name].value:g}")
        for name in sorted(self.gauges):
            lines.append(f"  gauge     {name:<32} {self.gauges[name].value:g}")
        for name in sorted(self.histograms):
            h = self.histograms[name]
            p = h.percentiles()
            lines.append(
                f"  histogram {name:<32} count={h.count} sum={h.sum:.6f}s "
                f"p50={p['p50']:.6f}s p95={p['p95']:.6f}s p99={p['p99']:.6f}s")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# OpenMetrics text exposition
# ----------------------------------------------------------------------

#: OpenMetrics metric names: letters, digits, underscore, colon
_OM_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_OM_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _om_name(name: str, prefix: str) -> str:
    return f"{prefix}_{_OM_SANITIZE_RE.sub('_', name)}"


def _om_value(value: float) -> str:
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_openmetrics(registry: MetricsRegistry,
                       prefix: str = "repro") -> str:
    """Render a registry in OpenMetrics text exposition format.

    Slash-separated metric paths are sanitized to underscore names and
    prefixed (``run/vectorized/setup`` -> ``repro_run_vectorized_setup``).
    Histograms record seconds, so they export with a ``_seconds`` unit
    suffix.  Output ends with the mandatory ``# EOF`` line and passes
    :func:`validate_openmetrics`.
    """
    if not _OM_NAME_RE.match(prefix):
        raise MetricsError(f"invalid OpenMetrics prefix: {prefix!r}")
    lines: List[str] = []
    seen: Dict[str, str] = {}

    def claim(om_name: str, source: str) -> None:
        clash = seen.get(om_name)
        if clash is not None:
            raise MetricsError(
                f"OpenMetrics name collision: {source!r} and {clash!r} "
                f"both map to {om_name!r}")
        seen[om_name] = source

    for name in sorted(registry.counters):
        om = _om_name(name, prefix)
        claim(om, name)
        lines.append(f"# TYPE {om} counter")
        lines.append(f"{om}_total {_om_value(registry.counters[name].value)}")
    for name in sorted(registry.gauges):
        om = _om_name(name, prefix)
        claim(om, name)
        lines.append(f"# TYPE {om} gauge")
        lines.append(f"{om} {_om_value(registry.gauges[name].value)}")
    for name in sorted(registry.histograms):
        om = _om_name(name, prefix) + "_seconds"
        claim(om, name)
        hist = registry.histograms[name]
        lines.append(f"# TYPE {om} histogram")
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            lines.append(f'{om}_bucket{{le="{bound!r}"}} {cumulative}')
        lines.append(f'{om}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{om}_sum {_om_value(hist.sum)}")
        lines.append(f"{om}_count {hist.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_OM_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})?\s(\S+)$")
_OM_TYPES = ("counter", "gauge", "histogram", "summary", "unknown",
             "info", "stateset", "gaugehistogram")
_OM_SUFFIXES = {
    "counter": ("_total", "_created"),
    "histogram": ("_bucket", "_sum", "_count", "_created"),
    "gauge": ("",),
}


def validate_openmetrics(text: str) -> List[str]:
    """Lint OpenMetrics exposition text; returns a list of problems.

    Checks the structural rules the exposition format mandates: the
    final ``# EOF`` line, ``# TYPE`` declarations preceding their
    samples, legal metric names, counter samples carrying ``_total``,
    and histogram bucket series that are cumulative, non-decreasing,
    and end with a ``+Inf`` bucket equal to ``_count``.
    """
    errors: List[str] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines or lines[-1] != "# EOF":
        errors.append("exposition must end with '# EOF'")
    declared: Dict[str, str] = {}
    buckets: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    inf_buckets: Dict[str, float] = {}
    for lineno, line in enumerate(lines, 1):
        if line == "# EOF":
            if lineno != len(lines):
                errors.append(f"line {lineno}: '# EOF' before end of text")
            continue
        if line.startswith("#"):
            parts = line.split(" ")
            if len(parts) >= 2 and parts[1] in ("HELP", "UNIT"):
                continue
            if len(parts) == 4 and parts[1] == "TYPE":
                _, _, om_name, om_type = parts
                if not _OM_NAME_RE.match(om_name):
                    errors.append(f"line {lineno}: bad metric name {om_name!r}")
                if om_type not in _OM_TYPES:
                    errors.append(f"line {lineno}: bad metric type {om_type!r}")
                declared[om_name] = om_type
                continue
            errors.append(f"line {lineno}: unrecognised comment {line!r}")
            continue
        match = _OM_SAMPLE_RE.match(line)
        if not match:
            errors.append(f"line {lineno}: malformed sample {line!r}")
            continue
        sample_name, labels, raw_value = match.groups()
        try:
            value = float(raw_value)
        except ValueError:
            errors.append(f"line {lineno}: non-numeric value {raw_value!r}")
            continue
        base = None
        for family, family_type in declared.items():
            suffixes = _OM_SUFFIXES.get(family_type, ("",))
            for suffix in suffixes:
                if sample_name == family + suffix:
                    base, suffix_hit = family, suffix
                    break
            if base is not None:
                break
        if base is None:
            errors.append(
                f"line {lineno}: sample {sample_name!r} has no preceding "
                f"# TYPE declaration (or wrong suffix for its type)")
            continue
        if declared[base] == "histogram" and suffix_hit == "_bucket":
            if not labels or "le=" not in labels:
                errors.append(f"line {lineno}: histogram bucket missing 'le'")
                continue
            le_raw = labels.strip("{}").split("le=", 1)[1].split(",")[0]
            le_raw = le_raw.strip('"')
            series = buckets.setdefault(base, [])
            if series and series[-1] > value:
                errors.append(
                    f"line {lineno}: bucket series for {base!r} decreases")
            series.append(value)
            if le_raw == "+Inf":
                inf_buckets[base] = value
        elif declared[base] == "histogram" and suffix_hit == "_count":
            counts[base] = value
    for base, count in counts.items():
        if base not in inf_buckets:
            errors.append(f"histogram {base!r} has no '+Inf' bucket")
        elif inf_buckets[base] != count:
            errors.append(
                f"histogram {base!r}: +Inf bucket {inf_buckets[base]} "
                f"!= count {count}")
    return errors
