"""``repro.obs`` — observability: probes, telemetry, traces, metrics.

Four legs, one subsystem:

* **Runtime probes** (:mod:`repro.obs.probes`): a declarative
  :class:`ProbeSet` of per-layer observations — firing rates / spike
  counts per timestep, membrane-potential snapshots, ``ACC`` switching
  activity — honoured by *every* execution backend
  (``backend.run(trains, probes=...)``) with bit-identical
  :class:`ProbeResult`\\ s, and near-zero overhead when detached.
* **NoC telemetry** (:mod:`repro.obs.telemetry`): observed per-link
  spike/PS traffic and per-group wave occupancy, rendered as text
  heatmaps and checked against the cost model's *predicted* congestion
  (:func:`compare_link_traffic` vs
  :func:`repro.opt.cost.predicted_link_traffic`).
* **Unified traces** (:mod:`repro.obs.trace`): one :class:`Trace` from
  compile passes through execution timesteps, exportable as Chrome
  ``trace_event`` JSON and structured metrics.
* **Wall-clock metrics & profiling** (:mod:`repro.obs.metrics`,
  :mod:`repro.obs.profile`): a deterministically-mergeable
  :class:`MetricsRegistry` (counters, gauges, log-bucket histograms with
  p50/p95/p99) fed by span-based profiling of the compile pipeline and
  every backend's run phases (``backend.run(trains, metrics=...)``),
  exported as OpenMetrics text
  (:func:`render_openmetrics`), JSON, and a real-time Chrome-trace track.

``python -m repro.obs <network>`` prints a full report; see
``docs/observability.md``.
"""

from .probes import (
    PROBE_KINDS,
    LayerProbePoint,
    ProbeError,
    ProbeResult,
    ProbeSet,
    ProbeSpec,
    ResolvedProbes,
    ScheduleProbeRun,
    SimulatorProbeCollector,
    probe_points,
)
from .telemetry import (
    LinkKey,
    NocTelemetry,
    compare_link_traffic,
    link_key_str,
    render_link_heatmap,
    schedule_telemetry,
)
from .trace import Trace, validate_chrome_trace
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    SpanRecord,
    default_bounds,
    render_openmetrics,
    validate_openmetrics,
)
from .profile import (
    TIMESTEP_SAMPLE_LIMIT,
    Stopwatch,
    span,
    stopwatch,
    time_block,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LayerProbePoint",
    "LinkKey",
    "MetricsError",
    "MetricsRegistry",
    "NocTelemetry",
    "PROBE_KINDS",
    "ProbeError",
    "ProbeResult",
    "ProbeSet",
    "ProbeSpec",
    "ResolvedProbes",
    "ScheduleProbeRun",
    "SimulatorProbeCollector",
    "SpanRecord",
    "Stopwatch",
    "TIMESTEP_SAMPLE_LIMIT",
    "Trace",
    "compare_link_traffic",
    "default_bounds",
    "link_key_str",
    "probe_points",
    "render_link_heatmap",
    "render_openmetrics",
    "schedule_telemetry",
    "span",
    "stopwatch",
    "time_block",
    "validate_chrome_trace",
    "validate_openmetrics",
]
