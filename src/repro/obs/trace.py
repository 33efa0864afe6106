"""The unified trace: one timeline spanning compile and execution.

A :class:`Trace` joins the two halves of the stack that already record
timing but never met: the compiler's per-step wall-clock records (the
:class:`~repro.ir.passes.PassRecord` list of
:attr:`repro.ir.CompiledNetwork.trace`) and
the analytic execution timeline (the per-layer, per-stage cycle breakdown
of :class:`~repro.timing.TimingEstimate`, which is exact for emitted
programs).  It exports as

* Chrome ``trace_event`` JSON (:meth:`Trace.to_chrome_trace` /
  :meth:`Trace.save`) — loadable in ``chrome://tracing`` or Perfetto,
  with a *compile* process (one slice per compile step, real
  microseconds) and an *execution* process (one slice per layer stage per
  timestep, 1 cycle rendered as 1 µs);
* a structured metrics dict (:meth:`Trace.metrics`) for bench sections
  and experiment metadata.

:func:`validate_chrome_trace` checks a payload against the parts of the
``trace_event`` schema the export relies on; the test suite runs it over
every exported trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: trace_event process ids of the three tracks
COMPILE_PID = 1
EXECUTION_PID = 2
WALLCLOCK_PID = 3


@dataclass
class Trace:
    """One run's unified observability record.

    ``pass_records`` is the compile trace (objects with ``name`` /
    ``seconds`` / ``summary`` attributes — duck-typed so hand-built
    records work too); ``timing`` the execution-side
    :class:`~repro.timing.TimingEstimate`; ``probes`` an optional
    :class:`~repro.obs.ProbeResult` from an actual probed run;
    ``wallclock`` an optional
    :class:`~repro.obs.MetricsRegistry` (or snapshot) whose spans render
    as a third, real-time track — the cycle-priced tracks are untouched,
    so model-time and wall-clock views sit side by side.
    """

    name: str = ""
    pass_records: List[object] = field(default_factory=list)
    timing: Optional[object] = None
    probes: Optional[object] = None
    #: timesteps rendered on the execution track
    timesteps: int = 1
    #: wall-clock metrics registry of the run (third trace track), if any
    wallclock: Optional[object] = None

    @classmethod
    def from_compiled(cls, compiled, probes: Optional[object] = None,
                      timesteps: Optional[int] = None,
                      wallclock: Optional[object] = None) -> "Trace":
        """Build the trace of one :class:`~repro.ir.CompiledNetwork`.

        Pulls the step records of the compile trace and the timing
        estimate of its ``timing-model`` step.
        """
        timing = compiled.timing
        if timesteps is None:
            declared = getattr(timing, "timesteps", None)
            timesteps = int(declared) if declared else 1
        return cls(
            name=compiled.name,
            pass_records=list(compiled.trace),
            timing=timing,
            probes=probes,
            timesteps=timesteps,
            wallclock=wallclock,
        )

    # -- chrome trace_event export -------------------------------------
    def to_chrome_trace(self) -> Dict[str, object]:
        """The run as a Chrome ``trace_event`` JSON object.

        Two processes: *compile* (pid 1, one ``X`` slice per step, real
        wall-clock microseconds) and *execution* (pid 2, one ``X`` slice
        per layer stage per timestep, 1 cycle = 1 µs of trace time).
        """
        events: List[Dict[str, object]] = [
            _metadata(COMPILE_PID, "compile"),
            _metadata(EXECUTION_PID, "execution"),
        ]
        clock = 0.0
        for record in self.pass_records:
            duration = max(float(record.seconds) * 1e6, 0.01)
            events.append({
                "name": record.name,
                "cat": "compile",
                "ph": "X",
                "ts": clock,
                "dur": duration,
                "pid": COMPILE_PID,
                "tid": 1,
                "args": {"summary": str(getattr(record, "summary", ""))},
            })
            clock += duration
        if self.timing is not None:
            step_cycles = float(self.timing.cycles_per_timestep)
            for step in range(self.timesteps):
                cursor = step * step_cycles
                for layer in self.timing.layers:
                    for stage, cycles in (
                        ("delivery", layer.delivery_cycles),
                        ("accumulate", layer.accumulate_cycles),
                        ("reduction", layer.reduction_cycles),
                        ("fire", layer.fire_cycles),
                    ):
                        if cycles <= 0:
                            continue
                        events.append({
                            "name": f"{layer.name}/{stage}",
                            "cat": "execution",
                            "ph": "X",
                            "ts": cursor,
                            "dur": float(cycles),
                            "pid": EXECUTION_PID,
                            "tid": 1,
                            "args": {"timestep": step, "cycles": int(cycles)},
                        })
                        cursor += cycles
        wallclock_spans = getattr(self.wallclock, "spans", None)
        if wallclock_spans:
            events.append(_metadata(WALLCLOCK_PID, "wallclock"))
            tracks = sorted({span.track for span in wallclock_spans})
            tids = {track: tid for tid, track in enumerate(tracks, start=1)}
            for span in wallclock_spans:
                events.append({
                    "name": span.name,
                    "cat": "wallclock",
                    "ph": "X",
                    "ts": max(float(span.start), 0.0) * 1e6,
                    "dur": max(float(span.seconds) * 1e6, 0.01),
                    "pid": WALLCLOCK_PID,
                    "tid": tids[span.track],
                    "args": {"track": span.track or "run",
                             "seconds": float(span.seconds)},
                })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"name": self.name, "source": "repro.obs"},
        }

    def save(self, path) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=2)

    # -- structured metrics --------------------------------------------
    def metrics(self) -> Dict[str, object]:
        """Structured summary: per-step seconds, per-layer cycles, probes."""
        payload: Dict[str, object] = {
            "name": self.name,
            "compile": {
                "passes": [
                    {"name": record.name,
                     "seconds": float(record.seconds),
                     "summary": str(getattr(record, "summary", ""))}
                    for record in self.pass_records
                ],
                "total_seconds": float(sum(
                    record.seconds for record in self.pass_records)),
            },
        }
        if self.timing is not None:
            payload["execution"] = self.timing.as_dict()
        if self.probes is not None:
            payload["probes"] = self.probes.summary()
        if self.wallclock is not None:
            payload["wallclock"] = self.wallclock.as_dict()
        return payload

    def describe(self) -> str:
        """Step-timing table as text (the ``--trace`` / CLI rendering)."""
        lines = [f"compile trace ({len(self.pass_records)} passes):"]
        for record in self.pass_records:
            lines.append(f"  {record.name:<24} {record.seconds * 1e3:>9.3f} ms"
                         f"  {getattr(record, 'summary', '')}")
        if self.timing is not None:
            lines.append(self.timing.describe())
        if self.wallclock is not None:
            lines.append(self.wallclock.describe())
        return "\n".join(lines)


def _metadata(pid: int, process_name: str) -> Dict[str, object]:
    return {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": process_name}}


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------
def validate_chrome_trace(payload: Dict[str, object]) -> List[str]:
    """Errors violating the ``trace_event`` schema (empty list = valid).

    Checks the subset the export relies on: the JSON-object container with
    a ``traceEvents`` array, and per event the required ``name``/``ph``/
    ``pid``/``tid`` fields, with complete (``X``) events also carrying
    numeric non-negative ``ts`` and ``dur``.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                errors.append(f"{where}: missing {key!r}")
        phase = event.get("ph")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(
                        f"{where}: 'X' event needs numeric non-negative "
                        f"{key!r}, got {value!r}"
                    )
        elif phase == "M":
            if not isinstance(event.get("args"), dict):
                errors.append(f"{where}: metadata event needs 'args' object")
        elif not isinstance(phase, str) or len(phase) != 1:
            errors.append(f"{where}: invalid phase {phase!r}")
    if not any(isinstance(e, dict) and e.get("ph") == "X" for e in events):
        errors.append("trace contains no complete ('X') events")
    return errors
