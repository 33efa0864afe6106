"""The bench gate table (``python -m repro.bench``).

Speed on the paper's own nets is measured by ``perfbench/run.py`` and
bounded in ``BENCHMARK.json``, parent against change on one machine.  This
harness keeps only what perfbench does not measure, and only checks whose
verdict does not depend on the machine: deterministic values (NoC metrics,
firing rates) and ratios of two timings taken in one process (speed-ups,
instrumentation overheads).  Each check is one row of :data:`ROWS` —
``(name, measure, geometry, keys -> bound)`` — read by one gate
(:func:`gate`) and one printer (:func:`format_table`)::

    python -m repro.bench            # measure, write BENCH_engine.json
    python -m repro.bench --check    # measure, gate against the file

One verdict rule (:func:`verdict`).  A wall-clock key is the median of
``pairs`` interleaved timing pairs (:func:`paired_seconds`), stored with its
first and third quartiles (Kalibera & Jones, ISMM 2013); a deterministic key
is a plain number, its own quartiles.  A key passes when its median meets
the bound and FAILs when even its most favourable quartile misses it;
otherwise it is *unresolved* — printed with its quartiles, not a failure.

Bounds live only in the table.  ``BENCH_engine.json`` holds what was
measured, under which geometry, at which ``git_rev`` on how many CPUs;
``--check`` refuses (exit 2) a file measured under another geometry.
"""

from __future__ import annotations

import fnmatch
import json
import operator
import os
import subprocess
import time
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core import small_test_arch
from ..engine import create_backend
from ..ir import LayerGraph, compile as ir_compile
from ..snn import DenseSpec, deterministic_encode

#: canonical name of the committed measurements file
BENCH_FILENAME = "BENCH_engine.json"

#: layout version of ``BENCH_engine.json``
SCHEMA = 2


def mlp_bench_case(frames: int = 64, timesteps: int = 16, seed: int = 0):
    """The quickstart-style 40-24-5 MLP mapping and a spike-train batch.

    Spans several 16x16 cores and both NoCs, so it exercises every lowered
    op kind.  Returns ``(program, spike_trains)``.
    """
    rng = np.random.default_rng(seed)
    arch = small_test_arch(core_inputs=16, core_neurons=16, chip_rows=8,
                           chip_cols=8)
    network = LayerGraph.chain("bench-mlp", (40,), [
        DenseSpec(name="fc1", weights=rng.integers(-7, 8, size=(40, 24)),
                  threshold=25),
        DenseSpec(name="fc2", weights=rng.integers(-7, 8, size=(24, 5)),
                  threshold=20),
    ], timesteps=timesteps)
    trains = deterministic_encode(rng.random((frames, 40)), timesteps)
    return ir_compile(network, arch).program, trains


def paired_seconds(base: Callable[[], object], other: Callable[[], object],
                   pairs: int) -> np.ndarray:
    """Wall-clock of ``pairs`` interleaved ``(base, other)`` calls.

    Each side is called once untimed first.  Pair ``i`` runs ``base`` first
    when ``i`` is even and ``other`` first when it is odd, so drift and
    cache warmth fall on both sides alike.  Returns seconds of shape
    ``(pairs, 2)``: column 0 is ``base``, column 1 ``other``.
    """
    calls = (base, other)
    for call in calls:
        call()
    seconds = np.empty((pairs, 2))
    for index in range(pairs):
        for side in ((0, 1) if index % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            calls[side]()
            seconds[index, side] = time.perf_counter() - start
    return seconds


def spread(samples: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of per-pair ``samples``, as stored in the file."""
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def quartiles(value) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of a stored value; a plain number is its own."""
    if isinstance(value, Mapping):
        return (float(value["q1"]), float(value["median"]),
                float(value["q3"]))
    return (float(value),) * 3


# ----------------------------------------------------------------------
# Bounds and the verdict rule
# ----------------------------------------------------------------------
_HOLDS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt,
          "==": operator.eq}


@dataclass(frozen=True)
class Bound:
    """``value <op> limit``; with ``of_committed`` the limit is
    ``limit x`` the committed median.  ``op=None`` reports the key only."""

    op: Optional[str] = None
    limit: float = 0.0
    of_committed: bool = False

    def threshold(self, committed) -> float:
        if self.of_committed:
            return self.limit * quartiles(committed)[1]
        return self.limit

    def describe(self, committed) -> str:
        if self.op is None:
            return "reported"
        if self.op == "==" and self.of_committed:
            return "== committed"
        text = f"{self.op} {_number(self.threshold(committed))}"
        if self.of_committed:
            text += f" ({self.limit:g} x committed)"
        return text


REPORTED = Bound()
EQUAL = Bound("==", 1.0, of_committed=True)


def verdict(bound: Bound, value, committed=None) -> str:
    """``"ok"``, ``"FAIL"``, ``"unresolved"`` or ``"reported"``.

    ``ok`` when the median meets the bound; ``FAIL`` when the quartile on
    the passing side (Q1 under a ceiling, Q3 over a floor) misses it too;
    otherwise ``unresolved``.  An equality has no passing side.
    """
    if bound.op is None:
        return "reported"
    q1, median, q3 = quartiles(value)
    limit = bound.threshold(committed)
    holds = _HOLDS[bound.op]
    if holds(median, limit):
        return "ok"
    if bound.op != "==" and holds(q1 if bound.op == "<=" else q3, limit):
        return "unresolved"
    return "FAIL"


# ----------------------------------------------------------------------
# Measurements: one function per row, called with the row's geometry
# ----------------------------------------------------------------------
def measure_speedup(frames: int, timesteps: int,
                    pairs: int) -> Dict[str, object]:
    """In-process speed-ups on the toy MLP: ``vectorized`` over the
    cycle-level ``reference`` interpreter, and the schedule optimizer
    (``vectorized``) over ``vectorized`` with ``optimize=False``."""
    program, trains = mlp_bench_case(frames=frames, timesteps=timesteps)
    with ExitStack() as stack:
        reference, unoptimized, vectorized = (
            stack.enter_context(create_backend(name, program, **options))
            for name, options in (("reference", {}),
                                  ("vectorized", {"optimize": False}),
                                  ("vectorized", {})))
        fast = partial(vectorized.run, trains)
        versus_reference = paired_seconds(partial(reference.run, trains),
                                          fast, pairs)
        versus_unoptimized = paired_seconds(partial(unoptimized.run, trains),
                                            fast, pairs)
    return {
        "vectorized_vs_reference":
            spread(versus_reference[:, 0] / versus_reference[:, 1]),
        "optimized_vs_unoptimized":
            spread(versus_unoptimized[:, 0] / versus_unoptimized[:, 1]),
    }


def measure_noc(networks: Sequence[str], timesteps: int,
                seed: int) -> Dict[str, object]:
    """Default vs NoC-optimized pipeline of each full-size DAG net.

    Deterministic: the ANN weights, the calibration batch and the
    placement search are all seeded.
    """
    from ..apps.networks import seeded_benchmark_graph
    from ..core.config import DEFAULT_ARCH
    from ..opt import compare_noc_pipelines

    values: Dict[str, object] = {}
    for name in networks:
        graph, _ = seeded_benchmark_graph(name, timesteps, seed=seed)
        row = compare_noc_pipelines(graph, DEFAULT_ARCH)
        for metric in ("wave_depth", "total_hops"):
            values[f"{name}.optimized.{metric}"] = row["optimized"][metric]
        for metric in ("wave_depth", "estimated_cycles"):
            values[f"{name}.reduction.{metric}"] = row["reduction"][metric]
    return values


def measure_firing(networks: Sequence[str], frames: int, timesteps: int,
                   seed: int) -> Dict[str, object]:
    """Per-layer firing rates of each net (default pipeline, vectorized).

    Deterministic (seeded weights, calibration and inputs), and JSON
    binary64 round-trips, so the gate compares them for equality.
    """
    from ..apps.networks import seeded_benchmark_graph
    from ..core.config import DEFAULT_ARCH
    from ..obs import ProbeSet

    values: Dict[str, object] = {}
    for name in networks:
        graph, rng = seeded_benchmark_graph(name, timesteps, seed=seed)
        program = ir_compile(graph, DEFAULT_ARCH).program
        trains = deterministic_encode(
            rng.random((frames, graph.input_size)), timesteps)
        with create_backend("vectorized", program) as backend:
            result = backend.run(trains, probes=ProbeSet.firing_rates())
        for layer, rate in result.probes.firing_rates().items():
            values[f"{name}.{layer}"] = float(rate)
    return values


def measure_overhead(frames: int, timesteps: int, pairs: int,
                     workers: int) -> Dict[str, object]:
    """Relative run-time cost of each instrumentation, on vs off in pairs.

    * ``supervision`` — ``sharded`` under the default
      :class:`~repro.resilience.RunPolicy` vs no policy (``workers`` is
      pinned so the real worker pool runs even on a 1-CPU machine);
    * ``metrics`` — ``vectorized`` with one long-lived
      :class:`~repro.obs.MetricsRegistry` vs none;
    * ``probes`` — ``vectorized`` with :meth:`~repro.obs.ProbeSet.full`
      attached vs none.
    """
    from ..obs import MetricsRegistry, ProbeSet
    from ..resilience import RunPolicy

    program, trains = mlp_bench_case(frames=frames, timesteps=timesteps)
    meter = MetricsRegistry()
    probes = ProbeSet.full()
    with ExitStack() as stack:
        plain, supervised, vectorized = (
            stack.enter_context(create_backend(name, program, **options))
            for name, options in (
                ("sharded", {"workers": workers}),
                ("sharded", {"workers": workers, "policy": RunPolicy()}),
                ("vectorized", {})))
        off = partial(vectorized.run, trains)
        sides = {
            "supervision": (partial(plain.run, trains),
                            partial(supervised.run, trains)),
            "metrics": (off, partial(vectorized.run, trains, metrics=meter)),
            "probes": (off, partial(vectorized.run, trains, probes=probes)),
        }
        values = {}
        for key, (without, with_) in sides.items():
            seconds = paired_seconds(without, with_, pairs)
            values[key] = spread(seconds[:, 1] / seconds[:, 0] - 1.0)
    return values


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Row:
    """One gate: ``measure(**geometry)`` returns ``{key: value}``; each
    key is bounded by the first ``bounds`` pattern (fnmatch) it matches."""

    name: str
    measure: Callable[..., Dict[str, object]]
    geometry: Dict[str, object]
    bounds: Dict[str, Bound]

    def bound_for(self, key: str) -> Bound:
        for pattern, bound in self.bounds.items():
            if fnmatch.fnmatchcase(key, pattern):
                return bound
        raise KeyError(f"row {self.name!r} has no bound for key {key!r}")


_DAG_NETS = ["mnist-inception", "cifar-multiskip"]

ROWS: Tuple[Row, ...] = (
    Row("speedup", measure_speedup,
        {"frames": 64, "timesteps": 16, "pairs": 10},
        {"vectorized_vs_reference": Bound(">=", 10.0),
         "optimized_vs_unoptimized": Bound(">=", 1.5)}),
    Row("noc", measure_noc,
        {"networks": _DAG_NETS, "timesteps": 8, "seed": 0},
        {"*.optimized.*": Bound("<=", 1.25, of_committed=True),
         "*.reduction.wave_depth": Bound(">=", 0.20),
         "*.reduction.estimated_cycles": Bound(">", 0.0)}),
    Row("firing", measure_firing,
        {"networks": _DAG_NETS, "frames": 2, "timesteps": 4, "seed": 0},
        {"*": EQUAL}),
    # 4096 frames: at 1024 the supervision pairs' quartiles lie 13-41
    # points apart on 2 vCPUs, far wider than the 5 % bound they meet
    Row("overhead", measure_overhead,
        {"frames": 4096, "timesteps": 16, "pairs": 10, "workers": 2},
        {"supervision": Bound("<=", 0.05),
         "metrics": Bound("<=", 0.05),
         "probes": REPORTED}),
)


def measure_rows() -> Dict[str, Dict[str, object]]:
    """``{row: {key: value}}``, each row measured at its own geometry."""
    return {row.name: row.measure(**row.geometry) for row in ROWS}


GateLine = Tuple[str, str, object, str, str]


def gate(measured: Mapping[str, Mapping[str, object]],
         committed: Mapping[str, Mapping[str, object]]) -> List[GateLine]:
    """``(row, key, value, bound, verdict)`` for every key of every row.

    A key measured on one side only FAILs: under one geometry the key set
    is deterministic, so a layer that appeared or vanished is a change in
    what the program computes.
    """
    lines: List[GateLine] = []
    for row in ROWS:
        fresh, baseline = measured[row.name], committed[row.name]
        for key in sorted(set(fresh) | set(baseline)):
            if key not in fresh or key not in baseline:
                side = "measured" if key in fresh else "committed"
                lines.append((row.name, key, fresh.get(key),
                              f"only {side}", "FAIL"))
                continue
            bound = row.bound_for(key)
            lines.append((row.name, key, fresh[key],
                          bound.describe(baseline[key]),
                          verdict(bound, fresh[key], baseline[key])))
    return lines


def _number(value: float) -> str:
    return f"{value:.6g}"


def _measured(value) -> str:
    if value is None:
        return "-"
    q1, median, q3 = quartiles(value)
    if isinstance(value, Mapping):
        return f"{_number(median)} [{_number(q1)}, {_number(q3)}]"
    return _number(median)


def format_table(lines: Sequence[GateLine]) -> str:
    """The printer: one aligned line per key, wall-clock keys with their
    ``[Q1, Q3]``."""
    table = [("row", "key", "measured [q1, q3]", "bound", "verdict")]
    table += [(row, key, _measured(value), bound, state)
              for row, key, value, bound, state in lines]
    widths = [max(len(cells[column]) for cells in table)
              for column in range(4)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))
        + "  " + cells[4]
        for cells in table)


# ----------------------------------------------------------------------
# The file
# ----------------------------------------------------------------------
def load_bench_report(path: os.PathLike) -> Dict[str, Dict[str, object]]:
    """Committed ``{row: {key: value}}`` of a ``BENCH_engine.json``.

    Raises :class:`FileNotFoundError` when the file is missing and
    :class:`ValueError` when it is corrupt: not JSON, another schema, a
    row missing or measured under a geometry other than the table's, or a
    key the row does not bound or whose value is not a number.
    """
    target = Path(path)
    try:
        payload = json.loads(target.read_text())
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no committed measurements at {target}; run "
            "`python -m repro.bench` once to create it"
        ) from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt measurements at {target}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise ValueError(f"corrupt measurements at {target}: expected "
                         f"schema {SCHEMA}")
    stored = payload.get("rows")
    values: Dict[str, Dict[str, object]] = {}
    for row in ROWS:
        entry = stored.get(row.name) if isinstance(stored, dict) else None
        if not isinstance(entry, dict) or \
                not isinstance(entry.get("values"), dict):
            raise ValueError(f"corrupt measurements at {target}: no row "
                             f"{row.name!r}")
        if entry.get("geometry") != row.geometry:
            raise ValueError(
                f"row {row.name!r} in {target} was measured at geometry "
                f"{entry.get('geometry')}, the table's is {row.geometry}; "
                "re-baseline with `python -m repro.bench`")
        for key, value in entry["values"].items():
            try:
                row.bound_for(key)
                quartiles(value)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"corrupt measurements at {target}: row "
                                 f"{row.name!r}, key {key!r}: {exc!r}"
                                 ) from None
        values[row.name] = entry["values"]
    return values


def git_revision() -> str:
    """The repository's short HEAD revision, or "unknown" outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() \
        else "unknown"


def write_bench_report(measured: Mapping[str, Mapping[str, object]],
                       path: os.PathLike) -> Path:
    """Write ``measured`` as the whole of a ``BENCH_engine.json``
    (replacing, never merging, what was there).  Returns the path."""
    target = Path(path)
    payload = {
        "schema": SCHEMA,
        "git_rev": git_revision(),
        "cpu_count": os.cpu_count() or 1,
        "rows": {row.name: {"geometry": row.geometry,
                            "values": measured[row.name]}
                 for row in ROWS},
    }
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target
