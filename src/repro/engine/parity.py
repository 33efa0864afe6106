"""Parity harness: assert bit-exact agreement between execution backends.

The engine's contract is that every backend produces identical spike counts
and predictions for the same program and inputs (and, with statistics
enabled, identical :class:`~repro.core.stats.ExecutionStats`).  This module
checks that contract: the test-suite runs it over the example mappings, and
users can call :func:`assert_backend_parity` on their own programs before
trusting a fast backend for a large sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from ..core.simulator import SimulationResult
from ..mapping.program import Program
from .base import EngineError
from .registry import create_backend


class ParityError(EngineError):
    """Raised when two backends disagree on a program's execution."""


@dataclass
class ParityReport:
    """Outcome of a parity check: per-backend results, first backend is baseline."""

    backends: Tuple[str, ...]
    results: Dict[str, SimulationResult] = field(default_factory=dict)

    @property
    def baseline(self) -> SimulationResult:
        return self.results[self.backends[0]]

    def describe(self) -> str:
        lines = [f"parity across {', '.join(self.backends)}: OK"]
        for name, result in self.results.items():
            lines.append(
                f"  {name:<12} frames={result.spike_counts.shape[0]} "
                f"total_spikes={int(result.spike_counts.sum())} "
                f"cycles={result.stats.cycles}"
            )
        return "\n".join(lines)


def run_backends(program: Program, spike_trains: np.ndarray,
                 backends: Sequence[str] = ("reference", "vectorized"),
                 collect_stats: bool = True,
                 probes=None) -> Dict[str, SimulationResult]:
    """Run ``spike_trains`` through each named backend on fresh instances.

    Every instance is closed after its run, so no backend's kept run state
    outlives the check.
    """
    if len(backends) < 2:
        raise EngineError("parity needs at least two backends to compare")
    results: Dict[str, SimulationResult] = {}
    for name in backends:
        backend = create_backend(name, program, collect_stats=collect_stats)
        try:
            results[name] = backend.run(spike_trains, probes=probes)
        finally:
            backend.close()
    return results


def _compare_probes(name: str, baseline_name: str, result, baseline) -> None:
    """Raise :class:`ParityError` unless two probe results are bit-identical."""
    ours, theirs = result.probes, baseline.probes
    if (ours is None) != (theirs is None):
        raise ParityError(
            f"backend {name!r} probe presence disagrees with {baseline_name!r}"
        )
    if ours is None:
        return
    for attr in ("spikes", "potentials", "acc_active"):
        mine, base = getattr(ours, attr), getattr(theirs, attr)
        if set(mine) != set(base):
            raise ParityError(
                f"backend {name!r} probed different {attr} layers than "
                f"{baseline_name!r}"
            )
        for layer, array in mine.items():
            if not np.array_equal(array, base[layer]):
                raise ParityError(
                    f"backend {name!r} probe {attr}[{layer!r}] disagrees "
                    f"with {baseline_name!r}"
                )
    mine_t, base_t = ours.telemetry, theirs.telemetry
    if (mine_t is None) != (base_t is None):
        raise ParityError(
            f"backend {name!r} telemetry presence disagrees with "
            f"{baseline_name!r}"
        )
    if mine_t is not None and mine_t.as_dict() != base_t.as_dict():
        raise ParityError(
            f"backend {name!r} NoC telemetry disagrees with {baseline_name!r}"
        )


def assert_backend_parity(program: Program, spike_trains: np.ndarray,
                          backends: Sequence[str] = ("reference", "vectorized"),
                          check_stats: bool = True,
                          probes=None) -> ParityReport:
    """Assert bit-exact agreement between ``backends`` on ``spike_trains``.

    The first backend is the baseline.  Raises :class:`ParityError` on the
    first disagreement (spike counts, predictions or — when ``check_stats`` —
    the full statistics summary); returns a :class:`ParityReport` otherwise.
    With ``probes`` (a :class:`repro.obs.ProbeSet`) every backend runs
    probed and the captured :class:`repro.obs.ProbeResult`\\ s must also be
    bit-identical — per-layer arrays and NoC telemetry alike.
    """
    results = run_backends(program, spike_trains, backends,
                           collect_stats=check_stats, probes=probes)
    baseline_name = backends[0]
    baseline = results[baseline_name]
    for name in backends[1:]:
        result = results[name]
        if not np.array_equal(result.spike_counts, baseline.spike_counts):
            diff = int(np.sum(result.spike_counts != baseline.spike_counts))
            raise ParityError(
                f"backend {name!r} disagrees with {baseline_name!r} on "
                f"{diff} spike-count entries"
            )
        if not np.array_equal(result.predictions, baseline.predictions):
            raise ParityError(
                f"backend {name!r} disagrees with {baseline_name!r} on predictions"
            )
        if check_stats:
            ours, theirs = result.stats.summary(), baseline.stats.summary()
            if ours != theirs:
                keys = sorted(k for k in set(ours) | set(theirs)
                              if ours.get(k) != theirs.get(k))
                raise ParityError(
                    f"backend {name!r} stats disagree with {baseline_name!r} "
                    f"on {', '.join(keys)}"
                )
        if probes:
            _compare_probes(name, baseline_name, result, baseline)
    return ParityReport(backends=tuple(backends), results=results)
