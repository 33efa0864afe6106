"""The ``auto`` backend: batch-size-aware selection + graceful degradation.

Callers rarely want to think about which executor fits a run: single-frame
debug runs want the cycle-level ``reference`` interpreter (its per-frame
trace is the ground truth and construction is cheap), batched sweeps want
``vectorized``, and large batches on multi-core machines want ``sharded``.
``auto`` encodes that policy behind the normal backend interface — all
delegates are bit-exact, so the choice is purely about speed:

* ``frames <= reference_max_frames`` (default 1) -> ``reference``;
* ``frames < sharded_min_frames`` (default 2048), or fewer than two usable
  workers -> ``vectorized``;
* otherwise -> ``sharded``.

Because every delegate computes identical results, ``auto`` can also trade
speed for survival: when a delegate fails with a *supervision-level* error
(a :class:`~repro.resilience.ResilienceError` — dead workers past the retry
budget, hung shards, a blown deadline), the run **degrades** down
:data:`DEGRADATION_CHAIN` (``sharded -> vectorized -> reference``) instead
of failing, records the trail in :attr:`AutoBackend.last_degradation` and
in the result's :class:`~repro.resilience.ResilienceReport`, and still
returns bit-identical outputs, stats, and probes.  Deterministic program
errors (e.g. partial-sum overflow) are *not* caught — they would fail
identically on every backend, so masking them would only hide bugs.
``strict=True`` disables degradation and re-raises instead.

Delegate backends are created lazily and cached, so a long-lived
:class:`~repro.engine.ExecutionEngine` pays lowering / simulator
construction once per delegate actually used.  The most recent choice is
exposed as :attr:`AutoBackend.last_selection` (e.g. for experiment
metadata).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.simulator import SimulationResult
from ..mapping.program import Program
from ..resilience import FaultPlan, ResilienceError, ResilienceReport, RunPolicy
from .base import ExecutionBackend, normalise_spike_trains
from .registry import create_backend, register_backend
from .sharded import resolve_worker_count

#: default smallest batch worth paying multiprocess overhead for: on the
#: Table III(a) MLP with 2 workers on 2 vCPUs, ``sharded`` first beats
#: ``vectorized`` at 2048 frames (256, 512 and 1024 run faster in process)
DEFAULT_SHARDED_MIN_FRAMES = 2048

#: default largest batch still sent to the cycle-level interpreter
DEFAULT_REFERENCE_MAX_FRAMES = 1

#: fallback order on ResilienceError: each backend degrades to the next
DEGRADATION_CHAIN = ("sharded", "vectorized", "reference")


def select_backend_name(frames: int,
                        reference_max_frames: int = DEFAULT_REFERENCE_MAX_FRAMES,
                        sharded_min_frames: int = DEFAULT_SHARDED_MIN_FRAMES,
                        workers: Optional[int] = None) -> str:
    """The backend ``auto`` picks for a ``frames``-sized batch.

    Exposed separately so tools (and tests) can inspect the policy without
    building any backend.
    """
    if 0 < frames <= reference_max_frames:
        return "reference"
    if frames < sharded_min_frames or resolve_worker_count(workers) < 2:
        return "vectorized"
    return "sharded"


def next_fallback(name: str) -> Optional[str]:
    """The backend ``name`` degrades to, or ``None`` at the chain's end."""
    try:
        index = DEGRADATION_CHAIN.index(name)
    except ValueError:
        return None
    if index + 1 < len(DEGRADATION_CHAIN):
        return DEGRADATION_CHAIN[index + 1]
    return None


@register_backend
class AutoBackend(ExecutionBackend):
    """Delegates each run to the backend the batch size calls for."""

    name = "auto"

    def __init__(self, program: Program, collect_stats: bool = True,
                 reference_max_frames: int = DEFAULT_REFERENCE_MAX_FRAMES,
                 sharded_min_frames: int = DEFAULT_SHARDED_MIN_FRAMES,
                 workers: Optional[int] = None,
                 policy: Optional[RunPolicy] = None,
                 faults: Optional[FaultPlan] = None,
                 strict: bool = False):
        super().__init__(program, collect_stats=collect_stats)
        self.reference_max_frames = reference_max_frames
        self.sharded_min_frames = sharded_min_frames
        self.workers = workers
        #: supervision policy forwarded to the sharded delegate
        self.policy = policy
        #: fault plan forwarded to the sharded delegate (tests only)
        self.faults = faults
        #: True = re-raise ResilienceError instead of degrading
        self.strict = strict
        # keyed by (name, collect_stats) so flipping collect_stats on this
        # backend never reuses a delegate frozen with the old setting
        self._delegates: Dict[Tuple[str, bool], ExecutionBackend] = {}
        #: name of the backend the most recent run() used (None before any)
        self.last_selection: Optional[str] = None
        #: degradation trail of the most recent run, e.g.
        #: ``("sharded -> vectorized",)``; None when nothing degraded
        self.last_degradation: Optional[Tuple[str, ...]] = None

    def select(self, frames: int) -> str:
        """The delegate name for a ``frames``-sized batch."""
        return select_backend_name(
            frames,
            reference_max_frames=self.reference_max_frames,
            sharded_min_frames=self.sharded_min_frames,
            workers=self.workers,
        )

    def delegate(self, name: str) -> ExecutionBackend:
        """The (lazily created, cached) delegate backend ``name``."""
        key = (name, self.collect_stats)
        if key not in self._delegates:
            options = {}
            if name == "sharded":
                options["workers"] = self.workers
                if self.policy is not None:
                    options["policy"] = self.policy
                if self.faults is not None:
                    options["faults"] = self.faults
            self._delegates[key] = create_backend(
                name, self.program, collect_stats=self.collect_stats, **options)
        return self._delegates[key]

    def run(self, spike_trains: np.ndarray,
            probes=None, metrics=None) -> SimulationResult:
        spike_trains = normalise_spike_trains(spike_trains,
                                              self.program.input_size)
        name = self.select(spike_trains.shape[0])
        trail = []
        report: Optional[ResilienceReport] = None
        while True:
            try:
                result = self.delegate(name).run(spike_trains, probes=probes,
                                                 metrics=metrics)
                break
            except ResilienceError as exc:
                fallback = next_fallback(name)
                if self.strict or fallback is None:
                    raise
                # the degradation joins the failed run's own event log so
                # the full story (retries, then fallback) stays in one report
                report = exc.report if exc.report is not None \
                    else ResilienceReport(self.policy)
                report.record("degrade", f"{name} -> {fallback}: {exc}")
                trail.append(f"{name} -> {fallback}")
                name = fallback
        self.last_selection = name
        self.last_degradation = tuple(trail) if trail else None
        if report is not None:
            result.resilience = report
        return result

    def close(self) -> None:
        """Close every cached delegate (e.g. sharded worker pools)."""
        for delegate in self._delegates.values():
            delegate.close()
