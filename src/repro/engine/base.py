"""Execution backend interface of the multi-backend engine.

An :class:`ExecutionBackend` executes a compiled
:class:`~repro.mapping.program.Program` on a batch of input spike trains and
returns a :class:`~repro.core.simulator.SimulationResult`.  All backends are
contractually bit-exact: for the same program and spike trains they must
produce identical ``spike_counts`` and ``predictions`` (and, when statistics
collection is enabled, identical :class:`~repro.core.stats.ExecutionStats`).
The contract is enforced by :mod:`repro.engine.parity`.

Backends register themselves with :mod:`repro.engine.registry` so callers can
select them by name (``run(program, trains, backend="vectorized")``).
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

from ..core.simulator import (
    SimulationError,
    SimulationResult,
    normalise_spike_trains,
)
from ..mapping.program import Program

__all__ = [
    "EngineError",
    "ExecutionBackend",
    "SimulationError",
    "SimulationResult",
    "normalise_spike_trains",
]


class EngineError(RuntimeError):
    """Raised on engine misuse (unknown backend, unlowerable program, ...)."""


class ExecutionBackend(abc.ABC):
    """Executes compiled programs; one instance is bound to one program.

    Subclasses set :attr:`name` (the registry key) and implement :meth:`run`.
    Construction may perform arbitrary one-time preparation (building the
    behavioural system, lowering the program, ...) so that repeated ``run``
    calls amortise it.
    """

    #: registry key under which the backend is selectable
    name: ClassVar[str] = ""

    def __init__(self, program: Program, collect_stats: bool = True):
        program.validate()
        self.program = program
        self.collect_stats = collect_stats

    @abc.abstractmethod
    def run(self, spike_trains: np.ndarray,
            probes=None, metrics=None) -> SimulationResult:
        """Execute a ``(frames, timesteps, input_size)`` batch of spike trains.

        ``probes`` optionally names runtime observations to capture — a
        :class:`repro.obs.ProbeSet` — in which case the result carries a
        :class:`repro.obs.ProbeResult` in ``result.probes``, bit-identical
        across backends.  ``None`` (or an empty set) must add no
        per-timestep work beyond a single ``None`` check.

        ``metrics`` optionally supplies a
        :class:`repro.obs.MetricsRegistry` into which the backend records
        wall-clock spans (per-run phases), work counters, and sampled
        per-timestep histograms.  The same no-op contract applies:
        ``None`` must add no per-timestep work beyond a single ``None``
        check, and an enabled registry must never change the computed
        outputs, statistics, or probes (metrics only read clocks).
        """

    def close(self) -> None:
        """Release backend-held resources (kept run states, ...);
        idempotent.

        The base implementation is a no-op; ``vectorized`` drops the run
        states its schedule keeps, and ``auto`` forwards to its delegates.
        """

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(program={self.program.metadata.get('name')!r})"
