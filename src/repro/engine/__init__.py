"""Multi-backend execution engine for compiled Shenjing programs.

Wraps program execution behind a single entry point with pluggable,
bit-exact backends:

* ``reference`` — the cycle-level per-instruction interpreter
  (:class:`~repro.core.simulator.ShenjingSimulator`), the ground truth;
* ``vectorized`` — lowers the program once into a flat per-timestep schedule
  of dense numpy operations, optimizes the schedule
  (:mod:`repro.engine.optimize`: packet fusion, dead-op elimination, slice
  selectors, exact BLAS accumulation, one GEMM per reduction tree) and
  executes all frames of a batch simultaneously;
* ``sharded`` — splits the batch's frame axis across worker processes, each
  running the same optimized schedule (:mod:`repro.engine.sharded`);
* ``auto`` — picks one of the above from the batch size
  (:mod:`repro.engine.auto`): ``reference`` for 1-frame debug runs,
  ``vectorized`` for small batches, ``sharded`` above a threshold.

A lowered schedule runs one way: the ``vectorized`` backend and the
``sharded`` workers interpret its ops (``schedule.ops``) on numpy arrays
(:func:`~repro.engine.vectorized.execute_schedule`).

Typical use::

    from repro.engine import run
    result = run(compiled.program, spike_trains, backend="auto")

or, when the same program is executed repeatedly::

    engine = ExecutionEngine(compiled.program)
    result = engine.run(spike_trains)

Backends agree bit for bit on spike counts, predictions and execution
statistics; :func:`~repro.engine.parity.assert_backend_parity` checks the
contract on any program.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.simulator import SimulationResult
from ..mapping.program import Program
from .base import EngineError, ExecutionBackend
from .lowering import (
    BatchState,
    ClearPlan,
    LoweredSchedule,
    LoweringError,
    kernel_class_counts,
    lower_program,
)
from .optimize import optimize_schedule
from .parity import ParityError, ParityReport, assert_backend_parity, run_backends
from .registry import (
    DEFAULT_BACKEND,
    create_backend,
    get_backend,
    list_backends,
    register_backend,
)

# Importing the backend modules registers them.
from .reference import ReferenceBackend
from .vectorized import VectorizedBackend, execute_schedule
from .sharded import ShardedBackend, resolve_worker_count
from .auto import AutoBackend, DEGRADATION_CHAIN, next_fallback, select_backend_name


class ExecutionEngine:
    """Executes one program on selectable backends, caching their one-time
    preparation (system construction, program lowering) across runs.

    Instances are cached by *configuration*, not just name: the key includes
    the current ``collect_stats`` flag and the backend's options, so e.g.
    flipping ``engine.collect_stats`` or asking for differently-configured
    sharding never reuses a stale instance.  Option values that are not
    simple immutable scalars (e.g. a :class:`~repro.resilience.RunPolicy`
    or :class:`~repro.resilience.FaultPlan` object) are keyed by *identity*,
    not ``repr``: two distinct mutable objects must never collapse onto one
    cached backend, because the backend captures the object and a later
    mutation through one caller would silently reconfigure the other
    (repr-keying did exactly that — and truncated ``ndarray`` reprs can
    even collide across different values).

    ``backend()`` is thread-safe: concurrent sessions
    (:mod:`repro.serve`) resolving the same configuration get one
    instance, created once, instead of racing check-then-insert and
    leaking a duplicate worker pool.

    ``backend_options`` maps backend names to constructor keyword arguments,
    e.g. ``{"sharded": {"workers": 4}}``; the mapping is copied at
    construction so callers mutating their dict afterwards cannot desync
    the cache key from the instance it points at.
    """

    def __init__(self, program: Program, backend: str = DEFAULT_BACKEND,
                 collect_stats: bool = True,
                 backend_options: Optional[Dict[str, Dict[str, object]]] = None):
        program.validate()
        self.program = program
        self.default_backend = backend
        self.collect_stats = collect_stats
        self.backend_options: Dict[str, Dict[str, object]] = {
            name: dict(options)
            for name, options in (backend_options or {}).items()
        }
        self._instances: Dict[Tuple[str, bool, Tuple[Tuple[str, object], ...]],
                              ExecutionBackend] = {}
        self._lock = threading.Lock()
        # Resolve eagerly so a bad default fails at construction.
        get_backend(backend)

    @staticmethod
    def _freeze_option(value: object) -> object:
        """A hashable, collision-free stand-in for one option value.

        Immutable scalars key by value (equal configs share an instance);
        everything else keys by identity, so distinct mutable objects —
        policies, fault plans, arrays — never alias one cached backend.
        """
        if value is None or isinstance(value, (bool, int, float, str, bytes)):
            return value
        if isinstance(value, tuple):
            return tuple(ExecutionEngine._freeze_option(item) for item in value)
        return (type(value).__qualname__, id(value))

    def _cache_key(self, name: str):
        options = self.backend_options.get(name, {})
        frozen = tuple(sorted((key, self._freeze_option(value))
                              for key, value in options.items()))
        return (name, self.collect_stats, frozen)

    def backend(self, name: Optional[str] = None) -> ExecutionBackend:
        """The (cached) backend instance for ``name`` (default backend if None)."""
        name = name or self.default_backend
        key = self._cache_key(name)
        with self._lock:
            instance = self._instances.get(key)
            if instance is None:
                instance = create_backend(
                    name, self.program, collect_stats=self.collect_stats,
                    **self.backend_options.get(name, {}))
                self._instances[key] = instance
        return instance

    def run(self, spike_trains: np.ndarray,
            backend: Optional[str] = None,
            probes=None, metrics=None) -> SimulationResult:
        """Execute a batch of spike trains on the selected backend.

        ``probes`` (a :class:`repro.obs.ProbeSet`) attaches runtime probes;
        the result then carries ``result.probes``.  ``metrics`` (a
        :class:`repro.obs.MetricsRegistry`) collects wall-clock spans and
        counters without perturbing outputs.
        """
        return self.backend(backend).run(spike_trains, probes=probes,
                                         metrics=metrics)

    def close(self) -> None:
        """Close every cached backend (terminating persistent worker pools)."""
        for instance in self._instances.values():
            instance.close()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def run(program: Program, spike_trains: np.ndarray,
        backend: str = DEFAULT_BACKEND,
        collect_stats: bool = True,
        probes=None,
        metrics=None,
        **options: object) -> SimulationResult:
    """Execute ``spike_trains`` on ``program`` with the named backend.

    Keyword ``options`` forward to the backend constructor (e.g.
    ``workers=4`` for ``sharded``); ``probes`` (a
    :class:`repro.obs.ProbeSet`) attaches runtime probes; ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`) collects wall-clock spans and
    counters without perturbing outputs.
    """
    backend_instance = create_backend(backend, program,
                                      collect_stats=collect_stats, **options)
    try:
        return backend_instance.run(spike_trains, probes=probes,
                                    metrics=metrics)
    finally:
        backend_instance.close()


__all__ = [
    "AutoBackend",
    "BatchState",
    "ClearPlan",
    "DEFAULT_BACKEND",
    "DEGRADATION_CHAIN",
    "EngineError",
    "ExecutionBackend",
    "ExecutionEngine",
    "LoweredSchedule",
    "LoweringError",
    "ParityError",
    "ParityReport",
    "ReferenceBackend",
    "ShardedBackend",
    "VectorizedBackend",
    "assert_backend_parity",
    "create_backend",
    "execute_schedule",
    "get_backend",
    "kernel_class_counts",
    "list_backends",
    "lower_program",
    "next_fallback",
    "optimize_schedule",
    "register_backend",
    "resolve_worker_count",
    "run",
    "run_backends",
    "select_backend_name",
]
