"""Backend registry: name -> :class:`~repro.engine.base.ExecutionBackend`.

Backends self-register at import time with :func:`register_backend`; callers
resolve them by name.  Follow-on backends plug in the same way without
touching the engine API.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from ..mapping.program import Program
from .base import EngineError, ExecutionBackend

_REGISTRY: Dict[str, Type[ExecutionBackend]] = {}

#: backend used when callers do not pick one explicitly
DEFAULT_BACKEND = "vectorized"


def register_backend(cls: Type[ExecutionBackend]) -> Type[ExecutionBackend]:
    """Class decorator: register ``cls`` under its ``name`` attribute."""
    name = getattr(cls, "name", "")
    if not name:
        raise EngineError(f"backend class {cls.__name__} must define a non-empty name")
    if name in _REGISTRY and _REGISTRY[name] is not cls:
        raise EngineError(f"backend {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def get_backend(name: str) -> Type[ExecutionBackend]:
    """Look up a backend class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise EngineError(
            f"unknown execution backend {name!r} (available: {available})"
        ) from None


def list_backends() -> Tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str, program: Program,
                   collect_stats: bool = True,
                   **options: object) -> ExecutionBackend:
    """Instantiate the backend ``name`` for ``program``.

    Extra keyword ``options`` are forwarded to the backend constructor
    (e.g. ``optimize=False`` for ``vectorized``); passing an option a
    backend does not accept raises the usual ``TypeError``.
    """
    return get_backend(name)(program, collect_stats=collect_stats, **options)
