"""Serving policy: coalescing budget, admission bounds, backend crossover.

The dynamic batcher's thresholds are seeded from the measured crossover
points of the ``auto`` backend (:mod:`repro.engine.auto`): a coalesced
batch below ``sharded_min_frames`` runs ``vectorized`` (multiprocess
overhead loses at small batches), and at or above it runs ``sharded`` on
the session's warm worker pool.  The one deliberate difference from
``auto``: serving never selects the cycle-level ``reference``
interpreter, whose per-instruction dispatch is orders of magnitude too
slow for a latency budget (all backends are bit-exact, so this is purely
a speed choice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..engine.auto import DEFAULT_SHARDED_MIN_FRAMES, select_backend_name
from ..resilience import FaultPlan, RunPolicy
from .errors import ServeError


@dataclass(frozen=True)
class ServePolicy:
    """Tunables of one serving session (validated at construction).

    ``batch_window`` is the coalescing latency budget in seconds: the
    dispatcher holds the oldest queued request at most this long while
    more single-frame requests arrive to share the batch; ``0`` disables
    coalescing-by-waiting (whatever is queued when the dispatcher wakes
    still rides together).  ``max_batch`` caps how many requests one batch
    carries and ``queue_limit`` bounds admission — a full queue rejects
    with :class:`~repro.serve.QueueFullError` instead of growing latency
    without bound.

    ``run_policy`` supervises the sharded delegate
    (:class:`~repro.resilience.RunPolicy`: per-shard timeout, retry
    budget, run deadline); ``strict=True`` re-raises supervision failures
    instead of degrading to ``vectorized``.  ``faults`` injects a
    :class:`~repro.resilience.FaultPlan` into the sharded workers —
    test-only, exactly as on the backend itself.
    """

    batch_window: float = 0.005
    max_batch: int = 256
    queue_limit: int = 1024
    sharded_min_frames: int = DEFAULT_SHARDED_MIN_FRAMES
    workers: Optional[int] = None
    run_policy: Optional[RunPolicy] = None
    faults: Optional[FaultPlan] = None
    strict: bool = False

    def __post_init__(self) -> None:
        if self.batch_window < 0:
            raise ServeError(
                f"batch_window must be >= 0, got {self.batch_window}")
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_limit < 1:
            raise ServeError(
                f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.sharded_min_frames < 1:
            raise ServeError(
                "sharded_min_frames must be >= 1, got "
                f"{self.sharded_min_frames}")
        if self.run_policy is not None and \
                not isinstance(self.run_policy, RunPolicy):
            raise ServeError(
                f"run_policy must be a RunPolicy, got "
                f"{type(self.run_policy).__name__}")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ServeError(
                f"faults must be a FaultPlan, got "
                f"{type(self.faults).__name__}")

    def select_backend(self, frames: int) -> str:
        """The backend a ``frames``-sized coalesced batch runs on.

        The ``auto`` crossover policy with ``reference`` disabled
        (``reference_max_frames=0``): small load -> ``vectorized``, heavy
        load -> ``sharded``.
        """
        return select_backend_name(
            frames,
            reference_max_frames=0,
            sharded_min_frames=self.sharded_min_frames,
            workers=self.workers,
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-able form (bench sections, experiment metadata)."""
        return {
            "batch_window": self.batch_window,
            "max_batch": self.max_batch,
            "queue_limit": self.queue_limit,
            "sharded_min_frames": self.sharded_min_frames,
            "workers": self.workers,
            "strict": self.strict,
        }
