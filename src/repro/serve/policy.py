"""Serving policy: coalescing budget and admission bounds.

Every coalesced batch runs ``vectorized``, whatever its size (which splits
a batch of 1,024 or more frames into frame parts on threads).  Serving
never selects the cycle-level ``reference`` interpreter, whose
per-instruction dispatch is orders of magnitude too slow for a latency
budget (all backends are bit-exact, so this is purely a speed choice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

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
    """

    batch_window: float = 0.005
    max_batch: int = 256
    queue_limit: int = 1024

    def __post_init__(self) -> None:
        if self.batch_window < 0:
            raise ServeError(
                f"batch_window must be >= 0, got {self.batch_window}")
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_limit < 1:
            raise ServeError(
                f"queue_limit must be >= 1, got {self.queue_limit}")

    def as_dict(self) -> Dict[str, object]:
        """JSON-able form (bench sections, experiment metadata)."""
        return {
            "batch_window": self.batch_window,
            "max_batch": self.max_batch,
            "queue_limit": self.queue_limit,
        }
