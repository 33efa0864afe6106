"""Typed errors of the serving layer.

Admission control and deadline policy reject with *typed* errors so a
client can tell "try again later" (:class:`QueueFullError`), "you waited
too long" (:class:`DeadlineExceededError`) and "the server is gone"
(:class:`ServerClosedError`) apart without string matching.
"""

from __future__ import annotations


class ServeError(RuntimeError):
    """Base class of every serving-layer error."""


class AdmissionError(ServeError):
    """A request was rejected at submission time (never enqueued)."""


class QueueFullError(AdmissionError):
    """The session's bounded request queue is at its limit.

    The request was *not* enqueued; the client should back off and retry.
    """


class DeadlineExceededError(ServeError):
    """The request's deadline expired while it waited in the queue.

    The frame was never executed: deadlines bound *queueing* delay, so an
    expired request is dropped at dispatch instead of wasting batch room.
    """


class ServerClosedError(ServeError):
    """The server (or session) has been closed; no new requests."""
