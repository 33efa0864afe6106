"""Compile-once, serve-many inference: the request path over the engine.

Everything below this package is batch-oriented; :mod:`repro.serve` is
the layer that holds a :class:`~repro.ir.CompiledNetwork`
resident and answers a stream of single-frame requests against it:

* :class:`Server` — compile-once artifact cache keyed on
  ``(network, arch, compile-options)`` content, session registry,
  server-level :class:`~repro.obs.MetricsRegistry` with OpenMetrics
  export;
* :class:`Session` (the ``server.load(model)`` handle) — bounded FIFO
  request queue with typed admission control, and a dynamic batcher that
  coalesces single-frame requests under the policy's latency budget and
  runs each batch ``vectorized``;
* :class:`ServePolicy` — the tunables (batch window, max batch, queue
  bound);
* :class:`InferenceResponse` / :class:`PendingRequest` — per-request
  results and future-style handles.

The load-bearing contract: a frame served through a coalesced dynamic
batch is **bit-identical** — outputs, stats, probes — to a standalone
``reference`` run of that frame (see ``docs/serving.md``).
"""

from .cache import ArtifactCache, artifact_key, fingerprint
from .errors import (
    AdmissionError,
    DeadlineExceededError,
    QueueFullError,
    ServeError,
    ServerClosedError,
)
from .policy import ServePolicy
from .server import Server
from .session import InferenceResponse, PendingRequest, Session

__all__ = [
    "AdmissionError",
    "ArtifactCache",
    "DeadlineExceededError",
    "InferenceResponse",
    "PendingRequest",
    "QueueFullError",
    "ServeError",
    "ServePolicy",
    "Server",
    "ServerClosedError",
    "Session",
    "artifact_key",
    "fingerprint",
]
