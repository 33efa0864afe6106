"""Compiled-artifact cache: compile once per ``(network, arch, options)``.

The mapping compiler is deterministic, so two requests to serve the same
network on the same architecture with the same pipeline options need one
compilation, not two.  The cache key is a *content* fingerprint — the
pickled network and architecture hashed with SHA-256 plus a canonical
rendering of the pipeline options — so an equal model rebuilt from
scratch hits the cache, while any change to weights, topology,
architecture geometry or pass options misses.  Keying on content (never
on object identity or a user-supplied name) is also what guarantees two
*different* models can never share a compiled artifact — and therefore
never share an engine or its mutable backend state.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from typing import Dict, Tuple

from ..ir.pipeline import CompiledNetwork
from ..ir.pipeline import compile as ir_compile


def fingerprint(obj: object) -> str:
    """SHA-256 of an object's pickled content (weights included)."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(payload).hexdigest()


def artifact_key(network: object, arch: object, **options: object) -> str:
    """The cache key of one ``(network, arch, pipeline-options)`` triple."""
    rendered = ";".join(f"{name}={options[name]!r}"
                        for name in sorted(options))
    digest = hashlib.sha256()
    digest.update(fingerprint(network).encode())
    digest.update(fingerprint(arch).encode())
    digest.update(rendered.encode())
    return digest.hexdigest()


class ArtifactCache:
    """Thread-safe compile-once cache of :class:`CompiledNetwork` artifacts.

    ``get_or_compile`` returns ``(key, compiled, hit)``; concurrent
    misses on the same key compile once (the second caller waits on the
    first's result via the lock held across compilation of distinct keys
    being rare enough that a single lock keeps the invariant simple).
    """

    def __init__(self) -> None:
        self._entries: Dict[str, CompiledNetwork] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compile(self, network: object, arch: object,
                       **options: object) -> Tuple[str, CompiledNetwork, bool]:
        """The compiled artifact for the triple, compiling on first miss."""
        key = artifact_key(network, arch, **options)
        with self._lock:
            compiled = self._entries.get(key)
            if compiled is not None:
                self.hits += 1
                return key, compiled, True
            compiled = ir_compile(network, arch, **options)
            self._entries[key] = compiled
            self.misses += 1
            return key, compiled, False
