"""The ``auto`` backend: the executor a batch's size calls for.

Callers rarely want to think about which executor fits a run: single-frame
debug runs want the cycle-level ``reference`` interpreter (its per-frame
trace is the ground truth and construction is cheap), and every larger
batch wants ``vectorized``, which itself splits a large batch into frame
parts on threads.  ``auto`` encodes that choice behind the normal backend
interface — both delegates are bit-exact, so the choice is purely about
speed:

* a 1-frame batch -> ``reference``;
* anything else -> ``vectorized``.

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
from .base import ExecutionBackend, normalise_spike_trains
from .registry import create_backend, register_backend


@register_backend
class AutoBackend(ExecutionBackend):
    """Delegates each run to the backend the batch size calls for."""

    name = "auto"

    def __init__(self, program: Program, collect_stats: bool = True):
        super().__init__(program, collect_stats=collect_stats)
        # keyed by (name, collect_stats) so flipping collect_stats on this
        # backend never reuses a delegate frozen with the old setting
        self._delegates: Dict[Tuple[str, bool], ExecutionBackend] = {}
        #: name of the backend the most recent run() used (None before any)
        self.last_selection: Optional[str] = None

    @staticmethod
    def select(frames: int) -> str:
        """The delegate name for a ``frames``-sized batch."""
        return "reference" if frames == 1 else "vectorized"

    def delegate(self, name: str) -> ExecutionBackend:
        """The (lazily created, cached) delegate backend ``name``."""
        key = (name, self.collect_stats)
        if key not in self._delegates:
            self._delegates[key] = create_backend(
                name, self.program, collect_stats=self.collect_stats)
        return self._delegates[key]

    def run(self, spike_trains: np.ndarray,
            probes=None, metrics=None) -> SimulationResult:
        spike_trains = normalise_spike_trains(spike_trains,
                                              self.program.input_size)
        name = self.select(spike_trains.shape[0])
        result = self.delegate(name).run(spike_trains, probes=probes,
                                         metrics=metrics)
        self.last_selection = name
        return result

    def close(self) -> None:
        """Close every cached delegate, freeing their kept run states."""
        for delegate in self._delegates.values():
            delegate.close()
