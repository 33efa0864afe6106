"""The result of compiling an abstract SNN onto Shenjing (Fig. 3).

The compilation itself is :func:`repro.ir.compile`, a pass pipeline over
the layer-graph IR: ``graph-build`` validates the
:class:`~repro.ir.graph.LayerGraph`, ``logical-map`` splits every node over
logical cores with its partial-sum reduction groups, ``placement`` arranges
the cores on the tile fabric, ``route-pack`` turns the logical movements
into XY-routed conflict-free waves and ``emit-program`` produces the
cycle-by-cycle :class:`~repro.mapping.program.Program` of atomic operations
(Table I).  This module holds :class:`CompiledNetwork`, the result
container the rest of the system consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .logical import LogicalNetwork
from .placement import Placement
from .program import Program


@dataclass
class CompiledNetwork:
    """The result of compiling a network for Shenjing.

    ``graph`` is the compiled :class:`~repro.ir.graph.LayerGraph`.
    ``schedule`` is populated when the pipeline ran through the engine's
    ``lower``/``optimize`` passes (``compile(..., to="schedule")``),
    ``routes`` carries the packed
    :class:`~repro.ir.pipeline.RoutePlan` (the input of the
    :mod:`repro.opt` NoC cost model), ``timing`` the
    :class:`~repro.timing.TimingEstimate` the ``timing-model`` pass derived
    from those waves, and ``trace`` records per-pass timing and summaries.
    """

    program: Program
    logical: LogicalNetwork
    placement: Placement
    graph: Optional[object] = None
    schedule: Optional[object] = None
    routes: Optional[object] = None
    timing: Optional[object] = None
    trace: List[object] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.graph.name if self.graph is not None else "<unnamed>"

    @property
    def core_count(self) -> int:
        return self.logical.n_cores

    @property
    def chips_used(self) -> int:
        return self.placement.chips_used()

    def describe(self) -> str:
        lines = [
            f"CompiledNetwork '{self.name}': {self.core_count} cores, "
            f"{self.chips_used} chip(s), fabric {self.placement.rows}x{self.placement.cols}",
        ]
        for layer_name, count in self.logical.core_count_by_layer().items():
            lines.append(f"  {layer_name:<24} {count} cores")
        lines.append(self.program.describe())
        return "\n".join(lines)

    def describe_trace(self) -> str:
        """Per-pass timing/summary of the compilation (empty if untraced)."""
        return "\n".join(str(record) for record in self.trace)
