"""Structural resource and operation-count estimation.

For the largest benchmarks (CIFAR-10 CNN and ResNet, thousands of cores) the
paper does not run RTL simulation; it counts atomic operations with the
functional simulator and multiplies by per-op energies.  For networks too
large to cycle-simulate comfortably in Python, this module derives the same
per-time-step operation counts *structurally* from the logical mapping and the
placement — without materialising weights or executing anything — so that the
power model can produce Table IV's rows for every benchmark.

Cycle estimates come in two flavours:

* **schedule-aware** — when the caller passes the compiled
  :class:`~repro.ir.pipeline.RoutePlan` (``routes=``), per-layer cycles are
  delegated to the :mod:`repro.timing` analytic model, which prices the
  actual packed waves (multicast chains, reduction-tree rounds, optimized
  placement included) and matches the simulator's
  ``ExecutionStats.cycles`` exactly;
* **closed-form** — without a route plan (the
  ``examples/quickstart.py --list-networks`` path, where nothing has been
  routed), every NoC phase is priced with
  :func:`repro.timing.serialization_lower_bound` — the classical
  congestion/dilation bound ``max(most-loaded link, longest route) + 1`` —
  over the layer's point-to-point transfers: one unpacked wave for spike
  delivery, one wave per serial member-chain round for the partial-sum
  reduction.  A pre-compile approximation of the *default* pipeline's
  schedule, sharing one bound implementation with the timing model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.config import ArchitectureConfig
from .logical import EXTERNAL_INPUT, LogicalLayer, LogicalNetwork, MappingError
from .placement import Placement, place_network
from .routing import Transfer, route_length, xy_route
from .spike_mapping import canonicalise_axons


@dataclass
class LayerEstimate:
    """Per-time-step operation counts of one logical layer."""

    name: str
    cores: int
    groups: int
    ops: Dict[str, int] = field(default_factory=dict)
    lanes: Dict[str, int] = field(default_factory=dict)
    interchip_spike_bits: int = 0
    interchip_ps_bits: int = 0
    cycles: int = 0

    def add_op(self, key: str, lanes: int, count: int = 1) -> None:
        self.ops[key] = self.ops.get(key, 0) + count
        self.lanes[key] = self.lanes.get(key, 0) + lanes * count


@dataclass
class MappingEstimate:
    """Whole-network structural estimate (one time step, one frame)."""

    name: str
    arch: ArchitectureConfig
    layers: List[LayerEstimate]
    total_cores: int
    chips: int
    fabric: Tuple[int, int]
    timesteps: int
    #: the schedule-aware :class:`~repro.timing.TimingEstimate` when the
    #: estimate was made from a compiled route plan (None = closed-form)
    timing: Optional[object] = None

    @property
    def cycle_source(self) -> str:
        """How per-layer cycles were derived: ``"waves"`` or ``"structural"``."""
        return "waves" if self.timing is not None else "structural"

    @property
    def cycles_per_timestep(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def cycles_per_frame(self) -> int:
        return self.cycles_per_timestep * self.timesteps

    def ops_per_timestep(self) -> Dict[str, int]:
        totals: Counter = Counter()
        for layer in self.layers:
            totals.update(layer.ops)
        return dict(totals)

    def lanes_per_timestep(self) -> Dict[str, int]:
        totals: Counter = Counter()
        for layer in self.layers:
            totals.update(layer.lanes)
        return dict(totals)

    def lanes_per_frame(self) -> Dict[str, int]:
        return {key: value * self.timesteps for key, value in self.lanes_per_timestep().items()}

    def interchip_bits_per_frame(self) -> Tuple[int, int]:
        spike = sum(layer.interchip_spike_bits for layer in self.layers) * self.timesteps
        ps = sum(layer.interchip_ps_bits for layer in self.layers) * self.timesteps
        return spike, ps

    def describe(self) -> str:
        lines = [
            f"MappingEstimate '{self.name}': {self.total_cores} cores, "
            f"{self.chips} chip(s), fabric {self.fabric[0]}x{self.fabric[1]}, "
            f"{self.cycles_per_timestep} cycles/timestep",
        ]
        for layer in self.layers:
            lines.append(
                f"  {layer.name:<24} {layer.cores:>6} cores  {layer.cycles:>6} cycles"
            )
        return "\n".join(lines)


def estimate_mapping(graph, arch: ArchitectureConfig,
                     rows: Optional[int] = None,
                     logical: Optional[LogicalNetwork] = None,
                     placement: Optional[Placement] = None,
                     routes=None, timing=None) -> MappingEstimate:
    """Estimate per-time-step operation counts for a network on ``arch``.

    ``graph`` is a :class:`~repro.ir.graph.LayerGraph`.  A pre-built logical
    network / placement can be passed in to avoid recomputing them (the
    experiment pipeline reuses the compiled ones for networks it also
    simulates).

    When ``routes`` (a compiled :class:`~repro.ir.pipeline.RoutePlan`) is
    given, per-layer **cycles** are delegated to the :mod:`repro.timing`
    model, which prices the actual packed wave schedule — required for
    ``optimize_noc=True`` mappings, whose multicast chains and reduction
    trees the closed-form walk cannot see.  A ``timing`` estimate the
    ``timing-model`` step already produced (``CompiledNetwork.timing``)
    can be passed directly to skip re-pricing the plan.  Operation counts
    stay structural either way.
    """
    if logical is None:
        # circular at module scope: repro.ir compiles through this package
        from ..ir.pipeline import logical_map

        logical = logical_map(graph, arch, materialize=False)
    if placement is None:
        placement = place_network(logical, arch, rows=rows)

    wave_cycles: Dict[str, int] = {}
    if timing is None and routes is not None:
        from ..timing import time_route_plan

        timing = time_route_plan(routes, arch, name=graph.name,
                                 timesteps=graph.timesteps)
    if timing is not None:
        wave_cycles = timing.per_layer()
        missing = [layer.name for layer in logical.layers
                   if layer.name not in wave_cycles]
        if missing:
            # a partial/custom plan would silently mix the two cycle models
            # while cycle_source claims "waves" — fail loudly instead
            raise MappingError(
                f"timing estimate does not cover logical layers {missing}; "
                "pass the route plan of the full mapping"
            )

    locators = logical.build_locators()
    estimates: List[LayerEstimate] = []
    for layer in logical.layers:
        estimate = _estimate_layer(layer, logical, placement, arch, locators)
        if layer.name in wave_cycles:
            estimate.cycles = wave_cycles[layer.name]
        estimates.append(estimate)
    return MappingEstimate(
        name=graph.name,
        arch=arch,
        layers=estimates,
        total_cores=logical.n_cores,
        chips=placement.chips_used(),
        fabric=(placement.rows, placement.cols),
        timesteps=graph.timesteps,
        timing=timing,
    )


def _estimate_layer(layer: LogicalLayer, logical: LogicalNetwork, placement: Placement,
                    arch: ArchitectureConfig,
                    locators: Dict[str, Dict[int, Tuple[int, int]]]) -> LayerEstimate:
    # circular at module scope: repro.timing prices mapping programs
    from ..timing import serialization_lower_bound

    estimate = LayerEstimate(name=layer.name, cores=layer.n_cores, groups=len(layer.groups))

    # --- spike delivery from the source layers -------------------------------
    delivery_transfers: List[Transfer] = []
    for core in layer.cores:
        if core.source == EXTERNAL_INPUT:
            continue
        segments = canonicalise_axons(core, locators[core.source])
        dst = placement.position(core.index)
        for segment in segments:
            src = placement.position(segment.producer_core)
            hops = route_length(src, dst)
            lanes = segment.width
            estimate.add_op("spike_send", lanes)
            if hops > 1:
                estimate.add_op("spike_bypass", lanes, count=hops - 1)
            estimate.add_op("spike_bypass", lanes)  # the RECV / ejection
            for hop in xy_route(src, dst):
                nxt = hop.next_tile
                if hop.tile.chip_index(arch) != nxt.chip_index(arch):
                    estimate.interchip_spike_bits += lanes
            delivery_transfers.append(Transfer(src=src, dst=dst, net="spike"))
    # one unpacked wave of point-to-point transfers, priced by the shared
    # congestion/dilation bound of the timing model
    delivery_cycles = serialization_lower_bound(delivery_transfers)

    # --- weight accumulation --------------------------------------------------
    estimate.add_op("core_acc", arch.core_neurons, count=layer.n_cores)
    acc_cycles = arch.long_op_cycles

    # --- partial-sum reduction -------------------------------------------------
    # the default pipeline drains each group's members serially (one member
    # per round, all groups in parallel); price each round with the same
    # serialization bound the delivery wave uses
    reduction_rounds: List[List[Transfer]] = []
    for group in layer.groups:
        head_pos = placement.position(group.head)
        lanes = int(group.lanes.size)
        for position, member in enumerate(group.members):
            src = placement.position(member)
            hops = route_length(src, head_pos)
            estimate.add_op("ps_send", lanes)
            if hops > 1:
                estimate.add_op("ps_bypass", lanes, count=hops - 1)
            estimate.add_op("ps_sum", lanes)
            for hop in xy_route(src, head_pos):
                nxt = hop.next_tile
                if hop.tile.chip_index(arch) != nxt.chip_index(arch):
                    estimate.interchip_ps_bits += lanes * arch.ps_bits
            while position >= len(reduction_rounds):
                reduction_rounds.append([])
            reduction_rounds[position].append(
                Transfer(src=src, dst=head_pos, net="ps"))
    reduce_cycles = sum(serialization_lower_bound(round_transfers)
                        for round_transfers in reduction_rounds)

    # --- spike generation -------------------------------------------------------
    for group in layer.groups:
        estimate.add_op("spike_fire", int(group.lanes.size))
    fire_cycles = 1

    estimate.cycles = delivery_cycles + acc_cycles + reduce_cycles + fire_cycles
    return estimate


# ----------------------------------------------------------------------
# Pure-arithmetic core counting (no LogicalCore materialisation at all)
# ----------------------------------------------------------------------
def estimate_network_cores(graph, arch: ArchitectureConfig) -> Dict[str, int]:
    """Per-node logical core counts of a layer graph, by geometry alone.

    Walks the layer graph and applies the same tiling decisions the mapper
    makes — including the *forced* shared tiling of add-joins — without
    building any cores.  The test-suite asserts these counts match
    :func:`repro.ir.logical_map` actuals for every benchmark builder, which
    is what keeps this estimator from drifting.
    """
    from ..snn.spec import DenseSpec
    from .conv import estimate_conv_cores
    from .fc import fc_geometry
    from .join import estimate_join_cores

    counts: Dict[str, int] = {}
    for node in graph.topological():
        if node.kind != "fire":
            continue
        specs = list(node.specs)
        if len(specs) > 1:
            counts[node.name] = estimate_join_cores(specs, arch)
        elif isinstance(specs[0], DenseSpec):
            geometry = fc_geometry(specs[0].in_size, specs[0].out_size, arch)
            counts[node.name] = geometry.n_cores
        else:
            # pooling layers are diagonal ConvSpecs; estimate_conv_cores
            # already skips all-zero channel pairs, so one path covers both
            counts[node.name] = estimate_conv_cores(specs[0], arch)
    return counts
