"""The analytic timing model: pricing compiled schedules wave by wave.

Every quantity here mirrors a rule of the execution model exactly:

* a packed :class:`~repro.mapping.routing.Wave` of depth ``d`` (longest
  route in hops — via-waypoint multicast segments included — plus the
  delivery step) is emitted as ``d`` instruction groups of single-cycle
  router operations, so it costs ``d`` cycles;
* a layer's ``accumulate`` phase is one group of ``ACC`` operations and
  costs :attr:`~repro.core.config.ArchitectureConfig.long_op_cycles`;
* a layer's ``fire`` phase is one group of ``SPIKE`` operations and costs
  one cycle;
* reduction rounds cost the sum of their waves' depths — O(log k) rounds
  under the ``reduction-tree`` pass, the serial O(k) member chain
  otherwise; the shape is read off the emitted schedule, not assumed.

Because the simulator charges each instruction group the latency of its
slowest operation and nothing else (no stalls — conflict-freedom is a
compile-time invariant), the wave-derived estimate equals
:meth:`~repro.mapping.program.Program.cycles_per_timestep` and the
simulator's :class:`~repro.core.stats.ExecutionStats.cycles` exactly.  The
``timing-model`` pipeline pass re-checks that equality as its invariant.

For traffic that has *not* been packed into waves yet the model offers
:func:`serialization_lower_bound` — the classical congestion/dilation bound
``max(most-loaded link, longest route) + 1`` over a transfer set, computed
from the same per-link loads as :func:`repro.opt.cost.link_congestion`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.config import ArchitectureConfig
from ..mapping.program import Program
from ..mapping.routing import Transfer, Wave


@dataclass(frozen=True)
class WaveTiming:
    """Cycle cost of one packed wave."""

    #: packets injected by the wave
    transfers: int
    #: total link traversals of the wave
    hops: int
    #: schedule depth: longest route (in hops) plus the delivery step
    cycles: int


@dataclass
class LayerTiming:
    """Per-timestep cycle breakdown of one logical layer."""

    name: str
    #: one entry per spike-delivery wave
    delivery: List[WaveTiming] = field(default_factory=list)
    #: one entry per reduction round, each a list of parallel waves
    reduction: List[List[WaveTiming]] = field(default_factory=list)
    #: the ACC phase (``long_op_cycles``)
    accumulate_cycles: int = 0
    #: the SPIKE phase (one group)
    fire_cycles: int = 1

    @property
    def delivery_cycles(self) -> int:
        return sum(wave.cycles for wave in self.delivery)

    @property
    def reduction_cycles(self) -> int:
        return sum(wave.cycles for round_waves in self.reduction
                   for wave in round_waves)

    @property
    def reduction_rounds(self) -> int:
        return len(self.reduction)

    @property
    def cycles(self) -> int:
        return (self.delivery_cycles + self.accumulate_cycles
                + self.reduction_cycles + self.fire_cycles)


@dataclass
class TimingEstimate:
    """Analytic per-timestep cycle estimate of one compiled mapping."""

    name: str
    layers: List[LayerTiming]
    long_op_cycles: int
    #: timesteps per frame (``None`` when the network does not declare one)
    timesteps: Optional[int] = None
    #: how the estimate was derived: ``"waves"`` (packed route plan) or
    #: ``"program"`` (emitted instruction groups)
    source: str = "waves"

    @property
    def cycles_per_timestep(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def cycles_per_frame(self) -> int:
        if self.timesteps is None:
            raise ValueError(
                f"timing estimate {self.name!r} has no timestep count; use "
                "cycles_for(frames, timesteps)"
            )
        return self.cycles_per_timestep * self.timesteps

    def cycles_for(self, frames: int, timesteps: Optional[int] = None) -> int:
        """Total cycles of a run of ``frames`` frames."""
        steps = timesteps if timesteps is not None else self.timesteps
        if steps is None:
            raise ValueError("timesteps required (network declares none)")
        return self.cycles_per_timestep * steps * frames

    def per_layer(self) -> Dict[str, int]:
        return {layer.name: layer.cycles for layer in self.layers}

    def as_dict(self) -> Dict[str, object]:
        return {
            "cycles_per_timestep": self.cycles_per_timestep,
            "timesteps": self.timesteps,
            "source": self.source,
            "layers": {
                layer.name: {
                    "delivery": layer.delivery_cycles,
                    "accumulate": layer.accumulate_cycles,
                    "reduction": layer.reduction_cycles,
                    "reduction_rounds": layer.reduction_rounds,
                    "fire": layer.fire_cycles,
                    "total": layer.cycles,
                }
                for layer in self.layers
            },
        }

    def describe(self) -> str:
        lines = [
            f"TimingEstimate '{self.name}' ({self.source}): "
            f"{self.cycles_per_timestep} cycles/timestep"
        ]
        for layer in self.layers:
            lines.append(
                f"  {layer.name:<24} deliver {layer.delivery_cycles:>6}  "
                f"acc {layer.accumulate_cycles:>4}  "
                f"reduce {layer.reduction_cycles:>6} "
                f"({layer.reduction_rounds} rounds)  "
                f"fire {layer.fire_cycles}  = {layer.cycles}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Pricing primitives
# ----------------------------------------------------------------------
def wave_cycles(wave: Wave) -> int:
    """Cycles one wave occupies: its longest route plus the delivery step.

    :attr:`Transfer.hops` counts every XY segment through the ``via``
    waypoints of a multicast chain, so eject-and-forward chains are priced
    at their full length (one injection, each link once).
    """
    if not wave.transfers:
        return 0
    return max(transfer.hops for transfer in wave.transfers) + 1


def time_wave(wave: Wave) -> WaveTiming:
    """Full :class:`WaveTiming` of one packed wave."""
    return WaveTiming(
        transfers=len(wave.transfers),
        hops=sum(transfer.hops for transfer in wave.transfers),
        cycles=wave_cycles(wave),
    )


def serialization_lower_bound(transfers: Iterable[Transfer]) -> int:
    """Congestion/dilation lower bound on scheduling a transfer set.

    ``max(most-loaded directed link, longest route) + 1``: no conflict-free
    schedule can move the set faster, since every packet needs its route's
    length plus a delivery step and every link moves one packet per cycle.
    The per-link loads come from :func:`repro.opt.cost.link_congestion` —
    one accounting of link occupancy shared with the NoC cost model; this
    is the pre-packing bound the closed-form estimator path applies.
    """
    from ..opt.cost import link_congestion

    transfers = list(transfers)
    if not transfers:
        return 0
    longest = max(transfer.hops for transfer in transfers)
    loads = link_congestion(transfers)
    congestion = max(loads.values()) if loads else 0
    return max(congestion, longest) + 1


# ----------------------------------------------------------------------
# Whole-plan / whole-program pricing
# ----------------------------------------------------------------------
def time_route_plan(routes, arch: ArchitectureConfig, name: str = "",
                    timesteps: Optional[int] = None) -> TimingEstimate:
    """Price a packed :class:`~repro.ir.pipeline.RoutePlan` layer by layer.

    Exact for the emitted program: delivery and reduction waves cost their
    depth, the ACC phase costs ``arch.long_op_cycles`` and the fire phase
    one cycle — the same rules program emission follows.
    """
    layers: List[LayerTiming] = []
    for layer_routes in routes.layers:
        timing = LayerTiming(
            name=layer_routes.layer,
            delivery=[time_wave(wave) for wave in layer_routes.delivery_waves],
            reduction=[[time_wave(wave) for wave in round_waves]
                       for round_waves in layer_routes.reduction_rounds],
            accumulate_cycles=arch.long_op_cycles,
            fire_cycles=1,
        )
        layers.append(timing)
    return TimingEstimate(name=name, layers=layers,
                          long_op_cycles=arch.long_op_cycles,
                          timesteps=timesteps, source="waves")


def time_program(program: Program,
                 timesteps: Optional[int] = None) -> TimingEstimate:
    """Price an emitted :class:`Program` from its instruction groups.

    Sums :meth:`InstructionGroup.latency` per phase — by definition equal
    to :meth:`Program.cycles_per_timestep` — and attributes each phase to
    its layer via the ``layer/stage`` phase naming convention.  Useful when
    only the program survives (no route plan), and as the cross-check the
    ``timing-model`` pass invariant runs against the wave-derived estimate.
    """
    long_op = program.arch.long_op_cycles
    if timesteps is None:
        declared = program.metadata.get("timesteps")
        timesteps = int(declared) if declared is not None else None
    by_layer: Dict[str, LayerTiming] = {}
    order: List[str] = []
    for phase in program.phases:
        layer_name, _, stage = phase.name.partition("/")
        if layer_name not in by_layer:
            by_layer[layer_name] = LayerTiming(name=layer_name,
                                               accumulate_cycles=0,
                                               fire_cycles=0)
            order.append(layer_name)
        timing = by_layer[layer_name]
        phase_cycles = sum(group.latency(long_op) for group in phase.groups)
        if stage == "accumulate":
            timing.accumulate_cycles += phase_cycles
        elif stage == "fire":
            timing.fire_cycles += phase_cycles
        elif stage == "ps-reduce":
            timing.reduction.append([WaveTiming(
                transfers=phase.instruction_count, hops=0,
                cycles=phase_cycles)])
        else:  # deliver (and any future NoC stage)
            timing.delivery.append(WaveTiming(
                transfers=phase.instruction_count, hops=0,
                cycles=phase_cycles))
    name = str(program.metadata.get("name", "") or "")
    return TimingEstimate(name=name, layers=[by_layer[key] for key in order],
                          long_op_cycles=long_op, timesteps=timesteps,
                          source="program")


def time_compiled(compiled, arch: Optional[ArchitectureConfig] = None,
                  timesteps: Optional[int] = None) -> TimingEstimate:
    """Price a :class:`~repro.mapping.compiler.CompiledNetwork`.

    Returns the estimate the ``timing-model`` pass cached on the compile —
    unless the caller overrides ``arch`` or ``timesteps``, in which case
    the plan is re-priced under those (the cached estimate was produced
    with the compile-time architecture).  Prefers the packed route plan
    (per-wave breakdown with hop counts); falls back to the emitted
    program when no plan was kept.
    """
    if getattr(compiled, "timing", None) is not None \
            and arch is None and timesteps is None:
        return compiled.timing
    if compiled.routes is not None:
        if arch is None and compiled.program is not None:
            arch = compiled.program.arch
        if arch is None:
            raise ValueError("arch required to price a route plan without "
                             "an emitted program")
        if timesteps is None:
            timesteps = compiled.logical.metadata.get("timesteps") \
                if compiled.logical is not None else None
        return time_route_plan(compiled.routes, arch,
                               name=compiled.name, timesteps=timesteps)
    if compiled.program is not None:
        return time_program(compiled.program, timesteps=timesteps)
    raise ValueError(
        "compiled network carries neither a route plan nor a program; run "
        "the pipeline at least through 'route-pack'"
    )


#: maximum relative error of the timing model vs simulated cycles.  The
#: wave-derived model is exact by construction, so the honest bar is zero;
#: ``docs/timing.md`` documents this band and the parity suite
#: (``tests/test_estimator_parity.py``) asserts it next to exact equality.
TIMING_TOLERANCE = 0.10


def relative_error(estimated: float, measured: float) -> float:
    """``|estimated - measured| / measured`` (0 when both are zero)."""
    if measured == 0:
        return 0.0 if estimated == 0 else float("inf")
    return abs(estimated - measured) / abs(measured)
