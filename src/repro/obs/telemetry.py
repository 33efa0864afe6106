"""Observed NoC traffic: per-link loads, wave occupancy, drift checks.

The compile-time scheduled NoCs make traffic *data independent*: which
packets move on which links at which group position is fixed by the
program, not by the spikes it carries.  :class:`NocTelemetry` therefore
stores exact run totals that are reproducible bit-for-bit across backends
— the ``reference`` interpreter tallies every packet it moves, the
``vectorized`` backend scales the per-timestep traffic the lowerer
recorded by ``frames * timesteps``, and a split run's frame parts sum.  Equality
of the two derivations is itself a parity check of the lowering.

The same per-link keys — ``(tile the hop leaves, direction, net)`` — are
used by :func:`repro.opt.cost.predicted_link_traffic`, the *predicted*
loads of the cost model that drives placement annealing, so
:func:`compare_link_traffic` turns observation into the first real
validation of that model: any drift between predicted and observed
per-timestep link loads is a bug in either the cost model or emission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.isa import Direction
from ..core.tile import TileCoordinate

#: a directed NoC link: (tile the hop leaves, port direction, "spike"/"ps")
LinkKey = Tuple[TileCoordinate, Direction, str]


def link_key_str(key: LinkKey) -> str:
    """Stable string form of a link key (JSON export, parity compare)."""
    tile, direction, net = key
    return f"{tile.row},{tile.col}:{direction.value}:{net}"


@dataclass
class NocTelemetry:
    """Observed NoC traffic of one probed run (exact run totals).

    ``link_packets``/``link_lanes`` count packets and lanes moved per
    directed link over the *whole run*; ``group_packets[g]`` counts the
    packets injected at per-timestep group position ``g`` over the whole
    run (the wave-occupancy profile).  Totals are additive, which is what
    makes the frame-part merge of a split run exact.
    """

    frames: int
    timesteps: int
    link_packets: Dict[LinkKey, int] = field(default_factory=dict)
    link_lanes: Dict[LinkKey, int] = field(default_factory=dict)
    group_packets: Tuple[int, ...] = ()

    # -- derived -------------------------------------------------------
    @property
    def steps(self) -> int:
        return self.frames * self.timesteps

    def per_timestep_link_packets(self) -> Dict[LinkKey, float]:
        """Mean packets per link per timestep (exact — traffic is static)."""
        steps = self.steps or 1
        return {key: count / steps for key, count in self.link_packets.items()}

    def occupancy_profile(self) -> Tuple[float, ...]:
        """Mean packets injected per group position per timestep."""
        steps = self.steps or 1
        return tuple(count / steps for count in self.group_packets)

    def tile_loads(self, net: Optional[str] = None) -> Dict[TileCoordinate, int]:
        """Total outgoing packets per tile (optionally one net only)."""
        loads: Dict[TileCoordinate, int] = {}
        for (tile, _, link_net), count in self.link_packets.items():
            if net is not None and link_net != net:
                continue
            loads[tile] = loads.get(tile, 0) + count
        return loads

    def summary(self) -> Dict[str, object]:
        """JSON-able totals (experiment metadata, bench sections)."""
        packets = self.link_packets
        profile = self.occupancy_profile()
        return {
            "frames": self.frames,
            "timesteps": self.timesteps,
            "links": len(packets),
            "total_packets": int(sum(packets.values())),
            "total_lanes": int(sum(self.link_lanes.values())),
            "max_link_packets_per_timestep": (
                max(self.per_timestep_link_packets().values())
                if packets else 0.0
            ),
            "peak_group_occupancy": max(profile) if profile else 0.0,
        }

    def as_dict(self) -> Dict[str, object]:
        """Full JSON-able form with string link keys (sorted, canonical)."""
        return {
            "frames": self.frames,
            "timesteps": self.timesteps,
            "link_packets": {link_key_str(k): v for k, v in
                             sorted(self.link_packets.items(),
                                    key=lambda kv: link_key_str(kv[0]))},
            "link_lanes": {link_key_str(k): v for k, v in
                           sorted(self.link_lanes.items(),
                                  key=lambda kv: link_key_str(kv[0]))},
            "group_packets": list(self.group_packets),
        }

    def scaled(self, frames: int) -> "NocTelemetry":
        """Telemetry of ``frames`` frames of this run — exact, not a mean.

        The scheduled traffic is data independent, so every total is an
        exact multiple of the frame count; dividing it back out recovers
        precisely what a standalone run of ``frames`` frames observes.
        This is the telemetry leg of the :mod:`repro.serve` per-frame
        decomposition (:meth:`repro.obs.ProbeResult.frame`).
        """
        if frames <= 0:
            raise ValueError(f"frames must be positive, got {frames}")
        if self.frames <= 0 or frames > self.frames:
            raise ValueError(
                f"cannot scale {self.frames}-frame telemetry to {frames}")

        def _exact(count: int) -> int:
            if count % self.frames:
                raise ValueError(
                    f"telemetry total {count} is not a multiple of "
                    f"{self.frames} frames; traffic is not static")
            return count // self.frames * frames

        return NocTelemetry(
            frames=frames,
            timesteps=self.timesteps,
            link_packets={key: _exact(count)
                          for key, count in self.link_packets.items()},
            link_lanes={key: _exact(count)
                        for key, count in self.link_lanes.items()},
            group_packets=tuple(_exact(count)
                                for count in self.group_packets),
        )

    # -- merging -------------------------------------------------------
    @staticmethod
    def merge(parts: Sequence["NocTelemetry"]) -> "NocTelemetry":
        """Sum run totals across frame parts (frame-axis split of one run)."""
        if not parts:
            raise ValueError("cannot merge zero telemetry parts")
        if any(part.timesteps != parts[0].timesteps for part in parts):
            raise ValueError(
                "telemetry parts disagree on timesteps; they cannot be "
                "frame parts of one run"
            )
        merged = NocTelemetry(
            frames=sum(part.frames for part in parts),
            timesteps=parts[0].timesteps,
        )
        groups: List[int] = []
        for part in parts:
            for key, count in part.link_packets.items():
                merged.link_packets[key] = \
                    merged.link_packets.get(key, 0) + count
            for key, count in part.link_lanes.items():
                merged.link_lanes[key] = merged.link_lanes.get(key, 0) + count
            for index, count in enumerate(part.group_packets):
                if index >= len(groups):
                    groups.append(0)
                groups[index] += count
        merged.group_packets = tuple(groups)
        return merged


def schedule_telemetry(schedule, frames: int, timesteps: int) -> NocTelemetry:
    """Telemetry of a lowered schedule, scaled to a run's geometry.

    The lowerer records per-timestep per-link traffic and group occupancy
    while it walks the program once; because the scheduled traffic is data
    independent, scaling by ``frames * timesteps`` reproduces exactly what
    the reference interpreter observes packet by packet.
    """
    scale = frames * timesteps
    return NocTelemetry(
        frames=frames,
        timesteps=timesteps,
        link_packets={key: packets * scale
                      for key, (packets, _) in schedule.link_traffic.items()},
        link_lanes={key: lanes * scale
                    for key, (_, lanes) in schedule.link_traffic.items()},
        group_packets=tuple(count * scale
                            for count in schedule.group_occupancy),
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_link_heatmap(loads: Mapping[TileCoordinate, float], rows: int,
                        cols: int, title: str = "tile load",
                        top: Optional[int] = None) -> str:
    """Text heatmap of per-tile loads over a ``rows x cols`` fabric.

    Cells show the load bucketed onto ``. 1-9 a-z *`` (log-ish scale
    against the maximum); ``.`` is zero.  Compact enough for 16x16 fabrics
    in a terminal.  With ``top=N``, renders the N hottest tiles as a
    ranked list instead of the full grid — the readable form for
    full-size meshes.  Ties break on coordinates, so the listing is
    deterministic.
    """
    peak = max(loads.values(), default=0)
    if top is not None:
        if top < 1:
            raise ValueError(f"top must be >= 1, got {top}")
        ranked = sorted(loads.items(),
                        key=lambda item: (-item[1], item[0].row, item[0].col))
        ranked = [(tile, value) for tile, value in ranked if value > 0][:top]
        lines = [f"{title} (peak {peak:g}, top {len(ranked)} of "
                 f"{rows * cols} tiles):"]
        for rank, (tile, value) in enumerate(ranked, start=1):
            share = value / peak if peak else 0.0
            lines.append(f"  {rank:>3}. ({tile.row:>2},{tile.col:>2}) "
                         f"{value:>10g}  {share:6.1%} of peak")
        if not ranked:
            lines.append("  (no loaded tiles)")
        return "\n".join(lines)
    lines = [f"{title} (peak {peak:g}):"]
    glyphs = "123456789abcdefghijklmnopqrstuvwxyz"
    for row in range(rows):
        cells = []
        for col in range(cols):
            value = loads.get(TileCoordinate(row, col), 0)
            if value <= 0:
                cells.append(".")
            elif value >= peak:
                cells.append("*")
            else:
                index = int(value / peak * (len(glyphs) - 1))
                cells.append(glyphs[index])
        lines.append("  " + " ".join(cells))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Predicted vs observed
# ----------------------------------------------------------------------
def compare_link_traffic(predicted: Mapping[LinkKey, int],
                         telemetry: NocTelemetry) -> Dict[str, object]:
    """Drift between the cost model's predicted and the observed loads.

    ``predicted`` comes from :func:`repro.opt.cost.predicted_link_traffic`
    (per-timestep hop counts over a packed route plan); the observed side
    is the telemetry's per-timestep per-link packet counts.  Emission
    issues exactly one NoC operation per route hop, so the expected drift
    is zero — the returned ``max_abs_drift``/``mismatches`` being nonzero
    means the cost model priced traffic the fabric never carried (or
    missed traffic it did).
    """
    observed = telemetry.per_timestep_link_packets()
    keys = set(predicted) | set(observed)
    mismatches: List[Dict[str, object]] = []
    max_abs = 0.0
    for key in sorted(keys, key=link_key_str):
        expect = float(predicted.get(key, 0))
        actual = float(observed.get(key, 0.0))
        drift = abs(actual - expect)
        max_abs = max(max_abs, drift)
        if drift > 1e-9:
            mismatches.append({
                "link": link_key_str(key),
                "predicted": expect,
                "observed": actual,
            })
    return {
        "links_predicted": len(predicted),
        "links_observed": len(observed),
        "max_abs_drift": max_abs,
        "mismatches": mismatches,
    }
