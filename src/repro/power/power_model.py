"""Architectural power model (Section V, "Power").

The paper estimates system power exactly as this module does:

    *"Active power is estimated by multiplying the synthesized active energy
    numbers per atomic operation (Table II) with the count of each atomic
    operation obtained from our functional simulator and dividing the sum by
    running time."*

plus 4.4 pJ/bit for inter-chip I/O on multi-chip mappings.  On top of the
active energy, every powered-on core draws a background (leakage + clock)
power; Table IV's nearly constant 0.12–0.15 mW per core across applications
whose clock frequencies differ by more than 20x shows this background term
dominates, and the note that SRAM leakage is 47 % of the CIFAR-10 CNN power
confirms it is mostly frequency-independent SRAM leakage.  The default
background power per core is calibrated so the MNIST-MLP operating point
(10 cores, 40 fps, 120 kHz) reproduces the paper's 1.26–1.35 mW; the value
is :attr:`PowerModelConfig.background_power_per_core_w`, and
``tests/test_power.py`` checks the calibration against that operating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..core.stats import ExecutionStats
from .energy_table import DEFAULT_ENERGY_TABLE, EnergyTable
from .frequency import achievable_fps, required_frequency
from .interchip import InterchipTraffic, interchip_energy_pj


class PowerModelError(ValueError):
    """Raised on inconsistent power-model inputs."""


@dataclass(frozen=True)
class PowerModelConfig:
    """Tunable parameters of the architectural power model."""

    energy_table: EnergyTable = DEFAULT_ENERGY_TABLE
    #: Background (leakage + clock tree) power of one powered-on core, watts.
    #: Calibrated against the paper's MNIST-MLP point (see module docstring).
    background_power_per_core_w: float = 1.0e-4
    #: Inter-chip I/O energy per bit, picojoules.
    interchip_pj_per_bit: float = 4.4

    def __post_init__(self) -> None:
        if self.background_power_per_core_w < 0:
            raise PowerModelError("background power must be non-negative")
        if self.interchip_pj_per_bit < 0:
            raise PowerModelError("interchip energy must be non-negative")


@dataclass
class PowerReport:
    """Power / energy estimate for one application (one row of Table IV)."""

    name: str
    cores: int
    chips: int
    timesteps: int
    fps: float
    frequency_hz: float
    cycles_per_frame: int
    active_energy_per_frame_j: float
    interchip_energy_per_frame_j: float
    background_power_w: float
    total_power_w: float

    @property
    def power_mw(self) -> float:
        return self.total_power_w * 1e3

    @property
    def power_per_core_mw(self) -> float:
        return self.power_mw / self.cores if self.cores else 0.0

    @property
    def energy_per_frame_j(self) -> float:
        return self.total_power_w / self.fps if self.fps else 0.0

    @property
    def mj_per_frame(self) -> float:
        return self.energy_per_frame_j * 1e3

    @property
    def uj_per_frame(self) -> float:
        return self.energy_per_frame_j * 1e6

    def as_row(self) -> Dict[str, float]:
        """Table IV row for this application."""
        return {
            "#Cores": self.cores,
            "Chips": self.chips,
            "Timestep (T)": self.timesteps,
            "Frames per sec": self.fps,
            "Frequency (kHz)": self.frequency_hz / 1e3,
            "Power (mW)": round(self.power_mw, 3),
            "Power/Core (mW)": round(self.power_per_core_mw, 4),
            "mJ/frame": round(self.mj_per_frame, 4),
        }


class PowerModel:
    """Turns operation counts into power and energy figures."""

    def __init__(self, config: Optional[PowerModelConfig] = None):
        self.config = config or PowerModelConfig()

    # ------------------------------------------------------------------
    # Energy from operation counts
    # ------------------------------------------------------------------
    def active_energy_pj(self, lanes_by_key: Mapping[str, int]) -> float:
        """Active energy (pJ) of a set of operations given their lane counts."""
        total = 0.0
        for key, lanes in lanes_by_key.items():
            if lanes < 0:
                raise PowerModelError(f"negative lane count for {key}")
            total += self.config.energy_table.energy_pj(key, lanes)
        return total

    def frame_energy_from_stats(self, stats: ExecutionStats) -> float:
        """Active + inter-chip energy per frame (J) from simulator statistics."""
        if stats.frames == 0:
            raise PowerModelError("statistics contain no completed frames")
        lanes = {key: value / stats.frames for key, value in stats.lanes_by_key().items()}
        # Weight loading happens once, not per frame.
        lanes.pop("core_ld_wt", None)
        active_pj = self.active_energy_pj(lanes)
        traffic = InterchipTraffic(
            spike_bits=int(stats.interchip_spike_bits / stats.frames),
            ps_bits=int(stats.interchip_ps_bits / stats.frames),
        )
        io_pj = interchip_energy_pj(traffic, self.config.interchip_pj_per_bit)
        return (active_pj + io_pj) * 1e-12

    # ------------------------------------------------------------------
    # Full report
    # ------------------------------------------------------------------
    def report(self, name: str, cores: int, chips: int, timesteps: int,
               lanes_per_frame: Mapping[str, int], cycles_per_frame: int,
               target_fps: float,
               interchip_traffic: Optional[InterchipTraffic] = None) -> PowerReport:
        """Build a Table IV row from per-frame operation lane counts."""
        if cores <= 0:
            raise PowerModelError("cores must be positive")
        if target_fps <= 0:
            raise PowerModelError("target_fps must be positive")
        lanes = dict(lanes_per_frame)
        lanes.pop("core_ld_wt", None)
        active_j = self.active_energy_pj(lanes) * 1e-12
        traffic = interchip_traffic or InterchipTraffic()
        io_j = interchip_energy_pj(traffic, self.config.interchip_pj_per_bit) * 1e-12
        frequency = required_frequency(cycles_per_frame, target_fps)
        background_w = cores * self.config.background_power_per_core_w
        total_w = background_w + (active_j + io_j) * target_fps
        return PowerReport(
            name=name,
            cores=cores,
            chips=chips,
            timesteps=timesteps,
            fps=target_fps,
            frequency_hz=frequency,
            cycles_per_frame=cycles_per_frame,
            active_energy_per_frame_j=active_j,
            interchip_energy_per_frame_j=io_j,
            background_power_w=background_w,
            total_power_w=total_w,
        )

    def tile_power_w(self, frequency_hz: float, fps: float,
                     tile_active_energy_per_frame_j: float) -> float:
        """Per-tile power at a given operating point (used for Fig. 5)."""
        if fps <= 0 or frequency_hz <= 0:
            raise PowerModelError("frequency and fps must be positive")
        return (self.config.background_power_per_core_w
                + tile_active_energy_per_frame_j * fps)
