"""Behavioural model of Shenjing's partial-sum NoC router (Fig. 2b).

Each tile has 256 independent partial-sum NoCs — one 16-bit lane per neuron.
Because every lane executes the same kind of atomic operation in a step, the
model keeps all lanes of a tile in one integer vector and applies operations
to the selected lane set.

The router implements the three atomic operations of Table I:

``SUM $SRC, $CONSEC``
    Add the value arriving on port ``$SRC`` either to the local partial sum
    coming from the neuron core (``$CONSEC = 0``) or to the running sum held
    in the accumulation register (``$CONSEC = 1``).

``SEND $SRC, $DST``
    Inject the content of the sum buffer towards output port ``$DST``.

``BYPASS $SRC, $DST``
    Forward the value arriving on ``$SRC`` to ``$DST`` without touching it.

There are no buffer queues, no flow control and no routing logic — exactly
as in the paper, correctness relies entirely on the compile-time schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ArchitectureConfig
from .isa import Direction, IsaError, LaneSet


class PsRouterError(RuntimeError):
    """Raised on illegal partial-sum router behaviour (e.g. missing input)."""


def lane_indices(lanes: LaneSet, width: int) -> np.ndarray:
    """Convert a lane set into a sorted numpy index array (``None`` = all)."""
    if lanes is None:
        return np.arange(width)
    indices = np.fromiter(lanes, dtype=np.int64)
    indices.sort()
    if indices.size and (indices[0] < 0 or indices[-1] >= width):
        raise IsaError(f"lane index out of range for width {width}")
    return indices


@dataclass
class PsPacket:
    """A partial-sum packet in flight on one link.

    ``values`` holds one value per *selected* lane; ``lanes`` the lane
    indices the values belong to (``None`` = all lanes 0..width-1).
    """

    values: np.ndarray
    lanes: np.ndarray

    @classmethod
    def from_vector(cls, vector: np.ndarray, lanes: LaneSet) -> "PsPacket":
        vector = np.asarray(vector, dtype=np.int64)
        idx = lane_indices(lanes, vector.shape[0])
        return cls(values=vector[idx].copy(), lanes=idx.copy())

    def expand(self, width: int) -> np.ndarray:
        """Expand into a dense ``width``-lane vector (absent lanes are 0)."""
        dense = np.zeros(width, dtype=np.int64)
        dense[self.lanes] = self.values
        return dense


class PsRouter:
    """State and behaviour of one tile's partial-sum router."""

    def __init__(self, arch: ArchitectureConfig, coordinate: tuple[int, int] | None = None):
        self.arch = arch
        self.coordinate = coordinate
        width = arch.core_neurons
        #: running accumulation register (``Add Reg`` in Fig. 2b)
        self._sum_buf = np.zeros(width, dtype=np.int64)
        #: full weighted sum handed to the spiking logic (``A weighted sum``)
        self._weighted_sum = np.zeros(width, dtype=np.int64)
        #: whether a full weighted sum is available for the spike router
        self._weighted_sum_valid = np.zeros(width, dtype=bool)
        #: values latched from each input port this step
        self._inputs: dict[Direction, PsPacket] = {}

    # ------------------------------------------------------------------
    # Link interface (used by the simulator)
    # ------------------------------------------------------------------
    def deliver(self, port: Direction, packet: PsPacket) -> None:
        """Latch a packet arriving on ``port`` (called by the simulator)."""
        if port in self._inputs:
            raise PsRouterError(
                self._msg(f"input register {port.value} overwritten before use "
                          "(compile-time schedule conflict)")
            )
        self._inputs[port] = packet

    def take_input(self, port: Direction) -> PsPacket:
        """Consume the packet latched on ``port``."""
        try:
            return self._inputs.pop(port)
        except KeyError as exc:
            raise PsRouterError(
                self._msg(f"no partial-sum packet latched on port {port.value}")
            ) from exc

    def has_input(self, port: Direction) -> bool:
        return port in self._inputs

    # ------------------------------------------------------------------
    # Atomic operations
    # ------------------------------------------------------------------
    def op_sum(self, port: Direction, local_ps: np.ndarray, consecutive: bool,
               lanes: LaneSet = None) -> None:
        """``SUM $SRC, $CONSEC`` — in-network addition.

        ``local_ps`` is the neuron core's local partial-sum vector, used as
        the first operand when ``consecutive`` is False.
        """
        packet = self.take_input(port)
        idx = packet.lanes if lanes is None else lane_indices(lanes, self._sum_buf.shape[0])
        incoming = packet.expand(self._sum_buf.shape[0])
        if consecutive:
            base = self._sum_buf
        else:
            base = np.asarray(local_ps, dtype=np.int64)
            if base.shape[0] != self._sum_buf.shape[0]:
                raise PsRouterError(self._msg("local PS width mismatch"))
        result = self._sum_buf.copy()
        result[idx] = base[idx] + incoming[idx]
        self._check_range(result[idx])
        self._sum_buf = result
        self._weighted_sum[idx] = result[idx]
        self._weighted_sum_valid[idx] = True

    def op_receive(self, port: Direction, lanes: LaneSet = None) -> None:
        """``RECV $SRC`` — latch an incoming full sum without adding."""
        packet = self.take_input(port)
        idx = packet.lanes if lanes is None else lane_indices(lanes, self._sum_buf.shape[0])
        incoming = packet.expand(self._sum_buf.shape[0])
        self._sum_buf[idx] = incoming[idx]
        self._weighted_sum[idx] = incoming[idx]
        self._weighted_sum_valid[idx] = True

    def op_send(self, local_ps: np.ndarray, lanes: LaneSet = None,
                use_sum_buf: bool = False) -> PsPacket:
        """``SEND $SRC, $DST`` — produce the packet to inject on ``$DST``.

        The injected value is the local partial sum from the neuron core by
        default, or the accumulation register when ``use_sum_buf`` is True
        (a core forwarding a partially accumulated sum up the adder tree).
        The caller (tile / simulator) places the returned packet on the link.
        """
        source = self._sum_buf if use_sum_buf else np.asarray(local_ps, dtype=np.int64)
        return PsPacket.from_vector(source, lanes)

    def op_bypass(self, src: Direction, lanes: LaneSet = None) -> PsPacket:
        """``BYPASS $SRC, $DST`` — forward the packet latched on ``src``."""
        packet = self.take_input(src)
        if lanes is None:
            return packet
        idx = lane_indices(lanes, self._sum_buf.shape[0])
        mask = np.isin(packet.lanes, idx)
        return PsPacket(values=packet.values[mask].copy(), lanes=packet.lanes[mask].copy())

    # ------------------------------------------------------------------
    # Interface towards the spike router
    # ------------------------------------------------------------------
    def weighted_sum(self) -> np.ndarray:
        """Full weighted sum available for the spiking logic (read-only)."""
        view = self._weighted_sum.view()
        view.flags.writeable = False
        return view

    def weighted_sum_valid(self) -> np.ndarray:
        view = self._weighted_sum_valid.view()
        view.flags.writeable = False
        return view

    def clear_step(self) -> None:
        """Clear per-step state (input latches, valid flags, sum buffer)."""
        self._inputs.clear()
        self._sum_buf[:] = 0
        self._weighted_sum[:] = 0
        self._weighted_sum_valid[:] = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_range(self, values: np.ndarray) -> None:
        lo, hi = self.arch.ps_min, self.arch.ps_max
        if values.size and (values.min() < lo or values.max() > hi):
            raise PsRouterError(
                self._msg(
                    f"partial-sum overflow outside [{lo}, {hi}] "
                    f"({self.arch.ps_bits}-bit lanes)"
                )
            )

    def _msg(self, text: str) -> str:
        where = f" at tile {self.coordinate}" if self.coordinate is not None else ""
        return f"PS router{where}: {text}"
