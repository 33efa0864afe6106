"""Schedule optimizer: rewrite a :class:`LoweredSchedule` into a faster one.

The lowering pass emits one dense numpy op per atomic hardware operation.
That is already batched over frames, but it still pays per-step Python
dispatch and temporary-array cost for every packet movement.  This pass
rewrites the schedule — **bit-exact by construction** — with four
transformations:

1. **Packet fusion.**  A ``SEND`` snapshots router lanes into a packet
   register which a later ``SUM``/``RECV``/eject gathers back out.  When the
   source lanes are provably unmodified between the snapshot and its use,
   the consumer is rewritten to read the source state array directly
   (:class:`DirectPsAdd`, :class:`DirectEject`); once every consumer of a
   packet is rewritten, the intermediate dense packet is never materialised.

2. **Dead-op elimination.**  A static can-be-nonzero ("taint") analysis over
   the cyclic per-timestep schedule finds lanes that can never spike or
   carry a non-zero partial sum under the program's routing (e.g. cores with
   no live input path).  Ops whose effects are provably invisible — including
   their overflow checks, which cannot fire on all-zero data — are dropped.
   The analytic statistics are **not** touched: they were recorded by the
   lowering, and the reference interpreter executes (and counts) these ops
   too, so parity — including stats — is preserved.

3. **Precomputed selectors.**  Contiguous lane-index arrays are converted to
   ``slice`` objects at optimization time, so the executor's gathers are
   views and its scatters hit the fast basic-indexing path with zero
   per-step index bookkeeping.

4. **Exact float32 BLAS accumulation over the used weight window.**
   ``ACC`` is an integer matmul; numpy routes ``int64 @ int64`` through a
   slow generic loop.  Weight magnitudes are tiny and one output lane sums
   at most ``core_inputs`` of them, so with 5-bit weights every partial
   sum stays within ``±2**24`` and is exactly representable in float32: the
   optimizer rewrites :class:`~repro.engine.lowering.Accumulate` into
   :class:`FusedAccumulate`, which keeps only the bounding box of the
   core's non-zero weights and computes the same integers through the BLAS
   sgemm path on that block (guarded by an exactness bound check; above
   the bound the int64 ``Accumulate`` stays).

On top, the optimizer computes a :class:`~repro.engine.lowering.ClearPlan`
so that between time steps only the state arrays the schedule actually reads
are cleared.

``optimize_schedule`` returns a **new** schedule (the input is not mutated)
with identical static statistics.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..core.neuron_core import NeuronCoreError
from .lowering import (
    Accumulate,
    ClearPlan,
    Eject,
    FilterPacket,
    Fire,
    InjectInput,
    LoweredOp,
    LoweredSchedule,
    MakePsPacket,
    MakeSpikePacket,
    OutputGather,
    PsAdd,
    weight_bounds,
)
from ..core.ps_router import PsRouterError

#: a precomputed lane selector: an index array or (when contiguous) a slice
Selector = Union[np.ndarray, slice]

#: state keys used by the analyses: ("axons", slot), ("reg", n), ...
_Key = Tuple[str, int]

#: exactness bound for the float32 accumulation path: every integer of
#: magnitude up to 2**24 is exactly representable in float32
_EXACT_F32_BOUND = 2 ** 24


# ----------------------------------------------------------------------
# Fused / rewritten operations
# ----------------------------------------------------------------------
class FusedAccumulate(LoweredOp):
    """``ACC`` through float32 BLAS over the core's used weight window.

    Same integers, same overflow check and same ``active_axons`` measurement
    as :class:`~repro.engine.lowering.Accumulate`; only the matmul route
    differs.  At build time the op keeps just the bounding box
    ``[rows, cols]`` of the non-zero weights (empty for an all-zero matrix),
    as contiguous float32; a run multiplies the window's axons through sgemm
    and writes the product into the window's columns of ``local_ps`` in
    place.  The other columns stay 0: their weights are all zero and ACC is
    the only op that writes ``local_ps``.  Exact because every partial sum
    lies within ``±2**24`` (checked by the optimizer before it rewrites).
    The overflow scan is elided when
    :func:`~repro.engine.lowering.weight_bounds` of the full matrix proves
    it cannot fire.
    """

    __slots__ = ("slot", "rows", "cols", "window", "ps_min", "ps_max",
                 "where", "bounds", "check")

    def __init__(self, slot: int, weights: np.ndarray, ps_min: int, ps_max: int,
                 where: str):
        self.slot = slot
        weights = np.asarray(weights)
        used_rows = np.flatnonzero(weights.any(axis=1))
        used_cols = np.flatnonzero(weights.any(axis=0))
        if used_rows.size:
            self.rows = slice(int(used_rows[0]), int(used_rows[-1]) + 1)
            self.cols = slice(int(used_cols[0]), int(used_cols[-1]) + 1)
        else:
            self.rows = self.cols = slice(0, 0)
        self.window = np.ascontiguousarray(weights[self.rows, self.cols],
                                           dtype=np.float32)
        self.ps_min = ps_min
        self.ps_max = ps_max
        self.where = where
        self.bounds = weight_bounds(weights)
        self.check = not (ps_min <= self.bounds[0] and self.bounds[1] <= ps_max)

    def run(self, st) -> None:
        axons = st.axons[self.slot]
        batch = axons.shape[0]
        cast = st.scratch(("acc_f", self.slot), (batch, self.window.shape[0]),
                          np.float32)
        product = st.scratch(("acc_p", self.slot),
                             (batch, self.window.shape[1]), np.float32)
        np.copyto(cast, axons[:, self.rows], casting="unsafe")
        np.matmul(cast, self.window, out=product)
        sums = st.local_ps[self.slot]
        np.copyto(sums[:, self.cols], product, casting="unsafe")
        if self.check and sums.size and (
                sums.min() < self.ps_min or sums.max() > self.ps_max):
            raise NeuronCoreError(
                f"neuron core at tile {self.where}: local partial sum "
                f"overflowed the range [{self.ps_min}, {self.ps_max}]"
            )
        st.active_axons += axons.sum(axis=1)


class DirectPsAdd(LoweredOp):
    """A ``SUM``/``RECV`` fused with its ``SEND``: reads the source tile's
    partial sums directly instead of going through a dense packet register."""

    __slots__ = ("slot", "src_slot", "src_sum_buf", "sel", "add",
                 "consecutive", "ps_min", "ps_max", "where")

    def __init__(self, slot: int, src_slot: int, src_sum_buf: bool,
                 sel: Selector, add: bool, consecutive: bool,
                 ps_min: int, ps_max: int, where: str):
        self.slot = slot
        self.src_slot = src_slot
        self.src_sum_buf = src_sum_buf
        self.sel = sel
        self.add = add
        self.consecutive = consecutive
        self.ps_min = ps_min
        self.ps_max = ps_max
        self.where = where

    def run(self, st) -> None:
        src = st.sum_buf[self.src_slot] if self.src_sum_buf else st.local_ps[self.src_slot]
        incoming = src[:, self.sel]
        if self.add:
            base = st.sum_buf[self.slot] if self.consecutive else st.local_ps[self.slot]
            values = base[:, self.sel] + incoming
            if values.size and (values.min() < self.ps_min or values.max() > self.ps_max):
                raise PsRouterError(
                    f"PS router at tile {self.where}: partial-sum overflow "
                    f"outside [{self.ps_min}, {self.ps_max}]"
                )
        else:
            values = incoming
        st.sum_buf[self.slot][:, self.sel] = values
        st.weighted[self.slot][:, self.sel] = values


class DirectEject(LoweredOp):
    """A spike ejection fused with its ``SEND``: ORs the source tile's spike
    register straight into the destination axons, no packet in between."""

    __slots__ = ("slot", "src_slot", "sel", "offset", "end")

    def __init__(self, slot: int, src_slot: int, sel: Selector,
                 offset: int, size: int):
        self.slot = slot
        self.src_slot = src_slot
        self.sel = sel
        self.offset = offset
        self.end = offset + size

    def run(self, st) -> None:
        st.axons[self.slot][:, self.offset:self.end] |= (
            st.spike_reg[self.src_slot][:, self.sel]
        )


# ----------------------------------------------------------------------
# Selector helpers
# ----------------------------------------------------------------------
def _sel_array(sel: Selector) -> Optional[np.ndarray]:
    """The index array behind a selector (None for slices)."""
    return None if isinstance(sel, slice) else np.asarray(sel)


def _sel_size(sel: Selector) -> int:
    if isinstance(sel, slice):
        return max(0, sel.stop - sel.start)
    return int(np.asarray(sel).size)


def _as_selector(idx: np.ndarray) -> Selector:
    """Convert a lane-index array to a slice when it is contiguous ascending."""
    idx = np.asarray(idx)
    if idx.size == 0:
        return idx
    if idx.size == 1 or bool(np.all(np.diff(idx) == 1)):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _sel_indices(sel: Selector) -> np.ndarray:
    if isinstance(sel, slice):
        return np.arange(sel.start, sel.stop, dtype=np.int64)
    return np.asarray(sel)


def _is_subset(inner: Selector, outer: Selector) -> bool:
    inner_idx = _sel_indices(inner)
    if inner_idx.size == 0:
        return True
    if isinstance(outer, slice):
        return bool(inner_idx.min() >= outer.start and inner_idx.max() < outer.stop)
    return bool(np.isin(inner_idx, np.asarray(outer)).all())


# ----------------------------------------------------------------------
# Effects model: which state keys an op reads / writes
# ----------------------------------------------------------------------
def _effects(op: LoweredOp) -> Tuple[List[_Key], List[_Key]]:
    """``(reads, writes)`` of one op, as (array-kind, slot-or-reg) keys."""
    if isinstance(op, (Accumulate, FusedAccumulate)):
        return [("axons", op.slot)], [("local_ps", op.slot)]
    if isinstance(op, PsAdd):
        reads: List[_Key] = [("reg", op.reg)]
        if op.add:
            reads.append(("sum_buf" if op.consecutive else "local_ps", op.slot))
        return reads, [("sum_buf", op.slot), ("weighted", op.slot)]
    if isinstance(op, DirectPsAdd):
        reads = [("sum_buf" if op.src_sum_buf else "local_ps", op.src_slot)]
        if op.add:
            reads.append(("sum_buf" if op.consecutive else "local_ps", op.slot))
        return reads, [("sum_buf", op.slot), ("weighted", op.slot)]
    if isinstance(op, MakePsPacket):
        return ([("sum_buf" if op.use_sum_buf else "local_ps", op.slot)],
                [("reg", op.reg)])
    if isinstance(op, MakeSpikePacket):
        return [("spike_reg", op.slot)], [("reg", op.reg)]
    if isinstance(op, FilterPacket):
        return [("reg", op.reg_in)], [("reg", op.reg_out)]
    if isinstance(op, Fire):
        source = "weighted" if op.use_noc_sum else "local_ps"
        return ([(source, op.slot), ("potential", op.slot)],
                [("potential", op.slot), ("spike_reg", op.slot)])
    if isinstance(op, Eject):
        return [("reg", op.reg)], [("axons", op.slot)]
    if isinstance(op, DirectEject):
        return [("spike_reg", op.src_slot)], [("axons", op.slot)]
    raise TypeError(f"unknown lowered op {type(op).__name__}")  # pragma: no cover


# ----------------------------------------------------------------------
# Taint analysis: which state can ever be non-zero / spike
# ----------------------------------------------------------------------
_TAINT_MAX_PASSES = 16
#: state that persists across time steps (everything else is cleared)
_PERSISTENT = ("local_ps", "potential", "reg")


def _taint_analysis(schedule: LoweredSchedule) -> Optional[Set[_Key]]:
    """Fixpoint of can-be-nonzero over the cyclic per-timestep schedule.

    Returns the set of state keys that may hold a non-zero value at some
    point of a steady-state time step, or ``None`` if the analysis did not
    converge (callers must then treat everything as live).
    """
    persistent: Set[_Key] = set()
    for _ in range(_TAINT_MAX_PASSES):
        taint = {key for key in persistent if key[0] in _PERSISTENT}
        for inject in schedule.inject_ops:
            if _sel_size(getattr(inject, "indices")) > 0:
                taint.add(("axons", inject.slot))
        for op in schedule.ops:
            _taint_step(op, taint)
        new_persistent = {key for key in taint if key[0] in _PERSISTENT}
        if new_persistent == persistent:
            return taint
        persistent = new_persistent
    return None


def _taint_step(op: LoweredOp, taint: Set[_Key]) -> None:
    """Apply one op's transfer function to the taint set (in schedule order)."""
    if isinstance(op, (Accumulate, FusedAccumulate)):
        # full overwrite: local_ps is exactly as tainted as the axons
        if ("axons", op.slot) in taint:
            taint.add(("local_ps", op.slot))
        else:
            taint.discard(("local_ps", op.slot))
        return
    if isinstance(op, (PsAdd, DirectPsAdd)):
        if isinstance(op, PsAdd):
            incoming = ("reg", op.reg) in taint
        else:
            incoming = ("sum_buf" if op.src_sum_buf else "local_ps",
                        op.src_slot) in taint
        base = op.add and (("sum_buf" if op.consecutive else "local_ps",
                            op.slot) in taint)
        if incoming or base:
            taint.add(("sum_buf", op.slot))
            taint.add(("weighted", op.slot))
        return
    if isinstance(op, MakePsPacket):
        source = ("sum_buf" if op.use_sum_buf else "local_ps", op.slot)
        if source in taint:
            taint.add(("reg", op.reg))
        else:
            taint.discard(("reg", op.reg))
        return
    if isinstance(op, MakeSpikePacket):
        if ("spike_reg", op.slot) in taint:
            taint.add(("reg", op.reg))
        else:
            taint.discard(("reg", op.reg))
        return
    if isinstance(op, FilterPacket):
        if ("reg", op.reg_in) in taint:
            taint.add(("reg", op.reg_out))
        else:
            taint.discard(("reg", op.reg_out))
        return
    if isinstance(op, Fire):
        source = "weighted" if op.use_noc_sum else "local_ps"
        potential = (source, op.slot) in taint or ("potential", op.slot) in taint
        thresholds = np.asarray(op.thresholds)
        fires = potential or bool(thresholds.size and thresholds.min() <= 0)
        if potential:
            taint.add(("potential", op.slot))
        if fires:
            taint.add(("spike_reg", op.slot))
        return
    if isinstance(op, Eject):
        if ("reg", op.reg) in taint:
            taint.add(("axons", op.slot))
        return
    if isinstance(op, DirectEject):
        if ("spike_reg", op.src_slot) in taint:
            taint.add(("axons", op.slot))
        return
    raise TypeError(f"unknown lowered op {type(op).__name__}")  # pragma: no cover


# ----------------------------------------------------------------------
# Dead-op elimination
# ----------------------------------------------------------------------
def _op_selector(op: LoweredOp) -> Optional[Selector]:
    """The lane selector an op operates on, if it has one."""
    if isinstance(op, (PsAdd, Fire, MakePsPacket, MakeSpikePacket, FilterPacket)):
        return op.idx
    if isinstance(op, Eject):
        return op.lanes
    if isinstance(op, (DirectPsAdd, DirectEject)):
        return op.sel
    return None


def _drop_dead_ops(schedule: LoweredSchedule,
                   taint: Optional[Set[_Key]]) -> List[LoweredOp]:
    """Remove ops whose effects are provably invisible (see module docstring)."""
    arch = schedule.program.arch
    zero_in_range = arch.ps_min <= 0 <= arch.ps_max
    kept: List[LoweredOp] = []
    for op in schedule.ops:
        sel = _op_selector(op)
        if sel is not None and _sel_size(sel) == 0 \
                and not isinstance(op, (MakePsPacket, MakeSpikePacket, FilterPacket)):
            # writes nothing, and its range checks vacuously pass
            continue
        if taint is not None and _is_dead(op, taint, zero_in_range):
            continue
        kept.append(op)
    return kept


def _is_dead(op: LoweredOp, taint: Set[_Key], zero_in_range: bool) -> bool:
    """Whether an op provably has no observable effect.

    An op that *overwrites* state (``=`` on its lanes, unlike the purely
    additive ``|=`` of ejections) writes zeros when its inputs are
    untainted — but overwriting with zero is itself significant if the
    destination array may hold non-zero data from an earlier op of the same
    time step (e.g. a RECV from a silent source clobbering lanes a live
    source latched first).  Such ops are only dead when their *destination*
    arrays are untainted too, i.e. every write to them is provably zero.
    """
    if isinstance(op, (Accumulate, FusedAccumulate)):
        return (("axons", op.slot) not in taint
                and ("local_ps", op.slot) not in taint
                and zero_in_range)
    if isinstance(op, (PsAdd, DirectPsAdd)):
        if isinstance(op, PsAdd):
            incoming = ("reg", op.reg) in taint
        else:
            incoming = ("sum_buf" if op.src_sum_buf else "local_ps",
                        op.src_slot) in taint
        base = op.add and (("sum_buf" if op.consecutive else "local_ps",
                            op.slot) in taint)
        if incoming or base:
            return False
        if ("sum_buf", op.slot) in taint or ("weighted", op.slot) in taint:
            # would overwrite possibly non-zero lanes with zeros
            return False
        return zero_in_range or not op.add
    if isinstance(op, Fire):
        source = "weighted" if op.use_noc_sum else "local_ps"
        potential = (source, op.slot) in taint or ("potential", op.slot) in taint
        thresholds = np.asarray(op.thresholds)
        always_silent = not thresholds.size or thresholds.min() > 0
        return (not potential and always_silent
                and ("spike_reg", op.slot) not in taint)
    if isinstance(op, Eject):
        return ("reg", op.reg) not in taint
    if isinstance(op, DirectEject):
        return ("spike_reg", op.src_slot) not in taint
    # packet producers/filters are handled by register liveness
    return False


def _drop_unread_packets(ops: List[LoweredOp]) -> List[LoweredOp]:
    """Remove Make*Packet / FilterPacket ops whose register nobody reads."""
    while True:
        read: Set[int] = set()
        for op in ops:
            for kind, key in _effects(op)[0]:
                if kind == "reg":
                    read.add(key)
        kept = [
            op for op in ops
            if not (isinstance(op, (MakePsPacket, MakeSpikePacket, FilterPacket))
                    and _producer_reg(op) not in read)
        ]
        if len(kept) == len(ops):
            return kept
        ops = kept


def _producer_reg(op: LoweredOp) -> int:
    return op.reg_out if isinstance(op, FilterPacket) else op.reg


# ----------------------------------------------------------------------
# Packet fusion
# ----------------------------------------------------------------------
def _fuse_packets(ops: List[LoweredOp]) -> List[LoweredOp]:
    """Rewrite packet consumers into direct source reads where provably safe."""
    producers: Dict[int, Tuple[int, LoweredOp]] = {}
    write_sites: Dict[_Key, List[int]] = {}
    for index, op in enumerate(ops):
        if isinstance(op, (MakePsPacket, MakeSpikePacket, FilterPacket)):
            producers[_producer_reg(op)] = (index, op)
        for key in _effects(op)[1]:
            write_sites.setdefault(key, []).append(index)

    def resolve(reg: int) -> Optional[Tuple[int, str, int, Selector]]:
        """(base producer index, source kind, source slot, valid lanes)."""
        valid: Optional[Selector] = None
        for _ in range(len(ops) + 1):
            entry = producers.get(reg)
            if entry is None:
                return None
            index, producer = entry
            if isinstance(producer, FilterPacket):
                if valid is None:
                    valid = producer.idx
                reg = producer.reg_in
                continue
            if isinstance(producer, MakePsPacket):
                kind = "sum_buf" if producer.use_sum_buf else "local_ps"
            else:
                kind = "spike_reg"
            if valid is None:
                valid = producer.idx
            return index, kind, producer.slot, valid
        return None  # pragma: no cover - cycles cannot occur

    def clean_window(key: _Key, start: int, stop: int) -> bool:
        """True iff no op in ops[start+1:stop] writes ``key``."""
        sites = write_sites.get(key, ())
        left = bisect_right(sites, start)
        return left >= len(sites) or sites[left] >= stop

    fused: List[LoweredOp] = []
    for index, op in enumerate(ops):
        if isinstance(op, PsAdd):
            origin = resolve(op.reg)
            if origin is not None:
                base_index, kind, src_slot, valid = origin
                if (kind != "spike_reg" and _is_subset(op.idx, valid)
                        and clean_window((kind, src_slot), base_index, index)):
                    fused.append(DirectPsAdd(
                        slot=op.slot, src_slot=src_slot,
                        src_sum_buf=(kind == "sum_buf"), sel=op.idx,
                        add=op.add, consecutive=op.consecutive,
                        ps_min=op.ps_min, ps_max=op.ps_max, where=op.where))
                    continue
        elif isinstance(op, Eject):
            origin = resolve(op.reg)
            if origin is not None:
                base_index, kind, src_slot, valid = origin
                if (kind == "spike_reg" and _is_subset(op.lanes, valid)
                        and clean_window((kind, src_slot), base_index, index)):
                    fused.append(DirectEject(
                        slot=op.slot, src_slot=src_slot, sel=op.lanes,
                        offset=op.offset, size=_sel_size(op.lanes)))
                    continue
        fused.append(op)
    return fused


# ----------------------------------------------------------------------
# Selector conversion (index arrays -> slices where contiguous)
# ----------------------------------------------------------------------
def _with_selectors(op: LoweredOp) -> LoweredOp:
    """A copy of ``op`` with contiguous index arrays replaced by slices."""
    if isinstance(op, InjectInput):
        new = InjectInput.__new__(InjectInput)
        new.slot = op.slot
        new.indices = _as_selector(op.indices)
        new.offset = op.offset
        new.end = op.end
        return new
    if isinstance(op, FusedAccumulate) or isinstance(op, Accumulate):
        return op
    if isinstance(op, PsAdd):
        return PsAdd(op.slot, op.reg, _as_selector(op.idx), op.add,
                     op.consecutive, op.ps_min, op.ps_max, op.where)
    if isinstance(op, DirectPsAdd):
        return DirectPsAdd(op.slot, op.src_slot, op.src_sum_buf,
                           _as_selector(_sel_indices(op.sel)), op.add,
                           op.consecutive, op.ps_min, op.ps_max, op.where)
    if isinstance(op, MakePsPacket):
        return MakePsPacket(op.slot, op.reg, _as_selector(op.idx),
                            op.use_sum_buf)
    if isinstance(op, MakeSpikePacket):
        return MakeSpikePacket(op.slot, op.reg, _as_selector(op.idx))
    if isinstance(op, FilterPacket):
        return FilterPacket(op.reg_in, op.reg_out, _as_selector(op.idx))
    if isinstance(op, Fire):
        return Fire(op.slot, _as_selector(op.idx), op.use_noc_sum, op.thresholds)
    if isinstance(op, Eject):
        new = Eject.__new__(Eject)
        new.slot = op.slot
        new.reg = op.reg
        new.lanes = _as_selector(op.lanes)
        new.offset = op.offset
        new.end = op.end
        return new
    if isinstance(op, DirectEject):
        sel = _as_selector(_sel_indices(op.sel))
        return DirectEject(op.slot, op.src_slot, sel, op.offset,
                           op.end - op.offset)
    return op  # pragma: no cover - future op kinds pass through unchanged


def _fuse_accumulates(ops: List[LoweredOp]) -> List[LoweredOp]:
    """Swap int64 Accumulates for the float32 BLAS path where provably exact:
    every partial sum of one output lane must lie within ``±2**24``."""
    rewritten: List[LoweredOp] = []
    for op in ops:
        if isinstance(op, Accumulate):
            weights = op.weights
            bound = int(np.abs(weights).max(initial=0)) * weights.shape[0]
            if bound <= _EXACT_F32_BOUND:
                rewritten.append(FusedAccumulate(op.slot, weights, op.ps_min,
                                                 op.ps_max, op.where))
                continue
        rewritten.append(op)
    return rewritten


# ----------------------------------------------------------------------
# Clear plan
# ----------------------------------------------------------------------
def _build_clear_plan(schedule: LoweredSchedule,
                      ops: Sequence[LoweredOp]) -> ClearPlan:
    """Only arrays the (optimized) schedule reads need clearing between steps."""
    read: Dict[str, Set[int]] = {"axons": set(), "sum_buf": set(),
                                 "weighted": set(), "spike_reg": set()}
    for op in ops:
        for kind, slot in _effects(op)[0]:
            if kind in read:
                read[kind].add(slot)
    for gather in schedule.outputs:
        read["spike_reg"].add(gather.slot)
    return ClearPlan(
        axons=tuple(sorted(read["axons"])),
        sum_buf=tuple(sorted(read["sum_buf"])),
        weighted=tuple(sorted(read["weighted"])),
        spike_reg=tuple(sorted(read["spike_reg"])),
    )


# ----------------------------------------------------------------------
# The pass driver
# ----------------------------------------------------------------------
def optimize_schedule(schedule: LoweredSchedule) -> LoweredSchedule:
    """Optimize a lowered schedule (bit-exact; see module docstring).

    Returns a new :class:`LoweredSchedule` with ``optimized=True`` and the
    same analytic statistics; the input schedule is left untouched.
    """
    taint = _taint_analysis(schedule)
    ops = _drop_dead_ops(schedule, taint)
    ops = _drop_unread_packets(ops)
    ops = _fuse_packets(ops)
    ops = _drop_unread_packets(ops)
    ops = _fuse_accumulates(ops)
    ops = [_with_selectors(op) for op in ops]
    inject_ops = [
        _with_selectors(op) for op in schedule.inject_ops
        if _sel_size(op.indices) > 0
    ]
    outputs = [
        OutputGather(slot=gather.slot, lanes=_as_selector(gather.lanes),
                     output_indices=_as_selector(gather.output_indices))
        for gather in schedule.outputs
    ]
    optimized = LoweredSchedule(
        program=schedule.program,
        n_slots=schedule.n_slots,
        ops=ops,
        inject_ops=inject_ops,
        outputs=outputs,
        per_timestep_ops=dict(schedule.per_timestep_ops),
        config_ops=dict(schedule.config_ops),
        cycles_per_timestep=schedule.cycles_per_timestep,
        acc_ops_per_timestep=schedule.acc_ops_per_timestep,
        interchip_spike_bits_per_timestep=schedule.interchip_spike_bits_per_timestep,
        interchip_ps_bits_per_timestep=schedule.interchip_ps_bits_per_timestep,
        optimized=True,
        # probe/telemetry metadata describes the *program*, which dead-op
        # elimination does not change — carry it through unmodified
        slots=dict(schedule.slots),
        link_traffic=dict(schedule.link_traffic),
        group_occupancy=schedule.group_occupancy,
        reg_nets=schedule.reg_nets,
    )
    optimized.clear_plan = _build_clear_plan(optimized, ops)
    return optimized
