"""Reduction-tree scheduling of partial-sum accumulation.

Algorithm 1 of the paper folds a reduction group's partial sums serially:
member ``i`` sends to the head in round ``i``, so a group of ``k + 1``
cores takes ``k`` rounds.  The PS router's accumulation register and
``SEND SUMBUF`` op support forwarding *partially accumulated* sums, which
lets the same group fold as a balanced binary tree in ``ceil(log2(k + 1))``
rounds: in every round the surviving cores pair up, each sender ships its
current value (its local partial sum, or its accumulation register once it
has received) and each receiver adds it (``SUM`` with ``consecutive`` set
once it holds a running sum).  The head is always a receiver, so the full
weighted sum ends in the head's accumulation register exactly as in the
serial schedule — integer addition is associative, so the result is
bit-identical.

Rounds remain global barriers (round ``r + 1`` sends read sums produced in
round ``r``), but each round's transfers pack into parallel waves as usual,
so a layer's reduction latency drops from O(k) to O(log k) rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..mapping.logical import LogicalLayer
from ..mapping.placement import Placement
from ..mapping.routing import Transfer, route_length


@dataclass
class TreeReduction:
    """Reduction rounds ``route-pack`` schedules under ``optimize_noc``."""

    def rounds(self, layer: LogicalLayer,
               placement: Placement) -> List[List[Transfer]]:
        """Balanced-tree reduction rounds of one layer (merged across groups)."""
        per_group = [self._group_rounds(group, placement)
                     for group in layer.groups]
        depth = max((len(rounds) for rounds in per_group), default=0)
        merged: List[List[Transfer]] = []
        for round_index in range(depth):
            round_transfers: List[Transfer] = []
            for rounds in per_group:
                if round_index < len(rounds):
                    round_transfers.extend(rounds[round_index])
            merged.append(round_transfers)
        return merged

    # ------------------------------------------------------------------
    def _group_rounds(self, group, placement: Placement) -> List[List[Transfer]]:
        if len(group.core_indices) < 2:
            return []
        head_tile = placement.position(group.head)
        # head first, then members by distance so far cores fold inwards
        survivors = [group.head] + sorted(
            group.members,
            key=lambda core: (route_length(placement.position(core), head_tile),
                              core),
        )
        lanes = frozenset(group.lanes.tolist())
        received: Dict[int, bool] = {core: False for core in survivors}
        rounds: List[List[Transfer]] = []
        while len(survivors) > 1:
            half = (len(survivors) + 1) // 2
            round_transfers: List[Transfer] = []
            for position in range(half, len(survivors)):
                sender = survivors[position]
                receiver = survivors[position - half]
                round_transfers.append(Transfer(
                    src=placement.position(sender),
                    dst=placement.position(receiver),
                    net="ps",
                    lanes=lanes,
                    payload={
                        # a sender that already folded sums forwards its
                        # accumulation register, not its local partial sum
                        "use_sum_buf": received[sender],
                        # a receiver that already holds a running sum keeps
                        # accumulating into it (consec_add in Fig. 2b)
                        "consecutive": received[receiver],
                    },
                ))
                received[receiver] = True
            survivors = survivors[:half]
            rounds.append(round_transfers)
        return rounds
