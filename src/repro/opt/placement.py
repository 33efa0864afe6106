"""Congestion-aware placement: cost-guided search over the tile fabric.

The greedy rectangle scan of :func:`repro.mapping.placement.place_network`
minimises bounding-box area; it knows nothing about the NoC traffic the
placement induces.  This module refines a greedy placement with simulated
annealing over two move kinds — swap the tiles of two cores, or move a core
to a free tile inside the existing fabric — guided by the hop-weighted
traffic cost of :func:`repro.opt.cost.placement_cost`.  Deltas are computed
incrementally from the per-core adjacency, so one move costs O(degree)
instead of O(edges).

The search never grows the fabric (rows/cols are fixed, so chip counts and
program geometry stay comparable) and is fully deterministic for a given
seed.  A move budget proportional to the core count keeps full-size
networks (thousands of cores) tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.tile import TileCoordinate
from ..mapping.logical import LogicalNetwork
from ..mapping.placement import Placement
from .cost import TrafficModel, build_traffic_model, core_adjacency, placement_cost

#: default move budget per core (capped by MAX_ITERATIONS)
ITERATIONS_PER_CORE = 60

#: hard cap on the annealing move budget
MAX_ITERATIONS = 120_000


@dataclass
class PlacementSearchResult:
    """Outcome of one placement search."""

    placement: Placement
    initial_cost: float
    final_cost: float
    iterations: int
    accepted: int

    @property
    def improvement(self) -> float:
        """Relative cost reduction in [0, 1]."""
        if self.initial_cost <= 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost


def _layer_columns(logical: LogicalNetwork,
                   positions: Dict[int, TileCoordinate]) -> Dict[str, Tuple[int, int]]:
    columns: Dict[str, Tuple[int, int]] = {}
    for layer in logical.layers:
        cols = [positions[core.index].col for core in layer.cores]
        columns[layer.name] = (min(cols), max(cols))
    return columns


def optimize_placement(logical: LogicalNetwork, placement: Placement,
                       iterations: Optional[int] = None,
                       seed: int = 0,
                       model: Optional[TrafficModel] = None) -> PlacementSearchResult:
    """Refine ``placement`` by annealing over swaps and moves.

    Returns a :class:`PlacementSearchResult` whose placement is never worse
    than the input under the traffic cost (the best-seen assignment is
    kept, and the input itself is the starting incumbent).
    """
    model = model or build_traffic_model(logical)
    cores = sorted(placement.positions)
    occupied = set(placement.positions.values())
    free_tiles: List[TileCoordinate] = [
        TileCoordinate(row, col)
        for row in range(placement.rows)
        for col in range(placement.cols)
        if TileCoordinate(row, col) not in occupied
    ]
    # Positions as flat row / column lists indexed by core, and each core's
    # traffic edges as one tuple: the move loop below reads them ~30 times
    # per move, tens of thousands of moves per compile.
    size = max(cores, default=-1) + 1
    rows: List[int] = [0] * size
    cols: List[int] = [0] * size
    for core, tile in placement.positions.items():
        rows[core], cols[core] = tile.row, tile.col
    neighbours: List[Tuple[Tuple[int, float], ...]] = [()] * size
    for core, edges in core_adjacency(model).items():
        neighbours[core] = tuple(edges)

    def move_delta(core: int, row: int, col: int,
                   partner: Optional[int]) -> float:
        """Cost change of moving ``core`` to ``(row, col)``, its neighbours
        staying put (``partner``, the core it swaps with, is skipped)."""
        from_row, from_col = rows[core], cols[core]
        delta = 0.0
        for other, weight in neighbours[core]:
            if other != partner and other != core:
                other_row, other_col = rows[other], cols[other]
                delta += weight * (abs(row - other_row) + abs(col - other_col)
                                   - abs(from_row - other_row)
                                   - abs(from_col - other_col))
        return delta

    initial_cost = placement_cost(model, placement.positions)
    cost = initial_cost
    best_cost = cost
    best_rows, best_cols = rows[:], cols[:]

    if iterations is None:
        iterations = min(MAX_ITERATIONS, ITERATIONS_PER_CORE * len(cores))
    rng = np.random.default_rng(seed)
    # geometric cooling from a temperature of the order of one average edge
    mean_edge = initial_cost / max(1, model.edge_count)
    temperature = max(mean_edge, 1.0)
    cooling = (0.01 / temperature) ** (1.0 / max(1, iterations))

    accepted = 0
    for _ in range(iterations):
        core_a = cores[int(rng.integers(len(cores)))]
        move_to_free = free_tiles and rng.random() < 0.25
        if move_to_free:
            free_index = int(rng.integers(len(free_tiles)))
            tile_b = free_tiles[free_index]
            row_b, col_b = tile_b.row, tile_b.col
            core_b = None
        else:
            core_b = cores[int(rng.integers(len(cores)))]
            if core_b == core_a:
                temperature *= cooling
                continue
            row_b, col_b = rows[core_b], cols[core_b]
        row_a, col_a = rows[core_a], cols[core_a]

        # The cost change of the move, summed per neighbour.  Every term is
        # an edge weight (1.0 or REDUCTION_EDGE_WEIGHT) times an integer hop
        # count, so the sum is exact in floating point in any order, and
        # equals the difference of the cost after and before the move.  An
        # edge between the swapped cores (or of a core with itself) keeps
        # its length, so it adds nothing and is skipped.
        delta = move_delta(core_a, row_b, col_b, core_b)
        if core_b is not None:
            delta += move_delta(core_b, row_a, col_a, core_a)

        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            accepted += 1
            cost += delta
            rows[core_a], cols[core_a] = row_b, col_b
            if core_b is None:
                free_tiles[free_index] = TileCoordinate(row_a, col_a)
            else:
                rows[core_b], cols[core_b] = row_a, col_a
            if cost < best_cost:
                best_cost = cost
                best_rows, best_cols = rows[:], cols[:]
        temperature *= cooling

    best_positions = {core: TileCoordinate(best_rows[core], best_cols[core])
                      for core in placement.positions}
    refined = Placement(
        arch=placement.arch,
        positions=best_positions,
        rows=placement.rows,
        cols=placement.cols,
        layer_columns=_layer_columns(logical, best_positions),
    )
    refined.validate()
    # recompute the cost of the returned assignment from scratch: a cheap
    # check that it is the true cost of ``best_positions``, independent of
    # the move loop's bookkeeping
    final_cost = placement_cost(model, best_positions)
    return PlacementSearchResult(
        placement=refined,
        initial_cost=initial_cost,
        final_cost=final_cost,
        iterations=iterations,
        accepted=accepted,
    )
