"""``repro.opt`` — NoC-aware placement & routing optimization subsystem.

The paper's bottleneck is partial-sum NoC traffic, not compute; this
package is the optimization layer that attacks it.  It contributes a NoC
cost model (:mod:`repro.opt.cost`: per-timestep wave depth, hop counts,
per-link congestion histograms) and the three optimizations
``repro.ir.compile(network, arch, optimize_noc=True)`` applies:

* the ``congestion-placement`` step — cost-guided annealing placement
  search (:func:`optimize_placement`: minimise predicted NoC traffic
  instead of bounding-box area), run after ``placement``;
* :class:`MulticastDelivery` — ``route-pack`` merges fan-out spike SENDs
  into eject-and-forward multicast chains (one injection, each link once);
* :class:`TreeReduction` — ``route-pack`` folds partial sums as balanced
  trees, O(log k) rounds.

``ExperimentConfig(optimize_noc=True)`` turns them on for an experiment.
Optimized compiles stay bit-exact (outputs and
:class:`~repro.core.stats.ExecutionStats`) across the
reference and vectorized backends.

Usage
-----
::

    from repro.ir import compile
    from repro.opt import plan_metrics, compare_noc_pipelines

    compiled = compile(network, arch, optimize_noc=True)
    plan_metrics(compiled.routes).as_dict()     # wave depth, hops, links
    compiled.timing.cycles_per_timestep        # repro.timing estimate

    # default vs optimized, incl. estimated cycles per timestep:
    compare_noc_pipelines(network, arch)

See ``docs/timing.md`` for how the cycle estimates are derived and
``docs/pipeline.md`` for where the steps run in ``compile``.
"""

from __future__ import annotations

from typing import Dict, Optional

from .cost import (
    NocMetrics,
    TrafficEdge,
    TrafficModel,
    build_traffic_model,
    congestion_histogram,
    core_adjacency,
    link_congestion,
    placement_cost,
    plan_metrics,
    predicted_link_traffic,
    wave_depth,
)
from .multicast import DEFAULT_MAX_TARGETS, MulticastDelivery
from .placement import PlacementSearchResult, optimize_placement
from .reduction import TreeReduction

__all__ = [
    "DEFAULT_MAX_TARGETS",
    "MulticastDelivery",
    "NocMetrics",
    "PlacementSearchResult",
    "TrafficEdge",
    "TrafficModel",
    "TreeReduction",
    "build_traffic_model",
    "compare_noc_pipelines",
    "congestion_histogram",
    "core_adjacency",
    "link_congestion",
    "optimize_placement",
    "placement_cost",
    "plan_metrics",
    "predicted_link_traffic",
    "wave_depth",
]


def compare_noc_pipelines(network, arch, rows: Optional[int] = None
                          ) -> Dict[str, object]:
    """Compile ``network`` through both pipelines and compare NoC metrics.

    Returns ``{"default": metrics, "optimized": metrics, "reduction": {...}}``
    where the reduction entries are relative improvements in [0, 1] (0.25 =
    the optimized pipeline cut the metric by 25 %).  Each metrics dict also
    carries ``estimated_cycles_per_timestep`` — the :mod:`repro.timing`
    analytic estimate of the compiled schedule — so the cycle impact of the
    NoC optimizations is surfaced next to the raw wave metrics.  Used by the
    benchmark harness and the acceptance tests; compiles the network twice
    (the mapping is re-built, so the two compiles never share mutable
    state), without materialising weights or emitting a program: routes
    and timing come from the packed waves alone.
    """
    from ..ir.pipeline import compile as ir_compile

    def metrics_for(optimize: bool) -> Dict[str, object]:
        compiled = ir_compile(network, arch, rows=rows,
                              optimize_noc=optimize, materialize=False)
        row = plan_metrics(compiled.routes).as_dict()
        row["estimated_cycles_per_timestep"] = \
            compiled.timing.cycles_per_timestep
        return row

    default = metrics_for(False)
    optimized = metrics_for(True)

    def relative(before: int, after: int) -> float:
        if before <= 0:
            return 0.0
        return 1.0 - after / before

    return {
        "default": default,
        "optimized": optimized,
        "reduction": {
            "wave_depth": relative(default["wave_depth"],
                                   optimized["wave_depth"]),
            "total_hops": relative(default["total_hops"],
                                   optimized["total_hops"]),
            "wave_count": relative(default["wave_count"],
                                   optimized["wave_count"]),
            "estimated_cycles": relative(
                default["estimated_cycles_per_timestep"],
                optimized["estimated_cycles_per_timestep"]),
        },
    }
