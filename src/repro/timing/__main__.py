"""Command-line entry point: ``python -m repro.timing <network>``.

Converts a benchmark builder (random weights, seeded), compiles it through
the default — and, with ``--optimized``, the NoC-optimized — pipeline and
prints the per-layer cycle breakdown of the analytic timing model, so a
schedule change's cycle impact can be inspected without running anything.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    from ..apps.networks import ALL_BUILDERS

    parser = argparse.ArgumentParser(
        prog="python -m repro.timing",
        description="Per-layer analytic cycle breakdown of a compiled "
                    "benchmark network (see repro.timing).",
        epilog="example: python -m repro.timing --optimized "
               "mnist-inception-small",
    )
    parser.add_argument("network", choices=sorted(ALL_BUILDERS),
                        help="benchmark builder to compile")
    parser.add_argument("--timesteps", type=int, default=4,
                        help="SNN timesteps per frame (default 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="weight/calibration seed (default 0)")
    parser.add_argument("--optimized", action="store_true",
                        help="also compile with the repro.opt NoC passes "
                             "and print both breakdowns")
    args = parser.parse_args(argv)

    from ..apps.networks import seeded_benchmark_graph
    from ..core.config import DEFAULT_ARCH
    from ..ir.pipeline import compile as ir_compile

    graph, _ = seeded_benchmark_graph(args.network, args.timesteps,
                                      seed=args.seed)

    pipelines = [("default", False)]
    if args.optimized:
        pipelines.append(("optimized", True))
    totals = {}
    for label, optimize in pipelines:
        compiled = ir_compile(graph, DEFAULT_ARCH, optimize_noc=optimize)
        timing = compiled.timing
        totals[label] = timing.cycles_per_timestep
        print(f"--- {label} pipeline ---")
        print(timing.describe())
        print(f"cycles/frame ({args.timesteps} timesteps): "
              f"{timing.cycles_per_frame}")
    if len(totals) == 2 and totals["default"]:
        cut = 1 - totals["optimized"] / totals["default"]
        print(f"\noptimized vs default: {totals['default']} -> "
              f"{totals['optimized']} cycles/timestep ({cut:.1%} lower)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
