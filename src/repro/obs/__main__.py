"""Command-line entry point: ``python -m repro.obs <network>``.

Compiles a benchmark builder (random weights, seeded), runs a small probed
batch on the chosen backend and prints the full observability report:
per-layer firing rates, the NoC link heatmap with the predicted-vs-observed
drift check, compile pass timings and the execution-stats breakdown.  With
``--chrome-trace PATH`` the unified compile+execution trace is written as
Chrome ``trace_event`` JSON (open in chrome://tracing or Perfetto); with
``--metrics`` a wall-clock :class:`~repro.obs.MetricsRegistry` is threaded
through compile and run (adding the real-time trace track), exportable as
OpenMetrics text via ``--openmetrics PATH``.  ``--json`` emits the whole
report as one structured JSON object instead of text, and ``--top N``
renders the link heatmap as a ranked top-N tile list (readable on
full-size meshes).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    from ..apps.networks import ALL_BUILDERS

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Probe a compiled benchmark network and print the "
                    "observability report (see repro.obs).",
        epilog="example: python -m repro.obs --chrome-trace /tmp/trace.json "
               "mnist-mlp-small",
    )
    parser.add_argument("network", choices=sorted(ALL_BUILDERS),
                        help="benchmark builder to compile and probe")
    parser.add_argument("--frames", type=int, default=2,
                        help="frames to execute (default 2)")
    parser.add_argument("--timesteps", type=int, default=4,
                        help="SNN timesteps per frame (default 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="weight/calibration/input seed (default 0)")
    parser.add_argument("--backend", default="vectorized",
                        help="execution backend (default vectorized)")
    parser.add_argument("--optimized", action="store_true",
                        help="compile through the repro.opt NoC passes")
    parser.add_argument("--chrome-trace", metavar="PATH",
                        help="write the unified trace as Chrome trace_event "
                             "JSON to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="collect wall-clock metrics (compile spans, run "
                             "phases, timestep histograms) and report them")
    parser.add_argument("--openmetrics", metavar="PATH",
                        help="write the metrics registry as OpenMetrics text "
                             "exposition to PATH (implies --metrics)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as one structured JSON object")
    parser.add_argument("--top", type=int, metavar="N",
                        help="render the link heatmap as the N hottest tiles "
                             "instead of the full grid")
    args = parser.parse_args(argv)

    import numpy as np

    from ..apps.networks import seeded_benchmark_graph
    from ..core.config import DEFAULT_ARCH
    from ..engine import create_backend
    from ..ir.pipeline import compile as ir_compile
    from ..opt.cost import predicted_link_traffic
    from ..snn.encoding import deterministic_encode
    from . import (
        MetricsRegistry,
        ProbeSet,
        Trace,
        compare_link_traffic,
        render_link_heatmap,
        render_openmetrics,
    )

    registry = None
    if args.metrics or args.openmetrics:
        registry = MetricsRegistry()

    graph, rng = seeded_benchmark_graph(args.network, args.timesteps,
                                        seed=args.seed)
    compiled = ir_compile(graph, DEFAULT_ARCH, optimize_noc=args.optimized,
                          metrics=registry)
    program = compiled.program

    trains = deterministic_encode(
        rng.random((args.frames, graph.input_size)), graph.timesteps)
    probes = ProbeSet.full()
    backend = create_backend(args.backend, program)
    try:
        result = backend.run(trains, probes=probes, metrics=registry)
    finally:
        backend.close()

    telemetry = result.probes.telemetry
    drift = None
    if compiled.routes is not None:
        drift = compare_link_traffic(predicted_link_traffic(compiled.routes),
                                     telemetry)
    trace = Trace.from_compiled(compiled, probes=result.probes,
                                timesteps=args.timesteps,
                                resilience=result.resilience,
                                wallclock=registry)
    predictions = np.asarray(result.predictions).tolist()

    if args.as_json:
        payload = {
            "network": args.network,
            "backend": args.backend,
            "frames": args.frames,
            "timesteps": args.timesteps,
            "optimized": bool(args.optimized),
            "probes": result.probes.summary(),
            "stats": result.stats.summary(),
            "predictions": predictions,
            "trace": trace.metrics(),
        }
        if drift is not None:
            payload["drift"] = {
                "mismatched_links": len(drift["mismatches"]),
                "max_abs_drift": drift["max_abs_drift"],
            }
        if registry is not None:
            payload["metrics"] = registry.as_dict()
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        print(f"=== {args.network} ({args.backend}"
              f"{', optimized' if args.optimized else ''}) ===")
        print()
        print(result.probes.describe())
        print()
        print(render_link_heatmap(telemetry.tile_loads(), program.rows,
                                  program.cols,
                                  title="NoC outgoing packets per tile",
                                  top=args.top))
        if drift is not None:
            print(f"cost model drift: {len(drift['mismatches'])} mismatched "
                  f"link(s), max |predicted - observed| = "
                  f"{drift['max_abs_drift']:g}")
        print()
        print(trace.describe())
        print()
        print(result.stats.describe())
        print(f"\npredictions: {predictions}")

    if args.chrome_trace:
        trace.save(args.chrome_trace)
        if not args.as_json:
            print(f"chrome trace written to {args.chrome_trace}")
    if args.openmetrics:
        with open(args.openmetrics, "w") as handle:
            handle.write(render_openmetrics(registry))
        if not args.as_json:
            print(f"openmetrics exposition written to {args.openmetrics}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
