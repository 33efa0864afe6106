"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload mlp-batch --seed 0 --seconds 15 \
        --trace 0

The program is imported from ``src/`` of the same checkout; no build is
needed.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones; the traced run also writes its spans, the self time of
each layer and the top-3 layers to ``perfbench/out/``.  Workloads and
metrics are described in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def use_source() -> None:
    """Put the checkout's ``src/`` first on the import path, or exit."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SOURCE} holds no repro package; run the "
                 "benchmark from a full checkout")
    sys.path.insert(0, str(SOURCE))


def result_line(metrics, tally) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    use_source()
    import workloads
    from metric_names import END_TO_END, PER_LAYER
    from spans import top_layers

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    try:
        values, tally, tracer = workloads.run_workload(
            workload, args.seed, args.seconds, bool(args.trace))
    finally:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name:<40} {values[name]:>16.6g} {unit}")
    if tracer is not None:
        path = workloads.TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds})
        top = ", ".join(f"{layer} {seconds:.3f} s" for layer, seconds
                        in top_layers(tracer.layer_self_seconds()))
        print(f"top-3 layers by self time: {top}")
        print(f"spans written to {path.relative_to(ROOT)}")
    print(result_line({name: (values[name], unit)
                       for name, unit in units.items()}, tally))
    return 0


if __name__ == "__main__":
    sys.exit(main())
