"""Every metric the benchmark prints, with its unit.

``END_TO_END`` is printed with ``--trace 0`` and ``PER_LAYER`` with
``--trace 1``; every workload prints every name, as ``0`` where the layer
does not run on that workload.  ``BENCHMARK.json`` lists the same names;
the smoke test keeps the two in step.
"""

from __future__ import annotations

from typing import Dict

#: ladder of offered request rates of the serving workload (requests/s)
SERVE_RATES = (200, 400, 800, 1200, 1600)

#: the compile passes of either pipeline, and the layer (module) that
#: does each pass's work
PASS_LAYER = {
    "graph-build": "ir",
    "logical-map": "mapping",
    "placement": "mapping",
    "congestion-placement": "opt",
    "multicast-delivery": "opt",
    "reduction-tree": "opt",
    "route-pack": "mapping",
    "emit-program": "mapping",
    "timing-model": "timing",
}

#: lowered-op classes of ``repro.engine`` schedules (``engine.ops.<class>``)
OP_CLASSES = ("InjectInput", "Accumulate", "FusedAccumulate", "PsAdd",
              "DirectPsAdd", "MakePsPacket", "MakeSpikePacket",
              "FilterPacket", "Fire", "Eject", "DirectEject")

#: span layers whose self time is reported (``layer.<name>.self_s``);
#: ``bench`` is the benchmark's own work outside any call into the program
LAYERS = ("bench", "loadgen", "snn", "ir", "mapping", "opt", "timing",
          "engine", "serve")

RUNG_METRICS = {
    "queue_p50_ms": "ms",
    "queue_p99_ms": "ms",
    "exec_p50_ms": "ms",
    "batch_mean": "count",
    "batch_max": "count",
    "sharded_batch_frac": "ratio",
    "rejected": "count",
    "deadline_missed": "count",
    "errors": "count",
}

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "sim_cycles_per_frame": "cycles",
    "peak_rss_mb": "MB",
}


def _per_layer() -> Dict[str, str]:
    units: Dict[str, str] = {"fail_frac": "ratio", "snn.convert_s": "s"}
    units.update({f"ir.pass.{name}_s": "s" for name in PASS_LAYER})
    units.update({
        "mapping.cores": "count",
        "ir.instructions_per_timestep": "count",
        "opt.wave_count": "count",
        "opt.wave_depth": "count",
        "opt.total_hops": "count",
        "opt.max_link_load": "count",
        "engine.lower_s": "s",
        "engine.optimize_s": "s",
        "engine.ops_lowered": "count",
        "engine.ops_per_timestep": "count",
    })
    units.update({f"engine.ops.{name}": "count" for name in OP_CLASSES})
    units.update({
        "engine.first_run_s": "s",
        "engine.run_s": "s",
        "engine.frame_timesteps_per_s": "1/s",
        "engine.auto_sharded_frac": "ratio",
        "engine.auto_vs_vectorized": "ratio",
        "engine.worker_rss_mb": "MB",
        "serve_p50_ms": "ms",
        "serve_p99_ms": "ms",
        "serve_max_rps": "req/s",
        "serve.load_s": "s",
        "serve.submit_p99_us": "us",
    })
    for rate in SERVE_RATES:
        units.update({f"serve.r{rate}.{name}": unit
                      for name, unit in RUNG_METRICS.items()})
    units.update({f"loadgen.r{rate}.late_p99_ms": "ms"
                  for rate in SERVE_RATES})
    units.update({
        "workload.input_density": "count",
        "workload.mean_activity": "ratio",
        "trace.overhead_frac": "ratio",
    })
    units.update({f"layer.{name}.self_s": "s" for name in LAYERS})
    return units


PER_LAYER: Dict[str, str] = _per_layer()
