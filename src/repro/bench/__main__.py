"""Command-line entry point: ``python -m repro.bench``.

Default mode runs the engine throughput benchmark (and, unless
``--skip-scaling``, the sharded worker-count sweep) and writes/merges
``BENCH_engine.json``.

``--check`` mode is a CI-style regression gate: it re-measures throughput,
compares against the *committed* ``BENCH_engine.json`` without rewriting
it, and exits 1 when any backend's frames/sec regressed more than
``--tolerance`` (default 25 %), or 2 when no committed trajectory exists.
"""

from __future__ import annotations

import argparse
import sys

from . import (
    BENCH_FILENAME,
    DEFAULT_CHECK_TOLERANCE,
    DEFAULT_FRAMES,
    DEFAULT_TIMESTEPS,
    METRICS_FRAMES,
    OBS_FIRING_FRAMES,
    OBS_FIRING_TIMESTEPS,
    check_metrics_regression,
    check_noc_regression,
    check_obs_regression,
    check_regression,
    check_resilience_regression,
    check_serving,
    check_timing_regression,
    load_bench_report,
    measure_metrics,
    measure_noc,
    measure_obs,
    measure_resilience,
    measure_serving,
    measure_sharded_scaling,
    measure_throughput,
    measure_timing,
    write_bench_report,
)


def _print_throughput(throughput, frames: int, timesteps: int) -> None:
    print(f"engine throughput ({frames} frames x {timesteps} steps):")
    for name, row in throughput["backends"].items():
        print(f"  {name:<24} {row['frames_per_sec']:>10.1f} frames/s")
    for name, value in throughput.get("speedups", {}).items():
        print(f"  {name:<36} {value:.2f}x")


def _print_noc(noc) -> None:
    print("NoC metrics (default pipeline -> repro.opt optimized):")
    for name, row in noc["networks"].items():
        default, optimized = row["default"], row["optimized"]
        reduction = row["reduction"]
        print(f"  {name:<20} wave depth {default['wave_depth']:>6} -> "
              f"{optimized['wave_depth']:>6} ({reduction['wave_depth']:.1%})  "
              f"hops {default['total_hops']:>7} -> "
              f"{optimized['total_hops']:>7} ({reduction['total_hops']:.1%})")
        if "estimated_cycles_per_timestep" in default:
            print(f"  {'':<20} est. cycles/timestep "
                  f"{default['estimated_cycles_per_timestep']:>6} -> "
                  f"{optimized['estimated_cycles_per_timestep']:>6} "
                  f"({reduction.get('estimated_cycles', 0):.1%})")


def _print_timing(timing) -> None:
    print("timing model vs simulated cycles "
          f"(tolerance {timing['tolerance']:.0%}):")
    for name, row in timing["networks"].items():
        for label in ("default", "optimized"):
            cell = row[label]
            print(f"  {name:<24} {label:<10} estimated "
                  f"{cell['estimated_cycles']:>8}  simulated "
                  f"{cell['simulated_cycles']:>8}  error "
                  f"{cell['relative_error']:.2%}")


def _print_obs(obs) -> None:
    overhead = obs["overhead"]
    print(f"probe overhead (vectorized, gate {obs['max_overhead']:.0%} on "
          "the no-probe path):")
    print(f"  probes off {overhead['probe_off']['frames_per_sec']:>10.1f} "
          "frames/s")
    print(f"  probes on  {overhead['probe_on']['frames_per_sec']:>10.1f} "
          f"frames/s (full ProbeSet attached, "
          f"{overhead['overhead_ratio']:+.1%} run time)")
    firing = obs["firing"]
    print(f"per-layer firing rates ({firing['frames']} frames x "
          f"{firing['timesteps']} steps):")
    for name, layers in firing["networks"].items():
        rates = "  ".join(f"{layer}={rate:.4f}"
                          for layer, rate in layers.items())
        print(f"  {name:<20} {rates}")
    compile_row = obs.get("compile") or {}
    if compile_row:
        print(f"compile passes ({compile_row['network']}, "
              f"{compile_row['total_seconds'] * 1e3:.1f} ms total):")
        for record in compile_row["passes"]:
            print(f"  {record['name']:<24} "
                  f"{record['seconds'] * 1e3:>9.3f} ms  {record['summary']}")


def _print_resilience(resilience) -> None:
    print(f"supervision overhead (sharded, gate "
          f"{resilience['max_overhead']:.0%} on the supervised path):")
    print(f"  unsupervised {resilience['unsupervised']['frames_per_sec']:>10.1f}"
          " frames/s")
    print(f"  supervised   {resilience['supervised']['frames_per_sec']:>10.1f}"
          f" frames/s (default RunPolicy, "
          f"{resilience['supervised']['overhead_ratio']:+.1%} run time)")
    recovery = resilience.get("recovery") or {}
    if recovery:
        state = "bit-exact" if recovery.get("recovered_bit_exact") \
            else "NOT bit-exact"
        print(f"  crash recovery: {recovery['seconds'] * 1e3:.1f} ms "
              f"({state}; events: {recovery.get('events')})")


def _print_metrics(metrics) -> None:
    overhead = metrics["overhead"]
    print(f"metrics overhead (vectorized, gate {metrics['max_overhead']:.0%} "
          "on the metrics-on path):")
    print(f"  metrics off {overhead['metrics_off']['frames_per_sec']:>10.1f} "
          "frames/s")
    print(f"  metrics on  {overhead['metrics_on']['frames_per_sec']:>10.1f} "
          f"frames/s (long-lived MetricsRegistry attached, "
          f"{overhead['overhead_ratio']:+.1%} run time)")
    for name, row in metrics.get("histograms", {}).items():
        print(f"  {name:<24} n={row['count']:<5} sum={row['sum'] * 1e3:.2f} ms"
              f"  p50={row['p50'] * 1e6:.1f} us  p95={row['p95'] * 1e6:.1f} us"
              f"  p99={row['p99'] * 1e6:.1f} us")


def _print_serving(serving) -> None:
    load = serving["load"]
    print(f"serving ({load['requests']} requests offered open-loop at "
          f"{load['offered_rate']:.0f} req/s, "
          f"{serving['rate_factor']:.0f}x the single-frame rate):")
    print(f"  achieved   {load['requests_per_sec']:>10.1f} requests/s "
          f"({load['completed']} completed, {load['rejected']} rejected, "
          f"{load['deadline_missed']} deadline-missed)")
    print(f"  latency    p50={load['p50_ms']:.2f} ms  "
          f"p95={load['p95_ms']:.2f} ms  p99={load['p99_ms']:.2f} ms")
    print(f"  mean batch {load['mean_batch']:>10.1f} frames "
          f"(single-frame baseline "
          f"{serving['baseline']['frames_per_sec']:.1f} frames/s)")


def run_check(args) -> int:
    """The ``--check`` gate: measure, compare, exit non-zero on regression.

    The measurement uses the *committed* trajectory's recorded batch
    geometry (frames/timesteps), so the comparison is apples to apples;
    explicitly passing a different geometry is a configuration error, not a
    perf regression, and exits 2.
    """
    try:
        committed = load_bench_report(args.baseline)
    except (FileNotFoundError, ValueError) as exc:
        print(f"bench check: {exc}", file=sys.stderr)
        return 2
    committed_throughput = committed.get("throughput")
    if not isinstance(committed_throughput, dict):
        print(f"bench check: {args.baseline or BENCH_FILENAME} has no "
              "'throughput' section", file=sys.stderr)
        return 2
    frames = int(committed_throughput.get("frames", DEFAULT_FRAMES))
    timesteps = int(committed_throughput.get("timesteps", DEFAULT_TIMESTEPS))
    for flag, ours, committed_value in (("--frames", args.frames, frames),
                                        ("--timesteps", args.timesteps,
                                         timesteps)):
        if ours is not None and ours != committed_value:
            print(f"bench check: {flag}={ours} does not match the committed "
                  f"trajectory's {committed_value}; frames/sec would not be "
                  "comparable (re-run `python -m repro.bench` to re-baseline)",
                  file=sys.stderr)
            return 2
    throughput = measure_throughput(frames=frames, timesteps=timesteps,
                                    repeats=args.repeats)
    _print_throughput(throughput, frames, timesteps)
    failures = check_regression(throughput, committed_throughput,
                                tolerance=args.tolerance)
    committed_noc = committed.get("noc")
    if isinstance(committed_noc, dict) and not args.skip_noc:
        noc = measure_noc(
            networks=tuple(committed_noc.get("networks", {})),
            timesteps=int(committed_noc.get("timesteps", 8)),
            seed=int(committed_noc.get("seed", 0)),
        )
        _print_noc(noc)
        failures += check_noc_regression(noc, committed_noc,
                                         tolerance=args.tolerance)
    committed_timing = committed.get("timing")
    if isinstance(committed_timing, dict) and not args.skip_timing:
        timing = measure_timing(
            networks=tuple(committed_timing.get("networks", {})),
            timesteps=int(committed_timing.get("timesteps", 4)),
            frames=int(committed_timing.get("frames", 2)),
            seed=int(committed_timing.get("seed", 0)),
        )
        # the gate enforces the *committed* tolerance; print that one
        timing["tolerance"] = float(
            committed_timing.get("tolerance", timing["tolerance"]))
        _print_timing(timing)
        failures += check_timing_regression(timing, committed_timing)
    committed_obs = committed.get("obs")
    if isinstance(committed_obs, dict) and not args.skip_obs:
        committed_firing = committed_obs.get("firing", {})
        obs = measure_obs(
            networks=tuple(committed_firing.get("networks", {})),
            frames=int(committed_obs.get("frames", frames)),
            timesteps=int(committed_obs.get("timesteps", timesteps)),
            repeats=args.repeats,
            firing_frames=int(committed_firing.get("frames",
                                                   OBS_FIRING_FRAMES)),
            firing_timesteps=int(committed_firing.get("timesteps",
                                                      OBS_FIRING_TIMESTEPS)),
            seed=int(committed_firing.get("seed", 0)),
        )
        # the gate enforces the *committed* overhead ceiling; print that one
        obs["max_overhead"] = float(
            committed_obs.get("max_overhead", obs["max_overhead"]))
        _print_obs(obs)
        failures += check_obs_regression(obs, committed_obs)
    committed_resilience = committed.get("resilience")
    if isinstance(committed_resilience, dict) and not args.skip_resilience:
        resilience = measure_resilience(
            frames=int(committed_resilience.get("frames", frames)),
            timesteps=int(committed_resilience.get("timesteps", timesteps)),
            repeats=args.repeats,
        )
        # the gate enforces the *committed* overhead ceiling; print that one
        resilience["max_overhead"] = float(
            committed_resilience.get("max_overhead",
                                     resilience["max_overhead"]))
        _print_resilience(resilience)
        failures += check_resilience_regression(resilience,
                                                committed_resilience)
    committed_metrics = committed.get("metrics")
    if isinstance(committed_metrics, dict) and not args.skip_metrics:
        metrics = measure_metrics(
            frames=int(committed_metrics.get("frames", frames)),
            timesteps=int(committed_metrics.get("timesteps", timesteps)),
            repeats=args.repeats,
        )
        # the gate enforces the *committed* overhead ceiling; print that one
        metrics["max_overhead"] = float(
            committed_metrics.get("max_overhead", metrics["max_overhead"]))
        _print_metrics(metrics)
        failures += check_metrics_regression(metrics, committed_metrics)
    committed_serving = committed.get("serving")
    if isinstance(committed_serving, dict) and not args.skip_serving:
        serving = measure_serving(
            requests=int(committed_serving.get("requests", 128)),
            timesteps=int(committed_serving.get("timesteps", timesteps)),
            repeats=args.repeats,
        )
        # the gate enforces the *committed* ceilings; print those
        for knob in ("max_drop", "max_p99_growth"):
            if knob in committed_serving:
                serving[knob] = float(committed_serving[knob])
        _print_serving(serving)
        failures += check_serving(serving, committed_serving)
    if failures:
        print(f"\nbench check FAILED ({len(failures)} regression(s) vs "
              f"committed rev {committed.get('git_rev', '?')}):")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"\nbench check OK (no backend regressed more than "
          f"{args.tolerance:.0%} vs rev {committed.get('git_rev', '?')})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Measure execution-engine throughput and write (or, with "
                    "--check, gate against) the BENCH_engine.json perf "
                    "trajectory.",
    )
    parser.add_argument("--frames", type=int, default=None,
                        help=f"batch size of the throughput case (default "
                             f"{DEFAULT_FRAMES}; --check defaults to the "
                             "committed trajectory's value)")
    parser.add_argument("--timesteps", type=int, default=None,
                        help=f"timesteps per frame (default "
                             f"{DEFAULT_TIMESTEPS}; --check defaults to the "
                             "committed trajectory's value)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per backend (best-of)")
    parser.add_argument("--output", default=None,
                        help=f"output path (default: ./{BENCH_FILENAME})")
    parser.add_argument("--skip-scaling", action="store_true",
                        help="skip the sharded worker-count sweep")
    parser.add_argument("--skip-noc", action="store_true",
                        help="skip the NoC pipeline comparison "
                             "(wave depth / hops of default vs repro.opt)")
    parser.add_argument("--skip-timing", action="store_true",
                        help="skip the timing-model parity measurement "
                             "(estimated vs simulated cycles, repro.timing)")
    parser.add_argument("--skip-obs", action="store_true",
                        help="skip the observability section (probe "
                             "overhead, per-layer firing rates and compile "
                             "pass timings, repro.obs)")
    parser.add_argument("--skip-resilience", action="store_true",
                        help="skip the resilience section (supervised "
                             "sharded overhead and crash-recovery time, "
                             "repro.resilience)")
    parser.add_argument("--skip-metrics", action="store_true",
                        help="skip the wall-clock metrics section "
                             "(metrics-on overhead and key histogram "
                             "snapshots, repro.obs.metrics)")
    parser.add_argument("--skip-serving", action="store_true",
                        help="skip the serving section (open-loop "
                             "requests/sec and latency quantiles, "
                             "repro.serve)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed trajectory and "
                             "exit 1 on >tolerance frames/sec regression "
                             "(does not rewrite the file)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_CHECK_TOLERANCE,
                        help="allowed relative frames/sec regression for "
                             "--check (default 0.25)")
    parser.add_argument("--baseline", default=None,
                        help="committed trajectory to check against "
                             f"(default: ./{BENCH_FILENAME})")
    args = parser.parse_args(argv)

    if args.check:
        return run_check(args)

    frames = args.frames if args.frames is not None else DEFAULT_FRAMES
    timesteps = args.timesteps if args.timesteps is not None \
        else DEFAULT_TIMESTEPS
    sections = {}
    throughput = measure_throughput(frames=frames, timesteps=timesteps,
                                    repeats=args.repeats)
    sections["throughput"] = throughput
    _print_throughput(throughput, frames, timesteps)

    if not args.skip_scaling:
        scaling = measure_sharded_scaling(timesteps=timesteps,
                                          repeats=args.repeats)
        sections["sharded_scaling"] = scaling
        print(f"sharded scaling ({scaling['frames']} frames, "
              f"{scaling['cpu_count']} cpus):")
        for count, row in scaling["workers"].items():
            print(f"  workers={count:<3} shards={row['shards']:<3}"
                  f" {row['frames_per_sec']:>10.1f} frames/s")

    if not args.skip_noc:
        noc = measure_noc()
        sections["noc"] = noc
        _print_noc(noc)

    if not args.skip_timing:
        timing = measure_timing()
        sections["timing"] = timing
        _print_timing(timing)

    if not args.skip_obs:
        obs = measure_obs(frames=frames, timesteps=timesteps,
                          repeats=args.repeats)
        sections["obs"] = obs
        _print_obs(obs)

    if not args.skip_resilience:
        resilience = measure_resilience(frames=frames, timesteps=timesteps,
                                        repeats=args.repeats)
        sections["resilience"] = resilience
        _print_resilience(resilience)

    if not args.skip_metrics:
        # own (larger) default batch: amortizes the registry's fixed
        # per-run bookkeeping so the gate budget is left to noise
        metrics_frames = args.frames if args.frames is not None \
            else METRICS_FRAMES
        metrics = measure_metrics(frames=metrics_frames, timesteps=timesteps,
                                  repeats=args.repeats)
        sections["metrics"] = metrics
        _print_metrics(metrics)

    if not args.skip_serving:
        serving = measure_serving(timesteps=timesteps, repeats=args.repeats)
        sections["serving"] = serving
        _print_serving(serving)

    path = write_bench_report(sections, path=args.output)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
