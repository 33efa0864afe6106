"""The benchmark's workloads: the paper's Table III nets, end to end.

Every workload builds its model weights, calibration images, frames and
arrival schedule from the seed, and reaches the program only through
``convert_ann_to_graph``, ``repro.ir.compile``, ``create_backend`` and
``repro.serve.Server``, with default options (but ``optimize_noc`` on
``cnn-noc``).  Inputs are
synthetic-MNIST test images rate-coded at T=20 (Table IV's MNIST timestep
count); calibration images come from the train split; weights are seeded
and untrained, because training is not on the inference path.

Workloads, and why each was chosen
----------------------------------
``mlp-batch``
    Table III(a) MLP, 784-512-10 on 10 cores, default pipeline; repeated
    2048-frame batches through ``create_backend("auto")``, the full-split
    check Table IV runs.  Compile is under 2 % of setup and the optimized
    schedule has about 30 ops per timestep, so time goes to the accumulate
    kernel and, since ``auto`` picks ``sharded`` at >= 256 frames, to the
    worker pool.
``cnn-noc``
    Table III(b) CNN on 680 cores, converted and compiled fresh with
    ``optimize_noc=True``; 32-frame batches through ``auto``, which picks
    ``vectorized``.  Setup (6 to 10 s on two cores) spreads over the passes,
    lowering and schedule optimization, and about 3.9k ops run per
    timestep: compile-bound and dispatch-bound.  The only workload that
    runs ``repro.opt``; it never uses ``sharded``.
``mlp-serve``
    The same MLP under ``Server().load(graph)`` with the default
    ``ServePolicy``.  One open-loop generator sends single-frame requests
    at 200, 400, 800, 1200 and 1600 req/s, in passes of 334 requests per
    rate, waiting for every answer before the next rate (no deadline is
    set, so none is missed).  The engine sees batches of 1
    to 256 frames, so per-call overhead, the queue and the batcher
    dominate; at the top rate batches grow toward 256 frames, where they
    go ``sharded``.

End-to-end metrics (``--trace 0``)
----------------------------------
Every workload prints every one:

``setup_s``
    Model in hand to first result: conversion, every compile pass,
    building the backend (or ``Server.load``), and the first batch (or
    first served request), which pays for lazy lowering and forking the
    worker pool.  Median of at least ``SETUP_REPEATS`` set-ups, and of
    more until they have taken ``SETUP_SECONDS``.
``frames_per_s``
    Batch workloads: frames per second at the fixed batch size, from the
    median batch time.  ``mlp-serve``: the achieved answer rate at
    400 req/s offered.
``sim_cycles_per_frame``
    ``result.stats.cycles / frames``: modelled Shenjing time, which
    repeats exactly.
``peak_rss_mb``
    Peak resident memory of the benchmark process, which holds the
    inputs, the engine and the server.  Worker processes are reported
    apart, as ``engine.worker_rss_mb``: whether the serving pool forks at
    all depends on whether the top rate builds 256-frame batches, so their
    sum would jump between two values from run to run.

The serving metrics ``serve_p50_ms`` and ``serve_p99_ms`` (latency at
400 req/s, each request timed from when it was due to be sent until its
response) and ``serve_max_rps`` (the highest ladder rate at which p99 <=
100 ms, every request is answered correctly and the achieved rate is
within 5 % of the offered rate) are reported with the per-layer metrics,
without a bound: at 400 req/s the server runs near its capacity on two
cores, so a few per cent of drift in machine speed moves them by a
quarter from run to run.

Failures are wrong outputs, engine errors, and refused or deadline-missed
requests; they are the result's ``failed`` out of ``attempted``, and
``fail_frac`` in the traced run.  (A metric that reads 0 cannot be an
end-to-end metric, so ``fail_frac`` is reported with the per-layer ones.)
A refused or failed request counts as the longest wait the generator
allows, so it misses any latency limit.

Per-layer metrics (``--trace 1``) and what each should move
-----------------------------------------------------------
=================================  =====================  ==============
metrics                            should move            on
=================================  =====================  ==============
``snn.convert_s``                  ``setup_s``            cnn-noc
``ir.pass.<pass>_s``               ``setup_s``            cnn-noc
``mapping.cores``,                 ``sim_cycles_per_      cnn-noc
``ir.instructions_per_timestep``,  frame``
``opt.*`` counts
``engine.lower_s``,                ``setup_s``, then      cnn-noc
``engine.optimize_s``,             ``frames_per_s``
``engine.ops_*``, ``engine.ops.*``
``engine.first_run_s``,            ``setup_s``,           mlp-batch,
``engine.run_s``,                  ``frames_per_s``       cnn-noc
``engine.frame_timesteps_per_s``
``engine.auto_sharded_frac``,      ``frames_per_s``       mlp-batch
``engine.auto_vs_vectorized``,
``engine.worker_rss_mb``
``serve.load_s``                    ``setup_s``            mlp-serve
``serve.submit_p99_us``,           ``serve_p50_ms``,      mlp-serve
``serve.r<rate>.queue_*``,         ``serve_p99_ms``
``serve.r<rate>.exec_p50_ms``
``serve.r<rate>.batch_*``,         ``serve_max_rps``,     mlp-serve
``serve.r<rate>.sharded_batch_     ``frames_per_s``
frac``
``serve.r<rate>.rejected`` /       ``fail_frac``          mlp-serve
``deadline_missed`` / ``errors``
``loadgen.r<rate>.late_p99_ms``    nothing: if it grows,  mlp-serve
                                   the generator limited
                                   the run
``workload.input_density``,        nothing: the share of  all
``workload.mean_activity``         work a sparsity-
                                   dependent change sees
``layer.<layer>.self_s``           where the time went    all
``trace.overhead_frac``            --                     all
=================================  =====================  ==============

The traced run is separate from the measured ones: it runs the workload
once untraced and once with spans around each public call (plus one
``lower_program``/``optimize_schedule`` pass and, on batch workloads, one
``vectorized`` batch for attribution, outside the compared time).
"""

from __future__ import annotations

import multiprocessing
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.networks import build_mnist_cnn, build_mnist_mlp
from repro.core.config import DEFAULT_ARCH
from repro.datasets.synthetic_mnist import synthetic_mnist
from repro.engine import (
    create_backend,
    kernel_class_counts,
    lower_program,
    optimize_schedule,
)
from repro.ir import GraphSnnRunner
from repro.ir import compile as ir_compile
from repro.opt.cost import plan_metrics
from repro.serve import Server
from repro.snn.conversion import ConversionConfig, convert_ann_to_graph
from repro.snn.encoding import encode, flatten_images

import loadgen
from metric_names import (
    END_TO_END,
    OP_CLASSES,
    PASS_LAYER,
    PER_LAYER,
    SERVE_RATES,
)
from spans import NullTracer, Tracer

TIMESTEPS = 20
CONVERSION = ConversionConfig(timesteps=TIMESTEPS)
#: calibration images drawn from the train split (the converter's cap)
CALIBRATION_IMAGES = CONVERSION.max_calibration_samples
#: frames compared against ``GraphSnnRunner`` (the runner needs ~50 ms a
#: frame on the MLP, so a whole 2048-frame batch would take ~95 s)
CHECK_FRAMES = 32
#: set-ups per measured run, at least, and the time they run for at least;
#: ``setup_s`` is their median
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
#: batch workloads run at least this many steady-state batches
MIN_BATCHES = 3
#: ``serve_p50_ms``/``serve_p99_ms`` are read at this offered rate
REFERENCE_RATE = 400
P99_LIMIT_S = 0.100
RATE_TOLERANCE = 0.05
#: requests per ladder rate, per second of ``--seconds``: 1000 at 10 s,
#: so p99 has ten samples beyond it
REQUESTS_PER_RUN_SECOND = 100
#: requests per rate in one pass of the ladder: enough for 256-frame
#: batches at 1600 req/s, few enough that the backlog there stays well
#: inside the default 1024-request queue after throughput collapses
SEGMENT_REQUESTS = 334
RESULT_TIMEOUT_S = 60.0
TRACE_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    builder: Callable
    #: frames per batch; 0 makes this a serving workload
    batch_frames: int = 0
    optimize_noc: bool = False
    rates: Tuple[int, ...] = ()
    #: frames checked against the runner; a serving workload's frame pool
    check_frames: int = CHECK_FRAMES

    @property
    def serving(self) -> bool:
        return self.batch_frames == 0


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("mlp-batch",
             "Table III(a) MLP in 2048-frame batches through auto (sharded): "
             "time goes to the accumulate kernel and the worker pool, not "
             "to compile or per-op dispatch",
             build_mnist_mlp, batch_frames=2048),
    Workload("cnn-noc",
             "Table III(b) CNN, 680 cores, compiled fresh with optimize_noc "
             "and run in 32-frame vectorized batches: compile-bound and "
             "dispatch-bound (about 3.9k ops per timestep)",
             build_mnist_cnn, batch_frames=32, optimize_noc=True),
    Workload("mlp-serve",
             "the MLP served to an open loop at 200-1600 req/s: per-call "
             "overhead, the queue and the batcher dominate; batches grow "
             "toward 256 frames, where they go sharded",
             build_mnist_mlp, rates=SERVE_RATES),
)}


@dataclass
class Inputs:
    model: object
    calibration: np.ndarray
    #: rate-coded test frames ``(frames, T, 784)``: the batch, or the pool
    #: a serving workload draws its requests from
    trains: np.ndarray
    #: frames compared against the runner (all of a serving pool)
    checked: np.ndarray
    #: ``GraphSnnRunner`` spike counts of ``trains[checked]``
    expected: np.ndarray
    mean_activity: float
    rng: np.random.Generator


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Seeded model, calibration, frames and expected outputs (untimed)."""
    frames = max(workload.batch_frames, workload.check_frames)
    data = synthetic_mnist(train_size=CALIBRATION_IMAGES, test_size=frames,
                           seed=seed)
    model = workload.builder(seed=seed)
    trains = encode(flatten_images(data.test_images), TIMESTEPS)
    rng = np.random.default_rng(seed)
    checked = np.sort(rng.choice(frames, workload.check_frames,
                                 replace=False))
    graph = convert_ann_to_graph(model, data.train_images, CONVERSION)
    reference = GraphSnnRunner(graph).run_spike_trains(trains[checked])
    return Inputs(model, data.train_images, trains, checked,
                  reference.spike_counts, reference.mean_activity, rng)


class Tally:
    """Operations attempted and failed; a failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {what}", file=sys.stderr)


def _peak_rss_mb(pid: str) -> float:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:  # the child exited since it was listed
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def peak_rss() -> Tuple[float, float]:
    """Peak RSS of this process, and summed over its live worker processes."""
    workers = sum(_peak_rss_mb(str(child.pid))
                  for child in multiprocessing.active_children())
    return _peak_rss_mb("self"), workers


def _more_setups(done: List[float], minimum: int) -> bool:
    """At least ``minimum`` set-ups; a measured run (``minimum > 1``) adds
    more until they have taken ``SETUP_SECONDS``, so that a set-up of a few
    milliseconds still gets a steady median."""
    return len(done) < minimum or (minimum > 1 and sum(done) < SETUP_SECONDS)


def pass_spans(records) -> List[Tuple[str, float]]:
    return [(f"{PASS_LAYER.get(r.name, 'ir')}/pass.{r.name}", r.seconds)
            for r in records]


def compile_metrics(compiled) -> Dict[str, float]:
    """Per-pass seconds and the mapping / NoC counts of one compile."""
    values = {f"ir.pass.{r.name}_s": r.seconds for r in compiled.trace}
    noc = plan_metrics(compiled.routes)
    values.update({
        "mapping.cores": compiled.placement.n_placed,
        "ir.instructions_per_timestep": compiled.program.instruction_count,
        "opt.wave_count": noc.wave_count,
        "opt.wave_depth": noc.wave_depth,
        "opt.total_hops": noc.total_hops,
        "opt.max_link_load": noc.max_link_load,
    })
    return values


def engine_metrics(program, tracer: Tracer) -> Dict[str, float]:
    """Lower and optimize ``program`` once, for the engine's prep numbers."""
    with tracer.span("engine/lower_program"):
        lowered = lower_program(program)
    ops_lowered = lowered.op_count
    with tracer.span("engine/optimize_schedule"):
        schedule = optimize_schedule(lowered)
    classes = kernel_class_counts(list(schedule.inject_ops)
                                  + list(schedule.ops))
    values = {
        "engine.lower_s": tracer.total("engine/lower_program"),
        "engine.optimize_s": tracer.total("engine/optimize_schedule"),
        "engine.ops_lowered": ops_lowered,
        "engine.ops_per_timestep": schedule.op_count,
    }
    values.update({f"engine.ops.{name}": classes.get(name, 0)
                   for name in OP_CLASSES})
    return values


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def _batch_ok(inputs: Inputs, compiled, result, frames: int) -> bool:
    return (np.array_equal(result.spike_counts[inputs.checked],
                           inputs.expected)
            and result.stats.cycles == compiled.timing.cycles_for(frames))


def run_batch(workload: Workload, inputs: Inputs, seconds: float,
              setups: int, tracer, tally: Tally) -> Dict[str, float]:
    batch = inputs.trains[:workload.batch_frames]
    frames = len(batch)
    setup_seconds: List[float] = []
    first_run: List[float] = []
    backend = None
    while _more_setups(setup_seconds, setups):
        if backend is not None:
            backend.close()
        start = time.perf_counter()
        with tracer.span("snn/convert_ann_to_graph"):
            graph = convert_ann_to_graph(inputs.model, inputs.calibration,
                                         CONVERSION)
        with tracer.span("ir/compile"):
            compiled = ir_compile(graph, DEFAULT_ARCH,
                                  optimize_noc=workload.optimize_noc)
        tracer.add_children("ir/compile", pass_spans(compiled.trace))
        with tracer.span("engine/create_backend"):
            backend = create_backend("auto", compiled.program)
        run_start = time.perf_counter()
        with tracer.span("engine/backend.run"):
            result = backend.run(batch)
        end = time.perf_counter()
        setup_seconds.append(end - start)
        first_run.append(end - run_start)
        tally.record(_batch_ok(inputs, compiled, result, frames),
                     "first batch differs from GraphSnnRunner or timing")

    run_seconds: List[float] = []
    sharded = attempts = 0
    loop_start = time.perf_counter()
    while attempts < MIN_BATCHES or time.perf_counter() - loop_start < seconds:
        attempts += 1
        tick = time.perf_counter()
        try:
            with tracer.span("engine/backend.run"):
                result = backend.run(batch)
        except Exception:
            traceback.print_exc()
            tally.record(False, "batch raised")
            continue
        run_seconds.append(time.perf_counter() - tick)
        sharded += backend.last_selection == "sharded"
        tally.record(_batch_ok(inputs, compiled, result, frames),
                     "batch differs from GraphSnnRunner or timing")
    measured = time.perf_counter() - loop_start
    rss, worker_rss = peak_rss()
    backend.close()

    run_s = statistics.median(run_seconds)
    values = {
        "setup_s": statistics.median(setup_seconds),
        "frames_per_s": frames / run_s,
        "sim_cycles_per_frame": result.stats.cycles / frames,
        "peak_rss_mb": rss,
        "engine.worker_rss_mb": worker_rss,
        "engine.first_run_s": statistics.median(first_run),
        "engine.run_s": run_s,
        "engine.frame_timesteps_per_s": frames * TIMESTEPS / run_s,
        "engine.auto_sharded_frac": sharded / len(run_seconds),
        "timed_s": sum(setup_seconds) + measured,
    }
    if tracer.enabled:
        values.update(compile_metrics(compiled))
        values.update(engine_metrics(compiled.program, tracer))
        with tracer.span("engine/create_backend"):
            vectorized = create_backend("vectorized", compiled.program)
        try:
            tick = time.perf_counter()
            with tracer.span("engine/backend.run"):
                result = vectorized.run(batch)
            values["engine.auto_vs_vectorized"] = \
                run_s / (time.perf_counter() - tick)
        finally:
            vectorized.close()
        tally.record(_batch_ok(inputs, compiled, result, frames),
                     "vectorized batch differs from GraphSnnRunner or timing")
    return values


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
def _served_ok(inputs: Inputs, frame: int, counts, cycles: int,
               cycles_per_frame: int) -> bool:
    return (counts is not None
            and np.array_equal(counts, inputs.expected[frame])
            and cycles == cycles_per_frame)


def _rung_summary(rate: int, segments: List[List[loadgen.Outcome]], batches,
                  inputs: Inputs, cycles_per_frame: int,
                  tally: Tally) -> Dict[str, float]:
    """Pool one rate's segments; the achieved rate is answers per second
    of completion span, summed over the segments."""
    outcomes = [o for segment in segments for o in segment]
    answered = [o for o in outcomes if o.latency is not None]
    wrong = 0
    for o in outcomes:
        ok = not o.error and _served_ok(inputs, o.frame, o.counts, o.cycles,
                                        cycles_per_frame)
        wrong += not o.error and not ok
        tally.record(ok, f"request at {rate} req/s: "
                         f"{o.error or 'wrong output'}")
    # a request that failed or was refused misses any latency limit: it
    # counts as the longest wait the generator allows
    latency = [o.latency if o.latency is not None else RESULT_TIMEOUT_S
               for o in outcomes]
    gaps = span = 0.0
    for segment in segments:
        arrivals = [o.arrival for o in segment if o.latency is not None]
        if len(arrivals) > 1:
            gaps += len(arrivals) - 1
            span += max(arrivals) - min(arrivals)
    achieved = gaps / span if span else 0.0
    errors = {kind: sum(o.error == kind for o in outcomes)
              for kind in ("rejected", "deadline", "error")}
    sizes = [len(sequences) for _, sequences in batches] or [0]
    p99 = float(np.percentile(latency, 99))
    meets = (p99 <= P99_LIMIT_S and not wrong and not any(errors.values())
             and abs(achieved - rate) <= RATE_TOLERANCE * rate)
    queued = [o.queued for o in answered] or [0.0]
    return {
        "p50_ms": float(np.percentile(latency, 50)) * 1e3,
        "p99_ms": p99 * 1e3,
        "achieved": achieved,
        "meets": meets,
        "queue_p50_ms": float(np.percentile(queued, 50)) * 1e3,
        "queue_p99_ms": float(np.percentile(queued, 99)) * 1e3,
        "exec_p50_ms": float(np.median(
            [o.latency - o.late - o.queued for o in answered] or [0.0])) * 1e3,
        "batch_mean": float(np.mean(sizes)),
        "batch_max": max(sizes),
        "sharded_batch_frac": (sum(name == "sharded" for name, _ in batches)
                               / max(len(batches), 1)),
        "rejected": errors["rejected"],
        "deadline_missed": errors["deadline"],
        "errors": errors["error"],
        "late_p99_ms": float(np.percentile([o.late for o in outcomes],
                                           99)) * 1e3,
    }


def run_serve(workload: Workload, inputs: Inputs, seconds: float,
              setups: int, tracer, tally: Tally) -> Dict[str, float]:
    pool = inputs.trains
    setup_seconds: List[float] = []
    load_seconds: List[float] = []
    server = None
    while _more_setups(setup_seconds, setups):
        if server is not None:
            server.close()
        start = time.perf_counter()
        with tracer.span("snn/convert_ann_to_graph"):
            graph = convert_ann_to_graph(inputs.model, inputs.calibration,
                                         CONVERSION)
        server = Server()
        load_start = time.perf_counter()
        with tracer.span("serve/Server.load"):
            session = server.load(graph)
        load_seconds.append(time.perf_counter() - load_start)
        tracer.add_children("serve/Server.load",
                            pass_spans(session.compiled.trace))
        with tracer.span("serve/Session.submit"):
            handle = session.submit(pool[0])
        with tracer.span("serve/PendingRequest.result"):
            response = handle.result(timeout=RESULT_TIMEOUT_S)
        setup_seconds.append(time.perf_counter() - start)
        cycles_per_frame = session.compiled.timing.cycles_for(1)
        tally.record(_served_ok(inputs, 0, response.spike_counts,
                                response.stats.cycles, cycles_per_frame),
                     "first response differs from GraphSnnRunner or timing")

    # the ladder runs in passes of SEGMENT_REQUESTS per rate, so each rate
    # samples the whole run rather than one stretch of a machine whose
    # speed drifts
    total = max(10, round(REQUESTS_PER_RUN_SECOND * seconds))
    passes = max(1, round(total / SEGMENT_REQUESTS))
    requests = -(-total // passes)
    segments: Dict[int, List[List[loadgen.Outcome]]] = {
        rate: [] for rate in workload.rates}
    batches: Dict[int, list] = {rate: [] for rate in workload.rates}
    ladder_start = time.perf_counter()
    for _ in range(passes):
        for rate in workload.rates:
            offsets = loadgen.poisson_schedule(inputs.rng, rate, requests)
            frame_ids = inputs.rng.integers(0, len(pool), size=requests)
            first_batch = len(session.batch_log)
            segments[rate].append(loadgen.run_open_loop(
                session, pool, frame_ids, offsets, rate, tracer,
                RESULT_TIMEOUT_S))
            batches[rate] += session.batch_log[first_batch:]
    ladder_seconds = time.perf_counter() - ladder_start
    rss, worker_rss = peak_rss()
    server.close()
    rungs = {rate: _rung_summary(rate, segments[rate], batches[rate], inputs,
                                 cycles_per_frame, tally)
             for rate in workload.rates}
    submit_seconds = [o.submit_seconds for rate in workload.rates
                      for segment in segments[rate] for o in segment]

    values = {
        "setup_s": statistics.median(setup_seconds),
        "frames_per_s": rungs[REFERENCE_RATE]["achieved"],
        "sim_cycles_per_frame": float(response.stats.cycles),
        "serve_p50_ms": rungs[REFERENCE_RATE]["p50_ms"],
        "serve_p99_ms": rungs[REFERENCE_RATE]["p99_ms"],
        "serve_max_rps": float(max([rate for rate, summary in rungs.items()
                                    if summary["meets"]], default=0)),
        "peak_rss_mb": rss,
        "engine.worker_rss_mb": worker_rss,
        "serve.load_s": statistics.median(load_seconds),
        "serve.submit_p99_us": float(np.percentile(submit_seconds, 99)) * 1e6,
        "timed_s": sum(setup_seconds) + ladder_seconds,
    }
    for rate, summary in rungs.items():
        values[f"loadgen.r{rate}.late_p99_ms"] = summary["late_p99_ms"]
        values.update({f"serve.r{rate}.{name}": summary[name]
                       for name in ("queue_p50_ms", "queue_p99_ms",
                                    "exec_p50_ms", "batch_mean", "batch_max",
                                    "sharded_batch_frac", "rejected",
                                    "deadline_missed", "errors")})
    if tracer.enabled:
        values.update(compile_metrics(session.compiled))
        values.update(engine_metrics(session.compiled.program, tracer))
    return values


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> Tuple[Dict[str, float], Tally,
                                       Optional[Tracer]]:
    """Run ``workload`` and return its metrics, tally and (traced) spans.

    Untraced: at least ``SETUP_REPEATS`` set-ups, then the measured phase;
    returns the end-to-end metrics.  Traced: the workload once untraced and
    once traced, each with one set-up; returns the per-layer metrics.
    """
    inputs = make_inputs(workload, seed)
    measure = run_serve if workload.serving else run_batch
    tally = Tally()
    if not trace:
        values = measure(workload, inputs, seconds, SETUP_REPEATS,
                         NullTracer(), tally)
        return {name: float(values[name]) for name in END_TO_END}, tally, None

    untraced = measure(workload, inputs, seconds, 1, NullTracer(), tally)
    tracer = Tracer()
    with tracer.span(f"bench/{workload.name}"):
        traced = measure(workload, inputs, seconds, 1, tracer, tally)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({name: float(value) for name, value in traced.items()
                    if name in PER_LAYER})
    metrics.update({
        "fail_frac": tally.failed / tally.attempted,
        "snn.convert_s": tracer.total("snn/convert_ann_to_graph"),
        "workload.input_density": float(inputs.trains.sum(axis=2).mean()),
        "workload.mean_activity": inputs.mean_activity,
        "trace.overhead_frac": traced["timed_s"] / untraced["timed_s"] - 1.0,
    })
    for layer, seconds_ in tracer.layer_self_seconds().items():
        if f"layer.{layer}.self_s" in metrics:
            metrics[f"layer.{layer}.self_s"] = seconds_
    return metrics, tally, tracer
