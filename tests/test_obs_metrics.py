"""Tests for :mod:`repro.obs.metrics` / :mod:`repro.obs.profile`.

The load-bearing contracts: attaching a :class:`MetricsRegistry` to any
backend changes **nothing** about what the run computes (outputs, stats
and probes stay bit-identical), the registry's deterministic part (work
counters) is invariant across frame-part counts for every small
benchmark builder, snapshots pickle, merging is associative, and both exporters — OpenMetrics text and the Chrome
trace's wall-clock track — pass their own validators.
"""

import json
import pickle
from contextlib import nullcontext

import numpy as np
import pytest

from repro.apps.networks import ALL_BUILDERS, seeded_benchmark_graph
from repro.bench import mlp_bench_case
from repro.core.config import DEFAULT_ARCH
from repro.engine import create_backend, vectorized
from repro.ir import compile as ir_compile
from repro.obs import (
    TIMESTEP_SAMPLE_LIMIT,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    ProbeSet,
    Trace,
    render_openmetrics,
    span,
    stopwatch,
    time_block,
    validate_chrome_trace,
    validate_openmetrics,
)
from repro.obs.trace import EXECUTION_PID, WALLCLOCK_PID
from repro.snn.encoding import deterministic_encode

from frame_split import forced_split

SMALL_BUILDERS = sorted(name for name in ALL_BUILDERS
                        if name.endswith("-small"))


# ----------------------------------------------------------------------
# Primitive metrics
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(MetricsError, match="only go up"):
            counter.inc(-1)

    def test_gauge_overwrites(self):
        gauge = Gauge()
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0

    def test_histogram_buckets_and_stats(self):
        hist = Histogram(bounds=[1.0, 2.0, 4.0])
        for value in (0.5, 1.0, 3.0, 100.0):
            hist.observe(value)
        # inclusive upper bounds: 0.5 and 1.0 land in the first bucket
        assert hist.counts == [2, 0, 1, 1]
        assert hist.count == 4
        assert hist.sum == 104.5
        assert hist.minimum == 0.5
        assert hist.maximum == 100.0

    def test_histogram_bad_bounds_rejected(self):
        with pytest.raises(MetricsError, match="strictly increasing"):
            Histogram(bounds=[1.0, 1.0, 2.0])

    def test_quantiles_interpolate_and_clamp(self):
        hist = Histogram(bounds=[1.0, 2.0, 4.0])
        for value in (0.25, 0.5, 0.75, 1.0):
            hist.observe(value)
        # all mass in the first bucket: quantiles stay within [min, max]
        assert hist.quantile(0.0) == 0.25
        assert hist.quantile(1.0) == 1.0
        assert 0.25 <= hist.quantile(0.5) <= 1.0
        p = hist.percentiles()
        assert set(p) == {"p50", "p95", "p99"}
        assert p["p50"] <= p["p95"] <= p["p99"]

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_quantile_range_checked(self):
        with pytest.raises(MetricsError, match="quantile"):
            Histogram().quantile(1.5)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_accessors_memoize(self):
        registry = MetricsRegistry()
        assert registry.counter("a/b") is registry.counter("a/b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", "1starts-with-digit", "has space", "colon:no"):
            with pytest.raises(MetricsError, match="invalid metric name"):
                registry.counter(bad)

    def test_cross_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(MetricsError, match="already registered"):
            registry.histogram("x")

    def test_disabled_registry_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        null = registry.counter("a")
        assert registry.gauge("b") is null
        assert registry.histogram("c") is null
        null.inc()
        null.set(1.0)
        null.observe(2.0)
        registry.record_span("d", 1.0)
        assert registry.counters == {}
        assert registry.spans == []
        assert registry.as_dict()["histograms"] == {}

    def test_record_span_lays_tracks_end_to_end(self):
        registry = MetricsRegistry()
        registry.record_span("a", 1.0)
        registry.record_span("b", 2.0)
        registry.record_span("c", 0.5, track="other")
        registry.record_span("d", 0.25, track="other")
        starts = {s.name: s.start for s in registry.spans}
        assert starts == {"a": 0.0, "b": 1.0, "c": 0.0, "d": 0.5}
        # every span feeds the histogram of its own name
        assert registry.histograms["b"].count == 1

    def test_span_limit_bounds_the_log(self):
        registry = MetricsRegistry(span_limit=2)
        for i in range(5):
            registry.record_span(f"s{i}", 1.0)
        assert len(registry.spans) == 2
        # histograms keep counting past the span cap
        assert registry.histograms["s4"].count == 1

    def test_snapshot_pickles_and_is_independent(self):
        registry = MetricsRegistry()
        registry.counter("frames").inc(8)
        registry.histogram("step").observe(0.5)
        registry.record_span("phase", 1.0)
        snapshot = registry.snapshot()
        registry.counter("frames").inc(100)
        registry.histogram("step").observe(0.5)
        assert snapshot.counters["frames"].value == 8
        assert snapshot.histograms["step"].count == 1
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.as_dict() == snapshot.as_dict()


class TestMerge:
    @staticmethod
    def _part(counter, gauge, values, track):
        part = MetricsRegistry()
        part.counter("work").inc(counter)
        part.gauge("peak").set(gauge)
        for value in values:
            part.histogram("step").observe(value)
        part.record_span("phase", values[0], track=track)
        return part

    def test_merge_semantics(self):
        # binary-exact values so float addition cannot blur the assert
        parts = [self._part(2.0, 1.0, [0.25, 0.5], "a"),
                 self._part(3.0, 4.0, [0.75], "b")]
        merged = MetricsRegistry.merge(parts)
        assert merged.counters["work"].value == 5.0
        assert merged.gauges["peak"].value == 4.0  # max, not last
        assert merged.histograms["step"].count == 3
        assert merged.histograms["step"].sum == 1.5
        assert [s.track for s in merged.spans] == ["a", "b"]

    def test_merge_is_associative(self):
        parts = [self._part(2.0, 1.0, [0.25, 0.5], "a"),
                 self._part(3.0, 4.0, [0.75], "b"),
                 self._part(8.0, 2.0, [0.125, 2.0], "c")]
        left = MetricsRegistry.merge(
            [MetricsRegistry.merge(parts[:2]), parts[2]])
        right = MetricsRegistry.merge(
            [parts[0], MetricsRegistry.merge(parts[1:])])
        assert left.as_dict() == right.as_dict()

    def test_absorb_retags_span_tracks(self):
        part = MetricsRegistry()
        part.record_span("inner", 1.0, track="run")
        part.record_span("bare", 1.0)
        merged = MetricsRegistry()
        merged.absorb(part, track="shard0")
        assert [s.track for s in merged.spans] == ["shard0/run", "shard0"]

    def test_mismatched_bounds_refuse_to_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=[1.0, 2.0]).observe(1.0)
        b.histogram("h", bounds=[1.0, 3.0]).observe(1.0)
        with pytest.raises(MetricsError, match="different bounds"):
            a.absorb(b)


# ----------------------------------------------------------------------
# Profiling helpers
# ----------------------------------------------------------------------
class TestProfileHelpers:
    def test_stopwatch_measures(self):
        with stopwatch() as watch:
            sum(range(1000))
        assert watch.seconds > 0

    def test_span_and_time_block_record(self):
        registry = MetricsRegistry()
        with span(registry, "a/b", track="t"):
            pass
        with time_block(registry, "c/d") as watch:
            pass
        assert [s.name for s in registry.spans] == ["a/b", "c/d"]
        assert watch.seconds >= 0

    def test_helpers_noop_without_registry(self):
        with span(None, "a"):
            pass
        with time_block(None, "b") as watch:
            pass
        assert watch.seconds >= 0

    def test_absorb_pass_records_lays_compile_track(self):
        # compile(metrics=) folds each step's pass record into the registry
        registry = MetricsRegistry()
        graph, _ = seeded_benchmark_graph("mnist-mlp-small", 3)
        compiled = ir_compile(graph, DEFAULT_ARCH, metrics=registry)
        spans = [s for s in registry.spans if s.track == "compile"]
        assert len(spans) == len(compiled.trace)
        # sequential: each span starts where the previous one ended
        for earlier, later in zip(spans, spans[1:]):
            assert later.start == pytest.approx(
                earlier.start + earlier.seconds)


# ----------------------------------------------------------------------
# Compile pipeline integration
# ----------------------------------------------------------------------
def test_compile_mirrors_pass_records_into_metrics():
    registry = MetricsRegistry()
    graph, _ = seeded_benchmark_graph("mnist-mlp-small", 3)
    compiled = ir_compile(graph, DEFAULT_ARCH, metrics=registry)
    spans = [s for s in registry.spans if s.track == "compile"]
    assert [s.name for s in spans] == [
        "compile/" + record.name for record in compiled.trace]
    for record in compiled.trace:
        hist = registry.histograms["compile/" + record.name]
        assert hist.count == 1
        assert hist.sum == pytest.approx(record.seconds)


# ----------------------------------------------------------------------
# Backend integration: bit-identity and determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["reference", "vectorized", "split"])
def test_metrics_do_not_change_results(backend):
    """A metrics-on run is bit-identical to a metrics-off run everywhere,
    ``vectorized`` split into frame parts included."""
    program, trains = mlp_bench_case(frames=6, timesteps=5)
    probes = ProbeSet.full()
    split = backend == "split"
    if split:
        backend = "vectorized"
    with forced_split() if split else nullcontext(), \
            create_backend(backend, program) as instance:
        plain = instance.run(trains, probes=probes)
        registry = MetricsRegistry()
        metered = instance.run(trains, probes=probes, metrics=registry)
    assert np.array_equal(plain.spike_counts, metered.spike_counts)
    assert np.array_equal(plain.predictions, metered.predictions)
    assert plain.stats == metered.stats
    assert plain.probes.firing_rates() == metered.probes.firing_rates()
    assert plain.probes.telemetry.as_dict() == \
        metered.probes.telemetry.as_dict()
    # and the run actually produced metrics
    assert registry.counters["schedule/frames"].value == 6.0
    assert registry.counters["schedule/frame_timesteps"].value == 30.0
    assert any(s.name.startswith(f"run/{backend}") for s in registry.spans)


def test_vectorized_metrics_shape():
    """Timestep sampling is bounded and kernels are bucketed by class."""
    program, trains = mlp_bench_case(frames=2,
                                     timesteps=TIMESTEP_SAMPLE_LIMIT + 9)
    registry = MetricsRegistry()
    with create_backend("vectorized", program) as backend:
        backend.run(trains, metrics=registry)
    step = registry.histograms["schedule/timestep"]
    assert step.count == TIMESTEP_SAMPLE_LIMIT
    kernel_names = [name for name in registry.histograms
                    if name.startswith("kernels/")]
    assert kernel_names
    # first timestep only: kernel observations sum to the op count
    assert sum(registry.histograms[name].count for name in kernel_names) == \
        registry.gauges["schedule/ops"].value


@pytest.mark.parametrize("name", SMALL_BUILDERS)
def test_split_metrics_deterministic_across_part_counts(name, rng,
                                                        monkeypatch):
    """Counters and outputs are invariant under the frame-part count."""
    graph, _ = seeded_benchmark_graph(name, 3)
    compiled = ir_compile(graph, DEFAULT_ARCH)
    trains = deterministic_encode(rng.random((6, graph.input_size)), 3)
    monkeypatch.setattr(vectorized, "PART_FRAMES", 1)
    rows = {}
    for parts in (1, 2, 3):
        monkeypatch.setattr(vectorized, "CPUS", parts)
        assert vectorized.part_count(len(trains)) == parts
        registry = MetricsRegistry()
        with create_backend("vectorized", compiled.program) as backend:
            result = backend.run(trains, metrics=registry)
        rows[parts] = (result, registry)
    base_result, base_registry = rows[1]
    base_counters = {k: v.value for k, v in base_registry.counters.items()}
    assert base_counters["schedule/frames"] == 6.0
    assert base_counters["schedule/frame_timesteps"] == 18.0
    for parts in (2, 3):
        result, registry = rows[parts]
        assert np.array_equal(result.spike_counts, base_result.spike_counts)
        assert result.stats == base_result.stats
        counters = {k: v.value for k, v in registry.counters.items()}
        assert counters == base_counters


# ----------------------------------------------------------------------
# OpenMetrics exposition
# ----------------------------------------------------------------------
class TestOpenMetrics:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("schedule/frames").inc(4)
        registry.gauge("schedule/ops").set(18)
        registry.histogram("schedule/timestep").observe(1e-4)
        registry.record_span("run/vectorized/timesteps", 0.5)
        return registry

    def test_render_passes_own_lint(self):
        text = render_openmetrics(self._populated())
        assert validate_openmetrics(text) == []
        assert text.endswith("# EOF\n")
        assert "# TYPE repro_schedule_frames counter" in text
        assert "repro_schedule_frames_total 4" in text
        assert "repro_schedule_timestep_seconds_bucket" in text

    def test_real_run_exposition_is_clean(self):
        program, trains = mlp_bench_case(frames=2, timesteps=3)
        registry = MetricsRegistry()
        with create_backend("vectorized", program) as backend:
            backend.run(trains, metrics=registry)
        assert validate_openmetrics(render_openmetrics(registry)) == []

    def test_bad_prefix_rejected(self):
        with pytest.raises(MetricsError, match="prefix"):
            render_openmetrics(MetricsRegistry(), prefix="7bad")

    def test_sanitization_collisions_detected(self):
        registry = MetricsRegistry()
        registry.counter("a/b").inc()
        registry.counter("a.b").inc()
        with pytest.raises(MetricsError, match="collision"):
            render_openmetrics(registry)

    def test_lint_catches_missing_eof(self):
        assert validate_openmetrics("repro_x 1\n") != []

    def test_lint_catches_undeclared_sample(self):
        text = "repro_x_total 1\n# EOF\n"
        errors = validate_openmetrics(text)
        assert any("no preceding # TYPE" in e for e in errors)

    def test_lint_catches_wrong_counter_suffix(self):
        text = "# TYPE repro_x counter\nrepro_x 1\n# EOF\n"
        errors = validate_openmetrics(text)
        assert any("wrong suffix" in e for e in errors)

    def test_lint_catches_decreasing_buckets(self):
        text = ("# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1"} 5\n'
                'repro_h_bucket{le="2"} 3\n'
                'repro_h_bucket{le="+Inf"} 5\n'
                "repro_h_sum 1\n"
                "repro_h_count 5\n"
                "# EOF\n")
        errors = validate_openmetrics(text)
        assert any("decreases" in e for e in errors)

    def test_lint_catches_inf_count_mismatch(self):
        text = ("# TYPE repro_h histogram\n"
                'repro_h_bucket{le="+Inf"} 4\n'
                "repro_h_sum 1\n"
                "repro_h_count 5\n"
                "# EOF\n")
        errors = validate_openmetrics(text)
        assert any("!= count" in e for e in errors)


# ----------------------------------------------------------------------
# Chrome trace wall-clock track
# ----------------------------------------------------------------------
def test_chrome_trace_gains_wallclock_track_and_keeps_cycle_tracks():
    graph, rng = seeded_benchmark_graph("mnist-mlp-small", 3)
    registry = MetricsRegistry()
    compiled = ir_compile(graph, DEFAULT_ARCH, metrics=registry)
    trains = deterministic_encode(rng.random((2, graph.input_size)), 3)
    with create_backend("vectorized", compiled.program) as backend:
        result = backend.run(trains, probes=ProbeSet.full(),
                             metrics=registry)

    bare = Trace.from_compiled(compiled, probes=result.probes, timesteps=3)
    with_clock = Trace.from_compiled(compiled, probes=result.probes,
                                     timesteps=3, wallclock=registry)
    payload = with_clock.to_chrome_trace()
    assert validate_chrome_trace(payload) == []

    wallclock = [e for e in payload["traceEvents"]
                 if e["pid"] == WALLCLOCK_PID and e["ph"] == "X"]
    assert wallclock
    span_names = {e["name"] for e in wallclock}
    assert any(name.startswith("compile/") for name in span_names)
    assert "run/vectorized/timesteps" in span_names
    # the cycle-priced execution track is untouched by the new pid
    cycle_events = [e for e in payload["traceEvents"]
                    if e["pid"] == EXECUTION_PID]
    bare_cycles = [e for e in bare.to_chrome_trace()["traceEvents"]
                   if e["pid"] == EXECUTION_PID]
    assert cycle_events == bare_cycles
    # the wallclock registry also lands in the structured metrics
    assert with_clock.metrics()["wallclock"] == registry.as_dict()
    assert "wallclock" not in bare.metrics()


# ----------------------------------------------------------------------
# Experiment pipeline
# ----------------------------------------------------------------------
def test_experiment_config_metrics_flag():
    from repro.apps.networks import build_mnist_mlp_small
    from repro.apps.pipeline import ExperimentConfig, run_experiment

    config = ExperimentConfig(
        name="metrics-e2e",
        model_builder=lambda: build_mnist_mlp_small(hidden=16),
        dataset="mnist", timesteps=4, target_fps=40,
        train_epochs=1, train_size=48, test_size=12,
        hardware_frames=2, seed=0, metrics=True,
    )
    result = run_experiment(config)
    payload = result.metadata["metrics"]
    assert payload is not None
    assert payload["counters"]["schedule/frames"] == 2.0
    names = {s["name"] for s in payload["spans"]}
    assert "pipeline/mapping" in names
    assert any(name.startswith("compile/") for name in names)
    assert result.mapping_time_ms > 0
    # off by default: no registry is threaded through
    off = ExperimentConfig(
        name="metrics-off",
        model_builder=lambda: build_mnist_mlp_small(hidden=16),
        dataset="mnist", timesteps=4, target_fps=40,
        train_epochs=1, train_size=48, test_size=12,
        hardware_frames=0, seed=0,
    )
    assert run_experiment(off).metadata["metrics"] is None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestObsCli:
    def _run(self, capsys, *extra):
        from repro.obs.__main__ import main

        code = main(["mnist-mlp-small", "--frames", "2",
                     "--timesteps", "3", *extra])
        assert code == 0
        return capsys.readouterr().out

    def test_json_report(self, capsys):
        out = self._run(capsys, "--json", "--metrics")
        payload = json.loads(out)
        assert payload["network"] == "mnist-mlp-small"
        assert payload["metrics"]["counters"]["schedule/frames"] == 2.0
        assert payload["trace"]["wallclock"] == payload["metrics"]

    def test_top_renders_ranked_list(self, capsys):
        out = self._run(capsys, "--top", "3")
        assert "top" in out
        assert "of peak" in out

    def test_openmetrics_export(self, capsys, tmp_path):
        target = tmp_path / "metrics.om"
        self._run(capsys, "--openmetrics", str(target))
        text = target.read_text()
        assert validate_openmetrics(text) == []

    def test_chrome_trace_with_metrics_validates(self, capsys, tmp_path):
        target = tmp_path / "trace.json"
        self._run(capsys, "--metrics", "--chrome-trace", str(target))
        payload = json.loads(target.read_text())
        assert validate_chrome_trace(payload) == []
        assert any(e.get("pid") == WALLCLOCK_PID
                   for e in payload["traceEvents"])
