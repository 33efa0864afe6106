"""Tests for :mod:`repro.obs` — probes, NoC telemetry, unified traces.

The load-bearing contract: probe results are **bit-identical** across the
``reference``, ``vectorized`` and ``sharded`` backends for every small
benchmark builder (checked through ``assert_backend_parity``), attaching
no probes is a behavioural no-op, the observed NoC link traffic matches
the cost model's prediction exactly, and the exported Chrome trace
validates against the ``trace_event`` schema.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.apps.networks import ALL_BUILDERS
from repro.bench import mlp_bench_case
from repro.core.config import DEFAULT_ARCH
from repro.engine import assert_backend_parity, create_backend
from repro.ir import compile as ir_compile
from repro.obs import (
    NocTelemetry,
    ProbeError,
    ProbeResult,
    ProbeSet,
    ProbeSpec,
    Trace,
    compare_link_traffic,
    link_key_str,
    probe_points,
    render_link_heatmap,
    validate_chrome_trace,
)
from repro.opt.cost import predicted_link_traffic
from repro.snn.conversion import ConversionConfig, convert_ann_to_graph
from repro.snn.encoding import deterministic_encode

SMALL_BUILDERS = sorted(name for name in ALL_BUILDERS
                        if name.endswith("-small"))

ALL_BACKENDS = ("reference", "vectorized", "sharded")


def _graph_for(name, rng, timesteps=5):
    model = ALL_BUILDERS[name]()
    calibration = rng.random((4,) + model.input_shape)
    config = ConversionConfig(timesteps=timesteps, max_calibration_samples=4)
    return convert_ann_to_graph(model, calibration, config)


def _probed_run(program, trains, backend="vectorized",
                probes=None, **options):
    with create_backend(backend, program, **options) as instance:
        return instance.run(trains, probes=probes)


# ----------------------------------------------------------------------
# ProbeSet / ProbeSpec basics
# ----------------------------------------------------------------------
class TestProbeSet:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ProbeError, match="unknown probe kind"):
            ProbeSpec("voltage")

    def test_empty_set_is_falsy(self):
        assert not ProbeSet()
        assert ProbeSet.firing_rates()
        assert ProbeSet(noc=True)
        assert ProbeSet.full()

    def test_unknown_layer_rejected_at_resolve(self):
        program, _ = mlp_bench_case(frames=2, timesteps=2)
        with pytest.raises(ProbeError, match="no-such-layer"):
            ProbeSet.firing_rates("no-such-layer").resolve(program)

    def test_probe_points_cover_every_layer(self):
        program, _ = mlp_bench_case(frames=2, timesteps=2)
        points = {point.name: point for point in probe_points(program)}
        assert set(points) == {"fc1", "fc2"}
        assert points["fc1"].size == 24
        assert points["fc2"].size == 5
        assert points["fc1"].acc_tiles and points["fc2"].acc_tiles


# ----------------------------------------------------------------------
# Cross-backend bit-exactness (the tentpole contract)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SMALL_BUILDERS)
def test_probe_parity_across_backends(name, rng):
    """Full probes agree bit-for-bit on all three backends, every builder."""
    graph = _graph_for(name, rng)
    compiled = ir_compile(graph, DEFAULT_ARCH)
    trains = deterministic_encode(rng.random((3, graph.input_size)),
                                  graph.timesteps)
    assert_backend_parity(compiled.program, trains, backends=ALL_BACKENDS,
                          probes=ProbeSet.full())


def test_probe_parity_on_optimized_program(rng):
    """Probes also agree on a NoC-optimized program (dead ops removed)."""
    graph = _graph_for(SMALL_BUILDERS[0], rng)
    compiled = ir_compile(graph, DEFAULT_ARCH, optimize_noc=True)
    trains = deterministic_encode(rng.random((2, graph.input_size)),
                                  graph.timesteps)
    assert_backend_parity(compiled.program, trains, backends=ALL_BACKENDS,
                          probes=ProbeSet.full())


def test_sharded_multi_shard_merge_matches_vectorized():
    """Frame-axis merge across >1 shard reproduces the vectorized arrays."""
    program, trains = mlp_bench_case(frames=5, timesteps=6)
    probes = ProbeSet.full()
    vectorized = _probed_run(program, trains, "vectorized", probes=probes)
    sharded = _probed_run(program, trains, "sharded", probes=probes,
                          workers=2)
    for attr in ("spikes", "potentials", "acc_active"):
        ours = getattr(sharded.probes, attr)
        theirs = getattr(vectorized.probes, attr)
        assert set(ours) == set(theirs)
        for layer in ours:
            np.testing.assert_array_equal(ours[layer], theirs[layer])
    assert sharded.probes.telemetry.as_dict() == \
        vectorized.probes.telemetry.as_dict()


# ----------------------------------------------------------------------
# No-probe behaviour
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_no_probes_is_a_noop(backend, monkeypatch):
    """probes=None and an empty ProbeSet both attach nothing at all: no
    backend even resolves probe points (``resolve`` raises here), so
    detached probes cost nothing by construction rather than by timing."""
    def refuse(self, program):
        raise AssertionError("detached probes were resolved")

    monkeypatch.setattr(ProbeSet, "resolve", refuse)
    program, trains = mlp_bench_case(frames=3, timesteps=4)
    plain = _probed_run(program, trains, backend)
    empty = _probed_run(program, trains, backend, probes=ProbeSet())
    assert plain.probes is None
    assert empty.probes is None
    np.testing.assert_array_equal(plain.spike_counts, empty.spike_counts)


def test_probed_run_does_not_perturb_outputs():
    program, trains = mlp_bench_case(frames=3, timesteps=4)
    plain = _probed_run(program, trains, "vectorized")
    probed = _probed_run(program, trains, "vectorized",
                         probes=ProbeSet.full())
    np.testing.assert_array_equal(plain.spike_counts, probed.spike_counts)
    assert plain.stats.summary() == probed.stats.summary()


# ----------------------------------------------------------------------
# Probe result content
# ----------------------------------------------------------------------
class TestProbeResult:
    @pytest.fixture(scope="class")
    def probed(self):
        program, trains = mlp_bench_case(frames=4, timesteps=6)
        return _probed_run(program, trains, "vectorized",
                           probes=ProbeSet.full())

    def test_shapes_and_dtypes(self, probed):
        result = probed.probes
        assert result.frames == 4 and result.timesteps == 6
        assert result.spikes["fc2"].shape == (4, 6)
        assert result.potentials["fc2"].shape == (4, 6, 5)
        assert result.acc_active["fc1"].shape == (4, 6)
        for array in (result.spikes["fc1"], result.potentials["fc1"],
                      result.acc_active["fc1"]):
            assert array.dtype == np.int64

    def test_spike_probe_matches_result_counts(self, probed):
        """The output layer's probed spikes sum to the run's spike counts."""
        per_frame = probed.probes.spikes["fc2"].sum(axis=1)
        np.testing.assert_array_equal(per_frame,
                                      probed.spike_counts.sum(axis=1))

    def test_firing_rates_normalised(self, probed):
        rates = probed.probes.firing_rates()
        totals = probed.probes.spike_totals()
        assert rates["fc2"] == totals["fc2"] / (4 * 6 * 5)
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())

    def test_summary_is_json_able(self, probed):
        summary = probed.probes.summary()
        round_trip = json.loads(json.dumps(summary))
        assert round_trip["frames"] == 4
        assert set(round_trip["firing_rates"]) == {"fc1", "fc2"}
        assert "noc" in round_trip

    def test_describe_mentions_every_layer(self, probed):
        text = probed.probes.describe()
        assert "fc1" in text and "fc2" in text

    def test_layer_filtered_probe(self):
        program, trains = mlp_bench_case(frames=2, timesteps=3)
        result = _probed_run(program, trains, "vectorized",
                             probes=ProbeSet.firing_rates("fc2"))
        assert set(result.probes.spikes) == {"fc2"}
        assert result.probes.potentials == {}
        assert result.probes.telemetry is None

    def test_concat_rejects_nothing(self):
        with pytest.raises(ProbeError):
            ProbeResult.concat([])


# ----------------------------------------------------------------------
# NoC telemetry vs the cost model
# ----------------------------------------------------------------------
@pytest.mark.parametrize("optimize", [False, True],
                         ids=["default", "optimized"])
def test_observed_link_traffic_matches_prediction(rng, optimize):
    """predicted_link_traffic (cost model) == observed telemetry, exactly."""
    graph = _graph_for(SMALL_BUILDERS[0], rng)
    compiled = ir_compile(graph, DEFAULT_ARCH, optimize_noc=optimize)
    trains = deterministic_encode(rng.random((2, graph.input_size)),
                                  graph.timesteps)
    result = _probed_run(compiled.program, trains, "vectorized",
                         probes=ProbeSet(noc=True))
    drift = compare_link_traffic(predicted_link_traffic(compiled.routes),
                                 result.probes.telemetry)
    assert drift["mismatches"] == [], drift
    assert drift["max_abs_drift"] == 0.0
    assert drift["links_predicted"] == drift["links_observed"] > 0


def test_telemetry_scales_with_batch_geometry():
    """Per-timestep link traffic is batch invariant; totals scale with it."""
    program, small_trains = mlp_bench_case(frames=2, timesteps=4)
    _, large_trains = mlp_bench_case(frames=6, timesteps=4)
    probes = ProbeSet(noc=True)
    small = _probed_run(program, small_trains, "vectorized",
                        probes=probes).probes.telemetry
    large = _probed_run(program, large_trains, "vectorized",
                        probes=probes).probes.telemetry
    assert small.per_timestep_link_packets() == \
        large.per_timestep_link_packets()
    assert large.summary()["total_packets"] == \
        3 * small.summary()["total_packets"]


def test_heatmap_renders_a_grid():
    program, trains = mlp_bench_case(frames=2, timesteps=3)
    telemetry = _probed_run(program, trains, "vectorized",
                            probes=ProbeSet(noc=True)).probes.telemetry
    text = render_link_heatmap(telemetry.tile_loads(), program.rows,
                               program.cols, title="test heatmap")
    lines = text.splitlines()
    assert "test heatmap" in lines[0]
    assert len(lines) >= program.rows


def test_telemetry_as_dict_keys_are_strings():
    program, trains = mlp_bench_case(frames=2, timesteps=3)
    telemetry = _probed_run(program, trains, "vectorized",
                            probes=ProbeSet(noc=True)).probes.telemetry
    payload = json.loads(json.dumps(telemetry.as_dict()))
    assert payload["link_packets"]
    for key in payload["link_packets"]:
        assert isinstance(key, str) and key.count(":") == 2
    assert all(link_key_str(key) in payload["link_packets"]
               for key in telemetry.link_packets)


def test_merge_rejects_mismatched_timesteps():
    a = NocTelemetry(frames=1, timesteps=2, link_packets={}, link_lanes={},
                     group_packets=())
    b = NocTelemetry(frames=1, timesteps=3, link_packets={}, link_lanes={},
                     group_packets=())
    with pytest.raises(ValueError):
        NocTelemetry.merge([a, b])


# ----------------------------------------------------------------------
# Unified trace export
# ----------------------------------------------------------------------
class TestTrace:
    @pytest.fixture(scope="class")
    def compiled(self):
        rng = np.random.default_rng(7)
        graph = _graph_for(SMALL_BUILDERS[0], rng, timesteps=4)
        return ir_compile(graph, DEFAULT_ARCH)

    def test_chrome_trace_validates(self, compiled):
        trace = Trace.from_compiled(compiled)
        payload = trace.to_chrome_trace()
        assert validate_chrome_trace(payload) == []

    def test_trace_spans_compile_and_execution(self, compiled):
        events = Trace.from_compiled(compiled).to_chrome_trace()["traceEvents"]
        categories = {event.get("cat") for event in events}
        assert {"compile", "execution"} <= categories
        pass_names = {event["name"] for event in events
                      if event.get("cat") == "compile"}
        assert {record.name for record in compiled.trace} == pass_names
        # one execution slice per non-empty layer stage per timestep
        steps = {event["args"]["timestep"] for event in events
                 if event.get("cat") == "execution"}
        assert steps == set(range(compiled.timing.timesteps))

    def test_save_round_trips(self, compiled, tmp_path):
        target = tmp_path / "trace.json"
        Trace.from_compiled(compiled).save(target)
        payload = json.loads(target.read_text())
        assert validate_chrome_trace(payload) == []

    def test_metrics_structure(self, compiled):
        metrics = Trace.from_compiled(compiled).metrics()
        assert metrics["compile"]["total_seconds"] > 0
        assert [p["name"] for p in metrics["compile"]["passes"]] == \
            [record.name for record in compiled.trace]
        assert metrics["execution"]["cycles_per_timestep"] > 0
        json.dumps(metrics)  # JSON-able throughout

    def test_validator_flags_broken_payloads(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []
        negative = {"traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": -1, "dur": 2}]}
        assert any("non-negative" in error
                   for error in validate_chrome_trace(negative))
        empty = {"traceEvents": [
            {"name": "m", "ph": "M", "pid": 1, "tid": 0, "args": {}}]}
        assert any("no complete" in error
                   for error in validate_chrome_trace(empty))


def test_obs_cli_prints_report_and_writes_trace(tmp_path, capsys):
    from repro.obs.__main__ import main as obs_main

    target = tmp_path / "trace.json"
    assert obs_main(["mnist-mlp-small", "--frames", "1", "--timesteps", "2",
                     "--chrome-trace", str(target)]) == 0
    out = capsys.readouterr().out
    assert "cost model drift: 0 mismatched" in out
    assert "compile trace" in out
    payload = json.loads(target.read_text())
    assert validate_chrome_trace(payload) == []


# ----------------------------------------------------------------------
# The bench gate's firing row
# ----------------------------------------------------------------------
@pytest.fixture
def firing_row_only(monkeypatch):
    """The bench table cut to its ``firing`` row, measured by a fake that
    returns ``state["rates"]``."""
    import repro.bench as bench

    state = {"rates": {"net.fc1": 0.125, "net.fc2": 0.5}, "calls": 0}

    def measure(**geometry):
        state["calls"] += 1
        return dict(state["rates"])

    row = next(row for row in bench.ROWS if row.name == "firing")
    monkeypatch.setattr(bench, "ROWS", (replace(row, measure=measure),))
    return state


class TestObsBenchGate:
    def _verdicts(self, current):
        from repro.bench import gate

        committed = {"net.fc1": 0.125, "net.fc2": 0.5}
        return {key: state for _, key, _, _, state in
                gate({"firing": current}, {"firing": committed})}

    def test_identical_sections_pass(self, firing_row_only):
        rates = {"net.fc1": 0.125, "net.fc2": 0.5}
        assert set(self._verdicts(json.loads(json.dumps(rates))).values()) \
            == {"ok"}

    def test_firing_rate_drift_flagged(self, firing_row_only):
        verdicts = self._verdicts({"net.fc1": 0.125,
                                   "net.fc2": float(np.nextafter(0.5, 1.0))})
        assert verdicts == {"net.fc1": "ok", "net.fc2": "FAIL"}

    def test_missing_layer_flagged(self, firing_row_only):
        assert self._verdicts({"net.fc1": 0.125})["net.fc2"] == "FAIL"


class TestObsCheckCli:
    """--check wiring of the firing row (measurement monkeypatched)."""

    def _baseline(self, tmp_path, rates):
        import repro.bench as bench

        path = tmp_path / "BENCH_engine.json"
        bench.write_bench_report({"firing": rates}, path)
        return path

    def test_check_gates_obs_section(self, tmp_path, firing_row_only):
        import repro.bench.__main__ as bench_main

        baseline = self._baseline(tmp_path, dict(firing_row_only["rates"]))
        assert bench_main.main(["--check", str(baseline)]) == 0
        assert firing_row_only["calls"] == 1

    def test_check_fails_on_committed_drift(self, tmp_path, firing_row_only):
        import repro.bench.__main__ as bench_main

        drifted = dict(firing_row_only["rates"], **{"net.fc1": 0.75})
        baseline = self._baseline(tmp_path, drifted)
        assert bench_main.main(["--check", str(baseline)]) == 1


# ----------------------------------------------------------------------
# Experiment pipeline integration
# ----------------------------------------------------------------------
def test_experiment_pipeline_records_probe_summary():
    from repro.apps.networks import build_mnist_mlp_small
    from repro.apps.pipeline import ExperimentConfig, run_experiment

    config = ExperimentConfig(
        name="probe-e2e",
        model_builder=lambda: build_mnist_mlp_small(hidden=16),
        dataset="mnist", timesteps=6, target_fps=40,
        train_epochs=1, train_size=120, test_size=20,
        hardware_frames=3, backend="vectorized", seed=1, probes=True,
    )
    result = run_experiment(config)
    assert result.hardware_matches_abstract is True
    summary = result.metadata["probes"]
    assert summary["frames"] == 3
    assert summary["firing_rates"]
    assert summary["noc"]["total_packets"] > 0
    json.dumps(summary)
