"""Tests for the ``python -m repro.bench --check`` regression gate."""

import json

import pytest

import repro.bench as bench
import repro.bench.__main__ as bench_main
from repro.bench import check_metrics_regression, check_noc_regression, \
    check_regression, check_resilience_regression, check_serving, \
    check_timing_regression, load_bench_report


def _throughput(**fps):
    return {
        "backends": {
            name: {"seconds": 1.0 / value, "frames_per_sec": value}
            for name, value in fps.items()
        },
    }


class TestCheckRegression:
    def test_no_regression_within_tolerance(self):
        current = _throughput(reference=80.0, vectorized=900.0)
        committed = _throughput(reference=100.0, vectorized=1000.0)
        assert check_regression(current, committed, tolerance=0.25) == []

    def test_regression_beyond_tolerance_flagged(self):
        current = _throughput(vectorized=700.0)
        committed = _throughput(vectorized=1000.0)
        failures = check_regression(current, committed, tolerance=0.25)
        assert len(failures) == 1
        assert "vectorized" in failures[0]

    def test_exactly_at_floor_passes(self):
        current = _throughput(vectorized=750.0)
        committed = _throughput(vectorized=1000.0)
        assert check_regression(current, committed, tolerance=0.25) == []

    def test_new_and_removed_backends_skipped(self):
        current = _throughput(new_backend=1.0, shared=100.0)
        committed = _throughput(old_backend=9999.0, shared=100.0)
        assert check_regression(current, committed) == []

    def test_improvements_never_fail(self):
        current = _throughput(vectorized=5000.0)
        committed = _throughput(vectorized=1000.0)
        assert check_regression(current, committed) == []

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            check_regression(_throughput(), _throughput(), tolerance=1.5)


class TestLoadBenchReport:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="python -m repro.bench"):
            load_bench_report(tmp_path / "BENCH_engine.json")

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="corrupt"):
            load_bench_report(path)


class TestCheckCli:
    """CLI exit codes, with the measurement monkeypatched for speed."""

    @pytest.fixture
    def fake_measure(self, monkeypatch):
        def measure(frames=64, timesteps=16, repeats=5, check_parity=True):
            return _throughput(reference=100.0, vectorized=1000.0,
                               sharded=1500.0)
        monkeypatch.setattr(bench_main, "measure_throughput", measure)
        return measure

    def _write_baseline(self, tmp_path, throughput):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(
            {"schema": 1, "git_rev": "abc1234", "throughput": throughput}))
        return path

    def test_check_passes_against_equal_baseline(self, tmp_path, fake_measure,
                                                 capsys):
        baseline = self._write_baseline(
            tmp_path, _throughput(reference=100.0, vectorized=1000.0))
        code = bench_main.main(["--check", "--baseline", str(baseline)])
        assert code == 0
        assert "bench check OK" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tmp_path, fake_measure, capsys):
        baseline = self._write_baseline(
            tmp_path, _throughput(vectorized=10_000.0))
        code = bench_main.main(["--check", "--baseline", str(baseline)])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_check_tolerance_flag(self, tmp_path, fake_measure):
        # measured 1000 vs committed 1100: fails at 5%, passes at 25%
        baseline = self._write_baseline(
            tmp_path, _throughput(vectorized=1100.0))
        assert bench_main.main(["--check", "--baseline", str(baseline),
                                "--tolerance", "0.05"]) == 1
        assert bench_main.main(["--check", "--baseline", str(baseline),
                                "--tolerance", "0.25"]) == 0

    def test_check_measures_with_committed_geometry(self, tmp_path,
                                                    monkeypatch):
        seen = {}

        def measure(frames=64, timesteps=16, repeats=5, check_parity=True):
            seen["frames"], seen["timesteps"] = frames, timesteps
            return _throughput(vectorized=1000.0)
        monkeypatch.setattr(bench_main, "measure_throughput", measure)
        throughput = _throughput(vectorized=1000.0)
        throughput.update({"frames": 32, "timesteps": 8})
        baseline = self._write_baseline(tmp_path, throughput)
        assert bench_main.main(["--check", "--baseline", str(baseline)]) == 0
        assert seen == {"frames": 32, "timesteps": 8}

    def test_check_rejects_mismatched_geometry(self, tmp_path, fake_measure,
                                               capsys):
        throughput = _throughput(vectorized=1000.0)
        throughput.update({"frames": 64, "timesteps": 16})
        baseline = self._write_baseline(tmp_path, throughput)
        code = bench_main.main(["--check", "--baseline", str(baseline),
                                "--frames", "8"])
        assert code == 2
        assert "not be comparable" in capsys.readouterr().err

    def test_check_missing_baseline_exits_2(self, tmp_path, fake_measure,
                                            capsys):
        code = bench_main.main(
            ["--check", "--baseline", str(tmp_path / "missing.json")])
        assert code == 2

    def test_check_baseline_without_throughput_exits_2(self, tmp_path,
                                                       fake_measure):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps({"schema": 1}))
        assert bench_main.main(["--check", "--baseline", str(path)]) == 2

    def test_check_does_not_rewrite_baseline(self, tmp_path, fake_measure):
        baseline = self._write_baseline(
            tmp_path, _throughput(reference=100.0))
        before = baseline.read_text()
        bench_main.main(["--check", "--baseline", str(baseline)])
        assert baseline.read_text() == before


def _noc_section(wave_depth=1500, total_hops=20000, reduction=0.40,
                 required=0.20):
    return {
        "timesteps": 8,
        "seed": 0,
        "required_reduction": required,
        "networks": {
            "mnist-inception": {
                "default": {"wave_depth": 2500, "total_hops": 56000},
                "optimized": {"wave_depth": wave_depth,
                              "total_hops": total_hops},
                "reduction": {"wave_depth": reduction, "total_hops": 0.6},
            },
        },
    }


class TestCheckNocRegression:
    def test_identical_metrics_pass(self):
        assert check_noc_regression(_noc_section(), _noc_section()) == []

    def test_wave_depth_regression_flagged(self):
        failures = check_noc_regression(
            _noc_section(wave_depth=2200), _noc_section(wave_depth=1500),
            tolerance=0.25)
        assert len(failures) == 1
        assert "wave_depth" in failures[0]

    def test_hop_regression_flagged(self):
        failures = check_noc_regression(
            _noc_section(total_hops=30000), _noc_section(total_hops=20000),
            tolerance=0.25)
        assert any("total_hops" in line for line in failures)

    def test_reduction_floor_enforced(self):
        failures = check_noc_regression(
            _noc_section(reduction=0.12), _noc_section(required=0.20))
        assert any("below the required" in line for line in failures)

    def test_improvements_never_fail(self):
        current = _noc_section(wave_depth=900, total_hops=9000,
                               reduction=0.6)
        assert check_noc_regression(current, _noc_section()) == []

    def test_unknown_networks_skipped(self):
        current = _noc_section()
        current["networks"] = {"other-net": current["networks"].pop(
            "mnist-inception")}
        assert check_noc_regression(current, _noc_section()) == []

    def test_cli_gates_on_noc_section(self, tmp_path, monkeypatch, capsys):
        """A committed noc section pulls the NoC gate into --check."""
        def fake_throughput(frames=64, timesteps=16, repeats=5,
                            check_parity=True):
            return _throughput(reference=100.0)

        def fake_noc(networks=(), timesteps=8, seed=0):
            return _noc_section(reduction=0.05)

        monkeypatch.setattr(bench_main, "measure_throughput", fake_throughput)
        monkeypatch.setattr(bench_main, "measure_noc", fake_noc)
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps({
            "schema": 1,
            "throughput": _throughput(reference=100.0),
            "noc": _noc_section(),
        }))
        code = bench_main.main(["--check", "--baseline", str(path)])
        assert code == 1
        assert "below the required" in capsys.readouterr().out
        # --skip-noc drops the gate
        assert bench_main.main(["--check", "--baseline", str(path),
                                "--skip-noc"]) == 0


def _timing_section(default_error=0.0, optimized_error=0.0, tolerance=0.10,
                    default_cycles=11000, optimized_cycles=9000):
    return {
        "timesteps": 4,
        "frames": 2,
        "seed": 0,
        "tolerance": tolerance,
        "networks": {
            "mnist-inception-small": {
                "default": {"estimated_cycles": default_cycles,
                            "simulated_cycles": 11000,
                            "relative_error": default_error},
                "optimized": {"estimated_cycles": optimized_cycles,
                              "simulated_cycles": 9000,
                              "relative_error": optimized_error},
            },
        },
    }


class TestCheckTimingRegression:
    def test_exact_model_passes(self):
        assert check_timing_regression(_timing_section(),
                                       _timing_section()) == []

    def test_error_beyond_tolerance_flagged(self):
        failures = check_timing_regression(
            _timing_section(optimized_error=0.15),
            _timing_section(tolerance=0.10))
        assert len(failures) == 1
        assert "optimized" in failures[0] and "tolerance" in failures[0]

    def test_error_at_tolerance_passes(self):
        assert check_timing_regression(
            _timing_section(default_error=0.10),
            _timing_section(tolerance=0.10)) == []

    def test_committed_tolerance_wins(self):
        # the gate uses the committed tolerance, not the fresh section's
        current = _timing_section(default_error=0.15, tolerance=0.50)
        failures = check_timing_regression(current,
                                           _timing_section(tolerance=0.10))
        assert len(failures) == 1

    def test_optimized_not_below_default_flagged(self):
        current = _timing_section(default_cycles=9000, optimized_cycles=9000)
        failures = check_timing_regression(current, _timing_section())
        assert any("not below default" in line for line in failures)

    def test_unknown_networks_skipped(self):
        current = _timing_section()
        current["networks"] = {"other-net": current["networks"].pop(
            "mnist-inception-small")}
        assert check_timing_regression(current, _timing_section()) == []

    def test_cli_gates_on_timing_section(self, tmp_path, monkeypatch, capsys):
        """A committed timing section pulls the timing gate into --check."""
        def fake_throughput(frames=64, timesteps=16, repeats=5,
                            check_parity=True):
            return _throughput(reference=100.0)

        def fake_timing(networks=(), timesteps=4, frames=2, seed=0):
            return _timing_section(optimized_error=0.2)

        monkeypatch.setattr(bench_main, "measure_throughput", fake_throughput)
        monkeypatch.setattr(bench_main, "measure_timing", fake_timing)
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps({
            "schema": 1,
            "throughput": _throughput(reference=100.0),
            "timing": _timing_section(),
        }))
        code = bench_main.main(["--check", "--baseline", str(path)])
        assert code == 1
        assert "tolerance" in capsys.readouterr().out
        # --skip-timing drops the gate
        assert bench_main.main(["--check", "--baseline", str(path),
                                "--skip-timing"]) == 0


def _resilience_section(unsupervised=1000.0, supervised=980.0,
                        recovered=True, max_overhead=0.05):
    return {
        "frames": 32,
        "timesteps": 4,
        "max_overhead": max_overhead,
        "workers": 2,
        "policy": {"shard_timeout": 60.0, "max_retries": 2, "backoff": 0.05,
                   "backoff_cap": 2.0, "run_deadline": None},
        "unsupervised": {"seconds": 32.0 / unsupervised,
                         "frames_per_sec": unsupervised},
        "supervised": {"seconds": 32.0 / supervised,
                       "frames_per_sec": supervised,
                       "overhead_ratio": unsupervised / supervised - 1.0},
        "recovery": {"fault": "crash", "seconds": 0.05,
                     "recovered_bit_exact": recovered,
                     "events": {"crash": 1, "retry": 1}},
    }


class TestCheckResilienceRegression:
    def test_identical_sections_pass(self):
        assert check_resilience_regression(_resilience_section(),
                                           _resilience_section()) == []

    def test_supervision_overhead_beyond_ceiling_flagged(self):
        failures = check_resilience_regression(
            _resilience_section(supervised=900.0),
            _resilience_section(unsupervised=1000.0))
        assert len(failures) == 1
        assert "supervised throughput" in failures[0]

    def test_supervision_overhead_at_ceiling_passes(self):
        assert check_resilience_regression(
            _resilience_section(supervised=950.0),
            _resilience_section(unsupervised=1000.0, max_overhead=0.05)) == []

    def test_improvements_never_fail(self):
        assert check_resilience_regression(
            _resilience_section(supervised=2000.0),
            _resilience_section(unsupervised=1000.0)) == []

    def test_committed_ceiling_wins(self):
        # the gate reads max_overhead from the committed section
        current = _resilience_section(supervised=850.0, max_overhead=0.50)
        assert check_resilience_regression(
            current, _resilience_section(unsupervised=1000.0,
                                         max_overhead=0.05)) != []
        assert check_resilience_regression(
            current, _resilience_section(unsupervised=1000.0,
                                         max_overhead=0.20)) == []

    def test_failed_recovery_flagged(self):
        failures = check_resilience_regression(
            _resilience_section(recovered=False), _resilience_section())
        assert any("did not recover bit-exactly" in line for line in failures)

    def test_cli_gates_on_resilience_section(self, tmp_path, monkeypatch,
                                             capsys):
        """A committed resilience section pulls the gate into --check."""
        seen = {}

        def fake_throughput(frames=64, timesteps=16, repeats=5,
                            check_parity=True):
            return _throughput(reference=100.0)

        def fake_resilience(frames=64, timesteps=16, repeats=5):
            seen["frames"], seen["timesteps"] = frames, timesteps
            return _resilience_section(supervised=500.0)

        monkeypatch.setattr(bench_main, "measure_throughput", fake_throughput)
        monkeypatch.setattr(bench_main, "measure_resilience", fake_resilience)
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps({
            "schema": 1,
            "throughput": _throughput(reference=100.0),
            "resilience": _resilience_section(unsupervised=1000.0),
        }))
        code = bench_main.main(["--check", "--baseline", str(path)])
        assert code == 1
        assert "supervised throughput" in capsys.readouterr().out
        # the fresh measurement reuses the committed geometry
        assert seen == {"frames": 32, "timesteps": 4}
        # --skip-resilience drops the gate
        assert bench_main.main(["--check", "--baseline", str(path),
                                "--skip-resilience"]) == 0


def _metrics_section(metrics_off=1000.0, metrics_on=980.0, max_overhead=0.05):
    return {
        "frames": 64,
        "timesteps": 16,
        "max_overhead": max_overhead,
        "overhead": {
            "metrics_off": {"seconds": 64.0 / metrics_off,
                            "frames_per_sec": metrics_off},
            "metrics_on": {"seconds": 64.0 / metrics_on,
                           "frames_per_sec": metrics_on},
            "overhead_ratio": metrics_off / metrics_on - 1.0,
        },
        "histograms": {
            "schedule/timestep": {"count": 16, "sum": 0.001,
                                  "p50": 6e-5, "p95": 9e-5, "p99": 9e-5},
        },
    }


class TestCheckMetricsRegression:
    def test_identical_sections_pass(self):
        assert check_metrics_regression(_metrics_section(),
                                        _metrics_section()) == []

    def test_overhead_beyond_ceiling_flagged(self):
        failures = check_metrics_regression(
            _metrics_section(metrics_on=900.0),
            _metrics_section(metrics_off=1000.0))
        assert len(failures) == 1
        assert "metrics-on throughput" in failures[0]

    def test_overhead_at_ceiling_passes(self):
        assert check_metrics_regression(
            _metrics_section(metrics_on=950.0),
            _metrics_section(metrics_off=1000.0, max_overhead=0.05)) == []

    def test_improvements_never_fail(self):
        assert check_metrics_regression(
            _metrics_section(metrics_on=2000.0),
            _metrics_section(metrics_off=1000.0)) == []

    def test_machine_drift_is_normalized_out(self):
        # a box uniformly half as fast as the baseline machine: absolute
        # frames/sec cratered, but the interleaved ratio (2%) is fine
        assert check_metrics_regression(
            _metrics_section(metrics_off=500.0, metrics_on=490.0),
            _metrics_section(metrics_off=1000.0)) == []
        # ... and a faster box does not launder a real overhead (10%)
        failures = check_metrics_regression(
            _metrics_section(metrics_off=2000.0, metrics_on=1800.0),
            _metrics_section(metrics_off=1000.0))
        assert len(failures) == 1
        assert "machine-normalized" in failures[0]

    def test_committed_ceiling_wins(self):
        # the gate reads max_overhead from the committed section
        current = _metrics_section(metrics_on=850.0, max_overhead=0.50)
        assert check_metrics_regression(
            current, _metrics_section(metrics_off=1000.0,
                                      max_overhead=0.05)) != []
        assert check_metrics_regression(
            current, _metrics_section(metrics_off=1000.0,
                                      max_overhead=0.20)) == []

    def test_missing_overhead_record_skips_gate(self):
        assert check_metrics_regression({}, _metrics_section()) == []
        assert check_metrics_regression(_metrics_section(), {}) == []

    def test_cli_gates_on_metrics_section(self, tmp_path, monkeypatch,
                                          capsys):
        """A committed metrics section pulls the gate into --check."""
        seen = {}

        def fake_throughput(frames=64, timesteps=16, repeats=5,
                            check_parity=True):
            return _throughput(reference=100.0)

        def fake_metrics(frames=64, timesteps=16, repeats=5):
            seen["frames"], seen["timesteps"] = frames, timesteps
            return _metrics_section(metrics_on=500.0)

        monkeypatch.setattr(bench_main, "measure_throughput", fake_throughput)
        monkeypatch.setattr(bench_main, "measure_metrics", fake_metrics)
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps({
            "schema": 1,
            "throughput": _throughput(reference=100.0),
            "metrics": _metrics_section(metrics_off=1000.0),
        }))
        code = bench_main.main(["--check", "--baseline", str(path)])
        assert code == 1
        assert "metrics-on throughput" in capsys.readouterr().out
        # the fresh measurement reuses the committed geometry
        assert seen == {"frames": 64, "timesteps": 16}
        # --skip-metrics drops the gate
        assert bench_main.main(["--check", "--baseline", str(path),
                                "--skip-metrics"]) == 0


def _serving_section(rps=2000.0, p99=5.0, baseline=500.0,
                     max_drop=0.60, max_p99_growth=2.0):
    return {
        "requests": 128,
        "timesteps": 16,
        "rate_factor": 4.0,
        "max_drop": max_drop,
        "max_p99_growth": max_p99_growth,
        "policy": {"batch_window": 0.0, "max_batch": 64},
        "baseline": {"frames_per_sec": baseline},
        "load": {
            "requests": 128,
            "completed": 128,
            "rejected": 0,
            "deadline_missed": 0,
            "offered_rate": 4.0 * baseline,
            "duration_seconds": 128.0 / rps,
            "requests_per_sec": rps,
            "mean_batch": 4.0,
            "p50_ms": p99 / 2.0,
            "p95_ms": 0.9 * p99,
            "p99_ms": p99,
        },
    }


class TestCheckServing:
    def test_identical_sections_pass(self):
        assert check_serving(_serving_section(), _serving_section()) == []

    def test_throughput_collapse_flagged(self):
        failures = check_serving(_serving_section(rps=500.0),
                                 _serving_section(rps=2000.0))
        assert len(failures) == 1
        assert "serving throughput" in failures[0]

    def test_throughput_at_floor_passes(self):
        # committed 2000 req/s, max_drop 60% -> floor is exactly 800
        assert check_serving(_serving_section(rps=800.0),
                             _serving_section(rps=2000.0)) == []

    def test_p99_growth_flagged(self):
        failures = check_serving(_serving_section(p99=20.0),
                                 _serving_section(p99=5.0))
        assert len(failures) == 1
        assert "serving p99 latency" in failures[0]

    def test_improvements_never_fail(self):
        assert check_serving(_serving_section(rps=4000.0, p99=1.0),
                             _serving_section(rps=2000.0, p99=5.0)) == []

    def test_machine_drift_is_normalized_out(self):
        # a box uniformly half as fast: absolute req/s halved and p99
        # doubled, but the single-frame baseline halved with them — the
        # normalized comparison sees no serving regression at all
        assert check_serving(
            _serving_section(rps=1000.0, p99=10.0, baseline=250.0),
            _serving_section(rps=2000.0, p99=5.0, baseline=500.0)) == []
        # ... and a 4x faster box does not launder a real collapse: raw
        # req/s looks fine (2000) but normalized it is a quarter of the
        # committed rate
        failures = check_serving(
            _serving_section(rps=2000.0, p99=5.0, baseline=2000.0),
            _serving_section(rps=2000.0, p99=5.0, baseline=500.0))
        assert len(failures) >= 1
        assert "machine-normalized" in failures[0]

    def test_committed_ceilings_win(self):
        current = _serving_section(rps=1500.0, max_drop=0.99)
        assert check_serving(
            current, _serving_section(rps=2000.0, max_drop=0.10)) != []
        assert check_serving(
            current, _serving_section(rps=2000.0, max_drop=0.60)) == []

    def test_missing_records_skip_gate(self):
        assert check_serving({}, _serving_section()) == []
        assert check_serving(_serving_section(), {}) == []
        zeroed = _serving_section()
        zeroed["baseline"]["frames_per_sec"] = 0.0
        assert check_serving(zeroed, _serving_section()) == []

    def test_cli_gates_on_serving_section(self, tmp_path, monkeypatch,
                                          capsys):
        """A committed serving section pulls the gate into --check."""
        seen = {}

        def fake_throughput(frames=64, timesteps=16, repeats=5,
                            check_parity=True):
            return _throughput(reference=100.0)

        def fake_serving(requests=128, timesteps=16, repeats=3):
            seen["requests"], seen["timesteps"] = requests, timesteps
            return _serving_section(rps=100.0)

        monkeypatch.setattr(bench_main, "measure_throughput", fake_throughput)
        monkeypatch.setattr(bench_main, "measure_serving", fake_serving)
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps({
            "schema": 1,
            "throughput": _throughput(reference=100.0),
            "serving": _serving_section(rps=2000.0),
        }))
        code = bench_main.main(["--check", "--baseline", str(path)])
        assert code == 1
        assert "serving throughput" in capsys.readouterr().out
        # the fresh measurement reuses the committed request geometry
        assert seen == {"requests": 128, "timesteps": 16}
        # --skip-serving drops the gate
        assert bench_main.main(["--check", "--baseline", str(path),
                                "--skip-serving"]) == 0


def test_committed_trajectory_is_checkable():
    """The repo's committed BENCH_engine.json loads and has the sections
    the gate compares against (throughput frames/sec, NoC metrics and
    timing-model parity)."""
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    committed = load_bench_report(path)
    assert "throughput" in committed
    assert "backends" in committed["throughput"]
    assert "noc" in committed
    for row in committed["noc"]["networks"].values():
        assert row["reduction"]["wave_depth"] >= \
            committed["noc"]["required_reduction"]
        # the optimized pipeline's estimated cycles undercut the default's
        assert row["optimized"]["estimated_cycles_per_timestep"] < \
            row["default"]["estimated_cycles_per_timestep"]
    assert "timing" in committed
    for row in committed["timing"]["networks"].values():
        for pipeline in ("default", "optimized"):
            assert row[pipeline]["relative_error"] <= \
                committed["timing"]["tolerance"]
    assert "resilience" in committed
    resilience = committed["resilience"]
    assert resilience["recovery"]["recovered_bit_exact"] is True
    # the committed section must gate cleanly against itself
    assert check_resilience_regression(resilience, resilience) == []
    assert "metrics" in committed
    metrics = committed["metrics"]
    assert metrics["histograms"]["schedule/timestep"]["count"] > 0
    # the committed section must gate cleanly against itself
    assert check_metrics_regression(metrics, metrics) == []
    assert "serving" in committed
    serving = committed["serving"]
    assert serving["load"]["completed"] == serving["load"]["requests"]
    assert serving["load"]["mean_batch"] > 1.0  # the batcher coalesced
    # the committed section must gate cleanly against itself
    assert check_serving(serving, serving) == []
