"""Tests for the bench gate table (``python -m repro.bench [--check]``).

The classes group the gate's checks by what they guard: the bound kinds
and the verdict rule (``TestCheckRegression``), the ``noc`` row
(``TestCheckNocRegression``, ``TestCheckTimingRegression``), the
``overhead`` row (``TestCheckMetricsRegression``,
``TestCheckResilienceRegression``), the file (``TestLoadBenchReport``) and
the command line (``TestCheckCli``).  Measurements are monkeypatched:
these tests pin the gate, not the machine.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.bench as bench
import repro.bench.__main__ as bench_main
from repro.bench import (
    EQUAL,
    REPORTED,
    Bound,
    gate,
    load_bench_report,
    paired_seconds,
    verdict,
)

COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _wall(median, q1=None, q3=None):
    """A wall-clock value; without quartiles it has no spread."""
    return {"q1": median if q1 is None else q1, "median": median,
            "q3": median if q3 is None else q3}


def _values():
    """One plausible measurement of every row of the table."""
    return {
        "speedup": {"vectorized_vs_reference": _wall(400.0, 380.0, 420.0),
                    "optimized_vs_unoptimized": _wall(3.0, 2.8, 3.2)},
        "noc": {"net.optimized.wave_depth": 1500,
                "net.optimized.total_hops": 20000,
                "net.reduction.wave_depth": 0.40,
                "net.reduction.estimated_cycles": 0.30},
        "firing": {"net.fc1": 0.125, "net.fc2": 0.5},
        "overhead": {"supervision": _wall(0.01, -0.02, 0.03),
                     "metrics": _wall(0.01, 0.0, 0.02),
                     "probes": _wall(0.70, 0.68, 0.72)},
    }


def _verdicts(measured):
    """``{(row, key): verdict}`` of ``measured`` against :func:`_values`
    under the real table's bounds."""
    return {(row, key): state
            for row, key, _, _, state in gate(measured, _values())}


def _changed(row, key, value):
    values = _values()
    values[row][key] = value
    return values


@pytest.fixture
def fake_rows(monkeypatch):
    """The real table with each measure replaced by a canned one.

    ``state["values"]`` is what the next measurement returns and
    ``state["geometry"]`` records the geometry each row was measured at.
    """
    state = {"values": _values(), "geometry": {}}

    def fake(name):
        def measure(**geometry):
            state["geometry"][name] = geometry
            return json.loads(json.dumps(state["values"][name]))
        return measure

    monkeypatch.setattr(bench, "ROWS", tuple(
        replace(row, measure=fake(row.name)) for row in bench.ROWS))
    return state


def _write(tmp_path):
    path = tmp_path / "BENCH_engine.json"
    bench.write_bench_report(_values(), path)
    return path


class TestCheckRegression:
    """The verdict rule, on the ``speedup`` row's floors and every other
    bound kind."""

    def test_no_regression_within_tolerance(self):
        # the median clears the floor although Q1 does not
        value = _wall(10.5, 9.0, 12.0)
        assert verdict(Bound(">=", 10.0), value) == "ok"

    def test_regression_beyond_tolerance_flagged(self):
        values = _changed("speedup", "vectorized_vs_reference",
                          _wall(8.0, 7.5, 9.5))
        verdicts = _verdicts(values)
        assert verdicts[("speedup", "vectorized_vs_reference")] == "FAIL"
        assert list(verdicts.values()).count("FAIL") == 1

    def test_exactly_at_floor_passes(self):
        values = _changed("speedup", "optimized_vs_unoptimized", _wall(1.5))
        assert _verdicts(values)[("speedup",
                                  "optimized_vs_unoptimized")] == "ok"

    def test_improvements_never_fail(self):
        values = _changed("speedup", "vectorized_vs_reference",
                          _wall(5000.0))
        assert "FAIL" not in _verdicts(values).values()

    @pytest.mark.parametrize("bound, at, past", [
        (Bound("<=", 0.05), 0.05, np.nextafter(0.05, 1.0)),
        (Bound(">=", 1.5), 1.5, np.nextafter(1.5, 0.0)),
        (Bound("<=", 1.25, of_committed=True), 1250.0,
         np.nextafter(1250.0, 2000.0)),
        (EQUAL, 1000.0, np.nextafter(1000.0, 2000.0)),
    ], ids=["ceiling", "floor", "committed-ceiling", "equal"])
    def test_each_bound_kind_at_and_one_step_past(self, bound, at, past):
        committed = 1000.0
        assert verdict(bound, at, committed) == "ok"
        assert verdict(bound, past, committed) == "FAIL"
        # a wall-clock value with no spread reads the same
        assert verdict(bound, _wall(past), committed) == "FAIL"

    def test_strict_floor_fails_at_its_bound(self):
        bound = Bound(">", 0.0)
        assert verdict(bound, np.nextafter(0.0, 1.0)) == "ok"
        assert verdict(bound, 0.0) == "FAIL"

    def test_reported_key_never_fails(self):
        assert verdict(REPORTED, _wall(9.9, 9.0, 12.0)) == "reported"

    @pytest.mark.parametrize("bound, value", [
        (Bound("<=", 0.05), _wall(0.06, 0.04, 0.08)),
        (Bound(">=", 10.0), _wall(9.5, 8.0, 11.0)),
    ], ids=["ceiling", "floor"])
    def test_quartiles_straddling_the_bound_read_unresolved(self, bound,
                                                            value):
        assert verdict(bound, value) == "unresolved"


class TestCheckNocRegression:
    def test_identical_metrics_pass(self):
        verdicts = _verdicts(_values())
        assert {state for (row, _), state in verdicts.items()
                if row == "noc"} == {"ok"}

    def test_wave_depth_regression_flagged(self):
        key = "net.optimized.wave_depth"
        assert _verdicts(_changed("noc", key, 1875))[("noc", key)] == "ok"
        assert _verdicts(_changed("noc", key, 1876))[("noc", key)] == "FAIL"

    def test_hop_regression_flagged(self):
        key = "net.optimized.total_hops"
        assert _verdicts(_changed("noc", key, 25001))[("noc", key)] == "FAIL"

    def test_reduction_floor_enforced(self):
        key = "net.reduction.wave_depth"
        assert _verdicts(_changed("noc", key, 0.20))[("noc", key)] == "ok"
        assert _verdicts(_changed("noc", key, 0.19))[("noc", key)] == "FAIL"

    def test_improvements_never_fail(self):
        values = _values()
        values["noc"].update({"net.optimized.wave_depth": 900,
                              "net.optimized.total_hops": 9000,
                              "net.reduction.wave_depth": 0.6})
        assert "FAIL" not in _verdicts(values).values()

    def test_vanished_network_key_flagged(self):
        values = _values()
        del values["noc"]["net.optimized.total_hops"]
        verdicts = _verdicts(values)
        assert verdicts[("noc", "net.optimized.total_hops")] == "FAIL"

    def test_cli_gates_on_noc_section(self, tmp_path, fake_rows, capsys):
        path = _write(tmp_path)
        fake_rows["values"]["noc"]["net.reduction.wave_depth"] = 0.05
        assert bench_main.main(["--check", str(path)]) == 1
        out = capsys.readouterr().out
        assert any("net.reduction.wave_depth" in line and "FAIL" in line
                   for line in out.splitlines())


class TestCheckTimingRegression:
    def test_optimized_not_below_default_flagged(self):
        # reduction.estimated_cycles = 1 - optimized / default estimate
        key = "net.reduction.estimated_cycles"
        assert _verdicts(_changed("noc", key, 0.0))[("noc", key)] == "FAIL"
        assert _verdicts(_changed("noc", key, -0.1))[("noc", key)] == "FAIL"


class TestCheckMetricsRegression:
    def test_identical_sections_pass(self):
        assert _verdicts(_values())[("overhead", "metrics")] == "ok"

    def test_overhead_at_ceiling_passes(self):
        values = _changed("overhead", "metrics", _wall(0.05, 0.03, 0.07))
        assert _verdicts(values)[("overhead", "metrics")] == "ok"

    def test_overhead_beyond_ceiling_flagged(self):
        values = _changed("overhead", "metrics", _wall(0.10, 0.06, 0.14))
        assert _verdicts(values)[("overhead", "metrics")] == "FAIL"

    def test_improvements_never_fail(self):
        values = _changed("overhead", "metrics", _wall(-0.5, -0.6, -0.4))
        assert _verdicts(values)[("overhead", "metrics")] == "ok"

    def test_machine_drift_is_normalized_out(self, monkeypatch):
        """An overhead is a ratio of paired timings: a box uniformly twice
        as slow measures the same ratio.  Pairs alternate which side runs
        first."""
        clock = {"now": 0.0}
        order = []
        monkeypatch.setattr(bench.time, "perf_counter", lambda: clock["now"])

        def ratios(scale):
            def call(side, seconds):
                def run():
                    order.append(side)
                    clock["now"] += seconds * scale
                return run
            seconds = paired_seconds(call("off", 1.0), call("on", 1.02), 4)
            return seconds[:, 1] / seconds[:, 0] - 1.0

        np.testing.assert_allclose(ratios(1.0), 0.02)
        np.testing.assert_allclose(ratios(2.0), 0.02)
        # one untimed call per side, then off/on, on/off, off/on, on/off
        assert order[:10] == ["off", "on", "off", "on", "on", "off",
                              "off", "on", "on", "off"]

    def test_cli_gates_on_metrics_section(self, tmp_path, fake_rows, capsys):
        path = _write(tmp_path)
        fake_rows["values"]["overhead"]["metrics"] = _wall(0.2, 0.15, 0.25)
        assert bench_main.main(["--check", str(path)]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestCheckResilienceRegression:
    def test_identical_sections_pass(self):
        assert _verdicts(_values())[("overhead", "supervision")] == "ok"

    def test_supervision_overhead_at_ceiling_passes(self):
        values = _changed("overhead", "supervision", _wall(0.05))
        assert _verdicts(values)[("overhead", "supervision")] == "ok"

    def test_supervision_overhead_beyond_ceiling_flagged(self):
        values = _changed("overhead", "supervision",
                          _wall(0.25, 0.20, 0.30))
        assert _verdicts(values)[("overhead", "supervision")] == "FAIL"

    def test_improvements_never_fail(self):
        values = _changed("overhead", "supervision", _wall(-0.3, -0.4, -0.2))
        assert _verdicts(values)[("overhead", "supervision")] == "ok"

    def test_cli_gates_on_resilience_section(self, tmp_path, fake_rows,
                                             capsys):
        path = _write(tmp_path)
        fake_rows["values"]["overhead"]["supervision"] = \
            _wall(0.25, 0.20, 0.30)
        assert bench_main.main(["--check", str(path)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_unresolved_supervision_does_not_fail_the_check(
            self, tmp_path, fake_rows, capsys):
        path = _write(tmp_path)
        fake_rows["values"]["overhead"]["supervision"] = \
            _wall(0.07, -0.01, 0.12)
        assert bench_main.main(["--check", str(path)]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("overhead") and "supervision" in line)
        assert "unresolved" in line and "[-0.01, 0.12]" in line


class TestLoadBenchReport:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="python -m repro.bench"):
            load_bench_report(tmp_path / "BENCH_engine.json")

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="corrupt"):
            load_bench_report(path)

    def test_other_schema_is_corrupt(self, tmp_path):
        path = _write(tmp_path)
        payload = json.loads(path.read_text())
        payload["schema"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            load_bench_report(path)

    def test_unbounded_key_is_corrupt(self, tmp_path):
        path = _write(tmp_path)
        payload = json.loads(path.read_text())
        payload["rows"]["overhead"]["values"]["serving"] = 0.0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="no bound for key 'serving'"):
            load_bench_report(path)

    def test_malformed_value_is_corrupt(self, tmp_path):
        path = _write(tmp_path)
        payload = json.loads(path.read_text())
        payload["rows"]["overhead"]["values"]["metrics"] = {"median": 0.01}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="key 'metrics'"):
            load_bench_report(path)


class TestCheckCli:
    """Exit codes: 0 pass, 1 any FAIL, 2 unusable file."""

    def test_check_passes_against_equal_baseline(self, tmp_path, fake_rows,
                                                 capsys):
        path = _write(tmp_path)
        assert bench_main.main(["--check", str(path)]) == 0
        assert "bench check: OK" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tmp_path, fake_rows, capsys):
        path = _write(tmp_path)
        fake_rows["values"]["firing"]["net.fc1"] = 0.25
        assert bench_main.main(["--check", str(path)]) == 1
        assert "bench check: FAILED" in capsys.readouterr().out

    def test_check_measures_with_committed_geometry(self, tmp_path,
                                                    fake_rows):
        path = _write(tmp_path)
        assert bench_main.main(["--check", str(path)]) == 0
        stored = json.loads(path.read_text())["rows"]
        assert fake_rows["geometry"] == {
            name: row["geometry"] for name, row in stored.items()}
        assert fake_rows["geometry"] == {
            row.name: row.geometry for row in bench.ROWS}

    def test_check_rejects_mismatched_geometry(self, tmp_path, fake_rows,
                                               capsys):
        path = _write(tmp_path)
        payload = json.loads(path.read_text())
        payload["rows"]["overhead"]["geometry"]["frames"] = 64
        path.write_text(json.dumps(payload))
        assert bench_main.main(["--check", str(path)]) == 2
        assert "geometry" in capsys.readouterr().err
        assert fake_rows["geometry"] == {}  # refused before measuring

    def test_check_missing_baseline_exits_2(self, tmp_path, fake_rows):
        assert bench_main.main(
            ["--check", str(tmp_path / "missing.json")]) == 2

    def test_check_baseline_without_throughput_exits_2(self, tmp_path,
                                                       fake_rows):
        path = _write(tmp_path)
        payload = json.loads(path.read_text())
        del payload["rows"]["speedup"]
        path.write_text(json.dumps(payload))
        assert bench_main.main(["--check", str(path)]) == 2

    def test_check_does_not_rewrite_baseline(self, tmp_path, fake_rows):
        path = _write(tmp_path)
        before = path.read_bytes()
        fake_rows["values"]["overhead"]["probes"] = _wall(3.0)
        bench_main.main(["--check", str(path)])
        assert path.read_bytes() == before

    def test_write_replaces_the_whole_file(self, tmp_path, fake_rows):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps({"schema": 1, "serving": {"stale": 1}}))
        assert bench_main.main([str(path)]) == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"schema", "git_rev", "cpu_count", "rows"}
        assert payload["rows"]["firing"]["values"] == \
            fake_rows["values"]["firing"]
        assert bench_main.main(["--check", str(path)]) == 0


def test_committed_trajectory_is_checkable(monkeypatch, capsys):
    """The repo's BENCH_engine.json holds exactly the table's keys at the
    table's geometry, and passes against itself."""
    committed = load_bench_report(COMMITTED)
    assert set(committed) == {row.name for row in bench.ROWS}
    tables = {row.name: row for row in bench.ROWS}
    assert set(committed["speedup"]) == set(tables["speedup"].bounds)
    assert set(committed["overhead"]) == set(tables["overhead"].bounds)
    networks = tables["noc"].geometry["networks"]
    assert set(committed["noc"]) == {
        f"{net}.{metric}" for net in networks
        for metric in ("optimized.wave_depth", "optimized.total_hops",
                       "reduction.wave_depth", "reduction.estimated_cycles")}
    assert {key.split(".")[0] for key in committed["firing"]} == \
        set(tables["firing"].geometry["networks"])
    for row in ("speedup", "overhead"):
        for value in committed[row].values():
            assert value["q1"] <= value["median"] <= value["q3"]

    monkeypatch.setattr(bench, "ROWS", tuple(
        replace(row, measure=lambda _name=row.name, **_: committed[_name])
        for row in bench.ROWS))
    before = COMMITTED.read_bytes()
    assert bench_main.main(["--check", str(COMMITTED)]) == 0
    assert COMMITTED.read_bytes() == before
    assert "0 FAIL" in capsys.readouterr().out
