"""Smoke test of the benchmark: every workload at tiny size.

Run from the repository root::

    python -m pytest perfbench/test_smoke.py -q

Each workload runs on its ``*-small`` network with a few frames (and a
two-rate ladder for serving) through the same command-line path the full
benchmark uses.  The test checks that every metric ``BENCHMARK.json``
names is printed with its unit, that seeds 0 and 1 both pass the output
check, and that one flipped output bit is counted as a failure.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_source()

import workloads  # noqa: E402
from metric_names import END_TO_END, PER_LAYER  # noqa: E402
from repro.apps.networks import (  # noqa: E402
    build_mnist_cnn_small,
    build_mnist_mlp_small,
)
from repro.serve import PendingRequest  # noqa: E402

SECONDS = "0.2"
TINY = {
    "mlp-batch": dict(builder=build_mnist_mlp_small, batch_frames=8,
                      check_frames=8),
    "cnn-noc": dict(builder=build_mnist_cnn_small, batch_frames=4,
                    check_frames=4),
    "mlp-serve": dict(builder=build_mnist_mlp_small, rates=(200, 400),
                      check_frames=4),
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    for name, sizes in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            replace(workloads.WORKLOADS[name], **sizes))


def run_cli(capsys, workload: str, seed: int = 0, trace: int = 0):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", SECONDS, "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        PER_LAYER


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("seed, trace", [(0, 0), (1, 0), (0, 1)])
def test_every_metric_printed_with_its_unit(capsys, workload, seed, trace):
    result = run_cli(capsys, workload, seed, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    assert all(isinstance(metric["value"], float)
               for metric in result["metrics"].values())


def _flip_first(counts) -> None:
    counts[..., 0] ^= 1


@pytest.mark.parametrize("workload", ["mlp-batch", "cnn-noc"])
def test_flipped_bit_in_a_batch_is_a_failure(capsys, monkeypatch, workload):
    create_backend = workloads.create_backend
    flipped = []

    def corrupting_backend(name, program, **options):
        backend = create_backend(name, program, **options)
        clean_run = backend.run

        def run_batch(trains, **kwargs):
            result = clean_run(trains, **kwargs)
            if not flipped:
                flipped.append(True)
                _flip_first(result.spike_counts[0])
            return result

        backend.run = run_batch
        return backend

    monkeypatch.setattr(workloads, "create_backend", corrupting_backend)
    result = run_cli(capsys, workload)
    assert flipped and not result["correct"] and result["failed"] == 1


def test_flipped_bit_in_a_response_is_a_failure(capsys, monkeypatch):
    clean_result = PendingRequest.result
    flipped = []

    def corrupting_result(self, timeout=None):
        response = clean_result(self, timeout)
        if not flipped:
            flipped.append(True)
            _flip_first(response.spike_counts)
        return response

    monkeypatch.setattr(PendingRequest, "result", corrupting_result)
    result = run_cli(capsys, "mlp-serve")
    assert flipped and not result["correct"] and result["failed"] == 1
