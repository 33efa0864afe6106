"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper.
Benchmarks print the regenerated rows/series so that
``pytest benchmarks/ -s`` doubles as the experiment log; each module
asserts the comparisons against the paper that must hold, next to the
paper's figures it quotes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DEFAULT_ARCH
from repro.datasets import synthetic_cifar10, synthetic_mnist


def pytest_configure(config):
    # Also registered in pytest.ini; repeated here so the benchmarks work
    # when invoked from a rootdir that does not pick the ini up.
    config.addinivalue_line(
        "markers",
        "slow: long-running tests (multi-frame parity sweeps); deselected by default",
    )


@pytest.fixture(scope="session")
def mnist_small():
    """A small synthetic-MNIST split shared by the benchmarks."""
    return synthetic_mnist(train_size=600, test_size=150, seed=0)


@pytest.fixture(scope="session")
def cifar_small():
    """A small synthetic-CIFAR split shared by the benchmarks."""
    return synthetic_cifar10(train_size=400, test_size=80, seed=0)


@pytest.fixture(scope="session")
def arch():
    return DEFAULT_ARCH


def print_table(title: str, rows: dict) -> None:
    """Print a labelled key/value table to the benchmark log."""
    print(f"\n=== {title} ===")
    for key, value in rows.items():
        print(f"  {key:<32} {value}")
