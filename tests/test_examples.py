"""Every example script runs to completion and prints its own check line.

Each script runs as a subprocess with ``PYTHONPATH=src``, exactly as its
docstring tells a reader to run it.  The two fast ones run in tier-1; the
two that train or cycle-simulate a paper-sized net run under ``slow``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXAMPLES = [
    pytest.param("quickstart.py", r"^lossless mapping: YES$", id="quickstart"),
    # the paper's 256x256 design point maps the MLP onto 10 cores, 1 chip
    pytest.param("design_space_sweep.py", r"^\s+256\s+10\s+1\s",
                 id="design_space_sweep"),
    pytest.param("mnist_mlp_on_shenjing.py", r"hardware == abstract\s+True$",
                 id="mnist_mlp_on_shenjing", marks=pytest.mark.slow),
    pytest.param("resnet_mapping.py",
                 r"hardware spike counts equal the abstract SNN: YES$",
                 id="resnet_mapping", marks=pytest.mark.slow),
]


@pytest.mark.parametrize("script, check", EXAMPLES)
def test_example_runs(script, check):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    assert result.returncode == 0, result.stderr
    assert re.search(check, result.stdout, re.MULTILINE), result.stdout
