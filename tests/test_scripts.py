"""Tier-1 smoke runs of the study scripts, so that they cannot rot unnoticed.

Each script runs in its own interpreter at tiny sizes (about a second each);
the test checks only that it exits 0 and prints its table header.  The
coverage study's loop also runs in full, as the paper's simulation check.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from llcopula.families import CopulaModel

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("bias_study.py", ["--n", "200", "--replicates", "3", "--halvings", "1"], "ratio to prev"),
        ("containment_study.py", ["--n", "200", "--runs", "2"], "full runs"),
        ("coverage_study.py", ["--n", "200", "--replicates", "2", "--grid", "5"], "outer rate"),
    ],
)
def test_study_script_runs(script, args, header):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=ENV, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("family, theta", [("clayton", 2.0), ("frank", 5.0), ("gumbel", 1.69)])
def test_coverage_study_outer_band_covers_and_inner_band_fails(family, theta):
    # The paper's simulation check at n = 10^4, 100 replicates on a 21-node grid,
    # with the study's defaults: the outer band (eps = 0) holds the whole grid in
    # every replicate, the inner band at eps = 0.99 in none.
    study = _load_script("coverage_study")
    n = 10_000
    sups = study.sup_errors(CopulaModel(family, theta), n, replicates=100, grid=21, seed=31000)
    _, outer_rate, _, _ = study.coverage(sups, n, 0.0)
    _, _, _, inner_rate = study.coverage(sups, n, 0.99)
    assert (outer_rate, inner_rate) == (1.0, 0.0)
