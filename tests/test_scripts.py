"""Tier-1 smoke runs of the study scripts, so that they cannot rot unnoticed.

Each script runs in its own interpreter at tiny sizes (about a second each);
the test checks only that it exits 0 and prints its table header.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
