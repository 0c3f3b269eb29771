"""Tier-1 smoke run of the benchmark harness, so that it cannot rot unnoticed.

Runs ``bench/run.py`` at its smoke sizes on the two in-process workloads,
which between them reach every numeric layer (about 3 s each), and on
``cli_small`` with tracing on (about 10 s).  The last one checks that the
harness's six command lines still parse and that its tracer can still patch
the ``llcopula.cli`` names it wraps.  The harness checks its own outputs
against an oracle and recorded references; this test only reads its verdict.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["large_n", "smoothed_mid", "cli_small"])
def test_harness_smoke_run_is_correct(workload):
    trace = "1" if workload == "cli_small" else "0"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--smoke", "--seconds", "1",
         "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
