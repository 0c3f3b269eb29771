"""Smoke tests for the benchmark harness: tiny sizes, one warm unit per workload.

    python -m pytest bench/tests -q

They run every workload untraced and traced and check that the harness
reports correct outputs and every metric named in BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _smoke(*extra):
    proc = subprocess.run([sys.executable, RUN, "--workload", "all", "--smoke", *extra], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_run_reports_every_end_to_end_metric():
    spec = _spec()
    result = _smoke()
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            entry = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0


def test_smoke_trace_reports_every_per_layer_metric():
    spec = _spec()
    result = _smoke("--trace", "1")
    assert result["correct"] is True
    for workload in spec["workloads"]:
        for metric in spec["per_layer"]:
            assert f"{workload['name']}.{metric['name']}" in result["metrics"]
    assert result["metrics"]["large_n.estimator.evaluate_grid.s"]["value"] > 0
    assert result["metrics"]["cli_small.plotting.svg_bytes"]["value"] > 0
    assert result["metrics"]["smoothed_mid.margins.smoothed.kernel_evals"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "large_n", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
