"""Tier-1 smoke runs of the scripts, so that they cannot rot unnoticed.

Each study script runs in its own interpreter at tiny sizes (about a second
each); the test checks only that it exits 0 and prints its table header.  The
coverage study's loop also runs in full, as the paper's simulation check.
The byte report runs its command set once and diffs a nudged copy.
"""

import importlib.util
import os
import re
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


def test_byte_report_runs_and_diffs(tmp_path):
    script = str(ROOT / "scripts" / "byte_report.py")
    run = subprocess.run([sys.executable, script, "run", str(tmp_path / "a")],
                         capture_output=True, text=True, env=ENV, timeout=300)
    assert run.returncode == 0, run.stderr
    names = [line.split()[1] for line in run.stdout.splitlines()]
    assert len(names) == 19 and "plot.svg" in names and "reproduce_frank.csv" in names
    # A copy with one grid cell nudged and one metadata line gone: the diff
    # names that file, the move over the data rows and the lost key.
    copy = tmp_path / "b"
    copy.mkdir()
    for name in names:
        (copy / name).write_bytes((tmp_path / "a" / name).read_bytes())
    path = copy / "estimate_31_rank.csv"
    text = path.read_text()
    cell = re.search(r"\n([^,\n]+),([^,\n]+),(0\.[0-9]+)", text)
    nudged = f"{float(cell.group(3)) + 1e-9!r}"
    text = text[: cell.start(3)] + nudged + text[cell.end(3) :]
    path.write_text(text.replace("# policy_alpha = 0.5\n", ""))
    diff = subprocess.run([sys.executable, script, "diff", str(tmp_path / "a"), str(copy)],
                          capture_output=True, text=True, env=ENV, timeout=300)
    assert diff.returncode == 0, diff.stderr
    lines = diff.stdout.splitlines()
    assert lines[0].startswith("estimate_31_rank.csv: 1 of ")
    assert lines[0].endswith("largest by 1e-09; metadata removed: policy_alpha")
    assert lines[-1] == "18 of 19 files byte-identical"
