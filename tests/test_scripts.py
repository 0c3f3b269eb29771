"""Tier-1 smoke runs of the scripts, so that they cannot rot unnoticed.

The coverage study runs in its own interpreter at tiny size (about a
second); the test checks only that it exits 0 and prints its table header.  The
coverage study's loop also runs in full, as the paper's simulation check.
The byte report runs its command set once and diffs a nudged copy, the
benchmark pairs' summary and pairing are checked on made-up run records (no
benchmark runs), one tiny CLI pair runs both trees, and the README's library
quickstart runs as written.
"""

import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from llcopula.families import CopulaModel

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def test_coverage_study_script_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "coverage_study.py"), "--n", "200", "--replicates", "2", "--grid", "5"],
        capture_output=True, text=True, env=ENV, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "outer rate" in proc.stdout


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
    assert len(names) == 22 and "plot.svg" in names and "reproduce_frank.csv" in names
    assert {"sample_frank_3dp.csv", "fit_tied.csv", "estimate_tied.csv"} <= set(names)
    # The tied input is the Frank sample's data rows at 3 decimals.
    rows = (tmp_path / "a" / "sample_frank_3dp.csv").read_text().splitlines()
    assert rows[0] == "u,v" and len(rows) == 1001 and all(re.fullmatch(r"\d\.\d{3},\d\.\d{3}", r) for r in rows[1:])
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
    # diff only reads files, so it runs without llcopula on the path.
    bare = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def diff(second):
        return subprocess.run([sys.executable, script, "diff", str(tmp_path / "a"), str(second)],
                              capture_output=True, text=True, env=bare, timeout=300, cwd=tmp_path)

    moved = diff(copy)
    assert moved.returncode == 1, moved.stderr
    lines = moved.stdout.splitlines()
    assert lines[0].startswith("estimate_31_rank.csv: 1 of ")
    assert lines[0].endswith("largest by 1e-09; metadata removed: policy_alpha")
    assert lines[-1] == "21 of 22 files byte-identical"
    # The exit code is 0 only when every file is identical.
    same = diff(tmp_path / "a")
    assert same.returncode == 0, same.stderr
    assert same.stdout == "22 of 22 files byte-identical\n"


def test_bench_pairs_summary():
    pairs = _load_script("bench_pairs")
    bounds = pairs.load_bounds(str(ROOT))
    assert set(bounds) == {"setup_s", "pass_s.p50", "pass_s.tail", "peak_rss_mb"}
    runs = [{"seed": 6, "side": "parent", "correct": True, "failed": 0, **dict.fromkeys(bounds, 9.0)}]
    for seed, (p, c) in enumerate([(1.0, 0.5), (1.2, 0.6), (1.1, 1.3), (0.9, 0.4), (1.0, 0.5)], 1):
        for side, value in (("parent", p), ("change", c)):
            runs.append({"seed": seed, "side": side, "correct": True, "failed": 0, **dict.fromkeys(bounds, value)})
    summary = pairs.summarize(runs, bounds)
    assert summary["all_correct"] and summary["failed"] == 0
    # Seed 6 ran on the parent side only, so it makes no pair.
    assert summary["pass_s.p50"] == {
        "pairs": 5,
        "change_lower": 4,
        "parent_q1_median_q3": [1.0, 1.0, 1.1],
        "change_q1_median_q3": [0.5, 0.5, 0.6],
        "medians_differ_beyond_parent_iqr": True,
        "worse_beyond_bound": False,
        "unresolved": False,
        "median_log_ratio": -0.6931,
        # Five pairs are too few for a 95 % sign-test interval.
        "log_ratio_sign_test_95": None,
    }
    runs[-1].update(correct=False, failed=2)
    for run in runs:
        run["setup_s"] = 1.0 + 0.1 * run["seed"]  # the same on both sides
    summary = pairs.summarize(runs, bounds)
    assert not summary["all_correct"] and summary["failed"] == 2
    assert summary["setup_s"]["change_lower"] == 0
    assert not summary["setup_s"]["medians_differ_beyond_parent_iqr"]
    assert not summary["setup_s"]["worse_beyond_bound"]
    # Against the 0.25 bound, a change median 30 % above the parent's is
    # worse beyond it and one 20 % above is not.
    for factor, worse in ((1.3, True), (1.2, False)):
        for run in runs:
            run["pass_s.tail"] = (factor if run["side"] == "change" else 1.0) * (1.0 + 0.01 * run["seed"])
        assert pairs.summarize(runs, bounds)["pass_s.tail"]["worse_beyond_bound"] is worse
    # A workload and a CLI size summarized together: the CLI size's metrics are
    # its six commands, each held to pass_s.p50's bound, here 0.1, so the same
    # 20 % rise is worse beyond it for a command and not for pass_s.tail.
    cli = [{**run, **{f"{cmd}_s": run["pass_s.tail"] for cmd in pairs.cli_lines(0)}} for run in runs]
    both = pairs.summaries({"large_n": runs, "cli_n=1000": cli}, {**bounds, "pass_s.p50": 0.1})
    assert list(both["large_n"]) == ["all_correct", "failed", *bounds]
    assert list(both["cli_n=1000"]) == ["all_correct", "failed", "sample_s", "estimate_s", "bands_s", "fit_s",
                                        "plot_s", "reproduce_s"]
    assert both["cli_n=1000"]["fit_s"]["worse_beyond_bound"] and not both["large_n"]["pass_s.tail"]["worse_beyond_bound"]


def test_bench_pairs_paired_effect_size():
    # Ten pairs whose change/parent ratios are exp(-0.05 j), j = 0..9: the
    # median log ratio is -0.225, and the sign test at 95 % takes the 2nd
    # smallest and 2nd largest (k = 1 covers 99.8 %, k = 2 97.9 %, k = 3 89.1 %).
    pairs = _load_script("bench_pairs")
    assert [pairs.sign_test_rank(n) for n in (5, 6, 9, 10, 20)] == [0, 1, 2, 2, 6]
    bounds = pairs.load_bounds(str(ROOT))
    runs = []
    for j, parent in enumerate([2.0, 1.0, 3.0, 1.5, 2.5, 1.0, 4.0, 2.0, 1.2, 0.8]):
        for side, value in (("parent", parent), ("change", parent * math.exp(-0.05 * j))):
            runs.append({"seed": j + 1, "side": side, "correct": True, "failed": 0, **dict.fromkeys(bounds, value)})
    summary = pairs.summarize(runs, bounds)["pass_s.p50"]
    assert summary["median_log_ratio"] == -0.225
    assert summary["log_ratio_sign_test_95"] == [-0.4, -0.05]


def test_bench_pairs_marks_wide_parent_spread_unresolved():
    # The parent's runs spread over [1.0, 1.5] around a median of 1.2: an IQR
    # of 0.3, wider than a 0.2 bound times the median, so a change inside
    # that spread is unresolved, not unchanged, while one whose every run is
    # below every parent run is resolved.
    pairs = _load_script("bench_pairs")
    bounds = dict.fromkeys(pairs.load_bounds(str(ROOT)), 0.2)
    parent = [1.0, 1.5, 1.2, 1.0, 1.5]
    for change, unresolved in (([0.9, 0.8, 0.7, 0.9, 0.6], False), ([1.1, 1.4, 1.2, 1.0, 1.3], True)):
        runs = [
            {"seed": seed, "side": side, "correct": True, "failed": 0, **dict.fromkeys(bounds, value)}
            for seed, pair in enumerate(zip(parent, change), 1)
            for side, value in zip(("parent", "change"), pair)
        ]
        summary = pairs.summarize(runs, bounds)
        assert summary["pass_s.p50"]["parent_q1_median_q3"] == [1.0, 1.2, 1.5]
        assert all(summary[name]["unresolved"] is unresolved for name in bounds)
    # Under a bound wider than the spread, the second change is resolved.
    assert not pairs.summarize(runs, dict.fromkeys(bounds, 0.5))["setup_s"]["unresolved"]


def test_readme_library_quickstart_runs():
    # The README's quickstart block, run as written, so a renamed field or
    # function cannot leave it stale.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[1].startswith("ContainmentReport(fraction=")
    lower, value, upper = map(float, lines[0].split())
    assert lower < value < upper


def test_bench_pairs_cli_runs_both_trees(tmp_path):
    # One CLI pair at a tiny size with this tree on both sides: every command
    # exits 0 and writes the same bytes on both sides, so the pair is correct.
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(ROOT), str(ROOT),
         "--cli", "200", "--pairs", "1", "--topic", "smoke", "--out", str(out)],
        capture_output=True, text=True, env=ENV, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    summary = report["summary"]["cli_n=200"]
    assert summary["all_correct"] and summary["failed"] == 0
    assert [name for name in summary if name.endswith("_s")] == [
        "sample_s", "estimate_s", "bands_s", "fit_s", "plot_s", "reproduce_s"]
    assert summary["plot_s"]["pairs"] == 1 and len(report["runs"]["cli_n=200"]) == 2


def test_bench_pairs_alternates_and_compares_output_bytes(capsys):
    # The parent runs first on odd seeds; a runner's output hashes must agree
    # across the two trees, or both runs of that pair are incorrect.
    pairs = _load_script("bench_pairs")
    trees = {"parent": "p", "change": "c"}
    for digest, correct in ((lambda tree: "same", True), (lambda tree: tree, False)):
        runs = pairs.run_pairs(trees, "cli_n=9", lambda tree, seed: {
            "correct": True, "failed": 0, "x_s": 1.0, "hashes": {"plot": digest(tree)}}, [1, 2])
        assert [(r["seed"], r["side"], r["correct"]) for r in runs] == [
            (1, "parent", correct), (1, "change", correct), (2, "change", correct), (2, "parent", correct)]
        assert all("hashes" not in r for r in runs)
    assert capsys.readouterr().out.count('"pairs": "cli_n=9"') == 8
