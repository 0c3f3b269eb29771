"""Tier-1 smoke runs of the scripts, so that they cannot rot unnoticed.

The coverage study runs in its own interpreter at tiny size (about a
second); the test checks only that it exits 0 and prints its table header.  The
coverage study's loop also runs in full, as the paper's simulation check.
The benchmark pairs' file description is checked on a nudged output, their
summary and pairing on made-up run records (no benchmark runs), one tiny CLI
pair runs this tree on both sides, and the README's library quickstart runs
as written.
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

from llcopula.cli import main as cli_main
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


def test_describe_names_moved_numbers_and_metadata(tmp_path, monkeypatch):
    # A real estimate grid and a copy with one grid cell nudged and one
    # metadata line gone: describe names the move over the data rows and the
    # lost key, and moved_files names only that file.
    pairs = _load_script("bench_pairs")
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["sample", "--family", "frank", "--theta", "5", "--n", "200", "--seed", "7",
                         "--out", "sample_frank.csv"]) == 0
        assert cli_main(["estimate", "--in", "sample_frank.csv", "--grid", "31", "--out", "estimate.csv"]) == 0
    # The tied input is the Frank sample's data rows at 3 decimals.
    pairs.write_rounded("sample_frank.csv", pairs.TIED)
    rows = Path(pairs.TIED).read_text().splitlines()
    assert rows[0] == "u,v" and len(rows) == 201 and all(re.fullmatch(r"\d\.\d{3},\d\.\d{3}", r) for r in rows[1:])
    text = Path("estimate.csv").read_text()
    cell = re.search(r"\n([^,\n]+),([^,\n]+),(0\.[0-9]+)", text)
    nudged = f"{float(cell.group(3)) + 1e-9!r}"
    text = text[: cell.start(3)] + nudged + text[cell.end(3) :]
    assert "# policy_alpha = 0.5\n" in text
    before = {name: Path(name).read_bytes() for name in ("estimate.csv", "sample_frank.csv")}
    after = {**before, "estimate.csv": text.replace("# policy_alpha = 0.5\n", "").encode()}
    note = pairs.describe(before["estimate.csv"], after["estimate.csv"])
    assert re.fullmatch(r"1 of \d+ numbers moved, largest by 1e-09; metadata removed: policy_alpha", note)
    assert pairs.moved_files(before, after) == {"estimate.csv": note}
    assert pairs.moved_files(before, before) == {}
    assert pairs.moved_files(before, {"estimate.csv": before["estimate.csv"]}) == {
        "sample_frank.csv": "missing on the change side"}
    assert pairs.describe(b"# seed = 1\n1,2\n", b"# seed = 2\n1,2\n") == "data rows byte-identical; metadata changed: seed"


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
    # its 22 commands, each named after its output file and held to
    # pass_s.p50's bound, here 0.1, so the same 20 % rise is worse beyond it
    # for a command and not for pass_s.tail.
    names = [pairs.metric(line) for line in pairs.commands(0)]
    cli = [{**run, **dict.fromkeys(names, run["pass_s.tail"])} for run in runs]
    both = pairs.summaries({"large_n": runs, "cli_n=1000": cli}, {**bounds, "pass_s.p50": 0.1})
    assert list(both["large_n"]) == ["all_correct", "failed", *bounds]
    assert list(both["cli_n=1000"]) == ["all_correct", "failed", *names] and len(set(names)) == 22
    assert names[:4] == ["sample_clayton_s", "sample_frank_s", "sample_gumbel_s", "sample_frank_1e-12_s"]
    assert {"fit_tied_s", "bands_31_smoothed_clip_s", "plot_s", "reproduce_frank_s"} <= set(names)
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
    # exits 0 and all 23 files hold the same bytes on both sides, so the pair
    # is correct and the script exits 0.
    pairs = _load_script("bench_pairs")
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(ROOT), str(ROOT),
         "--cli", "200", "--pairs", "1", "--topic", "smoke", "--out", str(out)],
        capture_output=True, text=True, env=ENV, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "cli_n=200 seed 1: 23 of 23 files byte-identical" in proc.stdout.splitlines()
    report = json.loads(out.read_text())
    summary = report["summary"]["cli_n=200"]
    assert summary["all_correct"] and summary["failed"] == 0
    assert [name for name in summary if name.endswith("_s")] == [pairs.metric(line) for line in pairs.commands(200)]
    assert summary["plot_s"]["pairs"] == 1 and len(report["runs"]["cli_n=200"]) == 2
    assert all(run["moved"] == {} for run in report["runs"]["cli_n=200"])


def test_bench_pairs_alternates_and_compares_output_bytes(capsys):
    # The parent runs first on odd seeds; a runner's output files must hold
    # the same bytes on both trees, or both runs of that pair are incorrect
    # and name the file that moved.
    pairs = _load_script("bench_pairs")
    trees = {"parent": "p", "change": "c"}
    for data, moved in ((lambda tree: b"1.5\n", {}),
                        (lambda tree: {"p": b"1.5\n", "c": b"1.25\n"}[tree],
                         {"plot.svg": "1 of 1 numbers moved, largest by 0.25"})):
        runs = pairs.run_pairs(trees, "cli_n=9", lambda tree, seed: {
            "correct": True, "failed": 0, "plot_s": 1.0, "outputs": {"plot.svg": data(tree)}}, [1, 2])
        assert [(r["seed"], r["side"], r["correct"]) for r in runs] == [
            (1, "parent", not moved), (1, "change", not moved), (2, "change", not moved), (2, "parent", not moved)]
        assert all("outputs" not in r and r["moved"] == moved for r in runs)
    out = capsys.readouterr().out
    assert out.count('"pairs": "cli_n=9"') == 8
    assert out.count("cli_n=9 seed 2: plot.svg: 1 of 1 numbers moved, largest by 0.25\n") == 1
    assert out.count("seed 1: 0 of 1 files byte-identical") == 1 and out.count("1 of 1 files byte-identical") == 2
