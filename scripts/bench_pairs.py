#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, written as BENCH_<topic>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE [--workload W ...] [--cli N ...] \\
        --pairs N --topic T [--heldout SEED] [--traced SEED ...] \\
        [--claim TEXT] [--out PATH]

PARENT and CHANGE are two source trees, each with its own ``bench/run.py``.
Seeds 1 to N make N pairs per workload and per CLI size.  Within a pair both
trees run the same seed, one after the other, with the parent first on odd
seeds and the change first on even ones, so a drift of the host between runs
falls on both sides alike.  A workload run is ``bench/run.py --workload W
--seed SEED --trace 0`` in its own tree; its end-to-end block (the last line
of its stdout) becomes one run record.  A ``--cli N`` run is the 22 commands
of ``commands(N)``, each a fresh ``python -m llcopula.cli`` process with its
tree's ``src`` on PYTHONPATH, in a fresh directory per run; each command's
seconds, from process start to exit, is one metric, named after its output
file.  Both runs of a CLI pair are incorrect unless every command exits 0 and
all 23 files in the two directories are byte-identical; each file that
differs is described in both records' ``moved`` and on stdout: the
``# key = value`` metadata keys added, removed or changed, and how many of
the other numbers moved and the largest move (``describe``).  To check that a
change keeps every output's bytes, run
``python3 scripts/bench_pairs.py PARENT CHANGE --cli 1000 --pairs 1 --topic bytes``.
The summary gives, per workload or CLI size (``cli_n=N``) and metric, the
pairs in which the change is lower, both sides' quartiles (inclusive method)
and whether the medians differ by more than the parent's interquartile range,
and whether the change's median is worse than the parent's beyond the bound
that the parent's BENCHMARK.json fixes for the metric.
A metric whose parent runs spread wider than the bound that the parent's
BENCHMARK.json fixes for it (interquartile range above bound times median) is
marked unresolved, since the pairs cannot tell it from unchanged, unless every
run of the change is lower than every run of the parent.  ``--heldout`` adds
one more pair per workload on a seed kept apart from the claim, summarized on
its own; each ``--traced`` seed adds one ``--trace 1`` pair per workload,
recorded with every per-layer metric.  The script exits 1 when any run is
incorrect, so a script can gate on it, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

BENCH_COMMAND = "python3 bench/run.py --workload <workload> --seed <seed> --trace 0 (seconds: BENCHMARK.json's run_seconds)"
SAMPLES = {"sample_clayton.csv": ("clayton", "2"), "sample_frank.csv": ("frank", "5"),
           "sample_gumbel.csv": ("gumbel", "1.69"), "sample_frank_1e-12.csv": ("frank", "1e-12")}
OVERLAYS = [arg for o in ("clayton=2", "frank=5", "gumbel=1.69") for arg in ("--overlay", o)]
TIED = "sample_frank_3dp.csv"
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def commands(n) -> list[list[str]]:
    """The CLI chain at sample size ``n``, each argv ending in its output file,
    paths relative to the run directory: ``sample`` for each of ``SAMPLES``;
    ``estimate``, ``bands`` and ``bands --clip`` on the Clayton sample at 101
    and 31 nodes, rank and smoothed; ``fit``; ``fit`` and ``estimate --grid 31``
    on ``TIED``, the Frank 5 sample at 3 decimals (``write_rounded``, run
    between commands), so that the ties take the tie paths of the ranks and of
    Kendall's tau; ``plot`` with three overlays; ``reproduce`` for Clayton and
    Frank.  Every output file echoes its command line, hence the relative paths."""
    out = [["sample", "--family", f, "--theta", t, "--n", str(n), "--seed", "7", "--out", name]
           for name, (f, t) in SAMPLES.items()]
    for grid in ("101", "31"):
        for transform in ("rank", "smoothed"):
            args = ["--in", "sample_clayton.csv", "--grid", grid, "--transform", transform]
            tag = f"{grid}_{transform}"
            out.append(["estimate", *args, "--out", f"estimate_{tag}.csv"])
            out.append(["bands", *args, "--out", f"bands_{tag}.csv"])
            out.append(["bands", *args, "--clip", "--out", f"bands_{tag}_clip.csv"])
    out.append(["fit", "--in", "sample_clayton.csv", "--out", "fit.csv"])
    out.append(["fit", "--in", TIED, "--out", "fit_tied.csv"])
    out.append(["estimate", "--in", TIED, "--grid", "31", "--out", "estimate_tied.csv"])
    out.append(["plot", "--in", "bands_101_rank.csv", *OVERLAYS, "--out", "plot.svg"])
    for family in ("clayton", "frank"):
        out.append(["reproduce", "--family", family, "--n", str(n), "--seed", "41", "--out", f"reproduce_{family}.csv"])
    return out


def metric(line: list[str]) -> str:
    """The name of a command's seconds: its output file's stem."""
    return f"{Path(line[-1]).stem}_s"


def write_rounded(source: str, target: str) -> None:
    """``source``'s header and data rows, each value rounded to 3 decimals."""
    header, *rows = (line for line in Path(source).read_text().splitlines() if line and not line.startswith("#"))
    rounded = (",".join(f"{float(cell):.3f}" for cell in row.split(",")) for row in rows)
    Path(target).write_text("\n".join([header, *rounded]) + "\n")


def largest_move(a: bytes, b: bytes):
    """(count moved, count of numbers, largest absolute move) between two files
    whose text apart from the numbers is the same; None when the text differs."""
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    moves = [abs(float(x) - float(y)) for x, y in zip(NUMBER.findall(a), NUMBER.findall(b))]
    return sum(m > 0 for m in moves), len(moves), max(moves, default=0.0)


def split_meta(data: bytes):
    """The file without its ``# key = value`` lines, and those entries as a dict."""
    rest, meta = [], {}
    for line in data.split(b"\n"):
        if line.startswith(b"# ") and b" = " in line:
            key, _, value = line[2:].partition(b" = ")
            meta[key.decode()] = value.decode()
        else:
            rest.append(line)
    return b"\n".join(rest), meta


def describe(a: bytes, b: bytes) -> str:
    """The metadata keys added, removed or changed from ``a`` to ``b``, and
    the largest numeric move over the rest."""
    rest_a, meta_a = split_meta(a)
    rest_b, meta_b = split_meta(b)
    notes = []
    if rest_a == rest_b:
        notes.append("data rows byte-identical")
    else:
        moved = largest_move(rest_a, rest_b)
        notes.append("text differs apart from its numbers" if moved is None
                     else f"{moved[0]} of {moved[1]} numbers moved, largest by {moved[2]:.3g}")
    for kind, keys in (("added", meta_b.keys() - meta_a.keys()), ("removed", meta_a.keys() - meta_b.keys()),
                       ("changed", {k for k in meta_a.keys() & meta_b.keys() if meta_a[k] != meta_b[k]})):
        if keys:
            notes.append(f"metadata {kind}: {', '.join(sorted(keys))}")
    return "; ".join(notes)


def moved_files(parent: dict, change: dict) -> dict:
    """Each file name whose bytes differ between the two sides' ``outputs``,
    with ``describe``'s note, or the side it is missing on."""
    moved = {}
    for name in sorted(parent.keys() | change.keys()):
        if name not in parent or name not in change:
            moved[name] = f"missing on the {'change' if name in parent else 'parent'} side"
        elif parent[name] != change[name]:
            moved[name] = describe(parent[name], change[name])
    return moved


def run_bench(tree: str, workload: str, seed: int, trace: bool = False) -> dict:
    """One ``bench/run.py`` run in ``tree``: its correctness counts and the
    metrics of its result line, end-to-end or (traced) per-layer."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = {key: line[key] for key in ("correct", "attempted", "failed")}
    record.update({name: metric["value"] for name, metric in line["metrics"].items()})
    return record


def run_cli(tree: str, n: int) -> dict:
    """The CLI chain at size ``n`` with ``tree``'s sources, in a fresh
    directory: each command's seconds (``metric``), the failed count and the
    ``outputs``, each file left in the directory by name with its bytes."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    record, failed = {}, 0
    with tempfile.TemporaryDirectory() as directory:
        for line in commands(n):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "llcopula.cli", *line], cwd=directory, env=env,
                                  capture_output=True, text=True, timeout=600)
            record[metric(line)] = round(time.perf_counter() - t0, 4)
            if proc.returncode != 0:
                failed += 1
                print(f"{tree}: llcopula {' '.join(line)} exited with {proc.returncode}: {proc.stderr[-500:]}",
                      file=sys.stderr)
            elif line[-1] == "sample_frank.csv":
                write_rounded(os.path.join(directory, line[-1]), os.path.join(directory, TIED))
        outputs = {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}
    return {"correct": failed == 0, "failed": failed, **record, "outputs": outputs}


def run_pairs(trees: dict, label: str, runner, seeds) -> list[dict]:
    """One pair per seed, the parent first on odd seeds; a record per run of
    ``runner(tree, seed)``.  A runner that returns ``outputs`` makes both runs
    of a pair incorrect unless the two sides' files are byte-identical; the
    files that differ go into both records' ``moved`` (``moved_files``) and
    onto stdout, one line each, with the count of identical files."""
    records = []
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {side: {"seed": seed, "side": side, "first": order[0], **runner(trees[side], seed)} for side in order}
        outputs = {side: record.pop("outputs", None) for side, record in pair.items()}
        moved = {}
        if outputs["parent"] is not None:
            moved = moved_files(outputs["parent"], outputs["change"])
            for record in pair.values():
                record["moved"] = moved
        for record in pair.values():
            record["correct"] = record["correct"] and not moved
            records.append(record)
            print(json.dumps({"pairs": label, **record}), flush=True)
        if outputs["parent"] is not None:
            for name, note in moved.items():
                print(f"{label} seed {seed}: {name}: {note}")
            total = len(outputs["parent"].keys() | outputs["change"].keys())
            print(f"{label} seed {seed}: {total - len(moved)} of {total} files byte-identical", flush=True)
    return records


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return list(values) * 3
    return [round(q, 4) for q in statistics.quantiles(values, n=4, method="inclusive")]


def sign_test_rank(pairs: int) -> int:
    """The largest k for which the k-th smallest and k-th largest of ``pairs``
    values bound their median with probability >= 95 % (the sign test's
    interval, distribution-free), or 0 when no k does."""
    k = 0
    while 1 - 2 * sum(math.comb(pairs, i) for i in range(k + 1)) / 2**pairs >= 0.95:
        k += 1
    return k


def load_bounds(tree: str) -> dict:
    """Each end-to-end metric's bound, from the tree's BENCHMARK.json (read only)."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {metric["name"]: metric["bound"] for metric in json.load(fh)["end_to_end"]}


def summarize(runs: list[dict], bounds: dict) -> dict:
    """Whether every run was correct, the failed operations, and per metric
    named in ``bounds``, over the seeds run on both sides: the pairs, the
    change-lower count, both sides' [q1, median, q3], whether the medians
    differ by more than the parent's IQR, whether the change median exceeds
    the parent median times (1 + bound), and whether that IQR is wider than
    the metric's bound times the parent median (unresolved, unless every
    change run is lower than every parent run).  Beside these, the paired
    effect size: the median of the per-pair log(change / parent), and its
    95 % sign-test interval (``sign_test_rank``; None when the pairs are too
    few for one).  ``runs`` holds one record per side and seed."""
    sides = {side: {r["seed"]: r for r in runs if r["side"] == side} for side in ("parent", "change")}
    seeds = sorted(set(sides["parent"]) & set(sides["change"]))
    out = {"all_correct": all(r["correct"] for r in runs), "failed": sum(r["failed"] for r in runs)}
    for name in bounds:
        parent = [sides["parent"][s][name] for s in seeds]
        change = [sides["change"][s][name] for s in seeds]
        pq, cq = quartiles(parent), quartiles(change)
        logs = sorted(math.log(c / p) for p, c in zip(parent, change))
        k = sign_test_rank(len(logs))
        out[name] = {
            "pairs": len(seeds),
            "change_lower": sum(c < p for p, c in zip(parent, change)),
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "medians_differ_beyond_parent_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
            "worse_beyond_bound": cq[1] > pq[1] * (1 + bounds[name]),
            "unresolved": pq[2] - pq[0] > bounds[name] * pq[1] and not max(change) < min(parent),
            "median_log_ratio": round(statistics.median(logs), 4),
            "log_ratio_sign_test_95": [round(logs[k - 1], 4), round(logs[-k], 4)] if k else None,
        }
    return out


def summaries(runs: dict, bounds: dict) -> dict:
    """``summarize`` per workload or CLI size (``cli_n=N``) in ``runs``, each
    CLI command held to the bound of ``pass_s.p50``."""
    cli = {metric(line): bounds["pass_s.p50"] for line in commands(0)}
    return {key: summarize(r, cli if key.startswith("cli_n=") else bounds) for key, r in runs.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--cli", type=int, action="append", default=[], help="sample size of a CLI chain pair")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--topic", required=True)
    ap.add_argument("--heldout", type=int, default=None, help="one more pair per workload, summarized apart")
    ap.add_argument("--traced", type=int, action="append", default=[], help="seed of one traced pair per workload")
    ap.add_argument("--claim", default="", help="the claim the pairs test, recorded as given")
    ap.add_argument("--out", default=None, help="output path (default: BENCH_<topic>.json here)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    if not args.workload and not args.cli:
        ap.error("give at least one --workload or --cli")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    bounds = load_bounds(trees["parent"])
    seeds = range(1, args.pairs + 1)
    runs, heldout, traced = {}, {}, {}
    for w in args.workload:
        runs[w] = run_pairs(trees, w, lambda tree, seed: run_bench(tree, w, seed), seeds)
        if args.heldout is not None:
            heldout[w] = run_pairs(trees, w, lambda tree, seed: run_bench(tree, w, seed), [args.heldout])
        if args.traced:
            traced[w] = run_pairs(trees, f"{w} traced", lambda tree, seed: run_bench(tree, w, seed, trace=True), args.traced)
    for n in args.cli:
        runs[f"cli_n={n}"] = run_pairs(trees, f"cli_n={n}", lambda tree, seed: run_cli(tree, n), seeds)
    described = [BENCH_COMMAND] * bool(args.workload) + [
        "per CLI size, python -m llcopula.cli <command>, a fresh process each: "
        + "; ".join(" ".join(line) for line in commands("<n>"))] * bool(args.cli)
    report = {
        "topic": args.topic,
        "command": " | ".join(described),
        "method": (f"{args.pairs} pairs per workload and CLI size, seeds 1-{args.pairs}; within a pair the parent "
                   "runs first on odd seeds and the change on even ones"),
        "machine": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, numpy {version('numpy')}",
        "claim": args.claim,
        "summary": summaries(runs, bounds),
        "heldout_seed": args.heldout,
        "heldout_summary": summaries(heldout, bounds),
        "runs": runs,
        "heldout_runs": heldout,
        "traced_seeds": args.traced,
        "traced_runs": traced,
    }
    out = args.out or f"BENCH_{args.topic}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    every = [r for group in (runs, heldout, traced) for records in group.values() for r in records]
    return 0 if all(r["correct"] for r in every) else 1


if __name__ == "__main__":
    sys.exit(main())
