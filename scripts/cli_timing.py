#!/usr/bin/env python3
"""Wall-clock time of the six CLI commands as fresh processes, two source trees alternated.

    python3 scripts/cli_timing.py PARENT CHANGE [--n N ...] [--rounds R] [--out PATH]

PARENT and CHANGE are two source trees; each command runs as
``python -m llcopula.cli`` with that tree's ``src`` on PYTHONPATH.  Per sample
size N (default 10^3, 10^4 and 10^5) and round, each tree runs in its own
directory, one after the other (the parent first in odd rounds, the change
first in even ones), the chain ``sample`` (Gumbel 1.69, N pairs), ``estimate``
and ``bands`` (101-node grid) and ``fit`` on that sample, ``plot`` of the bands
with three overlays, and ``reproduce`` (Frank, N pairs).  Each command's time, from
process start to exit, is one metric.  A run is correct when every command
exits 0 and each output file is byte-identical to the other tree's in the same
round.  The summary is ``bench_pairs.summarize``'s, with each command held to
the bound that the parent's BENCHMARK.json sets for ``pass_s.p50``.  The report
goes to BENCH_cli_text.json unless ``--out`` names another path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_pairs  # noqa: E402

COMMANDS = ("sample", "estimate", "bands", "fit", "plot", "reproduce")
OVERLAYS = ("clayton=2", "frank=5", "gumbel=1.69")
GRID = "101"


def command_lines(n) -> dict:
    """Each command's arguments, with paths relative to the run directory."""
    data = ["--in", "sample.csv"]
    overlays = [arg for o in OVERLAYS for arg in ("--overlay", o)]
    return {
        "sample": ["sample", "--family", "gumbel", "--theta", "1.69", "--n", str(n), "--seed", "7", "--out", "sample.csv"],
        "estimate": ["estimate", *data, "--grid", GRID, "--out", "estimate.csv"],
        "bands": ["bands", *data, "--grid", GRID, "--out", "bands.csv"],
        "fit": ["fit", *data, "--out", "fit.csv"],
        "plot": ["plot", "--in", "bands.csv", *overlays, "--out", "plot.svg"],
        "reproduce": ["reproduce", "--family", "frank", "--n", str(n), "--seed", "41", "--out", "table.csv"],
    }


def run_chain(tree: str, directory: str, lines: dict) -> dict:
    """The six commands in ``directory`` with ``tree``'s sources: each one's
    seconds, the failed count and the SHA-256 of each output file (None if
    the command wrote none)."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    record, hashes, failed = {}, {}, 0
    for cmd in COMMANDS:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "llcopula.cli", *lines[cmd]], cwd=directory, env=env,
                              capture_output=True, timeout=600)
        record[f"{cmd}_s"] = round(time.perf_counter() - t0, 4)
        failed += proc.returncode != 0
        out = Path(directory, lines[cmd][-1])
        hashes[cmd] = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return {"failed": failed, **record, "hashes": hashes}


def run_rounds(trees: dict, n: int, rounds: int, work: str) -> list[dict]:
    """One run per tree and round, the parent first in odd rounds."""
    lines = command_lines(n)
    records = []
    for rnd in range(1, rounds + 1):
        order = ("parent", "change") if rnd % 2 else ("change", "parent")
        pair = {}
        for side in order:
            with tempfile.TemporaryDirectory(dir=work) as directory:
                pair[side] = {"seed": rnd, "side": side, "first": order[0], **run_chain(trees[side], directory, lines)}
        same = pair["parent"].pop("hashes") == pair["change"].pop("hashes")
        for record in pair.values():
            record["correct"] = record["failed"] == 0 and same
            records.append(record)
            print(json.dumps({"n": n, **record}), flush=True)
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--n", type=int, action="append", help="sample size, repeatable (default 1000, 10000, 100000)")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", default="BENCH_cli_text.json", help="output path")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    sizes = args.n or [1000, 10_000, 100_000]
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    bound = bench_pairs.load_bounds(trees["parent"])["pass_s.p50"]
    bounds = {f"{cmd}_s": bound for cmd in COMMANDS}
    with tempfile.TemporaryDirectory() as work:
        runs = {f"n={n}": run_rounds(trees, n, args.rounds, work) for n in sizes}
    report = {
        "topic": "cli_text",
        "command": "python -m llcopula.cli <command> per command, a fresh process each: "
                   + "; ".join(" ".join(line) for line in command_lines("<n>").values()),
        "method": (f"{args.rounds} rounds per sample size; within a round each tree runs the chain in its own "
                   "directory, the parent first in odd rounds and the change first in even ones"),
        "machine": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, numpy {version('numpy')}",
        "summary": {size: bench_pairs.summarize(r, bounds) for size, r in runs.items()},
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
