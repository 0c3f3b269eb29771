#!/usr/bin/env python3
"""Byte report: run a fixed set of CLI commands, then compare output files.

    python3 scripts/byte_report.py run OUT          # run the set into OUT, print SHA-256 per file
    python3 scripts/byte_report.py diff OUT_A OUT_B # what moved in each file that differs

The set is ``sample`` for Clayton, Frank and Gumbel at n = 1000; ``estimate``
and ``bands`` on the Clayton sample at 101 and 31 nodes, rank and smoothed,
``bands`` with and without ``--clip``; ``fit``; ``plot`` with three overlays;
``reproduce`` for Clayton and Frank at n = 500.  Then ``fit`` and ``estimate``
at 31 nodes run on ``sample_frank_3dp.csv``, the Frank sample's data rows
rounded to 3 decimals in plain Python, so that the ties take the tie paths of
the ranks and of Kendall's tau: 21 commands and 22 files in all.  The commands
run inside OUT with relative paths, because every output file echoes its
command line.  To compare two checkouts, run the set once with each
checkout's ``src`` on PYTHONPATH, then diff the two directories.  For each
file that differs, ``diff`` names the ``# key = value`` metadata entries
added, removed or changed, and separately the largest numeric move over the
rest of the file.  ``diff`` exits 0 when every file is byte-identical and 1
when any file differs or exists on one side only, so a script can gate on it.
"""

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
from pathlib import Path

SAMPLES = (("clayton", "2"), ("frank", "5"), ("gumbel", "1.69"))
TIED = "sample_frank_3dp.csv"
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def commands():
    """The fixed command set, each argv with its output file relative to OUT."""
    out = [["sample", "--family", f, "--theta", t, "--n", "1000", "--seed", "7", "--out", f"sample_{f}.csv"]
           for f, t in SAMPLES]
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
    overlays = [arg for f, t in SAMPLES for arg in ("--overlay", f"{f}={t}")]
    out.append(["plot", "--in", "bands_101_rank.csv", *overlays, "--out", "plot.svg"])
    for family in ("clayton", "frank"):
        out.append(["reproduce", "--family", family, "--n", "500", "--seed", "41", "--out", f"reproduce_{family}.csv"])
    return out


def write_rounded(source: str, target: str) -> None:
    """``source``'s header and data rows, each value rounded to 3 decimals."""
    header, *rows = (line for line in Path(source).read_text().splitlines() if line and not line.startswith("#"))
    rounded = (",".join(f"{float(cell):.3f}" for cell in row.split(",")) for row in rows)
    Path(target).write_text("\n".join([header, *rounded]) + "\n")


def run(directory: Path) -> None:
    from llcopula.cli import main as cli_main  # here, so that ``diff`` needs no llcopula

    directory.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(directory)
    try:
        for argv in commands():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            if code != 0:
                sys.exit(f"llcopula {' '.join(argv)} exited with {code}")
            if argv[-1] == "sample_frank.csv":
                write_rounded(argv[-1], TIED)
    finally:
        os.chdir(home)
    for path in sorted(directory.iterdir()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")


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


def diff(first: Path, second: Path) -> bool:
    """Print what differs between the two directories; True if nothing does."""
    names = sorted({p.name for p in first.iterdir()} | {p.name for p in second.iterdir()})
    same = 0
    for name in names:
        a, b = first / name, second / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in {a.parent if a.exists() else b.parent}")
            continue
        data_a, data_b = a.read_bytes(), b.read_bytes()
        if data_a == data_b:
            same += 1
            continue
        print(f"{name}: {describe(data_a, data_b)}")
    print(f"{same} of {len(names)} files byte-identical")
    return same == len(names)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="action", required=True)
    sub.add_parser("run").add_argument("out", type=Path)
    d = sub.add_parser("diff")
    d.add_argument("first", type=Path)
    d.add_argument("second", type=Path)
    args = ap.parse_args()
    if args.action == "run":
        run(args.out)
    elif not diff(args.first, args.second):
        sys.exit(1)


if __name__ == "__main__":
    main()
