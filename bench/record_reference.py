"""Record reference output digests for the output checks.

    python3 bench/record_reference.py --seeds 0-15

Runs the first passes of every workload for each seed, checks them against
the oracle (a reference that fails the oracle is refused), and writes
``bench/reference/<workload>.json``.  References pin the outputs of the
commit they were recorded from; re-recording them changes the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

import run
import workloads as W

# Warm units recorded after the first pass: large_n covers all three families
# in passes 0-3, smoothed_mid two inputs; the CLI outputs of every pass equal
# those of the first.
REFERENCE_UNITS = {"cli_small": 0, "large_n": 1, "smoothed_mid": 1}


def _round(value):
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, list):
        return [_round(v) for v in value]
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    return value


def record(workload: str, seed: int) -> dict:
    import checks

    workdir = os.path.join(run.ROOT, ".bench_work", f"reference-{workload}-s{seed}")
    deadline = time.monotonic() + 600.0
    result = run.spawn(workload, seed, "record", 0, workdir, False, deadline, passes=REFERENCE_UNITS[workload])
    if workload == "cli_small":
        f, _, digests = checks.check_cli(result, os.path.join(workdir, "cli"), None, [])
    else:
        with np.load(os.path.join(workdir, "outputs.npz")) as npz:
            arrays = {k: npz[k] for k in npz.files}
        f, _, digests = checks.check_in_process(result, arrays, None)
    if f.items:
        raise SystemExit(f"{workload} seed {seed} fails its checks; not recording: {f.items}")
    return _round(digests)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-15", help="inclusive range A-B")
    ap.add_argument("--workload", choices=W.WORKLOADS, action="append")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    commit = subprocess.run(["git", "-C", run.ROOT, "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    os.makedirs(os.path.join(run.BENCH_DIR, "reference"), exist_ok=True)
    for workload in args.workload or W.WORKLOADS:
        seeds = {str(s): record(workload, s) for s in range(lo, hi + 1)}
        path = os.path.join(run.BENCH_DIR, "reference", f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"recorded_from": commit or "unknown", "seeds": seeds}, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path}: seeds {lo}-{hi}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
