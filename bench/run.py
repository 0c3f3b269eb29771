"""llcopula benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds T   # every workload, one table
    python3 bench/run.py --workload all --smoke                # tiny sizes, fixed passes

Run from the repository root.  Each workload runs in fresh worker processes
(``worker.py``) against ``src/llcopula`` as checked out; this process only
orchestrates, checks outputs (``checks.py``) and reports.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics).  A full record, with provenance and every failure, is written to
``.bench_work/<workload>-s<seed>-t<trace>/report.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workloads as W  # noqa: E402

SETUP_REPEATS = 3  # cold starts per timed run; setup_s is their median
PROBE_REPEATS = 3
RUN_DEADLINE_S = 150.0  # workers; checks and probes follow within the 180 s limit
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(workload, seed, mode, seconds, workdir, smoke, deadline, passes=None) -> dict:
    """Run one worker process to completion and return its results."""
    os.makedirs(workdir, exist_ok=True)
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--seconds", str(seconds), "--workdir", workdir]
    if smoke:
        argv.append("--smoke")
    if passes is not None:
        argv += ["--passes", str(passes)]
    log_path = os.path.join(workdir, "worker.log")
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{workload} worker ({mode}) exceeded the run deadline") from None
    if code != 0:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-3000:]
        raise BenchError(f"{workload} worker ({mode}) exited with {code}:\n{tail}")
    with open(os.path.join(workdir, "results.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["spawned"] = spawned
    result["workdir"] = workdir
    return result


def tail_stat(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten passes beyond it.

    With fewer than 21 passes no such percentile leaves the median behind,
    so the number required beyond falls to (N - 1) // 2; with three passes
    the tail is the median.  Returns (value, percentile, passes beyond).
    """
    xs = sorted(values)
    beyond = min(TAIL_BEYOND, (len(xs) - 1) // 2)
    k = len(xs) - 1 - beyond
    return xs[k], 100.0 * (k + 1) / len(xs), beyond


def count_operations(workers: list[dict], errors: list[dict], check_failures: list[dict]) -> tuple[int, int]:
    """Attempted and failed operations, each (operation, replicate) counted once.

    Passes repeat the inputs of a fixed pool, and every process of a run
    covers the same pool entries, so both counts depend on the seed alone.
    A repeat that gives different outputs is a failed check of its own.
    """
    attempted = {tuple(op) for w in workers for op in w["ops"]}
    failed = {(e.get("operation"), e.get("replicate")) for e in errors + check_failures}
    return len(attempted), len(failed)


# ------------------------------------------------------------------ probes


def probe_seconds(argv, repeats=PROBE_REPEATS) -> float:
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=child_env(), cwd=ROOT, check=True, capture_output=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def import_attribution() -> dict:
    """Interpreter start, ``import llcopula.cli``, and its scipy and numpy shares."""
    interp = probe_seconds([sys.executable, "-c", "pass"])
    imported = probe_seconds([sys.executable, "-c", "import llcopula.cli"])
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import llcopula.cli"], env=child_env(),
                          cwd=ROOT, check=True, capture_output=True, text=True)
    self_us = {"scipy": 0, "numpy": 0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in self_us:
            self_us[top] += int(own)
    return {"cli.interp_s": interp, "cli.import_s": imported - interp,
            "cli.import.scipy_s": self_us["scipy"] / 1e6, "cli.import.numpy_s": self_us["numpy"] / 1e6}


# ------------------------------------------------------------------ layers


def _load_spans(path: str) -> tuple[list, dict]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    counters = {int(k): v for k, v in data["counters"].items()}
    return [tuple(s) for s in data["spans"]], counters


def per_layer(workload: str, main: dict, probes: dict) -> dict:
    import tracing

    traced = [p for p in main["passes"] if p["traced"]]
    untraced = [p["wall_s"] for p in main["passes"] if not p["traced"] and p["pass"] > 0]
    pass_ids = [p["pass"] for p in traced]
    metrics = dict(probes)
    if workload == "cli_small":
        totals, counters, self_s = {}, {}, []
        for p in traced:
            pid, spent = p["pass"], 0.0
            for proc in p["processes"]:
                path = os.path.join(main["workdir"], "cli", "spans", f"{pid}-{proc['command']}.json")
                if not os.path.exists(path):
                    continue
                spans, counts = _load_spans(path)
                for key, value in tracing.pass_totals(spans).get(pid, {}).items():
                    totals.setdefault(pid, {}).setdefault(key, 0.0)
                    totals[pid][key] += value
                    if key == "top_level_s":
                        spent += value
                for key, value in counts.get(pid, {}).items():
                    counters.setdefault(pid, {}).setdefault(key, 0.0)
                    counters[pid][key] += value
            self_s.append(sum(q["wall_s"] for q in p["processes"]) - spent)
        metrics.update(tracing.layer_metrics(totals, counters, pass_ids))
        for cmd in W.CLI_COMMANDS:
            metrics[f"cli.{cmd}.process_s"] = statistics.median(
                q["wall_s"] for p in traced for q in p["processes"] if q["command"] == cmd)
        metrics["cli.self_s"] = statistics.median(self_s)
        metrics["cli.errors"] = sum(q["returncode"] != 0 for p in traced for q in p["processes"])
    else:
        spans, counters = _load_spans(os.path.join(main["workdir"], "spans.json"))
        metrics.update(tracing.layer_metrics(tracing.pass_totals(spans), counters, sorted(set(pass_ids))))
        metrics.update({f"cli.{cmd}.process_s": 0.0 for cmd in W.CLI_COMMANDS})
        metrics["cli.self_s"] = 0.0
        metrics["cli.errors"] = 0
    metrics["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(untraced)
    return metrics


# ------------------------------------------------------------------ provenance


def provenance(main: dict, seed: int, passes: int) -> dict:
    import scipy

    commit = "unknown: not a git checkout"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "llcopula")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": main["provenance"]["blas"],
        "python": main["python"],
        "numpy": main["provenance"]["numpy"],
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload_seed": seed,
        "sizes": main["sizes"],
        "passes": passes,
    }


# ------------------------------------------------------------------ one workload


def compare_setup_outputs(workload: str, main: dict, child: dict, failures: list) -> None:
    """A cold start must give the same pass-0 outputs as the measured process."""
    if child["passes"][0]["fingerprints"] != main["passes"][0]["fingerprints"]:
        failures.append({"workload": workload, "operation": "pass 0 in a second process", "pass": 0,
                         "seed": main["seed"], "error": "check failed: outputs differ between processes"})


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import numpy as np

    import checks

    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-s{seed}-t{int(trace)}{'-smoke' if smoke else ''}")
    shutil.rmtree(workdir, ignore_errors=True)
    repeats = 1 if trace or smoke else SETUP_REPEATS
    workers = [spawn(workload, seed, "setup", seconds, os.path.join(workdir, f"setup{i}"), smoke, deadline)
               for i in range(repeats - 1)]
    mode = "trace" if trace else "timed"
    main = spawn(workload, seed, mode, seconds, os.path.join(workdir, "main"), smoke, deadline,
                 passes=1 if smoke else None)
    workers.append(main)

    reference = checks.load_reference(BENCH_DIR, workload, seed, smoke)
    if workload == "cli_small":
        f, sup, _ = checks.check_cli(main, os.path.join(main["workdir"], "cli"), reference,
                                     [w["passes"][0]["hashes"] for w in workers[:-1]])
        check_failures = f.items
    else:
        with np.load(os.path.join(main["workdir"], "outputs.npz")) as npz:
            arrays = {k: npz[k] for k in npz.files}
        f, sup, _ = checks.check_in_process(main, arrays, reference)
        check_failures = f.items
        for child in workers[:-1]:
            compare_setup_outputs(workload, main, child, check_failures)
    errors = [e for w in workers for e in w["errors"]]
    attempted, failed = count_operations(workers, errors, check_failures)

    warm = [p["wall_s"] for p in main["passes"] if p["pass"] > 0 and not p["traced"]]
    tail, pct, beyond = tail_stat(warm)
    setups = [w["first_pass_done"] - w["spawned"] - w["gen_s"] for w in workers]
    e2e = {
        "setup_s": statistics.median(setups),
        "pass_s.p50": statistics.median(warm),
        "pass_s.tail": tail,
        "peak_rss_mb": main["rss_kb"] / 1024.0,
        "error_rate": failed / attempted,
        "sup_err": statistics.median(sup) if sup else math.nan,
    }
    report = {
        "workload": workload,
        "correct": not check_failures,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "detail": {
            "setup_samples_s": setups,
            "warm_passes": len(warm),
            "calls": sum(w["calls"] for w in workers),
            "pass_s.tail_percentile": pct,
            "pass_s.tail_passes_beyond": beyond,
            "sup_err_per_pass": sup,
            "checks_run": f.checked,
            "reference_seed_recorded": reference is not None,
        },
        "failures": errors + check_failures,
        "provenance": provenance(main, seed, len(main["passes"])),
    }
    if trace:
        report["per_layer"] = per_layer(workload, main, import_attribution())
        traced = [p["wall_s"] for p in main["passes"] if p["traced"]]
        report["detail"]["traced_pass_s.p50"] = statistics.median(traced)
        report["detail"]["traced_passes"] = len(traced)
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


# ------------------------------------------------------------------ output

E2E_UNITS = {"setup_s": "s", "pass_s.p50": "s", "pass_s.tail": "s", "peak_rss_mb": "MB",
             "error_rate": "ratio", "sup_err": "abs"}


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def print_report(report: dict, spec: dict) -> None:
    d = report["detail"]
    p = report["provenance"]
    print(f"== {report['workload']}  seed {p['workload_seed']}  sizes {p['sizes']}  passes {p['passes']}")
    print(f"   provenance: nproc {p['nproc']} (affinity {p['cpu_affinity']}), BLAS {p['blas']['name']} "
          f"{p['blas']['version']} threads {p['blas']['threads']}, python {p['python']}, numpy {p['numpy']}, "
          f"scipy {p['scipy']}, commit {p['git_commit']}, src sha256 {p['src_sha256'][:16]}")
    e = report["end_to_end"]
    for name, value in e.items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(d['setup_samples_s'])} cold starts"
        elif name == "pass_s.p50":
            note = f"median of {d['warm_passes']} warm passes"
        elif name == "pass_s.tail":
            note = f"p{d['pass_s.tail_percentile']:.1f}, {d['pass_s.tail_passes_beyond']} of {d['warm_passes']} passes beyond"
        elif name == "error_rate":
            note = (f"{report['failed']} failed of {report['attempted']} distinct operations "
                    f"({d['calls']} calls)")
        elif name == "sup_err":
            note = "median over passes of the pass's largest sup |estimate - C|"
        print(f"   {name:<14}{value:>14.6g} {E2E_UNITS[name]:<6} {note}")
    print(f"   correct: {report['correct']} ({d['checks_run']} checks; recorded reference for this seed: "
          f"{d['reference_seed_recorded']})")
    for item in report["failures"][:20]:
        print(f"   FAILED {json.dumps(item, sort_keys=True)}")
    if len(report["failures"]) > 20:
        print(f"   ... {len(report['failures']) - 20} more failures in report.json")
    if "per_layer" in report:
        import tracing

        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"   traced pass_s.p50 {d['traced_pass_s.p50']:.6g} s over {d['traced_passes']} traced passes")
        for name, value in report["per_layer"].items():
            label = " (computed)" if name in tracing.COMPUTED else ""
            if name == "kernels.window_ratio":
                label = " (base: kernels.local_linear_cdf.elements)"
            elif name == "margins.smoothed.window_ratio":
                label = " (base: margins.smoothed.kernel_evals)"
            print(f"   {name:<36}{value:>14.6g} {units.get(name, ''):<8}{label}")


def result_line(reports: list[dict], spec: dict, trace: bool) -> dict:
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    metrics = {}
    for rep in reports:
        values = rep["per_layer"] if trace else rep["end_to_end"]
        prefix = "" if len(reports) == 1 else f"{rep['workload']}."
        for name in names:
            metrics[prefix + name] = {"value": values[name], "unit": units[name]}
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="llcopula benchmark")
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None, help="warm-pass budget per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes and one warm unit, for a quick self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "llcopula", "__init__.py")):
        print(f"error: no llcopula source under {os.path.join(ROOT, 'src')}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = benchmark_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(name, args.seed, seconds, bool(args.trace), args.smoke) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rep in reports:
        print_report(rep, spec)
    print(json.dumps(result_line(reports, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
