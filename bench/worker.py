"""One workload process: cold start, first pass, then warm passes for a time budget.

``python worker.py --workload W --seed S --mode MODE --seconds T --workdir D``

Modes: ``setup`` runs the cold first pass only; ``timed`` adds warm passes
for about T seconds; ``trace`` alternates untraced and traced units on the
same inputs; ``record`` runs exactly ``--passes`` passes (reference
recording and the smoke run).  Results go to ``D/results.json``, output
arrays to ``D/outputs.npz`` and spans to ``D/spans.json``.
"""

import time

PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)


def blas_info(np) -> dict:
    """BLAS library name, version and its current thread count."""
    import ctypes
    import glob

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def warm_loop(run_unit, seconds: float, units: int | None, min_units: int = 1) -> int:
    """Run units back to back: exactly ``units`` of them, or until the budget is spent.

    A new unit starts only if half of the last unit's time still fits, so a
    run overshoots or undershoots the budget by at most half a unit.  A
    budgeted run holds at least ``min_units`` units, so that it covers the
    workload's whole input pool.
    """
    done = 0
    start = time.perf_counter()
    last = 0.0
    while True:
        if units is not None:
            if done >= units:
                break
        elif done >= min_units and time.perf_counter() - start + last / 2 >= seconds:
            break
        t0 = time.perf_counter()
        run_unit(done + 1)
        last = time.perf_counter() - t0
        done += 1
    return done


def run_in_process(args, sizes, result) -> None:
    import numpy as np

    import workloads as W

    t0 = time.perf_counter()
    first_inputs = W.make_inputs(args.workload, args.seed, 0, sizes)
    result["gen_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    import llcopula
    import llcopula.bands
    import llcopula.estimator
    import llcopula.families
    import llcopula.fitting
    import llcopula.margins
    import llcopula.sampling

    result["import_s"] = time.perf_counter() - t0
    run = W.Run(llcopula, args.workload, args.seed, sizes)
    # The first outputs of each replicate are kept in full; a repeat keeps only
    # its fingerprint, so the process's memory does not grow with the pass count.
    records, arrays = [], {"grid": [], "lower": [], "upper": [], "points": []}
    kept = set()
    tracer = None

    def one_pass(pass_index, inputs, traced):
        run.traced = traced
        t = time.perf_counter()
        outs = [W.run_replicate(run, rep) for rep in inputs]
        wall = time.perf_counter() - t
        prints = []
        for rep, out in zip(inputs, outs):
            rec, arr = W.summarize_replicate(rep, out)
            prints.append(W.fingerprint(rec, arr))
            if rep["replicate"] in kept:
                continue
            kept.add(rep["replicate"])
            rec.update({"pass": pass_index, "traced": traced, "fingerprint": prints[-1]})
            records.append(rec)
            for key, value in arr.items():
                arrays[key].append(value)
        result["passes"].append({"pass": pass_index, "traced": traced, "wall_s": wall,
                                 "replicates": [rep["replicate"] for rep in inputs], "fingerprints": prints})

    one_pass(0, first_inputs, False)
    result["first_pass_done"] = time.monotonic()

    unit = W.UNIT_PASSES[args.workload]
    pool = W.POOL_PASSES[args.workload]
    pool_inputs = {0: first_inputs}

    def run_unit(k):
        indices = range(1 + (k - 1) * unit, 1 + k * unit)
        for p in indices:
            if p % pool not in pool_inputs:
                pool_inputs[p % pool] = W.make_inputs(args.workload, args.seed, p, sizes)
        inputs = {p: [dict(rep, **{"pass": p}) for rep in pool_inputs[p % pool]] for p in indices}
        for p in indices:
            one_pass(p, inputs[p], False)
        if tracer is not None:
            tracer.install()
            try:
                for p in indices:
                    tracer.pass_id = p
                    one_pass(p, inputs[p], True)
            finally:
                tracer.uninstall()

    if args.mode != "setup":
        if args.mode == "trace":
            from tracing import Tracer

            tracer = Tracer()
        warm_loop(run_unit, args.seconds, args.passes, min_units=-(-(pool - 1) // unit))
    if tracer is not None:
        tracer.dump(os.path.join(args.workdir, "spans.json"))

    result.update(records=records, errors=run.errors, calls=run.calls, ops=sorted(run.ops))
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["provenance"] = {"numpy": np.__version__, "blas": blas_info(np)}
    stacked = {}
    for key, values in arrays.items():
        shape = next((np.shape(v) for v in values if v is not None), (0,))
        stacked[key] = np.array([np.full(shape, np.nan) if v is None else v for v in values], dtype=float)
    np.savez(os.path.join(args.workdir, "outputs.npz"), **stacked)


def run_cli(args, sizes, result) -> None:
    import numpy as np

    import workloads as W

    cli_dir = os.path.join(args.workdir, "cli")
    os.makedirs(os.path.join(cli_dir, "spans"), exist_ok=True)
    commands = W.cli_inputs(args.seed, sizes, cli_dir)
    # the harness's own start-up and input writing are not the program's set-up
    result["gen_s"] = time.monotonic() - PROCESS_START
    # run.py starts this process with src/ on PYTHONPATH; the CLI children inherit it
    env = dict(os.environ)
    launcher = [sys.executable, os.path.join(BENCH_DIR, "cli_launcher.py")]
    errors = []

    def one_pass(pass_index, traced):
        t = time.perf_counter()
        res = W.cli_pass(commands, cli_dir, env, launcher if traced else None, pass_index)
        res.update({"pass": pass_index, "traced": traced, "wall_s": time.perf_counter() - t})
        res["hashes"] = W.cli_hashes(cli_dir)
        errors.extend(W.cli_failures(res, args.seed, sizes))
        result["passes"].append(res)

    one_pass(0, False)
    result["first_pass_done"] = time.monotonic()

    def run_unit(k):
        one_pass(k, False)
        if args.mode == "trace":
            one_pass(k, True)

    if args.mode != "setup":
        warm_loop(run_unit, args.seconds, args.passes)
    result.update(commands=commands, errors=errors, calls=len(W.CLI_COMMANDS) * len(result["passes"]),
                  ops=[[f"cli {cmd}", None] for cmd in W.CLI_COMMANDS])
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["provenance"] = {"numpy": np.__version__, "blas": blas_info(np)}


def main() -> int:
    import workloads as W

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "trace", "record"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--passes", type=int, default=None, help="run exactly this many warm units")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = ap.parse_args()
    if args.mode == "record" and args.passes is None:
        ap.error("--mode record needs --passes")
    sizes = W.SIZES["smoke" if args.smoke else "full"][args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    result = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode, "sizes": sizes,
        "process_start": PROCESS_START, "passes": [],
        "python": platform.python_version(),
    }
    if args.workload == "cli_small":
        run_cli(args, sizes, result)
    else:
        run_in_process(args, sizes, result)
    with open(os.path.join(args.workdir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
