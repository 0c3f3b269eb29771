"""Workload definitions: sizes, seeded inputs, and one pass of library calls.

Inputs come from the benchmark's own numpy generator (Marshall-Olkin frailty
constructions), never from ``llcopula.sample_copula``, so a sampler defect or
fix cannot change what the estimator, bands and fitting layers receive.
``sample_copula`` is called as an operation of its own.

Every library function is looked up through its module at call time
(``lib.estimator.evaluate_grid``), so the traced run can wrap it in place.
This module imports numpy only; llcopula is passed in after its import has
been timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np

WORKLOADS = ("cli_small", "large_n", "smoothed_mid")
# Stream ids of the input generator; the recorded references depend on them.
_WORKLOAD_IDS = {"cli_small": 1, "large_n": 3, "smoothed_mid": 4}

# (family, theta): Kendall tau 1/2, about 0.46 and about 0.41.
FAMILY_CYCLE = (("clayton", 2.0), ("frank", 5.0), ("gumbel", 1.69))
FIT_ORDER = ("clayton", "gumbel", "frank")

SIZES = {
    "full": {
        "cli_small": {"n": 1000, "grid": 101, "reproduce_n": 500},
        "large_n": {"n": 100_000, "grid": 101, "points": 100},
        "smoothed_mid": {"n": 5000, "grid": 101},
    },
    "smoke": {
        "cli_small": {"n": 200, "grid": 11, "reproduce_n": 100},
        "large_n": {"n": 2000, "grid": 21, "points": 10},
        "smoothed_mid": {"n": 300, "grid": 21},
    },
}

# Passes per unit: large_n runs whole family cycles so that every run covers
# each family equally; the other workloads stop after any pass.
UNIT_PASSES = {"cli_small": 1, "large_n": 3, "smoothed_mid": 1}

# In-process inputs come from a fixed pool per seed: pass p runs the inputs of
# pool entry p % POOL_PASSES, and every run covers the whole pool.  The set of
# distinct operations, and with it `attempted` and `failed`, then depends on
# the seed alone, not on how many passes fit in the time budget.  cli_small
# runs the same input files in every pass.
POOL_PASSES = {"large_n": 3, "smoothed_mid": 3}

CLI_COMMANDS = ("sample", "estimate", "bands", "fit", "plot", "reproduce")
CLI_FILES = {
    "sample": "sample.csv",
    "estimate": "estimate.csv",
    "bands": "bands.csv",
    "fit": "fit.csv",
    "plot": "figure.svg",
    "reproduce": "table.csv",
}
CLI_INPUT = ("clayton", 2.0)
CLI_SAMPLE = ("gumbel", 1.69)
CLI_REPRODUCE_FAMILY = "frank"
CLI_OVERLAYS = ("clayton=2", "frank=5", "gumbel=1.69")


def rng_for(seed: int, workload: str, index: int, purpose: int) -> np.random.Generator:
    """Independent stream per (workload seed, workload, pass or replicate, purpose)."""
    return np.random.default_rng([seed, _WORKLOAD_IDS[workload], index, purpose])


def stream_seed(seed: int, workload: str, index: int, purpose: int) -> int:
    return int(rng_for(seed, workload, index, purpose).integers(0, 2**63))


def frailty_pairs(family: str, theta: float, n: int, rng: np.random.Generator):
    """n copula pairs by the Marshall-Olkin construction U_j = psi(E_j / S)."""
    e = rng.exponential(size=(2, n))
    if family == "clayton":
        s = rng.gamma(1.0 / theta, size=n)
        uv = np.exp(-np.log1p(e / s) / theta)
    elif family == "frank":
        s = rng.logseries(-np.expm1(-theta), size=n)
        uv = -np.log1p(np.expm1(-theta) * np.exp(-e / s)) / theta
    elif family == "gumbel":
        # positive stable frailty with Laplace transform exp(-t^a), Kanter's form
        a = 1.0 / theta
        ang = np.pi * (1.0 - rng.random(n))
        w = rng.exponential(size=n)
        s = (np.sin(a * ang) / np.sin(ang) ** (1.0 / a)) * (np.sin((1.0 - a) * ang) / w) ** ((1.0 - a) / a)
        uv = np.exp(-((e / s) ** a))
    else:
        raise ValueError(f"no frailty construction for {family!r}")
    return uv[0], uv[1]


def skewed_margins(u, v):
    """Strictly increasing, right-skewed, finite maps of the copula scale."""
    return np.expm1(2.5 * u), -np.log1p(-0.995 * v)


def digest(values) -> list[float]:
    """Size, sum and eight evenly spaced entries: a compact reference fingerprint."""
    flat = np.asarray(values, dtype=float).ravel()
    idx = np.linspace(0, flat.size - 1, 8).astype(int)
    return [float(flat.size), float(flat.sum())] + [float(x) for x in flat[idx]]


def empirical_copula_probe(u, v) -> list[float]:
    """Empirical copula at the nine points {1/4, 1/2, 3/4}^2, for sample checks."""
    u = np.asarray(u)
    v = np.asarray(v)
    return [float(np.mean((u <= a) & (v <= b))) for a in (0.25, 0.5, 0.75) for b in (0.25, 0.5, 0.75)]


class Run:
    """Operation bookkeeping for one workload process: attempts, errors, records."""

    def __init__(self, lib, workload: str, seed: int, sizes: dict):
        self.lib = lib
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.calls = 0
        self.ops: set = set()  # distinct (operation, replicate): repeats of an input count once
        self.errors: list[dict] = []
        self.traced = False

    def call(self, op: str, info: dict, fn, *args, **kwargs):
        """Run one library operation; a raised LLCopulaError is a failed operation."""
        self.calls += 1
        self.ops.add((op, info["replicate"]))
        if any(a is None for a in args):
            self.errors.append(dict(info, operation=op, error="skipped: an upstream operation failed"))
            return None
        try:
            return fn(*args, **kwargs)
        except self.lib.LLCopulaError as exc:
            self.errors.append(dict(info, operation=op, error=f"{type(exc).__name__}: {exc}"))
            return None


def _fit_record(report) -> dict | None:
    if report is None:
        return None
    rows = {r.family: r for r in report.rows}
    return {
        "tau_hat": report.tau_hat,
        "selected": report.selected,
        "order": [r.family for r in report.rows],
        "rows": {
            fam: {
                "theta": rows[fam].theta,
                "log_likelihood": rows[fam].log_likelihood,
                "applicable": rows[fam].applicable,
                "note": rows[fam].note,
            }
            for fam in FIT_ORDER
        },
    }


# ---------------------------------------------------------------- in-process


def replicate_specs(workload: str, pass_index: int) -> list[dict]:
    """The replicates of one pass: family, theta and stream indices."""
    entry = pass_index % POOL_PASSES[workload]
    family, theta = FAMILY_CYCLE[entry % 3]
    return [{"pass": pass_index, "replicate": entry, "family": family, "theta": theta}]


def make_inputs(workload: str, seed: int, pass_index: int, sizes: dict) -> list[dict]:
    """Seeded inputs for one pass; generation is excluded from every timing."""
    n = sizes["n"]
    reps = []
    for spec in replicate_specs(workload, pass_index):
        r = spec["replicate"]
        u, v = frailty_pairs(spec["family"], spec["theta"], n, rng_for(seed, workload, r, 0))
        if workload == "smoothed_mid":
            x, y = skewed_margins(u, v)
        elif workload == "large_n" and spec["family"] == "frank":
            # rounding creates ties at scale, so the tie paths of ranks and tau run
            x, y = np.round(u, 3), np.round(v, 3)
        else:
            x, y = u, v
        rep = dict(spec, n=n, x=x, y=y)
        if "points" in sizes:
            rep["points"] = rng_for(seed, workload, r, 2).random((sizes["points"], 2))
        if workload != "smoothed_mid":
            rep["sample_seed"] = stream_seed(seed, workload, r, 1)
        reps.append(rep)
    return reps


def run_replicate(run: Run, rep: dict) -> dict:
    """The library calls of one pass (large_n, smoothed_mid)."""
    lib = run.lib
    sz = run.sizes
    info = {
        "workload": run.workload,
        "family": rep["family"],
        "theta": rep["theta"],
        "n": rep["n"],
        "seed": run.seed,
        "pass": rep["pass"],
        "replicate": rep["replicate"],
        "traced": run.traced,
    }
    raw = lib.margins.RawSample(rep["x"], rep["y"])
    model = lib.families.CopulaModel(rep["family"], rep["theta"])
    out: dict = {}
    if run.workload == "smoothed_mid":
        pseudo = run.call("to_pseudo_smoothed", info, lib.margins.to_pseudo, raw, transform="smoothed")
    else:
        pseudo = run.call("to_pseudo_ranks", info, lib.margins.to_pseudo_ranks, raw)
    policy = lib.estimator.BandwidthPolicy.from_sample_size(rep["n"])
    grid = run.call("evaluate_grid", info, lib.estimator.evaluate_grid, pseudo, sz["grid"], policy)
    bands = None
    if run.workload != "smoothed_mid":
        params = lib.bands.BandParameters(n=rep["n"])
        bands = run.call("confidence_bands", info, lib.bands.confidence_bands, grid, params)
        cont = run.call("containment_report", info, lib.bands.containment_report, bands, model)
        pts = rep["points"]
        est = run.call("ll_copula_estimate", info, lib.estimator.ll_copula_estimate, pseudo, pts[:, 0], pts[:, 1], policy)
        stream = lib.sampling.SeededStream(rep["sample_seed"])
        draws = run.call("sample_copula", dict(info, stream_seed=rep["sample_seed"]), lib.sampling.sample_copula, model, rep["n"], stream)
        out["containment"] = None if cont is None else [cont.n_contained, cont.n_nodes, cont.worst_violation]
        out["points"] = est
        out["sample"] = draws
    report = run.call("fit_families", info, lib.fitting.fit_families, pseudo)
    out["pseudo"] = pseudo
    out["fit"] = report
    out["grid"] = None if grid is None else grid.values
    out["lower"] = None if bands is None else bands.lower
    out["upper"] = None if bands is None else bands.upper
    out["halfwidth"] = None if bands is None else bands.halfwidth
    return out


def summarize_replicate(rep: dict, out: dict) -> tuple[dict, dict]:
    """JSON-ready record of one replicate's outputs, plus arrays for the checker."""
    rec = {k: rep[k] for k in ("replicate", "family", "theta", "n")}
    rec["fit"] = _fit_record(out["fit"])
    rec["halfwidth"] = out.get("halfwidth")
    rec["containment"] = out.get("containment")
    arrays = {"grid": out["grid"], "lower": out.get("lower"), "upper": out.get("upper"), "points": out.get("points")}
    pseudo = out["pseudo"]
    if pseudo is not None and rep.get("points") is None:
        # smoothed transform: keep 64 evenly spaced pseudo-observations for spot checks
        idx = np.linspace(0, pseudo.n - 1, 64).astype(int)
        rec["pseudo_probe"] = {"index": idx.tolist(), "u": pseudo.u[idx].tolist(), "v": pseudo.v[idx].tolist()}
        rec["pseudo_digest"] = digest(pseudo.u) + digest(pseudo.v)
    if "sample" in out:
        draws = out["sample"]
        rec["sample_seed"] = rep["sample_seed"]
        if draws is None:
            rec["sample"] = None
        else:
            finite = bool(np.isfinite(draws.u).all() and np.isfinite(draws.v).all())
            rec["sample"] = {
                "n": int(draws.n),
                "in_unit_square": finite and bool(((draws.u >= 0) & (draws.u <= 1) & (draws.v >= 0) & (draws.v <= 1)).all()),
                "probe": empirical_copula_probe(draws.u, draws.v),
                "digest": digest(draws.v),
            }
    return rec, arrays


def fingerprint(rec: dict, arrays: dict) -> str:
    """SHA-256 of one replicate's summarized outputs: equal digests mean identical outputs."""
    h = hashlib.sha256(json.dumps(rec, sort_keys=True).encode())
    for key in sorted(arrays):
        value = arrays[key]
        h.update(key.encode() + (b"none" if value is None else np.ascontiguousarray(value, dtype=float).tobytes()))
    return h.hexdigest()


# ---------------------------------------------------------------------- CLI


def write_pairs(path: str, x, y) -> None:
    lines = ["x,y"] + [f"{a:.17g},{b:.17g}" for a, b in zip(x, y)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cli_inputs(seed: int, sizes: dict, directory: str) -> dict:
    """Write the pairs CSV with non-uniform margins; return the CLI arguments."""
    u, v = frailty_pairs(*CLI_INPUT, sizes["n"], rng_for(seed, "cli_small", 0, 0))
    x, y = skewed_margins(u, v)
    write_pairs(os.path.join(directory, "pairs.csv"), x, y)
    sample_seed = str(stream_seed(seed, "cli_small", 0, 1))
    repro_seed = str(stream_seed(seed, "cli_small", 0, 3))
    grid = str(sizes["grid"])
    overlays = [a for o in CLI_OVERLAYS for a in ("--overlay", o)]
    return {
        "sample": ["sample", "--family", CLI_SAMPLE[0], "--theta", str(CLI_SAMPLE[1]), "--n", str(sizes["n"]),
                   "--seed", sample_seed, "--out", CLI_FILES["sample"]],
        "estimate": ["estimate", "--in", "pairs.csv", "--grid", grid, "--out", CLI_FILES["estimate"]],
        "bands": ["bands", "--in", "pairs.csv", "--grid", grid, "--out", CLI_FILES["bands"]],
        "fit": ["fit", "--in", "pairs.csv", "--out", CLI_FILES["fit"]],
        "plot": ["plot", "--in", CLI_FILES["bands"], "--out", CLI_FILES["plot"], *overlays],
        "reproduce": ["reproduce", "--family", CLI_REPRODUCE_FAMILY, "--n", str(sizes["reproduce_n"]),
                      "--seed", repro_seed, "--out", CLI_FILES["reproduce"]],
    }


def cli_pass(commands: dict, directory: str, env: dict, launcher: list[str] | None, pass_index: int) -> dict:
    """Run the six subcommands as fresh processes, one after another.

    ``launcher`` is None for the plain ``python -m llcopula.cli`` entry, or
    the traced launcher's command prefix.
    """
    procs = []
    for cmd in CLI_COMMANDS:
        if launcher is None:
            argv = [sys.executable, "-m", "llcopula.cli", *commands[cmd]]
        else:
            argv = [*launcher, os.path.join("spans", f"{pass_index}-{cmd}.json"), str(pass_index), *commands[cmd]]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=directory, env=env, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        procs.append({"command": cmd, "wall_s": wall, "returncode": proc.returncode,
                      "stdout": proc.stdout, "stderr": proc.stderr.strip()})
    return {"processes": procs}


def cli_hashes(directory: str) -> dict:
    hashes = {}
    for name in CLI_FILES.values():
        path = os.path.join(directory, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def cli_failures(result: dict, seed: int, sizes: dict) -> list[dict]:
    fails = []
    for p in result["processes"]:
        if p["returncode"] != 0:
            family, theta = {"sample": CLI_SAMPLE, "reproduce": (CLI_REPRODUCE_FAMILY, None)}.get(p["command"], CLI_INPUT)
            n = sizes["reproduce_n"] if p["command"] == "reproduce" else sizes["n"]
            fails.append({"workload": "cli_small", "operation": f"cli {p['command']}", "family": family,
                          "theta": theta, "n": n, "seed": seed,
                          "error": f"exit {p['returncode']}: {p['stderr']}"})
    return fails
