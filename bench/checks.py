"""Output checks: an independent oracle, recorded references and byte identity.

Every operation's output is checked three ways:

* against an oracle written here from the published formulas (local-linear
  estimator on a sub-lattice, copula CDFs and densities, tau-a, band width),
  which works for any seed;
* against the reference digests in ``reference/<workload>.json``, recorded
  from the seed commit for the seeds listed there;
* for the CLI, byte identity of every output file across the passes and
  processes of one run.

A mismatch is a failed operation.  Tolerances are stated in ``TOL``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy import integrate, stats

import workloads as W

TOL = {
    "estimate": 1e-9,  # grid nodes, point estimates, band bounds, pseudo-observations (absolute)
    "tau": 1e-12,  # Kendall tau-a (absolute)
    "theta": 1e-9,  # tau-inversion estimates (relative)
    "loglik": 1e-8,  # log-likelihood (relative to max(1, |value|))
    "truth": 1e-12,  # copula CDF values written by reproduce (absolute)
    "sample_sigmas": 6.0,  # empirical copula of sample_copula output, in binomial standard errors
}
BAND_CONSTANT = 3.0
CLAMP_EPS = 1e-10
DENSITY_FLOOR = 1e-300
SUBLATTICE = 11  # oracle grid nodes per axis, evenly spread over the lattice


class Failures:
    """Failed checks with everything needed to reproduce them."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.items: list[dict] = []
        self.checked = 0

    def check(self, ok: bool, operation: str, context: dict, detail: str) -> bool:
        self.checked += 1
        if not ok:
            self.items.append(dict(context, workload=self.workload, seed=self.seed,
                                   operation=operation, error=f"check failed: {detail}"))
        return ok


# ------------------------------------------------------------------- oracle


def policy(n: int) -> dict:
    log_n = math.log(n)
    return {"h_n": 1.0 / log_n, "h_min": log_n / n, "h_max": (math.log(log_n) / n) ** 0.25, "alpha": 0.5}


def _p0(t):
    return 0.75 * t * (1.0 - t * t / 3.0)


def _p1(t):
    t2 = t * t
    return 0.75 * t2 * (0.5 - t2 / 4.0)


def _p2(t):
    t2 = t * t
    return 0.75 * t2 * t * (1.0 / 3.0 - t2 / 5.0)


def factor_rows(coords, data, pol: dict) -> np.ndarray:
    """Integrated local-linear kernel K((c - X_i)/h(c)), one row per coordinate c."""
    c = np.asarray(coords, dtype=float)[:, None]
    h = np.clip(pol["h_n"] * np.minimum(c, 1.0 - c) ** pol["alpha"], pol["h_min"], pol["h_max"])
    lo = np.maximum(-1.0, (c - 1.0) / h)
    hi = np.minimum(1.0, c / h)
    a0, a1, a2 = _p0(hi) - _p0(lo), _p1(hi) - _p1(lo), _p2(hi) - _p2(lo)
    x = (c - np.asarray(data, dtype=float)[None, :]) / h
    xc = np.clip(x, lo, hi)
    inner = (a2 * (_p0(xc) - _p0(lo)) - a1 * (_p1(xc) - _p1(lo))) / (a0 * a2 - a1 * a1)
    return np.where(x <= lo, 0.0, np.where(x >= hi, 1.0, inner))


def estimate_grid(u, v, nodes) -> np.ndarray:
    pol = policy(len(u))
    return np.clip(factor_rows(nodes, u, pol) @ factor_rows(nodes, v, pol).T / len(u), 0.0, 1.0)


def estimate_points(u, v, pu, pv) -> np.ndarray:
    pol = policy(len(u))
    return np.clip((factor_rows(pu, u, pol) * factor_rows(pv, v, pol)).mean(axis=1), 0.0, 1.0)


def copula_cdf(family: str, theta: float, u, v) -> np.ndarray:
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    with np.errstate(all="ignore"):
        if family == "clayton":
            c = (u**-theta + v**-theta - 1.0) ** (-1.0 / theta)
        elif family == "frank":
            # D + (e^-tu - 1)(e^-tv - 1) regrouped into two terms of one sign
            num = np.exp(-theta * v) * np.expm1(-theta * u) + np.exp(-theta * u) * np.expm1(-theta * (1.0 - u))
            c = -np.log(num / np.expm1(-theta)) / theta
        else:
            c = np.exp(-(((-np.log(u)) ** theta + (-np.log(v)) ** theta) ** (1.0 / theta)))
    c = np.where((u <= 0.0) | (v <= 0.0), 0.0, c)
    c = np.where(u >= 1.0, v, c)
    return np.where(v >= 1.0, u, c)


def log_density(family: str, theta: float, u, v) -> np.ndarray:
    lu, lv = np.log(u), np.log(v)
    if family == "clayton":
        return (math.log1p(theta) - (theta + 1.0) * (lu + lv)
                - (2.0 + 1.0 / theta) * np.log(u**-theta + v**-theta - 1.0))
    if family == "frank":
        a = math.expm1(-theta)
        return (math.log(-theta * a) - theta * (u + v)
                - 2.0 * np.log(np.abs(a + np.expm1(-theta * u) * np.expm1(-theta * v))))
    x, y = -lu, -lv
    s = (x**theta + y**theta) ** (1.0 / theta)
    return (-s + (theta - 1.0) * (np.log(x) + np.log(y)) + (1.0 - 2.0 * theta) * np.log(s)
            + np.log(s + theta - 1.0) - lu - lv)


def log_likelihood(family: str, theta: float, u, v) -> tuple[float, int]:
    u = np.clip(u, CLAMP_EPS, 1.0 - CLAMP_EPS)
    v = np.clip(v, CLAMP_EPS, 1.0 - CLAMP_EPS)
    ld = log_density(family, theta, u, v)
    floor = math.log(DENSITY_FLOOR)
    return float(np.maximum(ld, floor).sum()), int((ld < floor).sum())


def _tie_pairs(values) -> int:
    _, counts = np.unique(values, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def kendall_tau_a(u, v) -> float:
    n0 = len(u) * (len(u) - 1) // 2
    tau_b = stats.kendalltau(u, v).statistic
    return float(tau_b * math.sqrt((n0 - _tie_pairs(u)) * (n0 - _tie_pairs(v))) / n0)


def frank_tau(theta: float) -> float:
    debye, _ = integrate.quad(lambda t: t / math.expm1(t) if t else 1.0, 0.0, abs(theta), epsabs=1e-15, epsrel=1e-13)
    d1 = debye / abs(theta) + (abs(theta) / 2.0 if theta < 0 else 0.0)
    return 1.0 - 4.0 / theta * (1.0 - d1)


def ranks(values) -> np.ndarray:
    """Count of sample values <= x_i (ties share the largest rank), over n + 1."""
    return np.searchsorted(np.sort(values), values, side="right") / (len(values) + 1.0)


def smoothed(values) -> np.ndarray:
    """Kernel-smoothed empirical CDF at the data, 256 rows at a time."""
    values = np.asarray(values, dtype=float)
    b = float(values.std(ddof=1)) * len(values) ** (-1.0 / 3.0)
    out = np.empty(len(values))
    for start in range(0, len(values), 256):
        t = np.clip((values[start:start + 256, None] - values[None, :]) / b, -1.0, 1.0)
        out[start:start + 256] = (0.5 + 0.75 * t - 0.25 * t**3).mean(axis=1)
    return out


def halfwidth(n: int) -> float:
    return BAND_CONSTANT / math.sqrt(n / (2.0 * math.log(math.log(n))))


def sup_error(grid, family: str, theta: float) -> float:
    g = np.linspace(0.0, 1.0, grid.shape[0])
    return float(np.abs(grid - copula_cdf(family, theta, g[:, None], g[None, :])).max())


# ------------------------------------------------------------------- checks


def _close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) <= tol))


def check_fit(f: Failures, ctx: dict, fit: dict, u, v) -> None:
    tau = kendall_tau_a(u, v)
    f.check(abs(fit["tau_hat"] - tau) <= TOL["tau"], "fit_families", ctx,
            f"tau_hat {fit['tau_hat']!r} vs oracle {tau!r}")
    lls = {}
    for fam in W.FIT_ORDER:
        row = fit["rows"][fam]
        if not row["applicable"]:
            f.check(not 0.0 < tau < 1.0, "fit_families", ctx, f"{fam} marked inapplicable at tau {tau}")
            continue
        theta = row["theta"]
        if fam == "clayton":
            expect_ok = abs(theta - 2.0 * tau / (1.0 - tau)) <= TOL["theta"] * abs(theta)
        elif fam == "gumbel":
            expect_ok = abs(theta - 1.0 / (1.0 - tau)) <= TOL["theta"] * abs(theta)
        else:
            expect_ok = abs(frank_tau(theta) - tau) <= TOL["theta"]
        f.check(expect_ok, "fit_families", ctx, f"{fam} theta {theta!r} does not invert tau {tau!r}")
        ll, floored = log_likelihood(fam, theta, u, v)
        lls[fam] = ll
        f.check(abs(row["log_likelihood"] - ll) <= TOL["loglik"] * max(1.0, abs(ll)), "fit_families", ctx,
                f"{fam} log-likelihood {row['log_likelihood']!r} vs oracle {ll!r}")
        f.check(("floored" in row["note"]) == (floored > 0), "fit_families", ctx,
                f"{fam} note {row['note']!r} vs {floored} floored terms")
    best = max(lls.values())
    ok = fit["selected"] in lls and lls[fit["selected"]] >= best - 2 * TOL["loglik"] * max(1.0, abs(best))
    f.check(ok, "fit_families", ctx, f"selected {fit['selected']} but oracle likelihoods are {lls}")


def check_bands(f: Failures, ctx: dict, grid, lower, upper, hw_lib, n) -> None:
    hw = halfwidth(n)
    f.check(abs(hw_lib - hw) <= 1e-12, "confidence_bands", ctx, f"half-width {hw_lib!r} vs oracle {hw!r}")
    f.check(_close(lower, grid - hw, TOL["estimate"]) and _close(upper, grid + hw, TOL["estimate"]),
            "confidence_bands", ctx, "band surfaces are not estimate -/+ half-width")


def check_containment(f: Failures, ctx: dict, cont, family, theta, lower, upper) -> None:
    g = np.linspace(0.0, 1.0, lower.shape[0])
    truth = copula_cdf(family, theta, g[:, None], g[None, :])
    inside = (lower <= truth) & (truth <= upper)
    edge = (np.abs(truth - lower) < 1e-12) | (np.abs(truth - upper) < 1e-12)
    worst = float(max(np.maximum(lower - truth, truth - upper).max(), 0.0))
    ok = (cont[1] == truth.size and abs(cont[0] - int(inside.sum())) <= int(edge.sum())
          and abs(cont[2] - worst) <= TOL["estimate"])
    f.check(ok, "containment_report", ctx, f"report {cont} vs oracle [{int(inside.sum())}, {truth.size}, {worst}]")


def check_sample(f: Failures, ctx: dict, sample: dict, family, theta, n) -> None:
    if sample is None:
        return
    f.check(sample["n"] == n and sample["in_unit_square"], "sample_copula", ctx,
            f"{sample['n']} draws, inside the unit square: {sample['in_unit_square']}")
    probe = np.array(sample["probe"])
    pts = np.array([(a, b) for a in (0.25, 0.5, 0.75) for b in (0.25, 0.5, 0.75)])
    c = copula_cdf(family, theta, pts[:, 0], pts[:, 1])
    bound = TOL["sample_sigmas"] * np.sqrt(c * (1.0 - c) / n) + 1.0 / n
    f.check(bool(np.all(np.abs(probe - c) <= bound)), "sample_copula", ctx,
            f"empirical copula {probe.round(4).tolist()} vs {c.round(4).tolist()}")


def _digest_close(ref, got, tol=TOL["estimate"]) -> bool:
    if ref is None or got is None:
        return ref is got
    return (ref[0] == got[0] and abs(ref[1] - got[1]) <= tol * max(1.0, ref[0])
            and _close(ref[2:], got[2:], tol))


def replicate_digests(rec: dict, arrays: dict, i: int) -> dict:
    fit = rec["fit"]
    out = {
        "grid": None if np.isnan(arrays["grid"][i]).all() else W.digest(arrays["grid"][i]),
        "fit": None if fit is None else [fit["tau_hat"]] + [
            fit["rows"][fam][key] for fam in W.FIT_ORDER for key in ("theta", "log_likelihood")],
    }
    if arrays["points"].size:
        out["points"] = W.digest(arrays["points"][i])
        out["containment"] = rec["containment"]
        out["sample"] = "error" if rec["sample"] is None else rec["sample"]["digest"]
    if "pseudo_digest" in rec:
        out["pseudo"] = rec["pseudo_digest"]
    return out


def _fit_close(ref, got) -> bool:
    if ref is None or got is None:
        return ref is got
    if abs(ref[0] - got[0]) > TOL["tau"]:
        return False
    for k in range(1, len(ref), 2):
        rt, gt, rl, gl = ref[k], got[k], ref[k + 1], got[k + 1]
        if (rt is None) != (gt is None):
            return False
        if rt is not None and (abs(rt - gt) > TOL["theta"] * abs(rt)
                               or abs(rl - gl) > TOL["loglik"] * max(1.0, abs(rl))):
            return False
    return True


REFERENCE_OPERATIONS = {"grid": "evaluate_grid", "fit": "fit_families", "points": "ll_copula_estimate",
                        "containment": "containment_report", "sample": "sample_copula",
                        "pseudo": "to_pseudo_smoothed"}


def check_against_reference(f: Failures, ctx: dict, ref: dict, got: dict) -> None:
    for key, value in ref.items():
        if key == "sample":
            ok = value == "error" or got[key] == "error" or _digest_close(value, got[key])
        elif key == "fit":
            ok = _fit_close(value, got[key])
        elif key == "containment":
            ok = value is got[key] or (value[:2] == got[key][:2] and abs(value[2] - got[key][2]) <= TOL["estimate"])
        else:
            ok = _digest_close(value, got[key])
        f.check(ok, REFERENCE_OPERATIONS[key], ctx, f"{key} differs from the seed-commit reference")


def load_reference(bench_dir: str, workload: str, seed: int, smoke: bool) -> dict | None:
    path = os.path.join(bench_dir, "reference", f"{workload}.json")
    if smoke or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"].get(str(seed))


def check_in_process(result: dict, arrays: dict, reference: dict | None) -> tuple[Failures, list, dict]:
    """Check every replicate; return failures, per-pass sup errors and digests.

    The kept (first) outputs of each replicate are checked against the oracle
    and the reference; every pass must then reproduce them exactly.
    """
    wl, seed, sizes = result["workload"], result["seed"], result["sizes"]
    f = Failures(wl, seed)
    kept = {}  # replicate -> (record, its fingerprint, its sup error)
    inputs: dict = {}
    digests = {}
    for i, rec in enumerate(result["records"]):
        p, r = rec["pass"], rec["replicate"]
        if p not in inputs:
            inputs[p] = {x["replicate"]: x for x in W.make_inputs(wl, seed, p, sizes)}
        rep = inputs[p][r]
        transform = smoothed if wl == "smoothed_mid" else ranks
        u, v = transform(rep["x"]), transform(rep["y"])
        fam, theta, n = rec["family"], rec["theta"], rec["n"]
        ctx = {"family": fam, "theta": theta, "n": n, "pass": p, "replicate": r, "traced": rec["traced"]}
        if wl == "smoothed_mid":
            if "pseudo_probe" in rec:
                idx = np.array(rec["pseudo_probe"]["index"])
                f.check(_close(rec["pseudo_probe"]["u"], u[idx], TOL["estimate"])
                        and _close(rec["pseudo_probe"]["v"], v[idx], TOL["estimate"]),
                        "to_pseudo_smoothed", ctx, "smoothed pseudo-observations differ from the oracle")
        grid = arrays["grid"][i]
        sup = None
        if not np.isnan(grid).all():
            g = np.linspace(0.0, 1.0, grid.shape[0])
            sel = np.unique(np.linspace(0, grid.shape[0] - 1, SUBLATTICE).astype(int))
            oracle = estimate_grid(u, v, g[sel])
            f.check(_close(grid[np.ix_(sel, sel)], oracle, TOL["estimate"]), "evaluate_grid", ctx,
                    f"max deviation {np.abs(grid[np.ix_(sel, sel)] - oracle).max():.3g} from the oracle")
            sup = sup_error(grid, fam, theta)
            if rec.get("halfwidth") is not None:
                check_bands(f, ctx, grid, arrays["lower"][i], arrays["upper"][i], rec["halfwidth"], n)
                if rec["containment"] is not None:
                    check_containment(f, ctx, rec["containment"], fam, theta, arrays["lower"][i], arrays["upper"][i])
        if arrays["points"].size and not np.isnan(arrays["points"][i]).all():
            pts = rep["points"]
            sel = np.arange(0, len(pts), max(1, len(pts) // 10))
            oracle = estimate_points(u, v, pts[sel, 0], pts[sel, 1])
            f.check(_close(arrays["points"][i][sel], oracle, TOL["estimate"]), "ll_copula_estimate", ctx,
                    "point estimates differ from the oracle")
        if rec["fit"] is not None:
            check_fit(f, ctx, rec["fit"], u, v)
        if "sample" in rec:
            check_sample(f, dict(ctx, stream_seed=rec["sample_seed"]), rec["sample"], fam, theta, n)
        d = replicate_digests(rec, arrays, i)
        digests[str(r)] = d
        if reference is not None and str(r) in reference:
            check_against_reference(f, ctx, reference[str(r)], d)
        kept[r] = (rec, rec["fingerprint"], sup)
    sup_by_pass = []
    for p in result["passes"]:
        sups = []
        for r, fp in zip(p["replicates"], p["fingerprints"]):
            rec, first_fp, sup = kept[r]
            f.check(fp == first_fp, "repeated replicate",
                    {"family": rec["family"], "theta": rec["theta"], "n": rec["n"], "pass": p["pass"],
                     "replicate": r, "traced": p["traced"]},
                    f"outputs differ from pass {rec['pass']} on the same inputs")
            if sup is not None:
                sups.append(sup)
        if sups:
            sup_by_pass.append(max(sups))
    return f, sup_by_pass, digests


# ---------------------------------------------------------------------- CLI


def read_csv(path: str) -> tuple[list[str], list[list[str]], dict]:
    header, rows, meta = None, [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line.lstrip("#").partition("=")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header, rows, meta


def _numbers(rows) -> list[float]:
    out = []
    for row in rows:
        for cell in row:
            try:
                out.append(float(cell))
            except ValueError:
                pass
    return out


def cli_digests(cli_dir: str, hashes: dict) -> dict:
    out = {}
    for name in W.CLI_FILES.values():
        path = os.path.join(cli_dir, name)
        if not os.path.exists(path):
            out[name] = None
            continue
        entry = {"sha256": hashes.get(name)}
        if name.endswith(".csv"):
            nums = _numbers(read_csv(path)[1])
            entry["numbers"] = W.digest(nums) if nums else None
        out[name] = entry
    return out


def check_cli(result: dict, cli_dir: str, reference: dict | None, other_hashes: list[dict]) -> tuple[Failures, list, dict]:
    seed, sizes = result["seed"], result["sizes"]
    f = Failures("cli_small", seed)
    n, g = sizes["n"], sizes["grid"]
    fam, theta = W.CLI_INPUT
    ctx = {"family": fam, "theta": theta, "n": n}
    first = result["passes"][0]
    for p in result["passes"][1:]:
        f.check(p["hashes"] == first["hashes"], "cli output bytes", dict(ctx, **{"pass": p["pass"]}),
                "output files differ from the run's first pass")
        fit_out = [q["stdout"] for q in p["processes"] if q["command"] == "fit"]
        first_fit = [q["stdout"] for q in first["processes"] if q["command"] == "fit"]
        f.check(fit_out == first_fit, "cli fit", dict(ctx, **{"pass": p["pass"]}), "fit report on stdout differs")
    for hashes in other_hashes:
        f.check(hashes == first["hashes"], "cli output bytes", ctx, "output files differ between processes of the run")
    path = lambda cmd: os.path.join(cli_dir, W.CLI_FILES[cmd])  # noqa: E731
    failed = {q["command"] for p in result["passes"] for q in p["processes"] if q["returncode"] != 0}

    _, rows, _ = read_csv(os.path.join(cli_dir, "pairs.csv"))
    data = np.array(rows, dtype=float)
    u, v = ranks(data[:, 0]), ranks(data[:, 1])
    sup = []
    if "estimate" not in failed:
        _, rows, meta = read_csv(path("estimate"))
        est = np.array(rows, dtype=float)
        grid = est[:, 2].reshape(g, g)
        sel = np.unique(np.linspace(0, g - 1, SUBLATTICE).astype(int))
        nodes = np.linspace(0.0, 1.0, g)[sel]
        f.check(_close(grid[np.ix_(sel, sel)], estimate_grid(u, v, nodes), TOL["estimate"])
                and np.array_equal(est[:, 3], est[:, 2]) and np.array_equal(est[:, 4], est[:, 2])
                and float(meta["halfwidth"]) == 0.0, "cli estimate", ctx, "estimate grid differs from the oracle")
        sup.append(sup_error(grid, fam, theta))
        if "bands" not in failed:
            _, rows, meta = read_csv(path("bands"))
            bands = np.array(rows, dtype=float)
            f.check(np.array_equal(bands[:, :3], est[:, :3]), "cli bands", ctx, "bands estimate differs from estimate")
            check_bands(f, ctx, grid, bands[:, 3].reshape(g, g),
                        bands[:, 4].reshape(g, g), float(meta["halfwidth"]), n)
    if "fit" not in failed:
        _, rows, meta = read_csv(path("fit"))
        fit = {"tau_hat": float(meta["tau_hat"]), "selected": meta["selected"], "rows": {}}
        for fam_, th, ll, app, *note in rows:
            fit["rows"][fam_] = {"theta": float(th) if th else None, "log_likelihood": float(ll) if ll else None,
                                 "applicable": app == "1", "note": ",".join(note)}
        check_fit(f, ctx, fit, u, v)
    if "sample" not in failed:
        _, rows, _ = read_csv(path("sample"))
        s = np.array(rows, dtype=float)
        sample = {"n": len(s), "in_unit_square": bool(((s >= 0) & (s <= 1)).all()),
                  "probe": W.empirical_copula_probe(s[:, 0], s[:, 1])}
        check_sample(f, ctx, sample, *W.CLI_SAMPLE, n)
    if "plot" not in failed:
        with open(path("plot"), encoding="utf-8") as fh:
            svg = fh.read()
        labels = ("clayton theta=2", "frank theta=5", "gumbel theta=1.69")
        f.check(svg.startswith("<svg") and svg.endswith("</svg>\n") and svg.count("<polygon") == (g - 1) ** 2
                and all(lab in svg for lab in labels), "cli plot", ctx, "figure structure is wrong")
    if "reproduce" not in failed:
        _, rows, _ = read_csv(path("reproduce"))
        t = np.array([r[:6] for r in rows], dtype=float)
        rn = sizes["reproduce_n"]
        truth = np.concatenate([copula_cdf(W.CLI_REPRODUCE_FAMILY, th, t[t[:, 0] == th, 1], t[t[:, 0] == th, 2])
                                for th in np.unique(t[:, 0])])
        order = np.concatenate([np.flatnonzero(t[:, 0] == th) for th in np.unique(t[:, 0])])
        verdict = np.array([r[6] == "yes" for r in rows])
        inside = (t[:, 3] <= t[:, 4]) & (t[:, 4] <= t[:, 5])
        f.check(len(rows) == 30 and _close(t[order, 4], truth, TOL["truth"])
                and _close(t[:, 5] - t[:, 3], 2 * halfwidth(rn), TOL["estimate"])
                and np.array_equal(verdict, inside), "cli reproduce", dict(ctx, n=rn), "containment table is wrong")
    digests = cli_digests(cli_dir, first["hashes"])
    if reference is not None:
        for name, ref in reference.items():
            got = digests.get(name)
            ok = (ref is None) == (got is None)
            if ok and ref is not None and ref.get("numbers") is not None:
                ok = got.get("numbers") is not None and _digest_close(ref["numbers"], got["numbers"])
            f.check(ok, f"cli {name}", ctx, "numbers differ from the seed-commit reference")
    return f, sup, digests
