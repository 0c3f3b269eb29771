"""Spans and counters recorded around calls into each ``llcopula`` module.

Each library module imports the functions it uses by name, so a function is
wrapped in the namespace of the module that calls it (for example
``llcopula.cli.evaluate_grid`` and ``llcopula.estimator.local_linear_cdf``).
Nothing under ``src/`` changes.

A span is ``(name, start, end, parent, pass_id, overhead)``: ``overhead`` is
the time the tracer spent on counters after ``end``, which is taken out of
the parent's self time.  Spans stay in memory and are written when the
process ends.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name, counter); one span name can be wrapped in
# several namespaces, one per calling module.
_WRAPS = (
    ("margins", "to_pseudo_ranks", "margins.to_pseudo_ranks", None),
    ("margins", "to_pseudo_smoothed", "margins.to_pseudo_smoothed", "smoothed"),
    ("estimator", "local_linear_cdf", "kernels.local_linear_cdf", "llcdf"),
    ("kernels", "kernel_moments", "kernels.kernel_moments", None),
    ("estimator", "evaluate_grid", "estimator.evaluate_grid", "grid"),
    ("cli", "evaluate_grid", "estimator.evaluate_grid", "grid"),
    ("estimator", "ll_copula_estimate", "estimator.ll_copula_estimate", "points"),
    ("cli", "ll_copula_estimate", "estimator.ll_copula_estimate", "points"),
    ("bands", "confidence_bands", "bands.confidence_bands", None),
    ("cli", "confidence_bands", "bands.confidence_bands", None),
    ("bands", "containment_report", "bands.containment_report", None),
    ("fitting", "theta_from_tau", "families.theta_from_tau", None),
    ("fitting", "density", "families.density", "density"),
    ("families", "density", "families.density", "density"),
    ("sampling", "inverse_conditional", "families.inverse_conditional", None),
    ("families", "conditional_cdf", "families.conditional_cdf", None),
    ("sampling", "sample_copula", "sampling.sample_copula", "draws"),
    ("cli", "sample_copula", "sampling.sample_copula", "draws"),
    ("fitting", "empirical_kendall_tau", "fitting.empirical_kendall_tau", None),
    ("fitting", "log_likelihood", "fitting.log_likelihood", "floored"),
    ("fitting", "fit_families", "fitting.fit_families", None),
    ("cli", "fit_families", "fitting.fit_families", None),
    ("cli", "read_pairs_csv", "gridio.read_pairs_csv", None),
    ("cli", "write_pairs_csv", "gridio.write_pairs_csv", "bytes0"),
    ("cli", "write_grid_csv", "gridio.write_grid_csv", "bytes1"),
    ("cli", "read_grid_csv", "gridio.read_grid_csv", None),
    ("cli", "render_surface_svg", "plotting.render_surface_svg", "svg1"),
)


def _window_pairs(values, bandwidth) -> int:
    """Ordered pairs (i, j) with |x_i - x_j| < b: where the kernel is not flat."""
    s = np.sort(values)
    lo = np.searchsorted(s, s - bandwidth, side="right")
    hi = np.searchsorted(s, s + bandwidth, side="left")
    return int((hi - lo).sum())


def _margin_bandwidth(values) -> float:
    return float(np.std(values, ddof=1)) * len(values) ** (-1.0 / 3.0)


def _count(kind, args, kwargs, result) -> dict:
    if kind == "llcdf":
        m = args[0].moments
        x = np.asarray(args[1])
        return {"kernels.local_linear_cdf.elements": x.size,
                "kernels.window_inside": int(np.count_nonzero((x > m.lo) & (x < m.hi)))}
    if kind == "grid":
        g, n = int(args[1]), args[0].n
        return {"estimator.contraction_flops": 2.0 * g * g * n, "estimator.factor_bytes": 16.0 * g * n}
    if kind == "points":
        return {"estimator.ll_copula_estimate.points": int(np.size(args[1]))}
    if kind == "density":
        return {"families.density.elements": np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size}
    if kind == "draws":
        return {"sampling.sample_copula.draws": int(args[1])}
    if kind == "floored":
        return {"fitting.floored_terms": result[1]} if isinstance(result, tuple) else {}
    if kind in ("bytes0", "bytes1"):
        path = args[0] if kind == "bytes0" else args[1]
        return {"gridio.bytes_written": os.path.getsize(path)}
    if kind == "svg1":
        return {"plotting.svg_bytes": os.path.getsize(args[1])}
    if kind == "smoothed":
        sample = args[0]
        b1 = kwargs.get("b1") or _margin_bandwidth(sample.x)
        b2 = kwargs.get("b2") or _margin_bandwidth(sample.y)
        return {"margins.smoothed.kernel_evals": 2.0 * sample.n * sample.n,
                "margins.smoothed.window_pairs": _window_pairs(sample.x, b1) + _window_pairs(sample.y, b2)}
    raise ValueError(kind)


class Tracer:
    """Span and counter store for one process; ``pass_id`` tags new spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self.pass_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _wrap(self, name: str, kind, fn):
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                end = time.perf_counter()
                self.counters[self.pass_id][f"{layer}.errors"] += 1
                self.spans[index] = (name, start, end, parent, self.pass_id, time.perf_counter() - end)
                raise
            finally:
                self._stack.pop()
            end = time.perf_counter()
            if kind is not None:
                for key, value in _count(kind, args, kwargs, result).items():
                    self.counters[self.pass_id][key] += value
            self.spans[index] = (name, start, end, parent, self.pass_id, time.perf_counter() - end)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, kind in _WRAPS:
            module = importlib.import_module(f"llcopula.{module_name}")
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(name, kind, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": {str(k): v for k, v in self.counters.items()}}, fh)


def pass_totals(spans) -> dict:
    """Per pass id: summed duration, self time and call count by span name."""
    children = defaultdict(float)
    for name, start, end, parent, pid, overhead in spans:
        if parent >= 0:
            children[parent] += end - start + overhead
    totals: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, pid, overhead) in enumerate(spans):
        t = totals[pid]
        t[f"{name}.s"] += end - start
        t[f"{name}.self_s"] += end - start - children[i]
        t[f"{name}.calls"] += 1
        if parent < 0:
            t["top_level_s"] += end - start + overhead
    return totals


TIME_KEYS = (
    "margins.to_pseudo_ranks.s", "margins.to_pseudo_smoothed.s",
    "kernels.local_linear_cdf.s",
    "estimator.evaluate_grid.s", "estimator.evaluate_grid.self_s", "estimator.ll_copula_estimate.s",
    "bands.confidence_bands.s", "bands.containment_report.s",
    "families.theta_from_tau.s", "families.density.s", "families.inverse_conditional.s",
    "sampling.sample_copula.s",
    "fitting.empirical_kendall_tau.s", "fitting.log_likelihood.s", "fitting.fit_families.s",
    "fitting.fit_families.self_s",
    "gridio.read_pairs_csv.s", "gridio.write_pairs_csv.s", "gridio.write_grid_csv.s", "gridio.read_grid_csv.s",
    "plotting.render_surface_svg.s",
)
COUNT_KEYS = (
    "margins.smoothed.kernel_evals", "kernels.local_linear_cdf.calls", "kernels.local_linear_cdf.elements",
    "kernels.kernel_moments.calls", "estimator.ll_copula_estimate.points", "estimator.contraction_flops",
    "estimator.factor_bytes", "families.theta_from_tau.calls", "families.density.elements",
    "families.conditional_cdf.calls", "sampling.sample_copula.draws", "fitting.floored_terms",
    "gridio.bytes_written", "plotting.svg_bytes",
)
LAYERS = ("cli", "margins", "kernels", "estimator", "bands", "families", "sampling", "fitting", "gridio", "plotting")
# Derived from array sizes rather than measured; the report labels them.
COMPUTED = ("margins.smoothed.kernel_evals", "estimator.contraction_flops", "estimator.factor_bytes")


def layer_metrics(totals: dict, counters: dict, pass_ids: list) -> dict:
    """Per-layer metrics over the traced passes.

    Times are the median over passes of each pass's total; counts are the
    mean per pass; ``<layer>.errors`` is the sum over the traced passes.
    """
    def per_pass(key, source):
        return [float(source.get(pid, {}).get(key, 0.0)) for pid in pass_ids]

    merged = {pid: dict(totals.get(pid, {})) for pid in pass_ids}
    for pid in pass_ids:
        merged[pid].update(counters.get(pid, {}))
    out = {}
    for key in TIME_KEYS:
        out[key] = statistics.median(per_pass(key, merged))
    for key in COUNT_KEYS:
        out[key] = statistics.fmean(per_pass(key, merged))
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(per_pass(f"{layer}.errors", merged))

    def ratio(num_key, den_key):
        num = sum(per_pass(num_key, merged))
        den = sum(per_pass(den_key, merged))
        return num / den if den else 0.0

    out["margins.smoothed.window_ratio"] = ratio("margins.smoothed.window_pairs", "margins.smoothed.kernel_evals")
    out["kernels.window_ratio"] = ratio("kernels.window_inside", "kernels.local_linear_cdf.elements")
    out["estimator.contraction_gflops"] = ratio("estimator.contraction_flops", "estimator.evaluate_grid.self_s") / 1e9
    return out
