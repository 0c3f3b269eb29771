"""Local-linear kernel copula estimator with boundary shrinkage.

The estimate at (u, v) is the sample mean of products of integrated
local-linear kernels, one factor per coordinate.  Each factor uses its own
location-dependent bandwidth: the global rate times the shrink factor of
that coordinate, clamped into [h_min, h_max].  The unsmoothed empirical
copula is provided as the desk-scale oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kernels import LocalKernel, local_linear_cdf
from .margins import PseudoSample


@dataclass(frozen=True)
class BandwidthPolicy:
    """Global bandwidth rate plus the shrinkage and clamping rules.

    ``from_sample_size`` fills the defaults: h_n = 1/log n, clamp floor
    c*log(n)/n, clamp ceiling ((log log n)/n)^(1/4), shrink exponent 1/2.
    """

    h_n: float
    h_min: float
    h_max: float
    alpha: float = 0.5
    shrink_enabled: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.h_n) and self.h_n > 0):
            raise ConfigError(f"global bandwidth must be positive, got {self.h_n}")
        if not (0.0 < self.h_min <= self.h_max < 1.0):
            raise ConfigError(
                f"clamp interval must satisfy 0 < h_min <= h_max < 1, got "
                f"[{self.h_min}, {self.h_max}]"
            )
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"shrink exponent must be positive, got {self.alpha}")

    @classmethod
    def from_sample_size(
        cls,
        n: int,
        h_n: float | None = None,
        alpha: float = 0.5,
        clamp_constant: float = 1.0,
        shrink_enabled: bool = True,
    ) -> "BandwidthPolicy":
        n = int(n)
        if n < 16:
            raise ConfigError(f"bandwidth policy defaults need n >= 16, got {n}")
        log_n = math.log(n)
        if h_n is None:
            h_n = 1.0 / log_n
        h_min = clamp_constant * log_n / n
        h_max = (math.log(log_n) / n) ** 0.25
        if h_min > h_max:
            raise ConfigError(
                f"clamp floor {h_min:.3g} exceeds ceiling {h_max:.3g} at n={n}; "
                "reduce clamp_constant"
            )
        return cls(
            h_n=float(h_n),
            h_min=h_min,
            h_max=h_max,
            alpha=float(alpha),
            shrink_enabled=shrink_enabled,
        )


def shrink_factor(u, v, alpha: float):
    """max{min(u^a, (1-u)^a), min(v^a, (1-v)^a)} in [0, 1]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if (u < 0).any() or (u > 1).any() or (v < 0).any() or (v > 1).any():
        raise ConfigError("shrink factor is defined on the unit square")
    if not alpha > 0:
        raise ConfigError(f"shrink exponent must be positive, got {alpha}")
    fu = np.minimum(u**alpha, (1.0 - u) ** alpha)
    fv = np.minimum(v**alpha, (1.0 - v) ** alpha)
    out = np.maximum(fu, fv)
    return float(out) if out.ndim == 0 else out


def effective_bandwidth(u, v, policy: BandwidthPolicy):
    """Location-dependent bandwidth clamped into [h_min, h_max]."""
    factor = shrink_factor(u, v, policy.alpha)
    if not policy.shrink_enabled:
        factor = np.ones_like(np.asarray(factor, dtype=float))
    out = np.clip(policy.h_n * factor, policy.h_min, policy.h_max)
    return float(out) if np.ndim(out) == 0 else out


def _coordinate_factor(coord: float, data: np.ndarray, policy: BandwidthPolicy, axis: str) -> np.ndarray:
    """Integrated-kernel factor K((coord - data)/h) for one grid coordinate."""
    if axis == "u":
        h_eff = effective_bandwidth(coord, 1.0, policy)
    else:
        h_eff = effective_bandwidth(1.0, coord, policy)
    kern = LocalKernel.at(coord, h_eff)
    return local_linear_cdf(kern, (coord - data) / h_eff)


def ll_copula_estimate(sample: PseudoSample, u, v, policy: BandwidthPolicy):
    """Smoothed copula estimate at paired coordinates; clipped into [0, 1].

    Clipping matters only within float dust of the boundary, where negative
    local-linear weights can push the raw sum marginally outside.
    """
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if u.shape != v.shape:
        raise ConfigError("u and v must be paired arrays of equal shape")
    if (u < 0).any() or (u > 1).any() or (v < 0).any() or (v > 1).any():
        raise ConfigError("evaluation points must lie in the unit square")
    flat = np.empty(u.size)
    for i, (uu, vv) in enumerate(zip(u.ravel(), v.ravel())):
        fu = _coordinate_factor(uu, sample.u, policy, "u")
        fv = _coordinate_factor(vv, sample.v, policy, "v")
        flat[i] = np.mean(fu * fv)
    out = np.clip(flat.reshape(u.shape), 0.0, 1.0)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class GridEvaluation:
    """Estimates on a lattice; values[i, j] is the estimate at (grid_u[i], grid_v[j])."""

    grid_u: np.ndarray
    grid_v: np.ndarray
    values: np.ndarray
    n: int
    policy: BandwidthPolicy

    def __post_init__(self):
        gu = np.asarray(self.grid_u, dtype=float)
        gv = np.asarray(self.grid_v, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid_u", gu)
        object.__setattr__(self, "grid_v", gv)
        object.__setattr__(self, "values", vals)
        if vals.shape != (len(gu), len(gv)):
            raise ConfigError("values matrix shape must match the grids")
        if not np.isfinite(vals).all():
            raise ConfigError("grid evaluation contains non-finite values")


def evaluate_grid(sample: PseudoSample, grid_size: int, policy: BandwidthPolicy) -> GridEvaluation:
    """Estimate on a uniform lattice including both endpoints.

    The product structure makes this a matrix product of per-axis factor
    matrices, which is deterministic regardless of any outer parallelism.
    """
    grid_size = int(grid_size)
    if grid_size < 2:
        raise ConfigError(f"grid size must be >= 2, got {grid_size}")
    grid = np.linspace(0.0, 1.0, grid_size)
    ku = np.stack([_coordinate_factor(g, sample.u, policy, "u") for g in grid])
    kv = np.stack([_coordinate_factor(g, sample.v, policy, "v") for g in grid])
    values = np.clip(ku @ kv.T / sample.n, 0.0, 1.0)
    return GridEvaluation(grid_u=grid, grid_v=grid, values=values, n=sample.n, policy=policy)


def empirical_copula(sample: PseudoSample, u, v):
    """Unsmoothed indicator-average estimate (right-continuous step function)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    v = np.atleast_1d(v)
    hits = (sample.u <= u[..., None]) & (sample.v <= v[..., None])
    out = hits.mean(axis=-1)
    return float(out[0]) if scalar else out
