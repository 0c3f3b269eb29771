"""Local-linear kernel copula estimator with boundary shrinkage.

The estimate at (u, v) is the sample mean of products of integrated
local-linear kernels, one factor per coordinate.  Each factor uses the
bandwidth of its own coordinate c, clamp(h_n * min(c, 1-c)^alpha, h_min,
h_max).  This per-axis rule is a deliberate deviation from the paper's joint
bandwidth clamp(h_n * max{min(u, 1-u), min(v, 1-v)}^alpha, h_min, h_max): it
keeps the factor of a grid row independent of the column, so the whole grid
is a single matrix product.  The unsmoothed empirical copula is provided as the
desk-scale oracle.
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
    log(n)/n, clamp ceiling ((log log n)/n)^(1/4), shrink exponent 1/2.
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
    def from_sample_size(cls, n: int, h_n: float | None = None, alpha: float = 0.5) -> "BandwidthPolicy":
        n = int(n)
        if n < 16:
            raise ConfigError(f"bandwidth policy defaults need n >= 16, got {n}")
        log_n = math.log(n)
        if h_n is None:
            h_n = 1.0 / log_n
        # h_min / h_max is largest at n = 16, about 0.34, so the interval is never empty.
        return cls(h_n=float(h_n), h_min=log_n / n, h_max=(math.log(log_n) / n) ** 0.25, alpha=float(alpha))

    def bandwidth(self, coord) -> float:
        """Bandwidth of one coordinate c in [0, 1]: clamp(h_n * min(c, 1-c)^alpha,
        h_min, h_max), or the clamped h_n when shrinkage is off."""
        c = np.asarray(coord, dtype=float)
        if not 0.0 <= c <= 1.0:
            raise ConfigError(f"bandwidth coordinate must lie in [0, 1], got {coord}")
        if not self.shrink_enabled:
            return float(np.clip(self.h_n, self.h_min, self.h_max))
        factor = np.minimum(c**self.alpha, (1.0 - c) ** self.alpha)
        return float(np.clip(self.h_n * factor, self.h_min, self.h_max))


def _axis_factor(coord: float, data: np.ndarray, policy: BandwidthPolicy) -> np.ndarray:
    """Integrated-kernel factor K((coord - data)/h) at h = policy.bandwidth(coord)."""
    h = policy.bandwidth(coord)
    return local_linear_cdf(LocalKernel.at(coord, h), (coord - data) / h)


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
        fu = _axis_factor(uu, sample.u, policy)
        fv = _axis_factor(vv, sample.v, policy)
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
    ku = np.stack([_axis_factor(g, sample.u, policy) for g in grid])
    kv = np.stack([_axis_factor(g, sample.v, policy) for g in grid])
    values = np.clip(ku @ kv.T / sample.n, 0.0, 1.0)
    return GridEvaluation(grid_u=grid, grid_v=grid, values=values, n=sample.n)


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
