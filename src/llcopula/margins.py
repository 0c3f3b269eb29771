"""Transform raw bivariate data into pseudo-observations in the unit square.

Two routes: smoothed kernel marginal CDFs evaluated at the sample points, or
empirical ranks rescaled by n/(n+1).  The estimation pipeline defaults to
ranks; the smoothed route is kept for completeness.  A smoothed CDF value is
a count of the points below its kernel window plus a sum over the window, on
the data sorted once (``kernels.SortedColumn``): O(n * window) time and
memory bounded by blocks of ``WINDOW_BLOCK`` terms, never n x n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import unwrap
from .errors import ConfigError
from .kernels import SortedColumn, epanechnikov_cdf

TRANSFORM_RANK = "rank"
TRANSFORM_SMOOTHED = "smoothed"

# Window terms evaluated at once by ``smoothed_marginal_cdf``: about 1 MB per
# temporary, however large the sample.
WINDOW_BLOCK = 1 << 17


@dataclass(frozen=True)
class RawSample:
    """Paired observations (x_i, y_i) before any transformation."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
            raise ConfigError("sample must consist of two equal-length 1-d columns")
        if len(x) < 2:
            raise ConfigError(f"need at least 2 observations, got {len(x)}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ConfigError("sample contains non-finite values")

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class PseudoSample:
    """Pairs in [0,1]^2 ready for copula estimation."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if u.ndim != 1 or v.ndim != 1 or len(u) != len(v):
            raise ConfigError("pseudo-sample must consist of two equal-length 1-d columns")
        if len(u) < 1:
            raise ConfigError("pseudo-sample is empty")
        # Written so that NaN fails it too.
        if not (((u >= 0) & (u <= 1)).all() and ((v >= 0) & (v <= 1)).all()):
            raise ConfigError("pseudo-observations must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.u)


def smoothed_marginal_cdf(values, bandwidth: float, x):
    """Kernel-smoothed empirical CDF: mean of K((x - X_i) / b) over the sample.

    K is the integrated Epanechnikov kernel, so the result is 0 below
    min(values) - b and 1 above max(values) + b.  Each query counts the points
    below its window [x - b, x + b] as ones and sums K over the window only,
    in blocks of sorted queries; sums run in sorted order, so a value can
    differ from the plain mean over all n terms by a few ulps.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ConfigError("cannot smooth an empty sample")
    if not np.isfinite(bandwidth) or bandwidth <= 0:
        raise ConfigError(f"bandwidth must be positive, got {bandwidth}")
    x = np.asarray(x, dtype=float)
    if np.isnan(values).any() or np.isnan(x).any():
        raise ConfigError("smoothed CDF undefined for NaN sample values or query points")
    col = SortedColumn.of(values)
    flat = x.ravel()
    order = np.argsort(flat)
    q = flat[order]
    a, b = col.window(q, bandwidth, -1.0, 1.0)
    sums = a.astype(float)
    # Sorted queries have similar windows, so padding a block to its widest
    # window wastes little.
    step = max(1, WINDOW_BLOCK // max(1, int((b - a).max(initial=0))))
    for start in range(0, q.size, step):
        blk = slice(start, start + step)
        idx = a[blk, None] + np.arange((b[blk] - a[blk]).max())
        terms = epanechnikov_cdf((q[blk, None] - col.values[np.minimum(idx, values.size - 1)]) / bandwidth)
        sums[blk] += np.where(idx < b[blk, None], terms, 0.0).sum(axis=1)
    out = np.empty_like(flat)
    out[order] = sums / values.size
    return unwrap(out.reshape(x.shape), x.ndim == 0)


def default_margin_bandwidth(values) -> float:
    """Rule-of-thumb CDF smoothing bandwidth: sample std times n^(-1/3)."""
    values = np.asarray(values, dtype=float)
    sd = float(values.std(ddof=1))
    if sd == 0.0:
        raise ConfigError("margin is constant; smoothed transform is undefined")
    return sd * len(values) ** (-1.0 / 3.0)


def to_pseudo_smoothed(sample: RawSample) -> PseudoSample:
    """Pseudo-observations via smoothed marginal CDFs evaluated at the data,
    each margin at its ``default_margin_bandwidth``."""
    u = smoothed_marginal_cdf(sample.x, default_margin_bandwidth(sample.x), sample.x)
    v = smoothed_marginal_cdf(sample.y, default_margin_bandwidth(sample.y), sample.y)
    return PseudoSample(u=u, v=v)


def _scaled_ranks(values: np.ndarray) -> np.ndarray:
    # rank = count of sample values <= x_i; ties share the maximal rank,
    # matching the empirical CDF convention.
    order = np.sort(values)
    ranks = np.searchsorted(order, values, side="right")
    return ranks / (len(values) + 1.0)


def to_pseudo_ranks(sample: RawSample) -> PseudoSample:
    """Pseudo-observations (n/(n+1)) * F_n(X_i) from empirical ranks."""
    return PseudoSample(u=_scaled_ranks(sample.x), v=_scaled_ranks(sample.y))


def to_pseudo(sample: RawSample, transform: str = TRANSFORM_RANK) -> PseudoSample:
    """Dispatch on the configured transform name."""
    if transform == TRANSFORM_RANK:
        return to_pseudo_ranks(sample)
    if transform == TRANSFORM_SMOOTHED:
        return to_pseudo_smoothed(sample)
    raise ConfigError(f"unknown transform {transform!r} (expected rank or smoothed)")
