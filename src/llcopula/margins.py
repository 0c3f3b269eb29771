"""Transform raw bivariate data into pseudo-observations in the unit square.

Two routes: smoothed kernel marginal CDFs evaluated at the sample points, or
empirical ranks rescaled by n/(n+1).  The estimation pipeline defaults to
ranks; the smoothed route is kept for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kernels import epanechnikov_cdf

TRANSFORM_RANK = "rank"
TRANSFORM_SMOOTHED = "smoothed"


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
    min(values) - b and 1 above max(values) + b.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ConfigError("cannot smooth an empty sample")
    if not np.isfinite(bandwidth) or bandwidth <= 0:
        raise ConfigError(f"bandwidth must be positive, got {bandwidth}")
    x = np.asarray(x, dtype=float)
    args = (x[..., None] - values) / bandwidth
    out = epanechnikov_cdf(args).mean(axis=-1)
    return float(out) if out.ndim == 0 else out


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
