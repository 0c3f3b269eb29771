"""Simultaneous confidence bands with iterated-logarithm half-width.

The band half-width is (1 + epsilon) * A_c / R_n with R_n the
law-of-iterated-logarithm rate sqrt(n / (2 log log n)); it is constant over
the grid, so the bands are the estimate surface shifted up and down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .families import CopulaModel, cdf


@dataclass(frozen=True)
class BandParameters:
    """Half-width inputs: sample size, the rate constant, optional inflation."""

    n: int
    A_c: float = 3.0
    epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        if self.n < 16:
            raise ConfigError(f"band construction needs n >= 16, got {self.n}")
        if not (0.0 < self.A_c <= 3.0):
            raise ConfigError(f"rate constant must satisfy 0 < A_c <= 3, got {self.A_c}")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ConfigError(f"inflation must be nonnegative, got {self.epsilon}")


def rate_rn(n: int) -> float:
    """sqrt(n / (2 log log n)), natural logarithms; requires n >= 16."""
    n = int(n)
    if n < 16:
        raise ConfigError(f"rate is used only for n >= 16, got {n}")
    return math.sqrt(n / (2.0 * math.log(math.log(n))))


def band_halfwidth(params: BandParameters) -> float:
    """(1 + epsilon) * A_c / R_n."""
    return (1.0 + params.epsilon) * params.A_c / rate_rn(params.n)


def shrunken_halfwidth(params: BandParameters) -> float:
    """(1 - epsilon) * A_c / R_n, the inner width.  It fails to cover the grid
    only where it falls below the scaled sup error R_n sup |C_hat - C| (0.17-0.36
    measured for n from 10^3 to 10^5), so at A_c = 3 only for epsilon above
    about 0.9; from 0.97 on it fails in nearly every replicate."""
    if not params.epsilon < 1.0:
        raise ConfigError("inner half-width needs epsilon < 1")
    return (1.0 - params.epsilon) * params.A_c / rate_rn(params.n)


@dataclass(frozen=True)
class BandGrid:
    """Estimate surface plus constant-width lower/upper surfaces on a lattice;
    values[i, j] is the estimate at (grid_u[i], grid_v[j]).

    An estimate alone is the zero-width band: lower and upper are ``values``
    and the half-width is 0.  ``n`` is the sample size, None for a grid read
    from a file.  Unclipped construction gives lower = values - halfwidth and
    upper = values + halfwidth componentwise; clipping to the copula envelope
    may pull a bound past the estimate, so only the ordering of the bounds
    themselves is enforced here.
    """

    grid_u: np.ndarray
    grid_v: np.ndarray
    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    halfwidth: float
    n: int | None = None
    meta: dict | None = None

    def __post_init__(self):
        for name in ("grid_u", "grid_v", "values", "lower", "upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        shape = (len(self.grid_u), len(self.grid_v))
        for name in ("values", "lower", "upper"):
            if getattr(self, name).shape != shape:
                raise ConfigError(f"{name} matrix shape must match the grids")
        if not np.isfinite(self.values).all():
            raise ConfigError("estimate surface contains non-finite values")
        if not (math.isfinite(self.halfwidth) and self.halfwidth >= 0.0):
            raise ConfigError(f"half-width must be finite and nonnegative, got {self.halfwidth}")
        if (self.lower > self.upper).any():
            raise ConfigError("lower band surface must not exceed the upper one")


@dataclass(frozen=True)
class ContainmentReport:
    """Fraction of grid nodes whose reference value lies inside the band."""

    fraction: float
    worst_violation: float
    n_nodes: int
    n_contained: int


def confidence_bands(grid: BandGrid, params: BandParameters, clip_to_frechet: bool = False) -> BandGrid:
    """Constant half-width bands centered at the estimate; ``n`` and ``meta``
    ride along from ``grid``.

    By default the bounds are left unclipped (lower bounds may be negative,
    upper bounds may exceed one); ``clip_to_frechet`` intersects them with
    the pointwise copula envelope for presentation.
    """
    if grid.n != params.n:
        raise ConfigError(f"grid was built from n={grid.n} but band parameters say n={params.n}")
    hw = band_halfwidth(params)
    lower = grid.values - hw
    upper = grid.values + hw
    if clip_to_frechet:
        uu, vv = grid.grid_u[:, None], grid.grid_v[None, :]
        # np.clip lets the upper bound win where rounding puts u + v - 1
        # above min(u, v), as at the border nodes, the way ``cdf`` clips
        env_lo, env_hi = np.maximum(uu + vv - 1.0, 0.0), np.minimum(uu, vv)
        lower, upper = np.clip(lower, env_lo, env_hi), np.clip(upper, env_lo, env_hi)
    return replace(grid, lower=lower, upper=upper, halfwidth=hw)


def containment_report(bands: BandGrid, reference: CopulaModel) -> ContainmentReport:
    """Scan every node and compare the reference copula against the band."""
    uu, vv = np.meshgrid(bands.grid_u, bands.grid_v, indexing="ij")
    truth = cdf(reference, uu, vv)
    contained = (bands.lower <= truth) & (truth <= bands.upper)
    violation = np.maximum(bands.lower - truth, truth - bands.upper)
    return ContainmentReport(
        fraction=float(contained.mean()),
        worst_violation=float(max(violation.max(), 0.0)),
        n_nodes=int(contained.size),
        n_contained=int(contained.sum()),
    )
