"""Epanechnikov kernel, truncated moments, and the local-linear boundary kernel.

Everything here is a closed-form piecewise polynomial: the truncated moments
are antiderivatives of ``t^j * k(t)`` evaluated on the effective support, and
the local-linear CDF integrates ``k(t) * (a2 - a1 t)`` termwise.  Numerical
quadrature is used only as an independent oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateKernelError

# Floor for the correction denominator a0*a2 - a1^2; it is strictly positive
# on any nondegenerate interval, so a smaller value signals pathological h.
DET_FLOOR = 1e-14


def epanechnikov(t):
    """Kernel density 0.75 * (1 - t^2) for |t| <= 1, zero outside."""
    t = np.asarray(t, dtype=float)
    out = np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t * t), 0.0)
    return float(out) if out.ndim == 0 else out


def epanechnikov_cdf(x):
    """Integral of the Epanechnikov density from -inf to x (plain, uncorrected)."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -1.0, 1.0)
    out = 0.5 + 0.75 * xc - 0.25 * xc**3
    out = np.where(x <= -1.0, 0.0, np.where(x >= 1.0, 1.0, out))
    return float(out) if out.ndim == 0 else out


# Antiderivatives of t^j * 0.75*(1 - t^2) for j = 0, 1, 2.


def _prim0(t):
    return 0.75 * (t - t**3 / 3.0)


def _prim1(t):
    return 0.75 * (t * t / 2.0 - t**4 / 4.0)


def _prim2(t):
    return 0.75 * (t**3 / 3.0 - t**5 / 5.0)


@dataclass(frozen=True)
class KernelMoments:
    """Truncated kernel moments on [lo, hi], the effective support at (u, h)."""

    a0: float
    a1: float
    a2: float
    lo: float
    hi: float

    @property
    def det(self) -> float:
        return self.a0 * self.a2 - self.a1 * self.a1


def kernel_moments(u: float, h: float) -> KernelMoments:
    """Moments a_j = int t^j k(t) dt over [max(-1, (u-1)/h), min(1, u/h)].

    Raises for h <= 0, u outside [0, 1], or a degenerate correction
    denominator (possible only for very large h).
    """
    u = float(u)
    h = float(h)
    if not np.isfinite(h) or h <= 0.0:
        raise ConfigError(f"bandwidth must be positive, got {h}")
    if not 0.0 <= u <= 1.0:
        raise ConfigError(f"evaluation coordinate must lie in [0, 1], got {u}")
    lo = max(-1.0, (u - 1.0) / h)
    hi = min(1.0, u / h)
    a0 = _prim0(hi) - _prim0(lo)
    a1 = _prim1(hi) - _prim1(lo)
    a2 = _prim2(hi) - _prim2(lo)
    if a0 * a2 - a1 * a1 < DET_FLOOR:
        raise DegenerateKernelError(
            f"kernel moments degenerate at u={u}, h={h}: a0*a2 - a1^2 < {DET_FLOOR}"
        )
    return KernelMoments(a0=a0, a1=a1, a2=a2, lo=lo, hi=hi)


@dataclass(frozen=True)
class LocalKernel:
    """Local-linear kernel at coordinate u with bandwidth h.

    The density is ``k(t) * (a2 - a1 t) / (a0 a2 - a1^2)`` on [lo, hi]; the
    correction cancels the first truncated moment, so the density integrates
    to one with zero mean on any support.  Near u = 0 or u = 1 the corrected
    weights can be negative, so the CDF is not monotone there (it still starts
    at 0 and ends at 1).
    """

    u: float
    h: float
    moments: KernelMoments

    @classmethod
    def at(cls, u: float, h: float) -> "LocalKernel":
        return cls(u=float(u), h=float(h), moments=kernel_moments(u, h))


def local_linear_density(kern: LocalKernel, t):
    """Corrected kernel density at t; zero outside [lo, hi]."""
    m = kern.moments
    t = np.asarray(t, dtype=float)
    inside = (t >= m.lo) & (t <= m.hi)
    weight = (m.a2 - m.a1 * t) / m.det
    out = np.where(inside, epanechnikov(t) * weight, 0.0)
    return float(out) if out.ndim == 0 else out


def local_linear_cdf(kern: LocalKernel, x):
    """Integral of the corrected density from -inf to x, in closed form.

    Exactly 0 for x <= lo and exactly 1 for x >= hi.
    """
    m = kern.moments
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, m.lo, m.hi)
    val = (m.a2 * (_prim0(xc) - _prim0(m.lo)) - m.a1 * (_prim1(xc) - _prim1(m.lo))) / m.det
    out = np.where(x <= m.lo, 0.0, np.where(x >= m.hi, 1.0, val))
    return float(out) if out.ndim == 0 else out
