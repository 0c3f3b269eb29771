"""Truncated Epanechnikov moments and the local-linear boundary kernel's CDF.

Everything here is a closed-form piecewise polynomial in the Epanechnikov
kernel k(t) = 0.75 (1 - t^2) on [-1, 1]: the truncated moments are
antiderivatives of ``t^j * k(t)`` evaluated on the effective support, and
the local-linear CDF integrates ``k(t) * (a2 - a1 t)`` into one quartic,
evaluated by Horner's rule.  The kernel itself, its plain CDF and the
local-linear density serve only the tests, as independent oracles next to
numerical quadrature (``tests/oracles.py``).

Both integrated kernels are flat outside their support, so ``SortedColumn``
turns a sum over the data into a count plus a sum over one sorted window;
the estimator's grid and point estimates and the smoothed margins all use it.
A ``PseudoSample`` keeps one per column, sorted at most once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import unwrap
from .errors import ConfigError, DegenerateKernelError

# Floor for the correction denominator a0*a2 - a1^2; it is strictly positive
# on any nondegenerate interval, so a smaller value signals pathological h.
DET_FLOOR = 1e-14


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


def local_linear_cdf(kern: LocalKernel, x):
    """Integral of the corrected density from -inf to x, in closed form.

    On [lo, hi] it is (a2 (P0(x) - P0(lo)) - a1 (P1(x) - P1(lo))) / det with
    P0, P1 = ``_prim0``, ``_prim1``: the quartic c0 + c1 x + ... + c4 x^4,
    evaluated by Horner's rule.  Multiplications only, because ``x**k``
    calls ``pow``, which is slow for negative x.  Exactly 0 for x <= lo and
    exactly 1 for x >= hi.
    """
    m = kern.moments
    c1, c2 = 0.75 * m.a2 / m.det, -0.375 * m.a1 / m.det
    c3, c4 = -0.25 * m.a2 / m.det, 0.1875 * m.a1 / m.det
    c0 = -m.lo * (c1 + m.lo * (c2 + m.lo * (c3 + m.lo * c4)))
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, m.lo, m.hi)
    val = xc * c4
    for c in (c3, c2, c1):
        val += c
        val *= xc
    val += c0
    out = np.where(x <= m.lo, 0.0, np.where(x >= m.hi, 1.0, val))
    return unwrap(out, out.ndim == 0)


# Relative widening of a window's edges.  The argument (x - X)/h rounds by a
# few ulps of (|x| + h)/h, so a point left outside the widened window lies far
# enough beyond the kernel support to get an exact 0 or 1.
WINDOW_PAD = 1e-12


@dataclass(frozen=True)
class SortedColumn:
    """One data column sorted once, for sums of integrated kernels K((x - X_i)/h).

    K is supported on [lo, hi] in t = (x - X_i)/h: exactly 1 for t >= hi and
    exactly 0 for t <= lo.  In sorted order the terms are therefore ones, a
    window where K is a polynomial, then zeros.  ``window`` finds that index
    range with ``searchsorted``, so a caller evaluates K on O(window) points
    per query instead of O(n) (the idea of the fast kernel sums of Silverman
    1982 and Wand 1994).
    """

    values: np.ndarray  # ascending
    order: np.ndarray  # values[k] is data[order[k]]
    rank: np.ndarray  # the inverse of order: rank[order[k]] = k

    @classmethod
    def of(cls, data, order=None) -> "SortedColumn":
        """``data`` taken in ``order``, by default its argsort.  An argsort of
        any values that ``data`` is nondecreasing in sorts ``data`` too."""
        # Tied points give equal terms, so their order within values is free.
        data = np.asarray(data, dtype=float)
        if order is None:
            order = np.argsort(data)
        # The narrowest type that holds n: the estimator compares and gathers all of rank.
        rank = np.empty(order.size, dtype=np.min_scalar_type(order.size))
        rank[order] = np.arange(order.size)
        col = cls(values=data[order], order=order, rank=rank)
        for array in (col.values, col.order, col.rank):
            array.flags.writeable = False  # a sample caches its columns: they must not change
        return col

    def window(self, x, h, lo, hi):
        """Index range [a, b) outside which K((x - X)/h) is flat; vectorised over x.

        values[:a] have t >= hi (K = 1) and values[b:] have t <= lo (K = 0),
        both after rounding; points inside may be flat too.
        """
        # |x| is capped so that an infinite query gets an infinite edge, not inf - inf.
        pad = WINDOW_PAD * (np.minimum(np.abs(x), 1e300) + h)
        a = np.searchsorted(self.values, x - h * hi - pad, side="left")
        b = np.searchsorted(self.values, x - h * lo + pad, side="right")
        return a, b
