"""Independent oracles that the tests compare the library against."""

import numpy as np


def empirical_copula(sample, u, v):
    """Unsmoothed indicator-average estimate (right-continuous step function).

    One pass over the sample per query point, so memory stays O(n).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    out = np.array([np.mean((sample.u <= a) & (sample.v <= b)) for a, b in zip(u.ravel(), v.ravel())])
    return float(out.item()) if u.ndim == 0 else out.reshape(u.shape)


def epanechnikov(t):
    """Kernel density 0.75 * (1 - t^2) for |t| <= 1, zero outside."""
    t = np.asarray(t, dtype=float)
    out = np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t * t), 0.0)
    return float(out.item()) if out.ndim == 0 else out


def epanechnikov_cdf(x):
    """Integral of the Epanechnikov density from -inf to x (plain, uncorrected)."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -1.0, 1.0)
    out = 0.5 + 0.75 * xc - 0.25 * xc**3
    out = np.where(x <= -1.0, 0.0, np.where(x >= 1.0, 1.0, out))
    return float(out.item()) if out.ndim == 0 else out


def local_linear_density(kern, t):
    """Corrected density k(t) (a2 - a1 t) / (a0 a2 - a1^2) of a ``LocalKernel``
    at t; zero outside its support [lo, hi]."""
    m = kern.moments
    t = np.asarray(t, dtype=float)
    inside = (t >= m.lo) & (t <= m.hi)
    weight = (m.a2 - m.a1 * t) / m.det
    out = np.where(inside, epanechnikov(t) * weight, 0.0)
    return float(out.item()) if out.ndim == 0 else out
