"""Independent oracles that the tests compare the library against."""

import numpy as np

from llcopula.families import cdf
from llcopula.kernels import LocalKernel


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


def expected_estimate(model, policy, coords, nodes=48):
    """E C_hat on ``coords`` x ``coords`` for a sample of ``model`` with its
    true (uniform) margins, as a (G, G) array: the integral of
    k_u(a) k_v(b) C(u - h_u a, v - h_v b) over the two kernel supports.

    Each node's kernel is ``LocalKernel.at(c, policy.bandwidth(c))``; the
    integral is Gauss-Legendre with ``nodes`` points on each support [lo, hi].
    The kernel is a cubic there, so the only error is C's smoothness.
    """
    t, w = np.polynomial.legendre.leggauss(nodes)
    points, weights = [], []
    for c in np.asarray(coords, dtype=float):
        kern = LocalKernel.at(c, policy.bandwidth(c))
        lo, hi = kern.moments.lo, kern.moments.hi
        a = lo + 0.5 * (hi - lo) * (t + 1.0)
        points.append(np.clip(c - kern.h * a, 0.0, 1.0))  # in [0, 1] up to rounding
        weights.append(0.5 * (hi - lo) * w * local_linear_density(kern, a))
    points, weights = np.array(points), np.array(weights)
    values = cdf(model, points[:, None, :, None], points[None, :, None, :])
    return np.einsum("ia,jb,ijab->ij", weights, weights, values)


def _fmt(x):
    return format(float(x), ".3f")


def _heat_color(value):
    t = min(max(float(value), 0.0), 1.0)
    rgb = tuple(round(lo + t * (hi - lo)) for lo, hi in zip((247, 251, 255), (8, 48, 107)))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def heatmap_polygons(grid, x0=50, y0=30, w=400, h=400):
    """The SVG heatmap of a ``BandGrid`` built cell by cell: one polygon per
    lattice cell, filled by the mean of its four corners summed in a fixed
    order, clamped to [0, 1] and rounded half to even on the colour ramp."""
    px = x0 + w * grid.grid_u
    py = y0 + h * (1.0 - grid.grid_v)
    cells = []
    for i in range(len(grid.grid_u) - 1):
        for j in range(len(grid.grid_v) - 1):
            corners = ((px[i], py[j]), (px[i + 1], py[j]), (px[i + 1], py[j + 1]), (px[i], py[j + 1]))
            z = grid.values
            value = 0.25 * (z[i, j] + z[i + 1, j] + z[i, j + 1] + z[i + 1, j + 1])
            pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners)
            cells.append(f'<polygon points="{pts}" fill="{_heat_color(value)}" stroke="none"/>')
    return cells


def polyline_points(ts, values, vmin, vspan, x0=520, y0=30, w=360, h=400):
    """The ``points`` text of the diagonal panel's polyline, point by point."""
    return " ".join(f"{_fmt(x0 + w * t)},{_fmt(y0 + h * (1.0 - (v - vmin) / vspan))}" for t, v in zip(ts, values))
