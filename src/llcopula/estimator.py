"""Local-linear kernel copula estimator with boundary shrinkage.

The estimate at (u, v) is the sample mean of products of integrated
local-linear kernels, one factor per coordinate.  Each factor uses the
bandwidth of its own coordinate c, clamp(h_n * min(c, 1-c)^alpha, h_min,
h_max).  This per-axis rule is a deliberate deviation from the paper's joint
bandwidth clamp(h_n * max{min(u, 1-u), min(v, 1-v)}^alpha, h_min, h_max): it
keeps the factor of a grid row independent of the column, so the grid is a
contraction of per-axis factors over the sample.  A factor is exactly 1 or 0
outside its kernel window on the sample's sorted columns, so ``_factor_rows``
evaluates the local-linear CDF only at the windows' points, for many kernels
at once (one kernel per distinct coordinate).  A point estimate is a window
sum: an integer count of the points before both windows, plus the u-window's
values times the v-factor at those points, plus the v-window's values at the
points before the u-window, over n.  The grid streams over the data sorted by
u in blocks (``_grid_sums``), each of which finds its points in the v-windows
by a search of its sorted v-ranks, in O(n + the windows' total width + grid
size * BLOCK) memory.  Every factor value stays bitwise equal to evaluating the
kernel at all n points; only the order of the sums differs from a plain mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._arrays import unwrap
from .bands import BandGrid
from .errors import ConfigError
from .kernels import LocalKernel, SortedColumn, local_linear_cdf
from .margins import PseudoSample


@dataclass(frozen=True)
class BandwidthPolicy:
    """Global bandwidth rate plus the shrinkage and clamping rules.

    ``from_sample_size`` fills the defaults: h_n = 1/log n, clamp floor
    log(n)/n, clamp ceiling ((log log n)/n)^(1/4), shrink exponent 1/2.  A
    constant bandwidth h is ``BandwidthPolicy(h_n=h, h_min=h, h_max=h)``.
    """

    h_n: float
    h_min: float
    h_max: float
    alpha: float = 0.5

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
        h_min, h_max)."""
        c = np.asarray(coord, dtype=float)
        if not 0.0 <= c <= 1.0:
            raise ConfigError(f"bandwidth coordinate must lie in [0, 1], got {coord}")
        factor = np.minimum(c**self.alpha, (1.0 - c) ** self.alpha)
        return float(min(max(self.h_n * factor, self.h_min), self.h_max))


# Entries per batched local_linear_cdf call in ``_factor_rows`` (2^11-2^15 tried).
BATCH = 2**13


def _lattice(kerns: list, col: SortedColumn):
    """Each kernel's u, h, support [lo, hi] and window [a, b) on the sorted
    column, outside which its factor K((u - X)/h) is 1 (before) or 0 (after):
    six arrays, the windows from one vectorised search."""
    u, h, lo, hi = np.array([(k.u, k.h, k.moments.lo, k.moments.hi) for k in kerns]).reshape(-1, 4).T
    return (u, h, lo, hi, *col.window(u, h, lo, hi))


def _factor_rows(kerns: list, col: SortedColumn):
    """The kernels' windows [a, b) on the column (``_lattice``), each one's
    start and the factors' values on the windows, concatenated: kernel i's
    b[i] - a[i] values from start[i].  A run of kernels of one support [lo, hi]
    has bitwise-equal moments, so it shares one ``local_linear_cdf`` call on up
    to BATCH entries; a window alone in its call is evaluated on its slice.
    (u - X)/h is the same IEEE operation per entry either way, so no value
    differs from the lone kernel's."""
    u, h, lo, hi, a, b = _lattice(kerns, col)
    bounds = np.concatenate(([0], np.cumsum(b - a)))  # kernel i's values at bounds[i]:bounds[i + 1]
    values = np.empty(bounds[-1])
    i = 0
    while i < len(kerns):
        j = i + 1
        while j < len(kerns) and (lo[j], hi[j]) == (lo[i], hi[i]) and bounds[j + 1] - bounds[i] <= BATCH:
            j += 1
        if j == i + 1:
            t = (u[i] - col.values[a[i] : b[i]]) / h[i]
        else:
            w = b[i:j] - a[i:j]
            x = col.values[np.repeat(a[i:j] - bounds[i:j], w) + np.arange(bounds[i], bounds[j])]
            t = (np.repeat(u[i:j], w) - x) / np.repeat(h[i:j], w)
        values[bounds[i] : bounds[j]] = local_linear_cdf(kerns[i], t)
        i = j
    return a, b, bounds[:-1], values


def ll_copula_estimate(sample: PseudoSample, u, v, policy: BandwidthPolicy):
    """Smoothed copula estimate at paired coordinates; clipped into [0, 1].

    Each distinct coordinate's windows come from one search per axis; a
    point's two windows are evaluated on their slices, one
    ``local_linear_cdf`` call each.  Each estimate is a window sum over the
    sorted columns, in O(n) time for the count and O(window) for the rest.
    Clipping matters only within float dust of the boundary, where negative
    local-linear weights can push the raw sum marginally outside.
    """
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if u.shape != v.shape:
        raise ConfigError("u and v must be paired arrays of equal shape")
    coords, which = np.unique(np.concatenate((u.ravel(), v.ravel())), return_inverse=True)
    if not ((coords >= 0) & (coords <= 1)).all():  # NaN fails both compares
        raise ConfigError("evaluation points must lie in the unit square")
    kerns = [LocalKernel.at(c, policy.bandwidth(c)) for c in coords]
    su, sv = sample.sorted_columns
    u_windows, v_windows = (np.column_stack(_lattice(kerns, col)[4:]).tolist() for col in (su, sv))
    v_rank = sv.rank[su.order]  # v-rank of the point at each u-sorted position
    u_rank = su.rank[sv.order]  # and u-rank of the point at each v-sorted position
    flat = np.empty(u.size)
    for i, (p, q) in enumerate(zip(which[: u.size].tolist(), which[u.size :].tolist())):
        (ua, ub), (va, vb), ku, kv = u_windows[p], v_windows[q], kerns[p], kerns[q]
        fu = local_linear_cdf(ku, (ku.u - su.values[ua:ub]) / ku.h)
        fv = local_linear_cdf(kv, (kv.u - sv.values[va:vb]) / kv.h)
        # The v-factor at the u-window's points: 1 before va, fv on [va, vb), 0 from vb.
        at = np.clip(v_rank[ua:ub].astype(np.intp) - (va - 1), 0, vb - va + 1)
        on_u = np.sum(fu * np.concatenate(([1.0], fv, [0.0]))[at])
        on_v = np.sum(np.where(u_rank[va:vb] < ua, fv, 0.0))
        flat[i] = (np.count_nonzero(v_rank[:ua] < va) + on_u + on_v) / sample.n
    return unwrap(np.clip(flat.reshape(u.shape), 0.0, 1.0), scalar)


# Width of the column blocks that the grid contraction streams over: a
# partial u-row costs about (BLOCK + its window) * grid size (256-2048 tried).
BLOCK = 512
GROUP = 4
# Largest m*n*k that OpenBLAS multiplies on one thread (its default): a thread
# hand-off costs more than these small products, far more on a busy machine.
BLAS_SERIAL = 2**18


@lru_cache(maxsize=16)
def _grid_kernels(grid_size: int, policy: BandwidthPolicy) -> tuple:
    """The kernels at ``np.linspace(0, 1, grid_size)``, once per size and (frozen) policy."""
    return tuple(LocalKernel.at(c, policy.bandwidth(c)) for c in np.linspace(0.0, 1.0, grid_size))


def _grid_sums(kerns: tuple, su: SortedColumn, sv: SortedColumn) -> np.ndarray:
    """S[i, j], the sum over the sample of the u-factor at node i times the
    v-factor at node j (both axes share the grid's kernels ``kerns``),
    streamed over the data in u-sorted order, BLOCK columns at a time.

    On a block a u-factor row is all ones, all zeros or partial.  The block of
    every v-factor is built from a rank compare plus that block's v-window
    entries, found by searching each window in the block's sorted v-ranks.
    All-ones u-rows add the block's column sums, all-zero rows are skipped,
    and only the few partial rows take a matrix product.  The traced peak at
    n = 10^5 on 101 nodes is 7.5 MiB (13.7 MiB with 3-decimal ties).
    """
    n, g = su.values.size, len(kerns)
    ua, ub, ustart, u_values = u_axis = _factor_rows(kerns, su)
    # Equal sorted columns (rank data without ties) share the factor rows.
    va, vb, vstart, values = u_axis if np.array_equal(su.values, sv.values) else _factor_rows(kerns, sv)
    v_off = vstart - va  # node j's value at the point of v-rank r is values[v_off[j] + r]
    va = va.astype(sv.rank.dtype)
    u_rows = list(zip(ua.tolist(), ub.tolist(), (ustart - ua).tolist()))
    v_rank = sv.rank[su.order]  # v-rank of the point at each u-sorted position
    width = min(n, BLOCK)
    rows = max(1, BLAS_SERIAL // (g * width))  # partial u-rows per product
    sums, part = np.zeros((g, g)), np.zeros((g, g))  # part: this group of GROUP blocks
    kv = np.empty((g, width))
    for k, s in enumerate(range(0, n, width)):
        if k % GROUP == 0:  # the large running sums round once per group, not per block
            sums, part = sums + part, np.zeros((g, g))
        e = min(s + width, n)
        block = kv[:, : e - s]
        np.less(v_rank[s:e], va[:, None], out=block)
        ranks = v_rank[s:e].astype(np.intp)  # numpy sorts 16-bit keys without SIMD
        column = np.argsort(ranks)  # the block's points in v-rank order
        ranks = ranks[column]
        first, last = np.searchsorted(ranks, (va, vb))  # each v-window's points: ranks[first:last]
        node = np.repeat(np.arange(g), last - first)
        at = np.arange(node.size) + (last - np.cumsum(last - first))[node]  # first[j]:last[j] for each j
        kv.reshape(-1)[node * width + column[at]] = values[v_off[node] + ranks[at]]
        part[ua >= e] += block.sum(axis=1)
        partial = np.flatnonzero((ua < e) & (ub > s))
        ku = np.zeros((partial.size, e - s))
        for row, i in zip(ku, partial):
            a, b, off = u_rows[i]
            row[: max(a - s, 0)] = 1.0
            lo, hi = max(a, s), min(b, e)
            row[lo - s : hi - s] = u_values[off + lo : off + hi]
        for r in range(0, partial.size, rows):  # each product small enough for one BLAS thread
            part[partial[r : r + rows]] += ku[r : r + rows] @ block.T
    return sums + part


def evaluate_grid(sample: PseudoSample, grid_size: int, policy: BandwidthPolicy) -> BandGrid:
    """Estimate on a uniform lattice including both endpoints, as the
    zero-width band: ``lower`` and ``upper`` are the ``values`` array itself,
    the half-width is 0 and ``n`` is the sample size.

    The nodes' kernels are built once per grid size and policy.  Memory is
    O(n + the windows' total width + grid_size * BLOCK); no grid_size by n
    factor matrix is built.  The result depends on the data alone, up to the
    rounding of BLAS's matrix product, which the BLAS build and the CPU code
    it selects can change in the last bits; the thread count cannot (see
    BLAS_SERIAL).
    """
    grid_size = int(grid_size)
    if grid_size < 2:
        raise ConfigError(f"grid size must be >= 2, got {grid_size}")
    grid = np.linspace(0.0, 1.0, grid_size)
    sums = _grid_sums(_grid_kernels(grid_size, policy), *sample.sorted_columns)
    values = np.clip(sums / sample.n, 0.0, 1.0)
    return BandGrid(grid, grid, values, values, values, halfwidth=0.0, n=sample.n)
