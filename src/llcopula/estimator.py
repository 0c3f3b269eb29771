"""Local-linear kernel copula estimator with boundary shrinkage.

The estimate at (u, v) is the sample mean of products of integrated
local-linear kernels, one factor per coordinate.  Each factor uses the
bandwidth of its own coordinate c, clamp(h_n * min(c, 1-c)^alpha, h_min,
h_max).  This per-axis rule is a deliberate deviation from the paper's joint
bandwidth clamp(h_n * max{min(u, 1-u), min(v, 1-v)}^alpha, h_min, h_max): it
keeps the factor of a grid row independent of the column, so the grid is a
contraction of per-axis factors over the sample.  A factor is exactly 1 or 0
outside its kernel window, so everything works on the sample's columns,
sorted once (``PseudoSample.sorted_columns``), and the local-linear CDF is
evaluated only at the window's points, not at all n.  A point estimate is a
window sum: an integer count of the points before both windows, plus the
u-window's values times the v-factor at those points, plus the v-window's
values at the points before the u-window, over n.  The grid streams over the
data sorted by u in blocks (``_grid_sums``), in O(n + the windows' total
width + grid size * BLOCK) memory, and builds no grid-by-n factor matrix.
Every factor value stays bitwise equal to evaluating the kernel at all n
points; only the order of the sums differs from a plain mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._arrays import unwrap
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
        return float(np.clip(self.h_n * factor, self.h_min, self.h_max))


def _window(coord: float, data: SortedColumn, policy: BandwidthPolicy):
    """Kernel of the integrated-kernel factor K((coord - X_i)/h) at
    h = policy.bandwidth(coord), and the window [a, b) of the sorted data
    outside which the factor is 1 (before) or 0 (after)."""
    kern = LocalKernel.at(coord, policy.bandwidth(coord))
    a, b = data.window(kern.u, kern.h, kern.moments.lo, kern.moments.hi)
    return kern, int(a), int(b)


def _inside(kern: LocalKernel, a: int, b: int, data: SortedColumn) -> np.ndarray:
    """The factor's values on its window, data.values[a:b]."""
    return local_linear_cdf(kern, (kern.u - data.values[a:b]) / kern.h)


def ll_copula_estimate(sample: PseudoSample, u, v, policy: BandwidthPolicy):
    """Smoothed copula estimate at paired coordinates; clipped into [0, 1].

    Each estimate is a window sum over the sorted columns, in O(n) time for
    the count and O(window) for the rest, with numpy reductions only.
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
    su, sv = sample.sorted_columns
    v_rank = sv.rank[su.order]  # v-rank of the point at each u-sorted position
    flat = np.empty(u.size)
    for i, (uu, vv) in enumerate(zip(u.ravel(), v.ravel())):
        ku, ua, ub = _window(uu, su, policy)
        kv, va, vb = _window(vv, sv, policy)
        fu, fv = _inside(ku, ua, ub, su), _inside(kv, va, vb, sv)
        # The v-factor at the u-window's points: 1 before va, fv on [va, vb), 0 from vb.
        at = np.clip(v_rank[ua:ub].astype(np.intp) - (va - 1), 0, vb - va + 1)
        on_u = np.sum(fu * np.concatenate(([1.0], fv, [0.0]))[at])
        on_v = np.sum(np.where(su.rank[sv.order[va:vb]] < ua, fv, 0.0))
        flat[i] = (np.count_nonzero(v_rank[:ua] < va) + on_u + on_v) / sample.n
    out = np.clip(flat.reshape(u.shape), 0.0, 1.0)
    return unwrap(out, scalar)


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


# Width of the column blocks that the grid contraction streams over.
BLOCK = 2048


def _grid_sums(grid: np.ndarray, su: SortedColumn, sv: SortedColumn, policy: BandwidthPolicy) -> np.ndarray:
    """S[i, j], the sum over the sample of the u-factor at grid[i] times the
    v-factor at grid[j], streamed over the data in u-sorted order, BLOCK
    columns at a time.

    On a block a u-factor row is all ones, all zeros or partial.  The block of
    every v-factor is built from a rank compare plus that block's v-window
    entries.  All-ones u-rows add the block's column sums, all-zero rows are
    skipped, and only the few partial rows take a matrix product.
    """
    n, g = su.values.size, grid.size
    u_rows = [(a, b, _inside(kern, a, b, su)) for kern, a, b in (_window(c, su, policy) for c in grid)]
    ua = np.array([a for a, _, _ in u_rows])
    ub = np.array([b for _, b, _ in u_rows])

    # The v-windows' entries: value, the block of the point's u-sorted
    # position and the entry's cell in that block's (g, width) v-factor.
    width = min(n, BLOCK)
    nblocks = -(-n // width)
    v_wins = [_window(c, sv, policy) for c in grid]
    va = np.array([a for _, a, _ in v_wins], dtype=sv.rank.dtype)
    size = sum(b - a for _, a, b in v_wins)
    values = np.empty(size)
    blocks = np.empty(size, dtype=np.min_scalar_type(nblocks))
    cells = np.empty(size, dtype=np.min_scalar_type(g * width))
    lo = 0
    for j, (kern, a, b) in enumerate(v_wins):
        hi = lo + b - a
        values[lo:hi] = _inside(kern, a, b, sv)
        blocks[lo:hi], cells[lo:hi] = np.divmod(su.rank[sv.order[a:b]], width)
        cells[lo:hi] += j * width
        lo = hi
    # Group the entries by block with a stable (radix) sort of the small block ids.
    by_block = np.argsort(blocks, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(blocks, minlength=nblocks))))
    values, cells = values[by_block], cells[by_block]
    del blocks, by_block

    v_rank = sv.rank[su.order]  # v-rank of the point at each u-sorted position
    sums = np.zeros((g, g))
    kv = np.empty((g, width))
    for k, s in enumerate(range(0, n, width)):
        e = min(s + width, n)
        block = kv[:, : e - s]
        np.less(v_rank[s:e], va[:, None], out=block)
        kv.reshape(-1)[cells[starts[k] : starts[k + 1]]] = values[starts[k] : starts[k + 1]]
        sums[ua >= e] += block.sum(axis=1)
        partial = np.flatnonzero((ua < e) & (ub > s))
        ku = np.zeros((partial.size, e - s))
        for row, i in zip(ku, partial):
            a, b, inside = u_rows[i]
            row[: max(a - s, 0)] = 1.0
            lo, hi = max(a, s), min(b, e)
            row[lo - s : hi - s] = inside[lo - a : hi - a]
        sums[partial] += ku @ block.T
    return sums


def evaluate_grid(sample: PseudoSample, grid_size: int, policy: BandwidthPolicy) -> GridEvaluation:
    """Estimate on a uniform lattice including both endpoints.

    The product structure makes the lattice a contraction of per-axis
    factors, streamed over the sample in blocks (``_grid_sums``), so memory
    is O(n + the windows' total width + grid_size * BLOCK) and no grid_size
    by n factor matrix is built.  The result depends on the data alone, up
    to the rounding of BLAS's matrix product, which a BLAS build or thread
    count can change in the last bits.
    """
    grid_size = int(grid_size)
    if grid_size < 2:
        raise ConfigError(f"grid size must be >= 2, got {grid_size}")
    grid = np.linspace(0.0, 1.0, grid_size)
    sums = _grid_sums(grid, *sample.sorted_columns, policy)
    values = np.clip(sums / sample.n, 0.0, 1.0)
    return GridEvaluation(grid_u=grid, grid_v=grid, values=values, n=sample.n)
