"""Transform raw bivariate data into pseudo-observations in the unit square.

Two routes: smoothed kernel marginal CDFs evaluated at the sample points, or
empirical ranks rescaled by n/(n+1).  The estimation pipeline defaults to
ranks; the smoothed route is kept for completeness.  A ``PseudoSample`` sorts
each column at most once (``sorted_columns``); the rank route hands over its
argsorts, as ranks are nondecreasing in the raw values.  A smoothed CDF value is
a count of the points below its kernel window plus a sum over the window, on
the data sorted once (``kernels.SortedColumn``).  Inside the window the
integrated kernel is a cubic, so the window sum comes from prefix sums of the
first three powers of block-anchored offsets: O(n log n) time and O(n) memory
for n queries, however wide the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._arrays import unwrap
from .errors import ConfigError
from .kernels import SortedColumn

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
    """Pairs in [0,1]^2 ready for copula estimation, as the sample's own
    read-only copies, so that its sorted columns can never go stale."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=float)
        v = np.array(self.v, dtype=float)
        u.flags.writeable = v.flags.writeable = False
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

    @cached_property
    def sorted_columns(self) -> tuple[SortedColumn, SortedColumn]:
        """The u and v columns as ``SortedColumn``, sorted on first use only."""
        return SortedColumn.of(self.u), SortedColumn.of(self.v)


def smoothed_marginal_cdf(values, bandwidth: float, x):
    """Kernel-smoothed empirical CDF: mean of K((x - X_i) / b) over the sample.

    K is the integrated Epanechnikov kernel, so the result is 0 below
    min(values) - b and 1 above max(values) + b.  A query counts the points
    whose t = (x - X_i)/b rounds to t >= 1 as ones and those with t <= -1 as
    zeros, exactly as the plain mean does.  On the points in between K is the
    cubic 0.5 + 0.75 t - 0.25 t^3, so their sum follows from power sums of
    the points' offsets (``_cubic_window_sums``); no term is evaluated per
    point.  Time is O((n + queries) log n) and memory O(n + queries); a value
    can differ from the plain mean over all n terms by a few ulps.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ConfigError("cannot smooth an empty sample")
    if not np.isfinite(bandwidth) or bandwidth <= 0:
        raise ConfigError(f"bandwidth must be positive, got {bandwidth}")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(values).all() or np.isnan(x).any():
        raise ConfigError("smoothed CDF undefined for non-finite sample values or NaN query points")
    col = SortedColumn.of(values)
    flat = x.ravel()
    # Sorted queries make the searches and gathers below walk memory in order.
    order = np.argsort(flat)
    q = flat[order]

    def t_at(i):
        return (q - col.values[np.minimum(i, values.size - 1)]) / bandwidth

    # The window is padded against rounding, so it can hold points whose
    # computed t is flat, where the cubic would not give exactly 0 or 1.  With
    # its edges swapped, ``window`` bounds those rounding zones from inside.
    a, b = col.window(q, bandwidth, -1.0, 1.0)
    zeros_from, ones_to = col.window(q, bandwidth, 1.0, -1.0)
    a = _first_true(lambda i: t_at(i) < 1.0, a, np.minimum(ones_to, b))
    b = _first_true(lambda i: t_at(i) <= -1.0, np.maximum(zeros_from, a), b)
    sums = a.astype(float)
    inside = np.flatnonzero(a < b)
    sums[inside] += _cubic_window_sums(col.values, bandwidth, q[inside], a[inside], b[inside])
    out = np.empty_like(flat)
    out[order] = sums / values.size
    return unwrap(out.reshape(x.shape), x.ndim == 0)


def _first_true(pred, lo, hi):
    """Per element, the first index in [lo, hi) at which the monotone
    ``pred(index)`` holds, or ``hi``; bisection vectorised over elements."""
    lo, hi = lo.copy(), hi.copy()
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        hit = pred(mid)
        hi = np.where(open_ & hit, mid, hi)
        lo = np.where(open_ & ~hit, mid + 1, lo)
    return lo


def _cubic_window_sums(values, bandwidth, q, a, b):
    """Per query q, the sum of K(t) = 0.5 + 0.75 t - 0.25 t^3, t = (q - X)/b,
    over the sorted ``values[a:b]`` (a < b).

    The sorted data are cut into blocks at most b/2 wide, each anchored at its
    middle value A_B.  Over m points of a block t = s - d, with
    s = (q - A_B)/b and d = (X - A_B)/b, so their sum is a cubic in s whose
    coefficients come from m and the power sums S_k of d, k = 1..3: prefix
    differences clipped to the window.  Per-block anchors keep |d| <= 1/2,
    and |s| <= 3/2 on every block that the window touches, so the cubic
    cancels nothing badly, where one global anchor (powers of X itself)
    would on skewed or offset data.  This is the finite, exact case of
    expanding about box centres in the fast Gauss transform (Greengard &
    Strain 1991) and of binned kernel sums (Wand 1994).
    """
    cell = np.floor((values - values[0]) / (0.5 * bandwidth))
    starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1], True])
    block = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    anchor = values[(starts[:-1] + starts[1:] - 1) // 2]
    d = (values - anchor[block]) / bandwidth
    # p_k[i]: sum of d^k over the sorted indices < i.
    p1, p2, p3 = (np.concatenate(([0.0], np.cumsum(p))) for p in (d, d * d, d * d * d))
    first, last = block[a], block[b - 1]
    total = np.zeros(q.size)
    for j in range(int((last - first).max(initial=0)) + 1):
        on = np.flatnonzero(first + j <= last)
        blk = first[on] + j
        lo = np.maximum(a[on], starts[blk])
        hi = np.minimum(b[on], starts[blk + 1])
        m = (hi - lo).astype(float)
        s1 = p1[hi] - p1[lo]
        s = (q[on] - anchor[blk]) / bandwidth
        # m/2 + 0.75 (m s - S1) - 0.25 (m s^3 - 3 s^2 S1 + 3 s S2 - S3), by Horner.
        total[on] += (0.5 * m - 0.75 * s1 + 0.25 * (p3[hi] - p3[lo])) + s * (
            0.75 * (m - (p2[hi] - p2[lo])) + s * (0.75 * s1 - 0.25 * m * s)
        )
    return total


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


def _scaled_ranks(values: np.ndarray):
    # rank = count of sample values <= x_i; ties share the maximal rank,
    # matching the empirical CDF convention.  Searching the sorted values for
    # themselves walks the table in order, unlike n unsorted needles; ties get
    # the group's maximal rank whatever their order, so no stable sort is needed.
    order = np.argsort(values)
    sorted_values = values[order]
    ranks = np.empty(len(values), dtype=np.intp)
    ranks[order] = np.searchsorted(sorted_values, sorted_values, side="right")
    return ranks / (len(values) + 1.0), order


def to_pseudo_ranks(sample: RawSample) -> PseudoSample:
    """Pseudo-observations (n/(n+1)) * F_n(X_i) from empirical ranks."""
    (u, order_u), (v, order_v) = _scaled_ranks(sample.x), _scaled_ranks(sample.y)
    pseudo = PseudoSample(u=u, v=v)
    # Fills the cached property, so the columns are never sorted again.
    vars(pseudo)["sorted_columns"] = SortedColumn.of(pseudo.u, order_u), SortedColumn.of(pseudo.v, order_v)
    return pseudo


def to_pseudo(sample: RawSample, transform: str = TRANSFORM_RANK) -> PseudoSample:
    """Dispatch on the configured transform name."""
    if transform == TRANSFORM_RANK:
        return to_pseudo_ranks(sample)
    if transform == TRANSFORM_SMOOTHED:
        return to_pseudo_smoothed(sample)
    raise ConfigError(f"unknown transform {transform!r} (expected rank or smoothed)")
