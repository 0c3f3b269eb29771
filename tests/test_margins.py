import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llcopula import kernels, margins
from llcopula.errors import ConfigError
from llcopula.margins import (
    PseudoSample,
    RawSample,
    default_margin_bandwidth,
    smoothed_marginal_cdf,
    to_pseudo,
    to_pseudo_ranks,
    to_pseudo_smoothed,
)
from oracles import epanechnikov_cdf


def test_raw_sample_validation():
    with pytest.raises(ConfigError):
        RawSample(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ConfigError):
        RawSample(np.array([1.0, 2.0]), np.array([2.0]))
    with pytest.raises(ConfigError):
        RawSample(np.array([1.0, np.nan]), np.array([2.0, 3.0]))
    s = RawSample(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, -1.0]))
    assert s.n == 3


def test_pseudo_sample_validation():
    with pytest.raises(ConfigError):
        PseudoSample(np.array([0.5, 1.5]), np.array([0.5, 0.5]))
    # NaN compares false with both bounds; it must still fail the range check.
    with pytest.raises(ConfigError):
        PseudoSample(np.array([0.5, np.nan]), np.array([0.5, 0.5]))
    with pytest.raises(ConfigError):
        PseudoSample(np.array([0.5, 0.5]), np.array([np.nan, 0.5]))


def test_smoothed_cdf_saturation():
    values = np.array([0.0, 1.0, 3.0])
    b = 0.5
    assert smoothed_marginal_cdf(values, b, values.max() + 2 * b) == 1.0
    assert smoothed_marginal_cdf(values, b, values.min() - 2 * b) == 0.0


def test_smoothed_cdf_two_point_symmetry():
    assert smoothed_marginal_cdf([-1.0, 1.0], 0.5, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_smoothed_cdf_monotone():
    rng = np.random.default_rng(0)
    values = rng.normal(size=30)
    x = np.linspace(-4, 4, 500)
    out = smoothed_marginal_cdf(values, 0.3, x)
    assert (np.diff(out) >= 0).all()


def test_smoothed_cdf_rejections():
    with pytest.raises(ConfigError):
        smoothed_marginal_cdf([], 0.5, 0.0)
    with pytest.raises(ConfigError):
        smoothed_marginal_cdf([1.0], 0.0, 0.0)


def test_smoothed_cdf_small_bandwidth_is_empirical():
    values = np.array([0.3, -1.2, 2.0, 0.9, 0.1])
    xs = np.array([-2.0, 0.0, 0.5, 1.5, 3.0])  # off the data points
    emp = (values[None, :] <= xs[:, None]).mean(axis=1)
    out = smoothed_marginal_cdf(values, 1e-8, xs)
    assert np.allclose(out, emp, atol=1e-12)


def dense_smoothed_cdf(values, b, x):
    """Every query against every point: the O(n^2) oracle for the windowed sums."""
    return epanechnikov_cdf((np.asarray(x)[..., None] - values) / b).mean(axis=-1)


@st.composite
def smoothed_case(draw):
    """Values with ties and exact 0 and 1, tie-heavy when rounded, and offset
    by 0 or +-1e6; queries at the data, on the window edges x_i +- b, and
    beyond the sample +- b."""
    b = draw(st.sampled_from([1e-3, 0.05, 0.3, 2.0]))
    base = draw(st.lists(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(-3.0, 3.0), min_size=1, max_size=40))
    values = np.array(base + base[: draw(st.integers(0, len(base)))])
    decimals = draw(st.sampled_from([None, 1, 0]))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]))
    values = (values if decimals is None else np.round(values, decimals)) + offset
    edges = np.concatenate([values, values - b, values + b, np.nextafter(values + b, -np.inf)])
    extra = np.array(draw(st.lists(st.floats(-5.0, 5.0), max_size=10))) + offset
    return values, b, np.concatenate([edges, extra])


@given(case=smoothed_case())
@settings(max_examples=100, deadline=None)
def test_smoothed_cdf_matches_dense_sum(case):
    values, b, x = case
    assert np.abs(smoothed_marginal_cdf(values, b, x) - dense_smoothed_cdf(values, b, x)).max() <= 1e-15
    # Beyond the sample +- b by more than the rounding of x - X_i.
    lo, hi = values.min() - b, values.max() + b
    gap = 1e-12 * (1.0 + b + np.abs(values).max())
    below = smoothed_marginal_cdf(values, b, np.array([lo - gap, lo - 1.0, -np.inf]))
    above = smoothed_marginal_cdf(values, b, np.array([hi + gap, hi + 1.0, np.inf]))
    assert list(below) == [0.0] * 3
    assert list(above) == [1.0] * 3


def count_kernel_elements(monkeypatch):
    """Count the array elements handed to any ``llcopula.kernels`` function or
    ``SortedColumn`` method, called through ``kernels`` or through a name
    that ``margins`` imported from it."""
    counted = [0]

    def counting(f):
        def wrapper(*args, **kwargs):
            counted[0] += sum(a.size for a in args if isinstance(a, np.ndarray))
            return f(*args, **kwargs)

        return wrapper

    for module in (kernels, margins):
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == kernels.__name__:
                monkeypatch.setattr(module, name, counting(obj))
    for name in ("of", "window"):
        monkeypatch.setattr(kernels.SortedColumn, name, counting(getattr(kernels.SortedColumn, name)))
    return counted


@pytest.mark.parametrize("column", ["lognormal", "ties", "offset"])
def test_smoothed_cdf_at_scale(column, monkeypatch):
    n = 100_000
    rng = np.random.default_rng(11)
    z = rng.normal(size=n)
    values = {"lognormal": np.exp(z), "ties": np.round(z, 2), "offset": z + 1e6}[column]
    b = default_margin_bandwidth(values)
    counted = count_kernel_elements(monkeypatch)
    at_data = smoothed_marginal_cdf(values, b, values)
    # Per-term sums would hand the kernels about n * n^(2/3) elements.
    assert counted[0] <= 8 * n
    picked = rng.choice(n, 200, replace=False)
    x = np.concatenate([values[picked], values[picked] - b, values[picked] + b])
    got = np.concatenate([at_data[picked], smoothed_marginal_cdf(values, b, x[200:])])
    dense = np.concatenate([dense_smoothed_cdf(values, b, chunk) for chunk in np.split(x, 30)])
    assert np.abs(got - dense).max() <= 1e-15


def test_smoothed_cdf_keeps_query_shape():
    values = np.array([0.3, -1.2, 2.0, 0.9])
    x = np.linspace(-2.0, 3.0, 12).reshape(3, 4)
    out = smoothed_marginal_cdf(values, 0.5, x)
    assert out.shape == (3, 4)
    assert np.abs(out - dense_smoothed_cdf(values, 0.5, x)).max() <= 1e-15
    assert smoothed_marginal_cdf(values, 0.5, np.empty(0)).shape == (0,)
    assert isinstance(smoothed_marginal_cdf(values, 0.5, 0.1), float)


def test_smoothed_cdf_rejects_nan():
    with pytest.raises(ConfigError):
        smoothed_marginal_cdf([0.0, np.nan, 1.0], 0.5, 0.2)
    with pytest.raises(ConfigError):
        smoothed_marginal_cdf([0.0, 1.0], 0.5, [0.2, np.nan])
    # An infinite sample value would poison the block power sums.
    with pytest.raises(ConfigError):
        smoothed_marginal_cdf([-np.inf, 0.0, 1.0], 0.5, 0.2)


def test_to_pseudo_smoothed_memory_is_not_quadratic():
    # An n x n float64 temporary at n = 2e4 would take 3.2 GB.
    rng = np.random.default_rng(7)
    u = rng.random(20_000)
    s = RawSample(np.expm1(2.5 * u), -np.log1p(-0.995 * rng.random(20_000)))
    tracemalloc.start()
    try:
        ps = to_pseudo_smoothed(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert ps.n == 20_000 and ps.u.min() > 0.0 and ps.u.max() < 1.0


def test_to_pseudo_smoothed_two_points():
    s = RawSample(np.array([0.0, 10.0]), np.array([0.0, 10.0]))
    ps = to_pseudo_smoothed(s)
    assert (ps.u >= 0).all() and (ps.u <= 1).all()
    assert ps.u[1] > ps.u[0]
    assert ps.v[1] > ps.v[0]


def test_to_pseudo_smoothed_matches_direct_summation():
    rng = np.random.default_rng(42)
    x = rng.normal(size=5)
    y = rng.normal(size=5)
    s = RawSample(x, y)
    for b in (0.7, 0.4):
        for i in range(5):
            direct = np.mean(epanechnikov_cdf((x[i] - x) / b))
            assert smoothed_marginal_cdf(x, b, x[i]) == pytest.approx(direct, abs=1e-12)
    ps = to_pseudo_smoothed(s)
    b1, b2 = default_margin_bandwidth(x), default_margin_bandwidth(y)
    for i in range(5):
        direct_u = np.mean(epanechnikov_cdf((x[i] - x) / b1))
        direct_v = np.mean(epanechnikov_cdf((y[i] - y) / b2))
        assert ps.u[i] == pytest.approx(direct_u, abs=1e-12)
        assert ps.v[i] == pytest.approx(direct_v, abs=1e-12)


def test_default_margin_bandwidth():
    rng = np.random.default_rng(1)
    values = rng.normal(scale=2.0, size=64)
    b = default_margin_bandwidth(values)
    assert b == pytest.approx(values.std(ddof=1) * 64 ** (-1 / 3))
    with pytest.raises(ConfigError):
        default_margin_bandwidth(np.ones(10))


def test_ranks_hand_example():
    s = RawSample(np.array([5.0, 1.0, 9.0]), np.array([1.0, 2.0, 3.0]))
    ps = to_pseudo_ranks(s)
    assert np.allclose(ps.u, [0.5, 0.25, 0.75])


def test_ranks_maximum_and_ties():
    s = RawSample(np.array([3.0, 1.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0, 4.0]))
    ps = to_pseudo_ranks(s)
    assert ps.u[np.argmax(s.x)] == pytest.approx(4 / 5)
    tied = RawSample(np.full(6, 2.5), np.arange(6.0))
    pt = to_pseudo_ranks(tied)
    assert np.allclose(pt.u, 6 / 7)


def test_ranks_in_grid():
    rng = np.random.default_rng(5)
    s = RawSample(rng.normal(size=40), rng.normal(size=40))
    ps = to_pseudo_ranks(s)
    grid = np.arange(1, 41) / 41.0
    assert np.allclose(np.sort(ps.u), grid)
    assert np.allclose(np.sort(ps.v), grid)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_rank_invariance_under_monotone_maps(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=25)
    y = rng.normal(size=25)
    base = to_pseudo_ranks(RawSample(x, y))
    warped = to_pseudo_ranks(RawSample(np.exp(x), np.arctan(y) * 3.0 + 1.0))
    assert np.array_equal(base.u, warped.u)
    assert np.array_equal(base.v, warped.v)


@given(
    st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.25]) | st.floats(-1e3, 1e3), min_size=2, max_size=300),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_ranks_equal_sort_then_search(column, seed):
    # Tie-heavy columns (signed zeros included): ranks by searching the sorted
    # values for themselves equal the count of values <= x_i bit for bit.
    x = np.array(column)
    y = np.random.default_rng(seed).permutation(x)
    got = to_pseudo_ranks(RawSample(x, y))
    for values, ranks in ((x, got.u), (y, got.v)):
        want = np.searchsorted(np.sort(values), values, side="right") / (len(values) + 1.0)
        assert np.array_equal(ranks, want)


def test_to_pseudo_dispatch():
    rng = np.random.default_rng(2)
    s = RawSample(rng.normal(size=10), rng.normal(size=10))
    assert np.array_equal(to_pseudo(s).u, to_pseudo_ranks(s).u)
    assert np.array_equal(to_pseudo(s, "smoothed").u, to_pseudo_smoothed(s).u)
    with pytest.raises(ConfigError):
        to_pseudo(s, "direct")
