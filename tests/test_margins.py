import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llcopula.errors import ConfigError
from llcopula.kernels import epanechnikov_cdf
from llcopula.margins import (
    PseudoSample,
    RawSample,
    default_margin_bandwidth,
    smoothed_marginal_cdf,
    to_pseudo,
    to_pseudo_ranks,
    to_pseudo_smoothed,
)


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


def test_to_pseudo_dispatch():
    rng = np.random.default_rng(2)
    s = RawSample(rng.normal(size=10), rng.normal(size=10))
    assert np.array_equal(to_pseudo(s).u, to_pseudo_ranks(s).u)
    assert np.array_equal(to_pseudo(s, "smoothed").u, to_pseudo_smoothed(s).u)
    with pytest.raises(ConfigError):
        to_pseudo(s, "direct")
