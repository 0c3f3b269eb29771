from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from llcopula.errors import ConfigError, DegenerateKernelError
from llcopula.kernels import LocalKernel, SortedColumn, kernel_moments, local_linear_cdf
from oracles import epanechnikov, epanechnikov_cdf, local_linear_density


def quad_moment(u, h, j):
    """Independent quadrature oracle for the truncated moments."""
    lo = max(-1.0, (u - 1.0) / h)
    hi = min(1.0, u / h)
    val, _ = quad(lambda t: t**j * epanechnikov(t), lo, hi, limit=200, epsabs=1e-14)
    return val


def test_epanechnikov_values():
    assert epanechnikov(0.0) == 0.75
    assert epanechnikov(1.0) == 0.0
    assert epanechnikov(-1.0) == 0.0
    assert epanechnikov(2.0) == 0.0
    assert epanechnikov(0.5) == pytest.approx(0.5625, abs=1e-15)
    total, _ = quad(epanechnikov, -1, 1)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_epanechnikov_vectorized_nonnegative():
    t = np.linspace(-2, 2, 401)
    vals = epanechnikov(t)
    assert vals.shape == t.shape
    assert (vals >= 0).all()


def test_epanechnikov_cdf_shape():
    assert epanechnikov_cdf(-1.5) == 0.0
    assert epanechnikov_cdf(1.5) == 1.0
    assert epanechnikov_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    x = np.linspace(-1.2, 1.2, 500)
    vals = epanechnikov_cdf(x)
    assert (np.diff(vals) >= 0).all()


def test_moments_interior_point():
    m = kernel_moments(0.5, 0.1)
    assert m.lo == -1.0 and m.hi == 1.0
    assert m.a0 == pytest.approx(1.0, abs=1e-15)
    assert m.a1 == pytest.approx(0.0, abs=1e-16)
    assert m.a2 == pytest.approx(0.2, abs=1e-15)


def test_moments_left_boundary():
    m = kernel_moments(0.0, 0.5)
    assert m.lo == -1.0 and m.hi == 0.0
    assert m.a0 == pytest.approx(0.5, abs=1e-15)
    assert m.a1 < 0.0


def test_moments_match_quadrature_spot():
    m = kernel_moments(0.05, 0.2)
    for j, got in enumerate((m.a0, m.a1, m.a2)):
        assert got == pytest.approx(quad_moment(0.05, 0.2, j), abs=1e-12)


def test_moments_match_quadrature_randomized():
    rng = np.random.default_rng(20260810)
    for _ in range(200):
        u = rng.random()
        h = rng.uniform(0.01, 1.0)
        m = kernel_moments(u, h)
        for j, got in enumerate((m.a0, m.a1, m.a2)):
            assert got == pytest.approx(quad_moment(u, h, j), abs=1e-12)


def test_moments_invariants_hold():
    rng = np.random.default_rng(7)
    for _ in range(500):
        m = kernel_moments(rng.random(), rng.uniform(0.01, 1.0))
        assert m.lo < m.hi
        assert m.a0 > 0
        assert m.det > 0


def test_moments_rejections():
    with pytest.raises(ConfigError):
        kernel_moments(0.5, 0.0)
    with pytest.raises(ConfigError):
        kernel_moments(0.5, -0.1)
    with pytest.raises(ConfigError):
        kernel_moments(1.5, 0.1)
    with pytest.raises(DegenerateKernelError):
        kernel_moments(0.5, 5000.0)


def test_density_interior_reduces_to_plain_kernel():
    kern = LocalKernel.at(0.5, 0.1)
    assert local_linear_density(kern, 0.0) == pytest.approx(0.75, abs=1e-14)
    t = np.linspace(-1.1, 1.1, 301)
    assert np.allclose(local_linear_density(kern, t), epanechnikov(t), atol=1e-14)


def test_density_outside_support_is_zero():
    kern = LocalKernel.at(0.0, 0.5)
    assert local_linear_density(kern, 0.5) == 0.0
    assert local_linear_density(kern, -1.5) == 0.0


def test_density_boundary_value_matches_quadrature_formula():
    # Rebuild the corrected weight from quadrature moments and compare.
    u, h, t = 0.0, 0.5, -0.5
    a0, a1, a2 = (quad_moment(u, h, j) for j in range(3))
    expected = epanechnikov(t) * (a2 - a1 * t) / (a0 * a2 - a1 * a1)
    kern = LocalKernel.at(u, h)
    assert local_linear_density(kern, t) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.23684210526315788, abs=1e-12)


def test_cdf_saturates_outside_support():
    kern = LocalKernel.at(0.3, 0.4)
    m = kern.moments
    assert local_linear_cdf(kern, m.lo - 1.0) == 0.0
    assert local_linear_cdf(kern, m.hi + 1.0) == 1.0
    assert local_linear_cdf(kern, m.lo) == 0.0
    assert local_linear_cdf(kern, m.hi) == 1.0


def test_cdf_interior_midpoint():
    kern = LocalKernel.at(0.5, 0.1)
    assert local_linear_cdf(kern, 0.0) == pytest.approx(0.5, abs=1e-14)


def test_cdf_matches_quadrature_spot():
    kern = LocalKernel.at(0.1, 0.3)
    oracle, _ = quad(lambda t: local_linear_density(kern, t), kern.moments.lo, 0.2, limit=200)
    assert local_linear_cdf(kern, 0.2) == pytest.approx(oracle, abs=1e-10)


def test_cdf_matches_quadrature_randomized():
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = rng.random()
        h = rng.uniform(0.05, 1.0)
        kern = LocalKernel.at(u, h)
        x = rng.uniform(kern.moments.lo, kern.moments.hi)
        oracle, _ = quad(
            lambda t: local_linear_density(kern, t), kern.moments.lo, x, limit=200, epsabs=1e-13
        )
        assert local_linear_cdf(kern, x) == pytest.approx(oracle, abs=1e-10)


def test_moment_cancellation_randomized():
    # Mass one and zero mean for the corrected kernel, via quadrature.
    rng = np.random.default_rng(3)
    for _ in range(100):
        kern = LocalKernel.at(rng.random(), rng.uniform(0.02, 1.0))
        lo, hi = kern.moments.lo, kern.moments.hi
        mass, _ = quad(lambda t: local_linear_density(kern, t), lo, hi, limit=200, epsabs=1e-13)
        mean, _ = quad(lambda t: t * local_linear_density(kern, t), lo, hi, limit=200, epsabs=1e-13)
        assert abs(mass - 1.0) <= 1e-10
        assert abs(mean) <= 1e-10


def _weights_nonnegative(kern):
    m = kern.moments
    return min(m.a2 - m.a1 * m.lo, m.a2 - m.a1 * m.hi) >= 0.0


def test_cdf_monotone_and_bounded_where_weights_nonnegative():
    # A 1e4-point sweep per configuration; restricted to sign-stable weights,
    # since strong truncation makes the corrected weights negative near the
    # far edge of the support (see the companion test below).
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 40:
        kern = LocalKernel.at(rng.random(), rng.uniform(0.02, 1.0))
        if not _weights_nonnegative(kern):
            continue
        x = np.linspace(kern.moments.lo - 0.1, kern.moments.hi + 0.1, 10_000)
        vals = local_linear_cdf(kern, x)
        assert (np.diff(vals) >= -1e-12).all()
        assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12
        checked += 1


def test_cdf_negative_weight_regime_near_edge():
    # At u = 0 the correction weight changes sign on the support, the CDF
    # dips below zero, and monotonicity genuinely fails; the endpoints are
    # still exact.
    kern = LocalKernel.at(0.0, 0.5)
    assert not _weights_nonnegative(kern)
    x = np.linspace(-1.0, 0.0, 2001)
    vals = local_linear_cdf(kern, x)
    assert vals.min() < -1e-4
    assert (np.diff(vals) < 0).any()
    assert vals[0] == 0.0
    assert local_linear_cdf(kern, 0.0) == 1.0


def test_no_truncation_means_plain_kernel():
    for u, h in [(0.5, 0.2), (0.3, 0.25), (0.8, 0.15)]:
        assert h <= u <= 1 - h
        kern = LocalKernel.at(u, h)
        t = np.linspace(-1.2, 1.2, 101)
        assert np.allclose(local_linear_density(kern, t), epanechnikov(t), atol=1e-13)
        assert np.allclose(local_linear_cdf(kern, t), epanechnikov_cdf(t), atol=1e-13)


@given(u=st.floats(0.0, 1.0), h=st.floats(0.01, 1.0))
@settings(max_examples=200, deadline=None)
def test_kernel_construction_invariants(u, h):
    kern = LocalKernel.at(u, h)
    m = kern.moments
    assert m.lo < m.hi
    assert m.a0 > 0
    assert m.det > 0
    assert local_linear_cdf(kern, m.hi) == 1.0
    assert local_linear_cdf(kern, m.lo) == 0.0


def exact_cdf(m, x):
    """The local-linear CDF at lo < x < hi in exact rational arithmetic, from
    the same float moments: (a2 (P0(x) - P0(lo)) - a1 (P1(x) - P1(lo))) / det."""
    a0, a1, a2, lo, x = map(Fraction, (m.a0, m.a1, m.a2, m.lo, x))

    def p0(t):
        return Fraction(3, 4) * t - Fraction(1, 4) * t**3

    def p1(t):
        return Fraction(3, 8) * t**2 - Fraction(3, 16) * t**4

    return (a2 * (p0(x) - p0(lo)) - a1 * (p1(x) - p1(lo))) / (a0 * a2 - a1 * a1)


# Largest gap to exact_cdf over 20,000 random (u, h, x), h from 1e-6 to 1e3:
# 1.8e-15 for the Horner form and 2.1e-15 for the earlier two-antiderivative form.
CDF_ABS_BOUND = 4e-15


@given(
    u=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    h=st.one_of(st.sampled_from([1e-6, 1e3]), st.floats(1e-6, 1e3)),
    where=st.one_of(
        st.sampled_from(["lo", "hi", "above lo", "below hi", "below lo", "above hi"]),
        st.floats(0.0, 1.0),
    ),
)
@settings(max_examples=400, deadline=None)
def test_cdf_matches_exact_rational_evaluation(u, h, where):
    m = LocalKernel.at(u, h).moments
    if isinstance(where, float):
        x = m.lo + (m.hi - m.lo) * where
    else:
        x = {
            "lo": m.lo,
            "hi": m.hi,
            "above lo": np.nextafter(m.lo, np.inf),
            "below hi": np.nextafter(m.hi, -np.inf),
            "below lo": np.nextafter(m.lo, -np.inf),
            "above hi": np.nextafter(m.hi, np.inf),
        }[where]
    got = local_linear_cdf(LocalKernel.at(u, h), x)
    if x <= m.lo:
        assert got == 0.0
    elif x >= m.hi:
        assert got == 1.0
    else:
        assert abs(Fraction(float(got)) - exact_cdf(m, x)) <= CDF_ABS_BOUND


@given(
    x=st.floats(-50.0, 50.0),
    h=st.floats(1e-6, 5.0),
    support=st.sampled_from([(-1.0, 1.0), (-1.0, 0.3), (-0.2, 1.0), (-0.7, 0.0)]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_sorted_window_leaves_only_flat_terms_outside(x, h, support, seed):
    # Data packed around both window edges, down to single ulps, where the
    # rounding of (x - X)/h decides which side of the support a point is on.
    lo, hi = support
    rng = np.random.default_rng(seed)
    edges = np.array([x - h * hi, x - h * lo])
    near = edges[:, None] + np.linspace(-1e-12, 1e-12, 41) * (abs(x) + h)
    ulps = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
    data = np.concatenate([near.ravel(), ulps, x + h * rng.uniform(-3.0, 3.0, 20)])
    shuffled = rng.permutation(data)
    col = SortedColumn.of(shuffled)
    assert np.array_equal(col.values, shuffled[col.order])
    assert (np.diff(col.values) >= 0).all()
    a, b = col.window(x, h, lo, hi)
    t = (x - col.values) / h
    assert a <= b
    assert (t[:a] >= hi).all()
    assert (t[b:] <= lo).all()
    assert np.array_equal(col.rank[col.order], np.arange(data.size))
