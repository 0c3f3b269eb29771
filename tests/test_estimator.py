import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llcopula.errors import ConfigError
from llcopula.estimator import (
    BandwidthPolicy,
    GridEvaluation,
    _inside,
    _window,
    evaluate_grid,
    ll_copula_estimate,
)
from llcopula.families import CopulaModel, cdf
from llcopula.fitting import empirical_kendall_tau
from llcopula.kernels import LocalKernel, SortedColumn, local_linear_cdf
from llcopula.margins import PseudoSample, RawSample, to_pseudo_ranks
from llcopula.sampling import SeededStream, sample_copula
from oracles import empirical_copula


def make_sample(model, n, seed, rank=True):
    draws = sample_copula(model, n, SeededStream(seed))
    if rank:
        return to_pseudo_ranks(RawSample(draws.u, draws.v))
    return draws


def without_shrink(pol):
    """The policy's clamped global bandwidth h at every coordinate: a policy
    clamped to [h, h] gives clip(x, h, h) == h whatever the shrink factor."""
    h = float(np.clip(pol.h_n, pol.h_min, pol.h_max))
    return BandwidthPolicy(h_n=h, h_min=h, h_max=h)


# The grid contraction sums each cell's factor products in another order than
# one exact sum, so it is compared with math.fsum, rounded once, within
# GRID_ULPS ulps of 1.  On rank data most products are exact (1 times 1) and
# the largest move measured was 2.5 ulps (Clayton, Frank and Gumbel data at n
# up to 10^5, with and without ties, on 11-, 21- and 101-node grids), where a
# dense ``ku @ kv.T`` moves the same cells by up to 5.5 ulps; on 3,000 parity
# cases below it was 2 ulps.  Where every product is inexact (a constant
# column at n = 4097) both move cells by up to 39 ulps.
GRID_ULPS = 4


def assert_grid_near_exact(values, ku, kv):
    n = ku.shape[1]
    exact = np.clip(np.array([[math.fsum(a * b) for b in kv] for a in ku]) / n, 0.0, 1.0)
    assert np.abs(values - exact).max() <= GRID_ULPS * np.finfo(float).eps


def assert_points_near_exact(ps, uu, vv, pol):
    """Point estimates, window sums in another order than one exact sum, are
    held to the grid's bound against a per-point math.fsum of the dense products."""
    products = (dense_factor(a, ps.u, pol) * dense_factor(b, ps.v, pol) for a, b in zip(np.ravel(uu), np.ravel(vv)))
    exact = np.clip(np.array([math.fsum(p) for p in products]).reshape(np.shape(uu)) / ps.n, 0.0, 1.0)
    got = ll_copula_estimate(ps, uu, vv, pol)
    assert np.abs(got - exact).max() <= GRID_ULPS * np.finfo(float).eps


def joint_bandwidth(u, v, pol):
    """The paper's joint rule, clamp(h_n * max{min(u,1-u), min(v,1-v)}^alpha)."""
    factor = max(min(u, 1.0 - u), min(v, 1.0 - v)) ** pol.alpha
    return min(max(pol.h_n * factor, pol.h_min), pol.h_max)


class TestBandwidthPolicy:
    def test_defaults(self):
        n = 500
        pol = BandwidthPolicy.from_sample_size(n)
        assert pol.h_n == pytest.approx(1.0 / np.log(n))
        assert pol.h_min == pytest.approx(np.log(n) / n)
        assert pol.h_max == pytest.approx((np.log(np.log(n)) / n) ** 0.25)
        assert pol.alpha == 0.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            BandwidthPolicy.from_sample_size(15)
        with pytest.raises(ConfigError):
            BandwidthPolicy(h_n=0.1, h_min=0.2, h_max=0.1)
        with pytest.raises(ConfigError):
            BandwidthPolicy(h_n=-0.1, h_min=0.01, h_max=0.2)
        with pytest.raises(ConfigError):
            BandwidthPolicy(h_n=0.1, h_min=0.01, h_max=0.2, alpha=0.0)


def unclamped(alpha):
    """h_n = 1 and a clamp interval that only bites at the ends, so the
    bandwidth reads the shrink factor min(c, 1-c)^alpha itself."""
    return BandwidthPolicy(h_n=1.0, h_min=1e-12, h_max=0.999, alpha=alpha)


class TestShrinkFactor:
    def test_center_value(self):
        assert unclamped(0.5).bandwidth(0.5) == pytest.approx(0.5**0.5, abs=1e-15)

    def test_opposite_corners_vanish(self):
        for alpha in (0.3, 0.5, 2.0):
            pol = unclamped(alpha)
            assert pol.bandwidth(0.0) == pol.h_min
            assert pol.bandwidth(1.0) == pol.h_min

    def test_edge_reduces_to_single_minimum(self):
        # The per-axis factor is the paper's joint factor on the edge v = 1.
        for u in (0.1, 0.4, 0.9):
            pol = unclamped(0.5)
            want = min(u**0.5, (1 - u) ** 0.5)
            assert pol.bandwidth(u) == pytest.approx(want, abs=1e-15)
            assert pol.bandwidth(u) == pytest.approx(joint_bandwidth(u, 1.0, pol), abs=1e-15)

    @given(c=st.floats(0, 1), alpha=st.floats(0.05, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_range(self, c, alpha):
        pol = unclamped(alpha)
        assert pol.h_min <= pol.bandwidth(c) <= pol.h_max


class TestEffectiveBandwidth:
    def test_corner_clamps_to_floor(self):
        pol = BandwidthPolicy.from_sample_size(1000)
        assert pol.bandwidth(0.0) == pol.h_min
        assert pol.bandwidth(1.0) == pol.h_min

    def test_center_unclamped(self):
        pol = BandwidthPolicy.from_sample_size(1000)
        want = pol.h_n * 0.5**pol.alpha
        assert pol.h_min < want < pol.h_max
        assert pol.bandwidth(0.5) == pytest.approx(want, abs=1e-16)

    def test_symmetric_about_center(self):
        for alpha in (0.5, 0.7, 1.3):
            pol = BandwidthPolicy.from_sample_size(1000, alpha=alpha)
            for c in (0.01, 0.1, 0.25, 0.3, 0.45):
                assert pol.bandwidth(c) == pytest.approx(pol.bandwidth(1.0 - c), rel=1e-12)

    def test_no_shrink_uses_global_rate(self):
        pol = without_shrink(BandwidthPolicy.from_sample_size(1000))
        want = np.clip(pol.h_n, pol.h_min, pol.h_max)
        for c in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert pol.bandwidth(c) == pytest.approx(want)

    def test_rejects_coordinates_outside_unit_interval(self):
        pol = BandwidthPolicy.from_sample_size(1000)
        for c in (-0.1, 1.5, np.nan):
            with pytest.raises(ConfigError):
                pol.bandwidth(c)

    @given(c=st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_always_within_clamp(self, c):
        pol = BandwidthPolicy.from_sample_size(200)
        h = pol.bandwidth(c)
        assert pol.h_min <= h <= pol.h_max


class TestPerAxisDeviation:
    """The estimator gives each axis its own bandwidth, where the paper uses
    one joint bandwidth h(u, v); both are written out here, apart from the
    library, so that the deviation and its size stay pinned."""

    N = 1000

    @pytest.fixture(scope="class")
    def setup(self):
        ps = make_sample(CopulaModel("clayton", 2.0), self.N, 5)
        pol = BandwidthPolicy.from_sample_size(self.N)
        return ps, pol, evaluate_grid(ps, 21, pol)

    @staticmethod
    def factor(coord, data, h):
        return local_linear_cdf(LocalKernel.at(coord, h), (coord - data) / h)

    def test_grid_is_per_axis_product(self, setup):
        ps, pol, ge = setup

        def axis_bandwidth(c):
            factor = np.asarray(min(c, 1.0 - c)) ** pol.alpha
            return float(np.clip(pol.h_n * factor, pol.h_min, pol.h_max))

        ku = np.stack([self.factor(g, ps.u, axis_bandwidth(g)) for g in ge.grid_u])
        kv = np.stack([self.factor(g, ps.v, axis_bandwidth(g)) for g in ge.grid_v])
        assert_grid_near_exact(ge.values, ku, kv)

    def test_close_to_joint_rule(self, setup):
        ps, pol, ge = setup
        joint = np.empty_like(ge.values)
        for i, u in enumerate(ge.grid_u):
            for j, v in enumerate(ge.grid_v):
                h = joint_bandwidth(u, v, pol)
                joint[i, j] = np.mean(self.factor(u, ps.u, h) * self.factor(v, ps.v, h))
        joint = np.clip(joint, 0.0, 1.0)
        assert np.abs(ge.values - joint).max() <= 0.01


def dense_factor(coord, data, pol):
    """The factor evaluated at every data point: the oracle for the windowed rows."""
    h = pol.bandwidth(coord)
    return local_linear_cdf(LocalKernel.at(coord, h), (coord - data) / h)


def assert_windows_match_dense(grid, data, pol):
    """Every node's window [a, b) and values in it equal the dense factor,
    bitwise: ones before the window, zeros after it."""
    col = SortedColumn.of(data)
    for g in grid:
        want = dense_factor(g, data, pol)[col.order]
        kern, a, b = _window(g, col, pol)
        assert (want[:a] == 1.0).all() and (want[b:] == 0.0).all()
        assert np.array_equal(_inside(kern, a, b, col), want[a:b])


@st.composite
def parity_case(draw):
    """A policy, a grid and a pseudo-sample whose points sit on the hard cases:
    ties, exactly 0 and 1, and exactly on the kernel-window edges of grid nodes."""
    n = draw(st.integers(16, 60))
    pol = BandwidthPolicy.from_sample_size(
        n, h_n=draw(st.sampled_from([None, 0.05, 0.4])), alpha=draw(st.sampled_from([0.5, 1.3]))
    )
    if draw(st.booleans()):
        pol = without_shrink(pol)
    grid = np.linspace(0.0, 1.0, draw(st.integers(2, 12)))
    edges = [0.0, 1.0]
    for g in grid:
        h = pol.bandwidth(g)
        m = LocalKernel.at(g, h).moments
        edges += [g - h * m.hi, g - h * m.lo, np.nextafter(g - h * m.lo, 2.0)]
    edges = [e for e in edges if 0.0 <= e <= 1.0]
    point = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0))
    u = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    v = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    return PseudoSample(u, v), pol, grid


class TestWindowedParity:
    """Factors are evaluated only inside the kernel window on sorted data;
    every value must still equal the kernel evaluated at all n points, bitwise."""

    @given(case=parity_case())
    @settings(max_examples=60, deadline=None)
    def test_factor_matrix_and_grid_match_dense_oracle(self, case):
        ps, pol, grid = case
        assert_windows_match_dense(grid, ps.u, pol)
        assert_windows_match_dense(grid, ps.v, pol)
        ku = np.stack([dense_factor(g, ps.u, pol) for g in grid])
        kv = np.stack([dense_factor(g, ps.v, pol) for g in grid])
        assert_grid_near_exact(evaluate_grid(ps, len(grid), pol).values, ku, kv)

    @given(case=parity_case())
    @settings(max_examples=25, deadline=None)
    def test_point_estimates_match_dense_oracle(self, case):
        ps, pol, grid = case
        uu, vv = np.meshgrid(grid, grid[::-1], indexing="ij")
        assert_points_near_exact(ps, uu, vv, pol)


@pytest.mark.parametrize("decimals", [None, 3], ids=["continuous", "ties"])
def test_estimator_at_scale(decimals):
    n = 100_000
    draws = sample_copula(CopulaModel("clayton", 2.0), n, SeededStream(8))
    x, y = (draws.u, draws.v) if decimals is None else (np.round(draws.u, 3), np.round(draws.v, 3))
    ps = to_pseudo_ranks(RawSample(x, y))
    pol = BandwidthPolicy.from_sample_size(n)
    grid = np.linspace(0.0, 1.0, 11)
    assert_windows_match_dense(grid, ps.u, pol)
    ku = np.stack([dense_factor(g, ps.u, pol) for g in grid])
    kv = np.stack([dense_factor(g, ps.v, pol) for g in grid])
    assert_grid_near_exact(evaluate_grid(ps, 11, pol).values, ku, kv)
    rng = np.random.default_rng(2)
    uu, vv = rng.random(10), rng.random(10)
    assert_points_near_exact(ps, uu, vv, pol)
    # Window sums fill no n-length float row (two would take 16 n bytes).
    # Their n-length temporaries are the v-rank per u-sorted point, in the
    # ranks' narrow integer type, and one prefix compare.
    tracemalloc.start()
    try:
        ll_copula_estimate(ps, uu, vv, pol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n


def test_sample_keeps_its_own_columns():
    # Mutating the caller's arrays after construction changes neither the
    # sample's columns nor its estimates, before or after the columns are sorted.
    rng = np.random.default_rng(4)
    u, v = rng.random(200), rng.random(200)
    pol = BandwidthPolicy.from_sample_size(200)
    points = rng.random((5, 2))
    fresh = PseudoSample(u.copy(), v.copy())
    want = ll_copula_estimate(fresh, points[:, 0], points[:, 1], pol)
    for sort_first in (False, True):
        uu, vv = u.copy(), v.copy()
        ps = PseudoSample(uu, vv)
        if sort_first:
            _ = ps.sorted_columns
        uu[:] = 0.0
        vv[::-1].sort()
        assert np.array_equal(ps.u, u) and np.array_equal(ps.v, v)
        assert np.array_equal(ll_copula_estimate(ps, points[:, 0], points[:, 1], pol), want)
        assert empirical_kendall_tau(ps) == empirical_kendall_tau(fresh)
        for array in (ps.u, *(a for col in ps.sorted_columns for a in (col.values, col.order, col.rank))):
            with pytest.raises(ValueError):
                array[0] = 0


def test_grid_memory_at_scale():
    # Two dense 101 x n factor matrices alone take 16 * 101 * n bytes (154 MiB);
    # the streamed contraction peaks at about 36 MiB.
    n = 100_000
    draws = sample_copula(CopulaModel("clayton", 2.0), n, SeededStream(8))
    ps = to_pseudo_ranks(RawSample(draws.u, draws.v))
    pol = BandwidthPolicy.from_sample_size(n)
    tracemalloc.start()
    try:
        evaluate_grid(ps, 101, pol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


class TestPointEstimate:
    def test_saturated_corners(self):
        # all mass well inside: top corner saturates to 1, bottom to 0
        ps = PseudoSample(np.linspace(0.3, 0.6, 50), np.linspace(0.35, 0.65, 50))
        pol = BandwidthPolicy.from_sample_size(50)
        assert ll_copula_estimate(ps, 1.0, 1.0, pol) == 1.0
        assert ll_copula_estimate(ps, 0.0, 0.0, pol) == 0.0

    def test_range_everywhere(self):
        ps = make_sample(CopulaModel("clayton", 6.0), 400, 3)
        pol = BandwidthPolicy.from_sample_size(400)
        rng = np.random.default_rng(0)
        u = rng.random(300)
        v = rng.random(300)
        vals = ll_copula_estimate(ps, u, v, pol)
        assert (vals >= 0.0).all() and (vals <= 1.0).all()

    def test_rejects_bad_inputs(self):
        ps = make_sample(CopulaModel("independence"), 50, 1)
        pol = BandwidthPolicy.from_sample_size(50)
        with pytest.raises(ConfigError):
            ll_copula_estimate(ps, 1.2, 0.5, pol)
        with pytest.raises(ConfigError):
            ll_copula_estimate(ps, np.array([0.1, 0.2]), np.array([0.1]), pol)

    @pytest.mark.parametrize(
        "model",
        [CopulaModel("clayton", 2.0), CopulaModel("frank", 5.0), CopulaModel("gumbel", 1.69)],
        ids=lambda m: m.label(),
    )
    def test_close_to_empirical_oracle(self, model):
        ps = make_sample(model, 2000, 42)
        pol = BandwidthPolicy.from_sample_size(2000)
        ge = evaluate_grid(ps, 21, pol)
        uu, vv = np.meshgrid(ge.grid_u, ge.grid_v, indexing="ij")
        gap = np.abs(ge.values - empirical_copula(ps, uu, vv)).max()
        assert gap <= 2.0 * pol.h_max


class TestEmpiricalCopula:
    def test_corners(self):
        ps = PseudoSample(np.array([0.2, 0.4, 0.9]), np.array([0.3, 0.1, 0.8]))
        assert empirical_copula(ps, 1.0, 1.0) == 1.0
        assert empirical_copula(ps, 0.0, 0.0) == 0.0

    def test_hand_count(self):
        ps = PseudoSample(np.array([0.25, 0.5, 0.75]), np.array([0.25, 0.5, 0.75]))
        assert empirical_copula(ps, 0.5, 0.5) == pytest.approx(2.0 / 3.0)

    def test_right_continuity_step(self):
        ps = PseudoSample(np.array([0.5, 0.7]), np.array([0.5, 0.7]))
        assert empirical_copula(ps, 0.5, 0.5) == 0.5
        assert empirical_copula(ps, 0.5 - 1e-12, 0.5) == 0.0


class TestGridEvaluation:
    def test_two_by_two_corners(self):
        ps = make_sample(CopulaModel("clayton", 2.0), 300, 9)
        pol = BandwidthPolicy.from_sample_size(300)
        ge = evaluate_grid(ps, 2, pol)
        assert ge.values.shape == (2, 2)
        assert np.array_equal(ge.grid_u, [0.0, 1.0])

    def test_grid_matches_pointwise(self):
        ps = make_sample(CopulaModel("frank", 5.0), 400, 5)
        pol = BandwidthPolicy.from_sample_size(400)
        ge = evaluate_grid(ps, 9, pol)
        uu, vv = np.meshgrid(ge.grid_u, ge.grid_v, indexing="ij")
        pointwise = ll_copula_estimate(ps, uu.ravel(), vv.ravel(), pol).reshape(9, 9)
        assert np.allclose(ge.values, pointwise, atol=1e-12)

    def test_deterministic_reevaluation(self):
        ps = make_sample(CopulaModel("gumbel", 1.69), 300, 8)
        pol = BandwidthPolicy.from_sample_size(300)
        a = evaluate_grid(ps, 11, pol)
        b = evaluate_grid(ps, 11, pol)
        assert np.array_equal(a.values, b.values)

    def test_grid_size_validation(self):
        ps = make_sample(CopulaModel("independence"), 50, 1)
        with pytest.raises(ConfigError):
            evaluate_grid(ps, 1, BandwidthPolicy.from_sample_size(50))

    def test_edges_near_axes(self):
        ps = make_sample(CopulaModel("clayton", 2.0), 1000, 4)
        pol = BandwidthPolicy.from_sample_size(1000)
        ge = evaluate_grid(ps, 21, pol)
        assert ge.values[0, :].max() <= pol.h_max
        assert ge.values[:, 0].max() <= pol.h_max
        assert ge.values[-1, -1] >= 1.0 - pol.h_max

    def test_interior_monotone_without_shrink(self):
        # Restricted to nodes whose kernel window stays inside [0, 1]; the
        # boundary-corrected kernels elsewhere may have negative weights.
        ps = make_sample(CopulaModel("clayton", 2.0), 1000, 5)
        pol = without_shrink(BandwidthPolicy.from_sample_size(1000))
        h = float(np.clip(pol.h_n, pol.h_min, pol.h_max))
        ge = evaluate_grid(ps, 21, pol)
        keep = (ge.grid_u >= h) & (ge.grid_u <= 1 - h)
        sub = ge.values[np.ix_(keep, keep)]
        assert (np.diff(sub, axis=0) >= -1e-9).all()
        assert (np.diff(sub, axis=1) >= -1e-9).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            GridEvaluation(
                grid_u=np.linspace(0, 1, 3),
                grid_v=np.linspace(0, 1, 3),
                values=np.zeros((3, 4)),
                n=10,
            )


class TestShrinkageBoundaryBehavior:
    def test_boundary_nodes_match_empirical(self):
        n = 1000
        ps = make_sample(CopulaModel("clayton", 2.0), n, 5)
        pol = BandwidthPolicy.from_sample_size(n)
        ge = evaluate_grid(ps, 21, pol)
        uu, vv = np.meshgrid(ge.grid_u, ge.grid_v, indexing="ij")
        emp = empirical_copula(ps, uu, vv)
        border = (uu == 0.0) | (uu == 1.0) | (vv == 0.0) | (vv == 1.0)
        assert np.abs(ge.values - emp)[border].max() <= 1.0 / n + pol.h_min


class TestBiasDecay:
    def test_independence_bias_bounded_by_h_squared(self):
        # With product-form data the center bias is identically zero, so the
        # bound K h^2 + 3 SE holds with slack at every bandwidth.
        n, reps = 1000, 200
        seeds = [s.seed for s in SeededStream(314).substreams(reps)]
        truth = 0.25
        h0 = 1.0 / np.log(n)
        for h in (h0, h0 / 2, h0 / 4):
            pol = BandwidthPolicy.from_sample_size(n, h_n=h)
            vals = np.array(
                [
                    ll_copula_estimate(
                        make_sample(CopulaModel("independence"), n, sd), 0.5, 0.5, pol
                    )
                    for sd in seeds
                ]
            )
            dev = abs(vals.mean() - truth)
            se = vals.std(ddof=1) / np.sqrt(reps)
            assert dev <= 0.5 * h**2 + 3.0 * se

    def test_clayton_bias_ratio_near_four(self):
        # Nonzero curvature makes the center bias genuinely quadratic in h;
        # halving the bandwidth shrinks it by a factor close to four.
        n, reps = 2000, 400
        model = CopulaModel("clayton", 2.0)
        truth = cdf(model, 0.5, 0.5)
        seeds = [s.seed for s in SeededStream(20260810).substreams(reps)]
        biases = []
        for h in (0.3, 0.15):
            pol = BandwidthPolicy(h_n=h, h_min=h, h_max=h)
            vals = np.array(
                [
                    ll_copula_estimate(make_sample(model, n, sd, rank=False), 0.5, 0.5, pol)
                    for sd in seeds
                ]
            )
            biases.append(vals.mean() - truth)
        ratio = abs(biases[0]) / abs(biases[1])
        assert 2.5 <= ratio <= 6.0
