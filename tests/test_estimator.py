import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llcopula import estimator, kernels
from llcopula.bands import BandGrid, rate_rn
from llcopula.errors import ConfigError
from llcopula.estimator import (
    BandwidthPolicy,
    _factor_rows,
    _lattice,
    evaluate_grid,
    ll_copula_estimate,
)
from llcopula.families import CopulaModel, cdf
from llcopula.fitting import empirical_kendall_tau
from llcopula.kernels import LocalKernel, SortedColumn, local_linear_cdf
from llcopula.margins import PseudoSample, RawSample, to_pseudo_ranks, to_pseudo_smoothed
from llcopula.sampling import SeededStream, sample_copula
from oracles import empirical_copula, expected_estimate


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
    """Every node's window [a, b) and values in it, as the batched factor rows
    give them, equal the dense factor, bitwise: ones before the window, zeros
    after it.  Returns the batches, the nodes' kernels grouped by the
    ``local_linear_cdf`` call that evaluated them."""
    col = SortedColumn.of(data)
    kerns = [LocalKernel.at(g, pol.bandwidth(g)) for g in grid]
    with mock.patch.object(estimator, "local_linear_cdf", wraps=local_linear_cdf) as llcdf:
        lattice = _lattice(kerns, col)
        start, values = _factor_rows(kerns, col, lattice)
    for g, a, b, s in zip(grid, *lattice[4:], start):
        want = dense_factor(g, data, pol)[col.order]
        assert (want[:a] == 1.0).all() and (want[b:] == 0.0).all()
        assert np.array_equal(values[s : s + b - a], want[a:b])
    firsts = [next(i for i, k in enumerate(kerns) if k is call.args[0]) for call in llcdf.call_args_list]
    return [kerns[i:j] for i, j in zip(firsts, firsts[1:] + [len(kerns)])]


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

    def test_batches_of_several_nodes(self):
        # n = 5000 on 101 nodes: the interior nodes' windows are short, so
        # consecutive nodes of one kernel shape share a local_linear_cdf call.
        ps = make_sample(CopulaModel("frank", 5.0), 5000, 6)
        pol = BandwidthPolicy.from_sample_size(5000)
        grid = np.linspace(0.0, 1.0, 101)
        for data in (ps.u, ps.v):
            assert max(map(len, assert_windows_match_dense(grid, data, pol))) > 1

    def test_runs_of_distinct_boundary_shapes(self):
        # alpha = 1.3 with h_n = 0.4 at n = 40: the clamp floor log(n)/n keeps
        # every node within it of an edge on its own truncated support, so
        # consecutive nodes have distinct shapes, each alone in its call.
        ps = make_sample(CopulaModel("clayton", 2.0), 40, 3)
        pol = BandwidthPolicy.from_sample_size(40, h_n=0.4, alpha=1.3)
        batches = assert_windows_match_dense(np.linspace(0.0, 1.0, 101), ps.u, pol)
        lone = [b[0].moments for b in batches if len(b) == 1]
        assert sum(m != nxt for m, nxt in zip(lone, lone[1:])) >= 4


class TestGridReuse:
    """Work that ``evaluate_grid`` shares across calls and axes leaves every bit as it was."""

    def test_kernel_table_per_grid_size_and_policy(self):
        ps = make_sample(CopulaModel("gumbel", 1.69), 1000, 13)

        def policy(alpha=0.5):  # a new, equal object on each call
            return BandwidthPolicy.from_sample_size(1000, alpha=alpha)

        estimator._grid_kernels.cache_clear()
        with mock.patch.object(kernels, "kernel_moments", wraps=kernels.kernel_moments) as moments:
            first = evaluate_grid(ps, 101, policy()).values
            assert moments.call_count == 101
            again = evaluate_grid(ps, 101, policy()).values
            assert moments.call_count == 101
            evaluate_grid(ps, 101, policy(0.7))
            estimator._grid_kernels.cache_clear()
            fresh = evaluate_grid(ps, 101, policy()).values
        assert moments.call_count == 303
        assert np.array_equal(first, again) and np.array_equal(first, fresh)

    @pytest.mark.parametrize("decimals, calls", [(None, 1), (2, 2)], ids=["tie-free", "ties"])
    def test_equal_sorted_columns_share_factor_rows(self, decimals, calls):
        # Tie-free ranks make both sorted columns (1..n)/(n+1).
        draws = sample_copula(CopulaModel("clayton", 2.0), 3000, SeededStream(9))
        x, y = (draws.u, draws.v) if decimals is None else (np.round(draws.u, 2), np.round(draws.v, 2))
        ps = to_pseudo_ranks(RawSample(x, y))
        pol = BandwidthPolicy.from_sample_size(3000)
        with mock.patch.object(estimator, "_factor_rows", wraps=_factor_rows) as rows:
            shared = evaluate_grid(ps, 101, pol).values
        assert rows.call_count == calls
        with mock.patch.object(np, "array_equal", return_value=False):
            unshared = evaluate_grid(ps, 101, pol).values
        assert np.array_equal(shared, unshared)

    @pytest.mark.parametrize(
        "n, rank", [(511, True), (512, True), (513, True), (2049, True), (5000, True), (5000, False)]
    )
    def test_near_exact_across_block_edges(self, n, rank):
        # One block short of, at and past BLOCK, past a group of blocks, and
        # the smoothed route's unequal columns.
        ps = make_sample(CopulaModel("frank", 5.0), n, 14, rank)
        if not rank:
            ps = to_pseudo_smoothed(RawSample(np.expm1(2.5 * ps.u), -np.log1p(-0.995 * ps.v)))
        pol = BandwidthPolicy.from_sample_size(n)
        grid = np.linspace(0.0, 1.0, 21)
        ku = np.stack([dense_factor(g, ps.u, pol) for g in grid])
        kv = np.stack([dense_factor(g, ps.v, pol) for g in grid])
        assert_grid_near_exact(evaluate_grid(ps, 21, pol).values, ku, kv)
        # A sample that sorts its own columns gives the same bits.
        assert np.array_equal(evaluate_grid(PseudoSample(ps.u, ps.v), 21, pol).values, evaluate_grid(ps, 21, pol).values)


# The grid of a smoothed sample at n = 3000, hashed, in a fresh interpreter.
GRID_HASH = """
import hashlib, numpy as np
from llcopula.estimator import BandwidthPolicy, evaluate_grid
from llcopula.margins import RawSample, to_pseudo_smoothed
u, v = np.random.default_rng(5).random((2, 3000))
ps = to_pseudo_smoothed(RawSample(np.expm1(2.5 * u), u + v))
print(hashlib.sha256(evaluate_grid(ps, 101, BandwidthPolicy.from_sample_size(3000)).values.tobytes()).hexdigest())
"""


def test_grid_bits_do_not_depend_on_blas_threads():
    # Every partial-row product stays under OpenBLAS's one-thread size
    # (BLAS_SERIAL), so the thread count moves no bit of the grid.
    src = str(Path(__file__).resolve().parents[1] / "src")
    hashes = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", GRID_HASH], env=env, capture_output=True, text=True, check=True)
        hashes.add(run.stdout)
    assert len(hashes) == 1


@pytest.mark.parametrize("decimals", [None, 3], ids=["continuous", "ties"])
def test_estimator_at_scale(decimals):
    n = 100_000
    draws = sample_copula(CopulaModel("clayton", 2.0), n, SeededStream(8))
    x, y = (draws.u, draws.v) if decimals is None else (np.round(draws.u, 3), np.round(draws.v, 3))
    ps = to_pseudo_ranks(RawSample(x, y))
    pol = BandwidthPolicy.from_sample_size(n)
    grid = np.linspace(0.0, 1.0, 11)
    # Central windows are about 12k points wide, so a node fills a batch by
    # itself although its neighbour has the same kernel shape.
    batches = assert_windows_match_dense(grid, ps.u, pol)
    assert any(len(b) == 1 and b[0].moments == nxt[0].moments for b, nxt in zip(batches, batches[1:]))
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
        for bad in (1.2, -0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigError):
                ll_copula_estimate(ps, bad, 0.5, pol)
            with pytest.raises(ConfigError):
                ll_copula_estimate(ps, np.array([0.5, 0.5]), np.array([0.5, bad]), pol)
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

    def test_estimate_is_the_zero_width_band(self):
        ps = make_sample(CopulaModel("frank", 5.0), 300, 2)
        ge = evaluate_grid(ps, 5, BandwidthPolicy.from_sample_size(300))
        assert ge.lower is ge.values and ge.upper is ge.values
        assert ge.halfwidth == 0.0 and ge.n == 300 and ge.meta is None

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
            BandGrid(
                grid_u=np.linspace(0, 1, 3),
                grid_v=np.linspace(0, 1, 3),
                values=np.zeros((3, 4)),
                lower=np.zeros((3, 4)),
                upper=np.zeros((3, 4)),
                halfwidth=0.0,
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


# The exact expectation (``expected_estimate``) on a 21-node lattice, edges and
# corners included, at a constant bandwidth h: the local-linear bias is
# O(h^2) where C is smooth, and the kernel's first moment is zero on every
# support, so the boundary rows keep that rate unless C itself is not smooth.
LATTICE = np.linspace(0.0, 1.0, 21)
UU, VV = np.meshgrid(LATTICE, LATTICE, indexing="ij")
HALVINGS = (0.2, 0.1, 0.05, 0.025, 0.0125)


def constant(h):
    return BandwidthPolicy(h_n=h, h_min=h, h_max=h)


def exact_bias(model, policy, coords=LATTICE):
    uu, vv = np.meshgrid(coords, coords, indexing="ij")
    return expected_estimate(model, policy, coords) - cdf(model, uu, vv)


class TestBiasDecay:
    def test_clayton_bias_ratio_near_four(self):
        # At the centre, halving h divides the bias by nearly four, and
        # bias / h^2 tends to the leading term (mu_2 / 2)(C_uu + C_vv) with
        # mu_2 = 1/5 (Chen & Huang 2007), here -0.2222.
        model = CopulaModel("clayton", 2.0)
        hs = (0.3, 0.15, 0.075)
        bias = np.array([exact_bias(model, constant(h), [0.5])[0, 0] for h in hs])
        assert bias == pytest.approx([-0.018622, -0.0049035, -0.0012435], rel=1e-4)
        assert bias[:-1] / bias[1:] == pytest.approx([3.80, 3.94], abs=0.005)
        d = 1e-3
        c_uu = (cdf(model, 0.5 + d, 0.5) - 2.0 * cdf(model, 0.5, 0.5) + cdf(model, 0.5 - d, 0.5)) / d**2
        lead = 0.1 * 2.0 * c_uu  # C_uu = C_vv at the centre of an exchangeable copula
        assert lead == pytest.approx(-0.2222, abs=1e-4)
        gaps = np.abs(bias / np.square(hs) - lead)  # the next term, O(h^2) in bias / h^2
        assert gaps[-1] < 0.0015 and (gaps[:-1] / gaps[1:] > 3.5).all()

    @pytest.mark.parametrize("policy", [BandwidthPolicy.from_sample_size(1000), constant(0.1)], ids=["default", "constant"])
    def test_independence_bias_is_zero(self, policy):
        # E C_hat = uv at every node, edges included: each kernel has unit
        # mass and zero mean on its support, under any policy.
        bias = exact_bias(CopulaModel("independence"), policy)
        assert np.abs(bias).max() <= 1e-13

    @pytest.mark.parametrize("model", [CopulaModel("clayton", 2.0), CopulaModel("frank", 5.0), CopulaModel("gumbel", 1.69)])
    def test_quadrature_converged(self, model):
        # 48 and 96 nodes agree at the corners too, where C is not smooth.
        coords, h = [0.0, 0.5, 1.0], 0.0125
        coarse, fine = (expected_estimate(model, constant(h), coords, nodes=k) for k in (48, 96))
        assert np.abs(coarse - fine).max() <= 4e-7 * h**2

    def test_frank_rate_holds_at_edge_nodes(self):
        model = CopulaModel("frank", 5.0)
        biases = [exact_bias(model, constant(h)) for h in HALVINGS]
        scaled = [np.abs(b).max() / h**2 for b, h in zip(biases, HALVINGS)]
        assert scaled == pytest.approx([0.238, 0.247, 0.249, 0.250, 0.250], abs=1e-3)
        assert max(scaled) <= 0.26
        assert all(np.abs(b).argmax() == UU.size // 2 for b in biases)  # the centre
        ratios = []
        for big, small in zip(biases, biases[1:]):
            seen = (np.abs(big) > 1e-6) & (np.abs(small) > 1e-6)
            ratios.append(np.median(big[seen] / small[seen]))
        gaps = np.abs(np.array(ratios) - 4.0)
        assert (np.diff(gaps) < 0).all() and gaps[-1] < 0.002, ratios

    def test_clayton_rate_fails_at_the_lower_corner(self):
        # Lower-tail dependence makes C's second derivatives unbounded at
        # (0, 0): there the bias is O(h), not O(h^2).
        model = CopulaModel("clayton", 2.0)
        hs = HALVINGS[-2:]
        biases = [exact_bias(model, constant(h)) for h in hs]
        assert [abs(b[0, 0]) / h**2 for b, h in zip(biases, hs)] == pytest.approx([2.76, 5.52], abs=0.01)
        away = np.hypot(UU, VV) > 0.15 + 1e-9
        assert max(np.abs(b[away]).max() / h**2 for b, h in zip(biases, hs)) <= 0.77

    def test_gumbel_rate_fails_at_the_upper_corner_and_edges(self):
        # Upper-tail dependence does the same at (1, 1), and the rate also
        # fails along the edges: at (0.15, 0) |bias| / h^2 grows as h halves.
        model = CopulaModel("gumbel", 1.69)
        hs = HALVINGS[-2:]
        biases = [exact_bias(model, constant(h)) for h in hs]
        assert [abs(b[-1, -1]) / h**2 for b, h in zip(biases, hs)] == pytest.approx([1.75, 3.49], abs=0.01)
        edge = exact_bias(model, constant(hs[-1] / 2), [0.15, 0.0])[0, 1]
        assert [abs(biases[-1][3, 0]) / hs[-1] ** 2, abs(edge) / (hs[-1] / 2) ** 2] == pytest.approx([0.816, 1.409], abs=1e-3)
        inside = (UU > 0) & (UU < 1) & (VV > 0) & (VV < 1) & (np.hypot(1 - UU, 1 - VV) > 0.15 + 1e-9)
        assert max(np.abs(b[inside]).max() / h**2 for b, h in zip(biases, hs)) <= 0.56

    @pytest.mark.parametrize(
        "model, scaled",
        [
            (CopulaModel("clayton", 2.0), [0.0371, 0.0618, 0.1195]),
            (CopulaModel("frank", 5.0), [0.0416, 0.0694, 0.1342]),
            (CopulaModel("gumbel", 1.69), [0.0264, 0.0440, 0.0850]),
        ],
    )
    def test_default_policy_scaled_bias(self, model, scaled):
        # R_n sup |bias| grows with n: h_n = 1/log n shrinks more slowly than
        # R_n grows.  The sup sits at the centre at every n; at the Clayton
        # corner the shrinkage moves h to h_min and the bias all but vanishes.
        ns = (10**3, 10**4, 10**5)
        biases = [exact_bias(model, BandwidthPolicy.from_sample_size(n)) for n in ns]
        assert [rate_rn(n) * np.abs(b).max() for n, b in zip(ns, biases)] == pytest.approx(scaled, abs=1e-3)
        assert all(np.abs(b).argmax() == UU.size // 2 for b in biases)
        if model.family == "clayton":
            corner = [rate_rn(n) * abs(b[0, 0]) for n, b in zip(ns, biases)]
            assert corner == pytest.approx([7.7e-3, 3.0e-3, 1.1e-3], abs=1e-4)


@pytest.mark.parametrize(
    "model, scaled",
    [
        (CopulaModel("clayton", 100.0), [1.821, 3.640]),
        (CopulaModel("clayton", 20.0), [0.905, 1.876]),
        (CopulaModel("gumbel", 10.0), [0.687, 1.226]),
        (CopulaModel("frank", 50.0), [1.041, 1.542]),
    ],
)
def test_strong_dependence_outgrows_the_default_band(model, scaled):
    # R_n sup |bias| on the 19 x 19 interior under the default policy at
    # n = 10^5 and 10^6 (README, "Where the default band fails").  Clayton 100
    # at 10^6 exceeds 3, the largest A_c, so no default band covers it.
    interior = LATTICE[1:-1]
    ns = (10**5, 10**6)
    got = [rate_rn(n) * np.abs(exact_bias(model, BandwidthPolicy.from_sample_size(n), interior)).max() for n in ns]
    assert got == pytest.approx(scaled, abs=1e-3)
    if model == CopulaModel("clayton", 100.0):
        assert got[-1] > 3.0
        # An undersmoothed --hn is the remedy: 1/(4 log n) reads 0.587, 1/(8 log n) 0.168.
        n = 10**6
        under = [
            rate_rn(n) * np.abs(exact_bias(model, BandwidthPolicy.from_sample_size(n, h_n=1.0 / (k * math.log(n))), interior)).max()
            for k in (4, 8)
        ]
        assert under == pytest.approx([0.587, 0.168], abs=1e-3)
