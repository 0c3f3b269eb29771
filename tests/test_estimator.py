import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llcopula.errors import ConfigError
from llcopula.estimator import (
    BandwidthPolicy,
    GridEvaluation,
    effective_bandwidth,
    empirical_copula,
    evaluate_grid,
    ll_copula_estimate,
    shrink_factor,
)
from llcopula.families import CopulaModel, cdf
from llcopula.margins import PseudoSample, RawSample, to_pseudo_ranks
from llcopula.sampling import SeededStream, sample_copula


def make_sample(model, n, seed, rank=True):
    draws = sample_copula(model, n, SeededStream(seed))
    if rank:
        return to_pseudo_ranks(RawSample(draws.u, draws.v))
    return draws


class TestBandwidthPolicy:
    def test_defaults(self):
        n = 500
        pol = BandwidthPolicy.from_sample_size(n)
        assert pol.h_n == pytest.approx(1.0 / np.log(n))
        assert pol.h_min == pytest.approx(np.log(n) / n)
        assert pol.h_max == pytest.approx((np.log(np.log(n)) / n) ** 0.25)
        assert pol.alpha == 0.5
        assert pol.shrink_enabled

    def test_validation(self):
        with pytest.raises(ConfigError):
            BandwidthPolicy.from_sample_size(15)
        with pytest.raises(ConfigError):
            BandwidthPolicy(h_n=0.1, h_min=0.2, h_max=0.1)
        with pytest.raises(ConfigError):
            BandwidthPolicy(h_n=-0.1, h_min=0.01, h_max=0.2)
        with pytest.raises(ConfigError):
            BandwidthPolicy(h_n=0.1, h_min=0.01, h_max=0.2, alpha=0.0)
        # a clamp constant large enough to invert the interval is rejected
        with pytest.raises(ConfigError):
            BandwidthPolicy.from_sample_size(100, clamp_constant=20.0)


class TestShrinkFactor:
    def test_center_value(self):
        assert shrink_factor(0.5, 0.5, 0.5) == pytest.approx(0.5**0.5, abs=1e-15)

    def test_opposite_corners_vanish(self):
        for alpha in (0.3, 0.5, 2.0):
            assert shrink_factor(0.0, 1.0, alpha) == 0.0
            assert shrink_factor(1.0, 0.0, alpha) == 0.0

    def test_edge_reduces_to_single_minimum(self):
        for u in (0.1, 0.4, 0.9):
            alpha = 0.5
            want = min(u**alpha, (1 - u) ** alpha)
            assert shrink_factor(u, 1.0, alpha) == pytest.approx(want, abs=1e-15)

    @given(u=st.floats(0, 1), v=st.floats(0, 1), alpha=st.floats(0.05, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_range(self, u, v, alpha):
        b = shrink_factor(u, v, alpha)
        assert 0.0 <= b <= 1.0


class TestEffectiveBandwidth:
    def test_corner_clamps_to_floor(self):
        pol = BandwidthPolicy.from_sample_size(1000)
        assert effective_bandwidth(1.0, 1.0, pol) == pol.h_min

    def test_center_unclamped(self):
        pol = BandwidthPolicy.from_sample_size(1000)
        want = pol.h_n * shrink_factor(0.5, 0.5, pol.alpha)
        assert pol.h_min < want < pol.h_max
        assert effective_bandwidth(0.5, 0.5, pol) == pytest.approx(want, abs=1e-16)

    def test_no_shrink_uses_global_rate(self):
        pol = BandwidthPolicy.from_sample_size(1000, shrink_enabled=False)
        assert effective_bandwidth(0.01, 0.99, pol) == pytest.approx(
            np.clip(pol.h_n, pol.h_min, pol.h_max)
        )

    @given(u=st.floats(0, 1), v=st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_always_within_clamp(self, u, v):
        pol = BandwidthPolicy.from_sample_size(200)
        h = effective_bandwidth(u, v, pol)
        assert pol.h_min <= h <= pol.h_max


class TestPointEstimate:
    def test_saturated_corners(self):
        # all mass well inside: top corner saturates to 1, bottom to 0
        ps = PseudoSample(np.linspace(0.3, 0.6, 50), np.linspace(0.35, 0.65, 50), "direct")
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
        ps = PseudoSample(np.array([0.2, 0.4, 0.9]), np.array([0.3, 0.1, 0.8]), "direct")
        assert empirical_copula(ps, 1.0, 1.0) == 1.0
        assert empirical_copula(ps, 0.0, 0.0) == 0.0

    def test_hand_count(self):
        ps = PseudoSample(
            np.array([0.25, 0.5, 0.75]), np.array([0.25, 0.5, 0.75]), "direct"
        )
        assert empirical_copula(ps, 0.5, 0.5) == pytest.approx(2.0 / 3.0)

    def test_right_continuity_step(self):
        ps = PseudoSample(np.array([0.5, 0.7]), np.array([0.5, 0.7]), "direct")
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
        pol = BandwidthPolicy.from_sample_size(1000, shrink_enabled=False)
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
                policy=BandwidthPolicy.from_sample_size(100),
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
            pol = BandwidthPolicy(h_n=h, h_min=1e-6, h_max=0.499, shrink_enabled=False)
            vals = np.array(
                [
                    ll_copula_estimate(make_sample(model, n, sd, rank=False), 0.5, 0.5, pol)
                    for sd in seeds
                ]
            )
            biases.append(vals.mean() - truth)
        ratio = abs(biases[0]) / abs(biases[1])
        assert 2.5 <= ratio <= 6.0
