import math

import numpy as np
import pytest

from llcopula.bands import (
    BandGrid,
    BandParameters,
    band_halfwidth,
    confidence_bands,
    containment_report,
    rate_rn,
    shrunken_halfwidth,
)
from llcopula.errors import ConfigError
from llcopula.estimator import BandwidthPolicy, evaluate_grid, ll_copula_estimate
from llcopula.families import CopulaModel, cdf
from llcopula.margins import RawSample, to_pseudo_ranks
from llcopula.sampling import SeededStream, sample_copula

from reference_tables import CLAYTON_TABLE, FRANK_TABLE


def band_setup(model, n, seed, grid=21, **band_kwargs):
    draws = sample_copula(model, n, SeededStream(seed))
    pseudo = to_pseudo_ranks(RawSample(draws.u, draws.v))
    ge = evaluate_grid(pseudo, grid, BandwidthPolicy.from_sample_size(n))
    return confidence_bands(ge, BandParameters(n=n, **band_kwargs))


class TestRate:
    def test_frozen_value(self):
        # sqrt(116 / (2 ln ln 116)), frozen from direct evaluation
        assert rate_rn(116) == pytest.approx(6.099649015386191, abs=1e-12)

    def test_domain_edge(self):
        r = rate_rn(16)
        assert np.isfinite(r) and r > 0

    def test_rejects_small_n(self):
        with pytest.raises(ConfigError):
            rate_rn(15)

    def test_strictly_increasing(self):
        ns = np.unique(np.logspace(np.log10(16), 6, 200).astype(int))
        rates = [rate_rn(int(n)) for n in ns]
        assert (np.diff(rates) > 0).all()


class TestHalfwidth:
    def test_frozen_value(self):
        hw = band_halfwidth(BandParameters(n=116))
        assert hw == pytest.approx(0.4918315779207271, abs=1e-12)
        assert hw == pytest.approx(0.4919, abs=1e-4)

    def test_epsilon_is_linear_inflation(self):
        base = band_halfwidth(BandParameters(n=400))
        assert band_halfwidth(BandParameters(n=400, epsilon=0.1)) == pytest.approx(1.1 * base)

    def test_decreasing_in_n(self):
        widths = [band_halfwidth(BandParameters(n=n)) for n in (100, 1000, 10_000, 100_000)]
        assert (np.diff(widths) < 0).all()

    def test_inner_width(self):
        params = BandParameters(n=1000, epsilon=0.99)
        assert shrunken_halfwidth(params) == pytest.approx(
            0.01 * 3.0 / rate_rn(1000), abs=1e-15
        )

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            BandParameters(n=1000, A_c=3.5)
        with pytest.raises(ConfigError):
            BandParameters(n=1000, A_c=0.0)
        # (1 + epsilon) * A_c overflows to inf, which would make an infinite band.
        with pytest.raises(ConfigError, match=r"\(1 \+ epsilon\) \* A_c finite"):
            BandParameters(n=1000, epsilon=1e308)
        assert math.isfinite(band_halfwidth(BandParameters(n=1000, A_c=1.0, epsilon=1e308)))
        with pytest.raises(ConfigError):
            BandParameters(n=1000, epsilon=-0.1)
        with pytest.raises(ConfigError):
            BandParameters(n=15)


class TestConfidenceBands:
    def test_constant_width(self):
        # one scalar half-width is applied at every node, bitwise
        bands = band_setup(CopulaModel("clayton", 2.0), 500, 3)
        assert np.array_equal(bands.upper, bands.values + bands.halfwidth)
        assert np.array_equal(bands.lower, bands.values - bands.halfwidth)
        assert bands.halfwidth == band_halfwidth(BandParameters(n=500))
        widths = bands.upper - bands.lower
        # the subtraction itself reintroduces at most a unit of roundoff
        assert widths.max() - widths.min() <= 4 * np.spacing(2 * bands.halfwidth)

    def test_bracket_property_without_clip(self):
        bands = band_setup(CopulaModel("frank", 5.0), 500, 4)
        assert (bands.lower <= bands.values).all()
        assert (bands.values <= bands.upper).all()

    def test_size_mismatch_rejected(self):
        draws = sample_copula(CopulaModel("independence"), 200, SeededStream(1))
        ge = evaluate_grid(draws, 5, BandwidthPolicy.from_sample_size(200))
        with pytest.raises(ConfigError):
            confidence_bands(ge, BandParameters(n=199))

    def test_unclipped_bounds_can_leave_unit_interval(self):
        bands = band_setup(CopulaModel("clayton", 2.0), 500, 3)
        assert bands.lower.min() < 0.0
        assert bands.upper.max() > 1.0

    def test_clip_to_frechet(self):
        draws = sample_copula(CopulaModel("clayton", 2.0), 500, SeededStream(3))
        pseudo = to_pseudo_ranks(RawSample(draws.u, draws.v))
        ge = evaluate_grid(pseudo, 21, BandwidthPolicy.from_sample_size(500))
        bands = confidence_bands(ge, BandParameters(n=500), clip_to_frechet=True)
        uu, vv = np.meshgrid(bands.grid_u, bands.grid_v, indexing="ij")
        assert (bands.lower >= np.maximum(uu + vv - 1.0, 0.0) - 1e-12).all()
        assert (bands.upper <= np.minimum(uu, vv) + 1e-12).all()

    def test_band_grid_invariant(self):
        with pytest.raises(ConfigError):
            BandGrid(
                grid_u=np.array([0.0, 1.0]),
                grid_v=np.array([0.0, 1.0]),
                values=np.zeros((2, 2)),
                lower=np.full((2, 2), 0.5),
                upper=np.full((2, 2), 0.2),
                halfwidth=0.1,
            )


class TestContainment:
    @pytest.mark.parametrize(
        "family,theta,rows",
        [("clayton", 2.0, CLAYTON_TABLE[2.0]), ("frank", 5.0, FRANK_TABLE[5.0])],
        ids=["clayton2", "frank5"],
    )
    def test_reference_points_contained(self, family, theta, rows):
        # simulated sample, bands evaluated at the fixed reference query
        # points; every true value sits inside in this seeded run
        n = 500
        model = CopulaModel(family, theta)
        draws = sample_copula(model, n, SeededStream(77))
        pseudo = to_pseudo_ranks(RawSample(draws.u, draws.v))
        pol = BandwidthPolicy.from_sample_size(n)
        hw = band_halfwidth(BandParameters(n=n))
        pts = np.array([(u, v) for u, v, _ in rows])
        truth = np.array([c for _, _, c in rows])
        est = ll_copula_estimate(pseudo, pts[:, 0], pts[:, 1], pol)
        assert ((est - hw <= truth) & (truth <= est + hw)).all()

    def test_true_family_contained_in_typical_run(self):
        model = CopulaModel("clayton", 2.0)
        bands = band_setup(model, 500, 3)
        report = containment_report(bands, model)
        assert report.fraction == 1.0
        assert report.worst_violation == 0.0
        assert report.n_nodes == 21 * 21

    def test_zero_width_bands_miss(self):
        model = CopulaModel("clayton", 2.0)
        bands = band_setup(model, 500, 3, A_c=1e-9)
        report = containment_report(bands, model)
        assert report.fraction < 1.0
        assert report.worst_violation > 0.0

    def test_wrong_reference_detected_at_scale(self):
        # strongly dependent data vs the independence reference: the band is
        # ~0.07 wide at n=5000 while the copulas differ by more than 0.1
        bands = band_setup(CopulaModel("clayton", 6.0), 5000, 17)
        report = containment_report(bands, CopulaModel("independence"))
        assert report.fraction < 1.0
        assert report.worst_violation > 0.05


class TestCoverageReplicates:
    N = 1000

    def _sup_errors(self, model, policies, reps=100):
        """sup |C_hat - C| over a 21-node grid and over ``policies``, one per
        replicate; replicate r is the rank transform of stream 31000 + r."""
        grid = np.linspace(0.0, 1.0, 21)
        uu, vv = np.meshgrid(grid, grid, indexing="ij")
        truth = cdf(model, uu, vv)
        sups = []
        for seed in range(reps):
            draws = sample_copula(model, self.N, SeededStream(31_000 + seed))
            pseudo = to_pseudo_ranks(RawSample(draws.u, draws.v))
            sups.append(max(np.abs(evaluate_grid(pseudo, 21, pol).values - truth).max() for pol in policies))
        return np.array(sups)

    def test_nominal_coverage(self):
        sups = self._sup_errors(CopulaModel("clayton", 2.0), [BandwidthPolicy.from_sample_size(self.N)])
        rate = (sups <= band_halfwidth(BandParameters(n=self.N))).mean()
        assert rate >= 0.99

    @pytest.mark.parametrize("model", [
        CopulaModel("clayton", 2.0), CopulaModel("frank", 5.0), CopulaModel("gumbel", 1.69),
    ], ids=lambda m: m.label())
    def test_coverage_uniform_in_bandwidth(self, model):
        # The deviation bound holds uniformly in the bandwidth (Einmahl & Mason
        # 2005, Ann. Statist. 33), so the default outer band must hold at every
        # node for each of five constant bandwidths across [h_min, h_max].
        default = BandwidthPolicy.from_sample_size(self.N)
        hs = np.geomspace(default.h_min, default.h_max, 5)
        sups = self._sup_errors(model, [BandwidthPolicy(h, h, h) for h in hs])
        assert (sups <= band_halfwidth(BandParameters(n=self.N))).all()
        assert rate_rn(self.N) * sups.max() < 0.5
