import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from llcopula.errors import ConfigError
from llcopula.families import CopulaModel, density, tau_from_theta
from llcopula.fitting import _discordant_pairs, empirical_kendall_tau, fit_families, log_likelihood
from llcopula.margins import PseudoSample, RawSample, to_pseudo_ranks
from llcopula.sampling import SeededStream, sample_copula


def pseudo(u, v):
    return PseudoSample(np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def brute_tau(u, v):
    n = len(u)
    s = 0.0
    for i in range(n):
        s += np.sum(np.sign(u[i + 1 :] - u[i]) * np.sign(v[i + 1 :] - v[i]))
    return s / (n * (n - 1) / 2)


class TestKendallTau:
    def test_comonotone(self):
        t = np.linspace(0.1, 0.9, 12)
        assert empirical_kendall_tau(pseudo(t, t)) == 1.0

    def test_antimonotone(self):
        t = np.linspace(0.1, 0.9, 12)
        assert empirical_kendall_tau(pseudo(t, t[::-1])) == -1.0

    def test_four_point_hand_count(self):
        s = pseudo([0.1, 0.2, 0.3, 0.4], [0.1, 0.3, 0.2, 0.4])
        assert empirical_kendall_tau(s) == pytest.approx(2.0 / 3.0)

    def test_needs_two_points(self):
        with pytest.raises(ConfigError):
            empirical_kendall_tau(pseudo([0.5], [0.5]))

    @given(st.integers(0, 2**32 - 1), st.integers(5, 400))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_with_ties(self, seed, n):
        rng = np.random.default_rng(seed)
        # coarse grid values force ties in both coordinates
        u = rng.integers(0, 6, n) / 10.0 + 0.1
        v = rng.integers(0, 6, n) / 10.0 + 0.1
        s = pseudo(u, v)
        assert empirical_kendall_tau(s) == brute_tau(u, v)

    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_constant_columns(self, n):
        # A constant column ties every pair, so tau is 0 whatever the other.
        free = np.random.default_rng(n).random(n)
        for u, v in ((np.full(n, 0.5), np.full(n, 0.5)), (np.full(n, 0.5), free), (free, np.full(n, 0.5))):
            assert empirical_kendall_tau(pseudo(u, v)) == brute_tau(u, v) == 0.0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_discordant_pairs_match_quadratic_count(self, data):
        # Lengths on both sides of the 32-element blocks' multiples and of the
        # powers of two the keys are padded to, a value range that may be
        # small enough to force many ties; values drawn one by one (mostly a
        # fill value when n is large), uniformly, or all equal.
        n = data.draw(
            st.integers(0, 300)
            | st.sampled_from([31, 32, 33, 63, 64, 65, 127, 128, 129, 257, 511, 512, 513, 1023, 1024, 1025])
        )
        top = data.draw(st.integers(0, max(n - 1, 0)))
        ys = data.draw(
            arrays(np.int64, n, elements=st.integers(0, top))
            | st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).integers(0, top + 1, n))
            | st.integers(0, top).map(lambda y: np.full(n, y))
        )
        want = sum(int((ys[i] > ys[i + 1 :]).sum()) for i in range(n))
        assert _discordant_pairs(ys) == want

    def test_discordant_pairs_exact_on_ties_past_two_to_the_14(self):
        # Ten merge levels, the last with a single real element in its right
        # half, on values with about 55 copies each.
        n, chunk = 2**14 + 1, 1024
        ys = np.random.default_rng(14).integers(0, 300, n)
        want = 0
        for a in range(0, n, chunk):
            head = ys[a : a + chunk]
            want += int(np.count_nonzero(head[:, None] > ys[None, a + chunk :]))
            want += int(np.count_nonzero(np.triu(head[:, None] > head[None, :], 1)))
        assert _discordant_pairs(ys) == want

    @pytest.mark.parametrize(
        "decimals, axes",
        [pytest.param(None, "", id="None"), pytest.param(3, "uv", id="3"),
         pytest.param(3, "u", id="3-u-only"), pytest.param(3, "v", id="3-v-only")],
    )
    def test_matches_scipy_at_1e5(self, decimals, axes):
        # Clayton 2 draws, and the same draws with the named columns rounded
        # so that they are tie-heavy, in both columns or in one only.  scipy's
        # tau-b is rescaled to tau-a by the tied pairs.
        s = sample_copula(CopulaModel("clayton", 2.0), 100_000, SeededStream(25))
        u, v = (np.round(x, decimals) if axis in axes else x for x, axis in ((s.u, "u"), (s.v, "v")))
        n0 = len(u) * (len(u) - 1) // 2
        ties = [int((c * (c - 1) // 2).sum()) for c in (np.unique(x, return_counts=True)[1] for x in (u, v))]
        want = stats.kendalltau(u, v).statistic * math.sqrt((n0 - ties[0]) * (n0 - ties[1])) / n0
        assert empirical_kendall_tau(pseudo(u, v)) == pytest.approx(want, abs=1e-12)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(77)
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        a = empirical_kendall_tau(to_pseudo_ranks(RawSample(x, y)))
        b = empirical_kendall_tau(to_pseudo_ranks(RawSample(np.exp(x), y**3 + 2 * y)))
        assert a == pytest.approx(b, abs=1e-15)


class TestLogLikelihood:
    def test_independence_is_zero(self):
        s = pseudo([0.2, 0.8, 0.5], [0.9, 0.3, 0.5])
        assert log_likelihood(CopulaModel("independence"), s)[0] == 0.0

    def test_single_point_reduction(self):
        m = CopulaModel("clayton", 2.0)
        s = PseudoSample(np.array([0.5]), np.array([0.5]))
        assert log_likelihood(m, s)[0] == pytest.approx(np.log(density(m, 0.5, 0.5)))

    def test_floored_terms_counted(self):
        # a clayton with large theta has astronomically small density at the
        # anti-diagonal corner, which underflows and hits the floor
        m = CopulaModel("clayton", 50.0)
        s = pseudo([1e-12, 0.5], [1.0 - 1e-12, 0.5])
        value, floored = log_likelihood(m, s)
        assert floored == 1
        assert np.isfinite(value)

    def test_clamping_makes_boundary_finite(self):
        m = CopulaModel("gumbel", 2.0)
        s = pseudo([0.0, 0.5], [0.5, 1.0])
        assert np.isfinite(log_likelihood(m, s)[0])

    def test_true_family_beats_rivals_across_seeds(self):
        generator = CopulaModel("clayton", 1.38)
        rivals = [CopulaModel("gumbel", 1.69), CopulaModel("frank", 4.33)]
        wins = 0
        for seed in range(20):
            s = sample_copula(generator, 1000, SeededStream(600 + seed))
            own = log_likelihood(generator, s)[0]
            wins += all(own > log_likelihood(r, s)[0] for r in rivals)
        assert wins >= 15


class TestFitFamilies:
    def _sample(self, family, theta, seed, n=1000):
        draws = sample_copula(CopulaModel(family, theta), n, SeededStream(seed))
        return to_pseudo_ranks(RawSample(draws.u, draws.v))

    def test_recovers_generator_single_run(self):
        report = fit_families(self._sample("clayton", 2.0, 123))
        assert report.selected == "clayton"

    def test_rows_sorted_and_consistent(self):
        report = fit_families(self._sample("gumbel", 1.69, 9))
        lls = [r.log_likelihood for r in report.rows if r.applicable]
        assert lls == sorted(lls, reverse=True)
        assert report.selected == report.rows[0].family
        for row in report.rows:
            if row.applicable:
                back = tau_from_theta(CopulaModel(row.family, row.theta))
                assert back == pytest.approx(report.tau_hat, abs=1e-8)

    def test_deterministic(self):
        s = self._sample("frank", 5.0, 11)
        a = fit_families(s)
        b = fit_families(s)
        assert a == b

    def test_negative_dependence_marks_rows_inapplicable(self):
        s = self._sample("frank", -5.0, 21)
        report = fit_families(s)
        by_family = {r.family: r for r in report.rows}
        assert not by_family["clayton"].applicable
        assert not by_family["gumbel"].applicable
        assert by_family["frank"].applicable
        assert report.selected == "frank"
        # Applicable rows first; the inapplicable ones keep DEFAULT_FAMILIES' order.
        assert [r.family for r in report.rows] == ["frank", "clayton", "gumbel"]

    def test_comonotone_boundary(self):
        # Empirical tau 1 lies outside every default family's open tau range.
        t = np.linspace(0.05, 0.95, 40)
        with pytest.raises(ConfigError, match="no applicable family for empirical tau 1.0000"):
            fit_families(pseudo(t, t))

    def test_likelihood_peaks_near_inverted_theta(self):
        # coarse sweep around the tau-inversion estimate on self-generated data
        s = self._sample("clayton", 2.0, 31, n=2000)
        report = fit_families(s)
        theta_hat = {r.family: r.theta for r in report.rows}["clayton"]
        sweep = [theta_hat * f for f in (0.5, 0.75, 1.0, 1.33, 2.0)]
        values = [log_likelihood(CopulaModel("clayton", th), s)[0] for th in sweep]
        assert int(np.argmax(values)) in (1, 2, 3)
