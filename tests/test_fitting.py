import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_discordant_pairs_match_quadratic_count(self, data):
        # Lengths on both sides of the 32-element blocks' multiples, and a
        # value range that may be small enough to force many ties.
        n = data.draw(st.integers(0, 300) | st.sampled_from([31, 32, 33, 63, 64, 65, 257]))
        top = data.draw(st.integers(0, max(n - 1, 0)))
        ys = np.array(data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n)), dtype=np.int64)
        want = sum(int((ys[i] > ys[i + 1 :]).sum()) for i in range(n))
        assert _discordant_pairs(ys) == want

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
        assert log_likelihood(CopulaModel("independence"), s) == 0.0

    def test_single_point_reduction(self):
        m = CopulaModel("clayton", 2.0)
        s = PseudoSample(np.array([0.5]), np.array([0.5]))
        assert log_likelihood(m, s) == pytest.approx(np.log(density(m, 0.5, 0.5)))

    def test_floored_terms_counted(self):
        # a clayton with large theta has astronomically small density at the
        # anti-diagonal corner, which underflows and hits the floor
        m = CopulaModel("clayton", 50.0)
        s = pseudo([1e-12, 0.5], [1.0 - 1e-12, 0.5])
        value, floored = log_likelihood(m, s, return_floored=True)
        assert floored == 1
        assert np.isfinite(value)

    def test_clamping_makes_boundary_finite(self):
        m = CopulaModel("gumbel", 2.0)
        s = pseudo([0.0, 0.5], [0.5, 1.0])
        assert np.isfinite(log_likelihood(m, s))

    def test_true_family_beats_rivals_across_seeds(self):
        generator = CopulaModel("clayton", 1.38)
        rivals = [CopulaModel("gumbel", 1.69), CopulaModel("frank", 4.33)]
        wins = 0
        for seed in range(20):
            s = sample_copula(generator, 1000, SeededStream(600 + seed))
            own = log_likelihood(generator, s)
            wins += all(own > log_likelihood(r, s) for r in rivals)
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
            if row.applicable and row.family != "independence":
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

    def test_comonotone_boundary(self):
        t = np.linspace(0.05, 0.95, 40)
        s = pseudo(t, t)
        report = fit_families(s, families=("clayton", "gumbel", "independence"))
        by_family = {r.family: r for r in report.rows}
        assert not by_family["clayton"].applicable
        assert not by_family["gumbel"].applicable
        assert report.selected == "independence"
        with pytest.raises(ConfigError):
            fit_families(s, families=("clayton", "gumbel"))

    def test_empty_family_list_rejected(self):
        with pytest.raises(ConfigError):
            fit_families(pseudo([0.1, 0.9], [0.2, 0.8]), families=())

    def test_likelihood_peaks_near_inverted_theta(self):
        # coarse sweep around the tau-inversion estimate on self-generated data
        s = self._sample("clayton", 2.0, 31, n=2000)
        report = fit_families(s)
        theta_hat = {r.family: r.theta for r in report.rows}["clayton"]
        sweep = [theta_hat * f for f in (0.5, 0.75, 1.0, 1.33, 2.0)]
        values = [log_likelihood(CopulaModel("clayton", th), s) for th in sweep]
        assert int(np.argmax(values)) in (1, 2, 3)
