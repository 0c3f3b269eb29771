import numpy as np
import pytest

from llcopula.errors import ConfigError
from llcopula.families import CopulaModel, cdf, conditional_cdf, tau_from_theta
from llcopula.fitting import empirical_kendall_tau
from llcopula.sampling import SeededStream, sample_copula
from oracles import empirical_copula

FAMILY_CASES = [
    CopulaModel("clayton", 2.0),
    CopulaModel("frank", 5.0),
    CopulaModel("frank", -2.0),
    CopulaModel("gumbel", 1.69),
    CopulaModel("independence"),
]


def test_stream_validation():
    with pytest.raises(ConfigError):
        SeededStream(-1)
    with pytest.raises(ConfigError):
        SeededStream(2**64)


def test_stream_determinism():
    a = SeededStream(123).generator().random(8)
    b = SeededStream(123).generator().random(8)
    assert np.array_equal(a, b)


def test_substreams_are_deterministic_and_distinct():
    kids1 = SeededStream(9).substreams(4)
    kids2 = SeededStream(9).substreams(4)
    assert [k.seed for k in kids1] == [k.seed for k in kids2]
    assert len({k.seed for k in kids1}) == 4


def test_sample_determinism():
    m = CopulaModel("clayton", 2.0)
    s1 = sample_copula(m, 500, SeededStream(7))
    s2 = sample_copula(m, 500, SeededStream(7))
    assert np.array_equal(s1.u, s2.u)
    assert np.array_equal(s1.v, s2.v)
    s3 = sample_copula(m, 500, SeededStream(8))
    assert not np.array_equal(s1.v, s3.v)


def test_sample_size_validation():
    with pytest.raises(ConfigError):
        sample_copula(CopulaModel("independence"), 0, SeededStream(1))


def test_sample_tag_and_range():
    s = sample_copula(CopulaModel("frank", 5.0), 64, SeededStream(2))
    assert s.n == 64
    assert (s.u > 0).all() and (s.u < 1).all()
    assert (s.v > 0).all() and (s.v < 1).all()


def test_independence_tau_near_zero():
    n = 4000
    s = sample_copula(CopulaModel("independence"), n, SeededStream(12))
    assert abs(empirical_kendall_tau(s)) <= 3.0 / np.sqrt(n)


def test_clayton_tau_matches_parameter():
    m = CopulaModel("clayton", 2.0)
    s = sample_copula(m, 20_000, SeededStream(11))
    assert empirical_kendall_tau(s) == pytest.approx(tau_from_theta(m), abs=0.02)


@pytest.mark.parametrize("theta", [100.0, 300.0, 1000.0])
def test_clayton_large_theta_draws_no_exact_zeros(theta):
    # The plain form of the inverse overflowed to v = 0 for 0.1 %, 9.7 % and
    # 48.9 % of these draws.
    s = sample_copula(CopulaModel("clayton", theta), 20_000, SeededStream(3))
    assert (s.v > 0.0).all() and (s.v < 1.0).all()


@pytest.mark.parametrize("theta", [1e-300, -1e-300, 1e-17, -1e-17])
def test_frank_near_independence_draws_are_the_uniforms(theta):
    # v solves C_2(v | u) = w, which is v = w at theta = 0.  The former
    # -log(num/den)/theta drew only 1 and -0.0 from |theta| = 1e-17 down.
    s = sample_copula(CopulaModel("frank", theta), 1000, SeededStream(5))
    w = np.clip(SeededStream(5).generator().random((1000, 2)), 1e-16, 1.0 - 1e-16)[:, 1]
    assert not np.signbit(s.v).any()
    assert np.max(np.abs(s.v - w) / np.spacing(w)) <= 2.0


@pytest.mark.parametrize("seed", range(1, 11))
def test_gumbel_draws_at_scale(seed):
    # Seeds 2, 3, 4 and 7 draw u so close to 1 that no v meets a fixed 1e-12
    # tolerance in w; the solve must still converge there.
    m = CopulaModel("gumbel", 1.69)
    s = sample_copula(m, 100_000, SeededStream(seed))
    w = np.clip(SeededStream(seed).generator().random((100_000, 2)), 1e-16, 1.0 - 1e-16)[:, 1]
    assert ((s.v >= 0.0) & (s.v <= 1.0)).all()
    assert np.abs(conditional_cdf(m, s.v, s.u) - w).max() <= 1e-10


@pytest.mark.parametrize("theta", [5.0, 20.0, 100.0])
def test_gumbel_large_theta_draws(theta):
    # Large theta makes C_2 steep in v, where a fixed tolerance in w fails most.
    m = CopulaModel("gumbel", theta)
    s = sample_copula(m, 20_000, SeededStream(3))
    assert ((s.v >= 0.0) & (s.v <= 1.0)).all()
    assert empirical_kendall_tau(s) == pytest.approx(tau_from_theta(m), abs=0.01)


def _ks_distance(x):
    xs = np.sort(x)
    n = len(xs)
    up = np.max(np.arange(1, n + 1) / n - xs)
    down = np.max(xs - np.arange(0, n) / n)
    return max(up, down)


@pytest.mark.parametrize("model", FAMILY_CASES, ids=lambda m: m.label())
def test_marginal_uniformity(model):
    n = 10_000
    s = sample_copula(model, n, SeededStream(100))
    bound = 1.63 / np.sqrt(n)
    assert _ks_distance(s.u) <= bound
    assert _ks_distance(s.v) <= bound


@pytest.mark.parametrize("model", FAMILY_CASES, ids=lambda m: m.label())
def test_empirical_copula_converges_to_model(model):
    n = 10_000
    s = sample_copula(model, n, SeededStream(100))
    grid = np.linspace(0.0, 1.0, 21)
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    gap = np.abs(empirical_copula(s, uu, vv) - cdf(model, uu, vv)).max()
    assert gap <= 2.5 / np.sqrt(n)
