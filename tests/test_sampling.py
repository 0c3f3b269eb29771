import numpy as np
import pytest

from llcopula.errors import ConfigError
from llcopula.estimator import empirical_copula
from llcopula.families import CopulaModel, cdf, tau_from_theta
from llcopula.fitting import empirical_kendall_tau
from llcopula.sampling import SeededStream, sample_copula

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
