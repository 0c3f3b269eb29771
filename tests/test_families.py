import decimal
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llcopula import families
from llcopula.errors import ConfigError, NumericalError
from llcopula.families import (
    CopulaModel,
    _gumbel_inverse,
    cdf,
    conditional_cdf,
    debye1,
    density,
    inverse_conditional,
    tau_from_theta,
    theta_from_tau,
)

from reference_tables import (
    CLAYTON_CDF_DENSITY_TABLE,
    CLAYTON_TABLE,
    DEBYE1_TABLE,
    FRANK_CDF_TABLE,
    FRANK_DENSITY_TABLE,
    FRANK_TABLE,
    FRANK_TAU_TABLE,
    GUMBEL_NEAR_DIAGONAL_TABLE,
)

MODELS = [
    CopulaModel("clayton", 0.5),
    CopulaModel("clayton", 2.0),
    CopulaModel("clayton", 6.0),
    CopulaModel("frank", -2.0),
    CopulaModel("frank", 5.0),
    CopulaModel("frank", 18.0),
    CopulaModel("gumbel", 1.0),
    CopulaModel("gumbel", 1.69),
    CopulaModel("gumbel", 4.0),
    CopulaModel("independence"),
]


def simpson_debye1(x, panels=20000):
    """Independent composite-Simpson oracle for the order-1 Debye integral."""
    t = np.linspace(0.0, x, 2 * panels + 1)
    f = np.ones_like(t)
    nz = t != 0
    f[nz] = t[nz] / np.expm1(t[nz])
    h = x / (2 * panels)
    integral = h / 3 * (f[0] + f[-1] + 4 * f[1::2].sum() + 2 * f[2:-2:2].sum())
    return integral / x


def clayton_points(theta):
    """u, v across (0, 1) and down to 1e-12, where Clayton's powers overflow."""
    rng = np.random.default_rng(5)
    u = np.concatenate([rng.random(400), 10.0 ** -rng.uniform(0, 12, 400)])
    v = np.concatenate([rng.random(400), 10.0 ** -rng.uniform(0, 12, 400)])
    return u, rng.permutation(v)


def assert_solves_gumbel(model, v, u, w):
    """v in [0, 1], and C_2(v | u) = w to 1e-10 or v within 4 ulps of where
    C_2(. | u) - w changes sign: near u = 1 one ulp of v can move C_2 by more."""
    assert ((v >= 0.0) & (v <= 1.0)).all()
    miss = np.abs(conditional_cdf(model, v, u) - w) > 1e-10
    below, above = v[miss], v[miss]
    for _ in range(4):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
    below, above = np.clip(below, 0.0, 1.0), np.clip(above, 0.0, 1.0)
    assert (conditional_cdf(model, below, u[miss]) <= w[miss]).all()
    assert (conditional_cdf(model, above, u[miss]) >= w[miss]).all()


def gumbel_table_error(evaluate, column):
    """Per-row error against GUMBEL_NEAR_DIAGONAL_TABLE in ulps of the reference,
    over S = 1 + m + (theta - 1)|log r| + log1p((theta - 1)/m), m = max(x, y),
    r = min(x, y)/m: the size of the terms that sum to log f, whose rounding exp
    carries into f.  With v within e^(+-1/theta) of u, (theta - 1)|log r| stays
    below about 1/m, so S grows with theta only as log theta."""
    theta, u, v = np.array(GUMBEL_NEAR_DIAGONAL_TABLE)[:, :3].T
    ref = np.array(GUMBEL_NEAR_DIAGONAL_TABLE)[:, column]
    got = np.array([evaluate(CopulaModel("gumbel", t), a, b) for t, a, b in zip(theta, u, v)])
    x, y = -np.log(u), -np.log(v)
    m = np.maximum(x, y)
    scale = 1.0 + m + (theta - 1.0) * np.abs(np.log(np.minimum(x, y) / m)) + np.log1p((theta - 1.0) / m)
    return np.abs(got - ref) / ref / np.finfo(float).eps / scale


def clayton_table_ulps(evaluate, column):
    """Per-row error against CLAYTON_CDF_DENSITY_TABLE's ``column`` in ulps of
    the reference, with the table's theta, u, v and reference as columns."""
    theta, u, v, ref = np.array(CLAYTON_CDF_DENSITY_TABLE)[:, [0, 1, 2, column]].T
    got = np.array([evaluate(CopulaModel("clayton", t), a, b) for t, a, b in zip(theta, u, v)])
    return theta, u, v, ref, np.abs(got - ref) / ref / np.finfo(float).eps


def gumbel_y_at_40_digits(theta, u, w):
    """-log v for Gumbel's C_2(v | u) = w, by bisection on log d at 40 digits.

    d = s - x solves d + (theta - 1) log(1 + d/x) = L, x = -log u, L = -log w; the
    root lies in [L x / (x + theta - 1), L].  Then y = s (1 - (x/s)^theta)^(1/theta).
    """
    dec = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 40

        def ln1p(z):
            return z - z * z / 2 + z * z * z / 3 if z < dec("1e-12") else (1 + z).ln()

        t, x, big_l = dec(theta), -dec(u).ln(), -dec(w).ln()
        lo, hi = (big_l * x / (x + t - 1)).ln(), big_l.ln()
        for _ in range(130):
            mid = (lo + hi) / 2
            if mid.exp() + (t - 1) * ln1p(mid.exp() / x) < big_l:
                lo = mid
            else:
                hi = mid
        r = ((lo + hi) / 2).exp() / x
        a = t * ln1p(r)
        one_minus = a - a * a / 2 + a * a * a / 6 if a < dec("1e-12") else 1 - (-a).exp()
        return float(x * (1 + r) * (one_minus.ln() / t).exp())


class TestModelValidation:
    def test_domains(self):
        with pytest.raises(ConfigError):
            CopulaModel("clayton", 0.0)
        with pytest.raises(ConfigError):
            CopulaModel("clayton", -1.0)
        with pytest.raises(ConfigError):
            CopulaModel("frank", 0.0)
        with pytest.raises(ConfigError):
            CopulaModel("frank", 400.0)
        with pytest.raises(ConfigError):
            CopulaModel("gumbel", 0.9)
        with pytest.raises(ConfigError):
            CopulaModel("independence", 1.0)
        with pytest.raises(ConfigError):
            CopulaModel("gaussian", 0.5)
        with pytest.raises(ConfigError):
            CopulaModel("frank", float("nan"))

    def test_family_normalized(self):
        assert CopulaModel("Clayton", 2.0).family == "clayton"

    def test_labels_name_one_model_each(self):
        # Six digits where they read back as theta, the full repr otherwise.
        assert CopulaModel("gumbel", 1.0).label() == "gumbel theta=1"
        assert CopulaModel("gumbel", 1.000000001).label() == "gumbel theta=1.000000001"
        assert CopulaModel("clayton", 2.0).label() == "clayton theta=2"
        assert CopulaModel("frank", 5.0).label() == "frank theta=5"
        assert CopulaModel("gumbel", 1.69).label() == "gumbel theta=1.69"
        assert CopulaModel("independence").label() == "independence"


# The four family functions and the names of their two arguments.
FAMILY_FUNCTIONS = [
    (cdf, "u", "v"),
    (density, "u", "v"),
    (conditional_cdf, "v", "given_u"),
    (inverse_conditional, "w", "given_u"),
]


@pytest.mark.parametrize("function, first, second", FAMILY_FUNCTIONS, ids=lambda x: getattr(x, "__name__", x))
class TestArguments:
    """The argument path the four family functions share, for each family."""

    def test_scalar_in_float_out_and_shape_kept(self, function, first, second):
        for model in MODELS:
            assert type(function(model, 0.3, 0.4)) is float
            assert function(model, np.full((2, 3), 0.3), 0.4).shape == (2, 3)

    def test_a_bad_argument_is_named_first_one_first(self, function, first, second):
        for model in MODELS:
            with pytest.raises(ConfigError, match=f"^{first} must lie"):
                function(model, np.nan, 0.4)
            with pytest.raises(ConfigError, match=f"^{second} must lie"):
                function(model, 0.3, np.nan)
            with pytest.raises(ConfigError, match=f"^{first} must lie"):
                function(model, 1.5, np.nan)


class TestCdf:
    @pytest.mark.parametrize("theta,rows", CLAYTON_TABLE.items())
    def test_clayton_table(self, theta, rows):
        m = CopulaModel("clayton", theta)
        for u, v, want in rows:
            assert cdf(m, u, v) == pytest.approx(want, abs=1e-3)

    @pytest.mark.parametrize("theta,rows", FRANK_TABLE.items())
    def test_frank_table(self, theta, rows):
        m = CopulaModel("frank", theta)
        for u, v, want in rows:
            assert cdf(m, u, v) == pytest.approx(want, abs=1e-3)

    def test_frank_matches_mpmath_cdf_table(self):
        # -log(1 + q) / theta with 1 + q always taken from its regrouped form
        # (e^{-theta v} expm1(-theta u) + e^{-theta u} expm1(-theta (1 - u))) / d,
        # d = expm1(-theta), was off by up to 8e18 relative on the |theta| <= 30
        # rows and negative at theta = -30, -1, +-1e-8 and 5.  For theta < 0 the
        # rounding of theta * u is amplified about |theta| times: 1.4e-14 at -200
        # and 2.8e-14 at -350 were measured.
        theta, u, v, ref = np.array(FRANK_CDF_TABLE).T
        got = np.array([cdf(CopulaModel("frank", t), a, b) for t, a, b in zip(theta, u, v)])
        bound = np.where(np.abs(theta) <= 30.0, 4e-15, 1.5e-16 * np.abs(theta))
        assert (np.abs(got - ref) / ref <= bound).all()

    def test_clayton_matches_mpmath_table(self):
        # C = lo exp(-log1p(g)/theta) carries the exponent's relative rounding
        # times |log C|, so the bound is per unit of 1 + |log C|; the worst row
        # reads 0.52.  u^-theta + v^-theta - 1 summed as written was off by
        # 4.2e7 ulps per unit (2e-8 relative) at theta = 1e-8, and a two-regime
        # log-sum by 422 ulps (0.90 per unit) at theta = 1e-4, u = 1e-300, v = 0.5.
        _, _, _, ref, ulps = clayton_table_ulps(cdf, 3)
        assert (ulps <= 1.0 + np.abs(np.log(ref))).all()

    def test_gumbel_near_the_diagonal_matches_decimal(self):
        # e^-s at 40 digits, s = m (1 + r^theta)^(1/theta) with m = max(x, y) and
        # r = min(x, y)/m, at the table's points whose C is a normal double
        # (188 of 195).  The worst row reads 0.54 ulps per unit of 1 + |log C|;
        # exp(-big (1 + r^theta)^(1/theta)) read 0.71 (433 ulps at worst).
        theta, u, v = np.array(GUMBEL_NEAR_DIAGONAL_TABLE)[:, :3].T
        got = np.array([cdf(CopulaModel("gumbel", t), a, b) for t, a, b in zip(theta, u, v)])
        dec = decimal.Decimal
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            ref = []
            for t, a, b in zip(theta, u, v):
                t, x, y = dec(t), -dec(a).ln(), -dec(b).ln()
                m = max(x, y)
                ref.append(float((-m * ((1 + (t * (min(x, y) / m).ln()).exp()).ln() / t).exp()).exp()))
        ref = np.array(ref)
        normal = ref >= np.finfo(float).tiny
        assert normal.sum() == 188
        ulps = np.abs(got - ref)[normal] / ref[normal] / np.finfo(float).eps
        assert (ulps <= 1.0 + np.abs(np.log(ref[normal]))).all()

    def test_frank_never_negative(self):
        edges = np.array([0.0, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6, 1 - 1e-12, 1.0])
        uu, vv = np.meshgrid(edges, edges)
        magnitudes = np.geomspace(1e-10, families.FRANK_THETA_MAX, 40)
        for theta in np.concatenate([magnitudes, -magnitudes]):
            assert (cdf(CopulaModel("frank", theta), uu, vv) >= 0.0).all()

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.label())
    def test_boundary_identities(self, model):
        for t in (0.0, 0.25, 0.7, 1.0):
            assert cdf(model, t, 1.0) == t
            assert cdf(model, 1.0, t) == t
            assert cdf(model, t, 0.0) == 0.0
            assert cdf(model, 0.0, t) == 0.0
        # A negative zero on a lower edge still gives +0.0.
        for a, b in ((-0.0, 0.5), (0.5, -0.0)):
            assert cdf(model, a, b) == 0.0 and not np.signbit(cdf(model, a, b))

    def test_rejects_outside_unit_square(self):
        with pytest.raises(ConfigError):
            cdf(CopulaModel("clayton", 2.0), 1.2, 0.5)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.label())
    def test_frechet_bounds_random(self, model):
        rng = np.random.default_rng(123)
        u = rng.random(1000)
        v = rng.random(1000)
        c = cdf(model, u, v)
        assert (c >= np.maximum(u + v - 1.0, 0.0) - 1e-12).all()
        assert (c <= np.minimum(u, v) + 1e-12).all()

    @pytest.mark.parametrize(
        "model",
        MODELS + [CopulaModel("clayton", t) for t in (1e-8, 1e5)]
        + [CopulaModel("frank", t) for t in (-350.0, -30.0, -1e-8, 1e-8, 1.0, 200.0, 350.0)]
        + [CopulaModel("gumbel", t) for t in (1.0 + 1e-9, 1e6)],
        ids=lambda m: m.label(),
    )
    def test_frechet_bounds_sweep(self, model):
        # No tolerance: 12 edge values plus 60 uniform ones per axis.  The
        # bounds are taken as computed; where rounding puts u + v - 1 above
        # min(u, v) (at 32 of these points), min(u, v) is the lower bound too.
        edges = [0.0, 5e-324, 1e-300, 1e-12, 1e-6, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-6, 1 - 1e-12, np.nextafter(1.0, 0.0), 1.0]
        axis = np.concatenate([edges, np.random.default_rng(0).random(60)])
        u, v = (a.ravel() for a in np.meshgrid(axis, axis))
        c = cdf(model, u, v)
        hi = np.minimum(u, v)
        assert (c <= hi).all()
        assert (c >= np.minimum(np.maximum(u + v - 1.0, 0.0), hi)).all()

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.label())
    def test_two_increasing(self, model):
        rng = np.random.default_rng(99)
        a = rng.random((500, 2))
        b = rng.random((500, 2))
        u1, u2 = np.minimum(a[:, 0], b[:, 0]), np.maximum(a[:, 0], b[:, 0])
        v1, v2 = np.minimum(a[:, 1], b[:, 1]), np.maximum(a[:, 1], b[:, 1])
        mass = cdf(model, u2, v2) - cdf(model, u2, v1) - cdf(model, u1, v2) + cdf(model, u1, v1)
        assert (mass >= -1e-12).all()

    def test_clayton_large_theta_on_the_diagonal(self):
        # C(u, u) = (2 u^-theta - 1)^(-1/theta) = u 2^(-1/theta) to double precision.
        assert cdf(CopulaModel("clayton", 1000.0), 0.1, 0.1) == pytest.approx(0.1 * 2.0**-0.001, rel=1e-15)

    @pytest.mark.parametrize("theta", [2.0, 100.0, 300.0, 1000.0])
    def test_clayton_where_a_power_overflows(self, theta):
        u, v = clayton_points(theta)
        got = cdf(CopulaModel("clayton", theta), u, v)
        with np.errstate(over="ignore"):
            assert theta == 2.0 or np.isinf(np.exp(-theta * np.log(np.minimum(u, v)))).any()
        # C = (u^-theta + v^-theta - 1)^(-1/theta), at 40 digits, overflowing powers or not.
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            t = decimal.Decimal(theta)
            for ui, vi, ci in zip(u, v, got):
                lu, lv = decimal.Decimal(ui).ln(), decimal.Decimal(vi).ln()
                want = (-((-t * lu).exp() + (-t * lv).exp() - 1).ln() / t).exp()
                assert ci == pytest.approx(float(want), rel=1e-14)

    def test_small_theta_limits_are_independence(self):
        u = np.linspace(0.05, 0.95, 13)
        v = np.linspace(0.95, 0.05, 13)
        for family in ("frank", "clayton"):
            m = CopulaModel(family, 1e-6)
            assert np.abs(cdf(m, u, v) - u * v).max() <= 1e-6

    def test_extreme_frank_within_bounds(self):
        for theta in (345.0, -345.0):
            m = CopulaModel("frank", theta)
            rng = np.random.default_rng(4)
            u = rng.random(200)
            v = rng.random(200)
            c = cdf(m, u, v)
            assert np.isfinite(c).all()
            assert (c >= np.maximum(u + v - 1.0, 0.0) - 1e-9).all()
            assert (c <= np.minimum(u, v) + 1e-9).all()


class TestDensity:
    def test_independence_is_one(self):
        m = CopulaModel("independence")
        assert density(m, 0.3, 0.9) == 1.0

    @pytest.mark.parametrize(
        "model,u,v",
        [
            (CopulaModel("clayton", 2.0), 0.5, 0.5),
            (CopulaModel("frank", 5.0), 0.3, 0.8),
            (CopulaModel("frank", -2.0), 0.25, 0.7),
            (CopulaModel("gumbel", 1.69), 0.4, 0.6),
            (CopulaModel("clayton", 6.0), 0.85, 0.2),
            (CopulaModel("gumbel", 4.0), 0.7, 0.72),
        ],
        ids=lambda x: str(x) if not isinstance(x, CopulaModel) else x.label(),
    )
    def test_matches_finite_difference(self, model, u, v):
        e = 1e-4
        fd = (
            cdf(model, u + e, v + e)
            - cdf(model, u + e, v - e)
            - cdf(model, u - e, v + e)
            + cdf(model, u - e, v - e)
        ) / (4 * e * e)
        assert density(model, u, v) == pytest.approx(fd, rel=1e-5)

    def test_rejects_boundary(self):
        with pytest.raises(ConfigError):
            density(CopulaModel("clayton", 2.0), 0.0, 0.5)
        with pytest.raises(ConfigError):
            density(CopulaModel("clayton", 2.0), 0.5, 1.0)

    @pytest.mark.parametrize(
        "model",
        [
            CopulaModel("clayton", 0.5),
            CopulaModel("clayton", 2.0),
            CopulaModel("frank", -3.0),
            CopulaModel("frank", 8.0),
            CopulaModel("gumbel", 1.3),
            CopulaModel("gumbel", 2.0),
        ],
        ids=lambda m: m.label(),
    )
    def test_integrates_to_one(self, model):
        # Midpoint tensor rule; corners are avoided so diverging densities
        # stay integrable numerically.
        k = 1200
        mid = (np.arange(k) + 0.5) / k
        uu, vv = np.meshgrid(mid, mid, indexing="ij")
        total = density(model, uu, vv).mean()
        assert total == pytest.approx(1.0, abs=1e-3)


    def test_frank_matches_mpmath_table(self):
        # log(1 - e^-|theta|) as log1p(-e^-|theta|) was off by 1.6e-11 relative
        # at theta = 1e-6 and by 8.3e-8 at 1e-10.
        theta, u, v, ref = np.array(FRANK_DENSITY_TABLE).T
        got = np.array([density(CopulaModel("frank", t), a, b) for t, a, b in zip(theta, u, v)])
        assert np.max(np.abs(got - ref) / ref) <= 1e-14

    def test_clayton_matches_mpmath_table(self):
        # log c = log1p(theta) - log hi + theta log(lo/hi) - (2 + 1/theta) log1p(g),
        # so the bound is per unit of S' = 1 + |log hi| + theta |log(lo/hi)|
        # + (2 + 1/theta) log1p(g), the size of those terms (worst row 2.08).
        # A form in -(theta + 1)(log u + log v), whose terms of size
        # S = 1 + (theta + 1)(|log u| + |log v|) cancel near the diagonal, read
        # 1.6e5 per unit of S' (1.1e8 ulps at theta = 1e5, u = v = 1e-300); it
        # stays held to 4 S as well.  The first log-sum, which cancelled near
        # theta = 0, was off by 6e7 ulps per unit of S at theta = 1e-8.
        theta, u, v, _, ulps = clayton_table_ulps(density, 4)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        g = (lo / hi) ** theta * (1.0 - hi**theta)
        size = 1.0 + np.abs(np.log(hi)) + theta * np.abs(np.log(lo / hi)) + (2.0 + 1.0 / theta) * np.log1p(g)
        assert (ulps <= 4.0 * size).all()
        assert (ulps <= 4.0 * (1.0 + (theta + 1.0) * (np.abs(np.log(u)) + np.abs(np.log(v))))).all()

    def test_gumbel_near_the_diagonal_matches_mpmath_table(self):
        # theta from 1 + 1e-9 to 1e6; the bound does not grow with theta (a form
        # in log x + log y - 2 log s reaches 6.3e5 at theta = 1e6).
        assert gumbel_table_error(density, 4).max() <= 4.0


class TestConditional:
    def test_independence(self):
        assert conditional_cdf(CopulaModel("independence"), 0.3, 0.9) == 0.3

    def test_clayton_hand_value(self):
        got = conditional_cdf(CopulaModel("clayton", 2.0), 0.5, 0.5)
        assert got == pytest.approx(8.0 * 7.0**-1.5, abs=1e-14)

    def test_endpoints(self):
        for model in MODELS:
            assert conditional_cdf(model, 0.0, 0.4) == 0.0
            assert conditional_cdf(model, 1.0, 0.4) == 1.0

    def test_rejects_boundary_condition(self):
        with pytest.raises(ConfigError):
            conditional_cdf(CopulaModel("clayton", 2.0), 0.5, 0.0)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.label())
    def test_matches_finite_difference(self, model):
        rng = np.random.default_rng(8)
        for _ in range(20):
            u = rng.uniform(0.05, 0.95)
            v = rng.uniform(0.05, 0.95)
            e = 1e-6
            fd = (cdf(model, u + e, v) - cdf(model, u - e, v)) / (2 * e)
            assert conditional_cdf(model, v, u) == pytest.approx(fd, abs=1e-5)

    def test_clayton_large_theta_on_the_diagonal(self):
        # C_2(u | u) = (2 - u^theta)^(-(theta+1)/theta) = 2^(-1.001) to double
        # precision; u^theta underflows and u^-theta overflows, so the plain form is 0 * inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = conditional_cdf(CopulaModel("clayton", 1000.0), 0.1, 0.1)
        assert got == pytest.approx(2.0**-1.001, rel=1e-15)

    @pytest.mark.parametrize("theta", [2.0, 100.0, 300.0, 1000.0])
    def test_clayton_where_the_grown_term_is_not_finite(self, theta):
        u, v = clayton_points(theta)
        got = conditional_cdf(CopulaModel("clayton", theta), v, u)
        # The plain form, bit for bit wherever (u/v)^theta (1 - v^theta) is finite.
        with np.errstate(over="ignore"):
            grow = np.exp(theta * np.log(u / v)) * -np.expm1(theta * np.log(v))
        finite = np.isfinite(grow)
        plain = np.exp(-(theta + 1.0) / theta * np.log1p(grow[finite]))
        assert np.array_equal(got[finite], plain)
        assert theta == 2.0 or not finite.all()
        # Elsewhere (1 + u^theta (v^-theta - 1))^(-(theta+1)/theta), at 40 digits.  Both
        # forms round theta log u and theta log v, so the bound is that many ulps.
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            t = decimal.Decimal(theta)
            for ui, vi, ci in zip(u[~finite], v[~finite], got[~finite]):
                lu, lv = decimal.Decimal(ui).ln(), decimal.Decimal(vi).ln()
                g = (t * lu).exp() * ((-t * lv).exp() - 1)
                want = float((-(t + 1) / t * (1 + g).ln()).exp())
                ulps = theta * (abs(float(lu)) + abs(float(lv)))
                assert ci == pytest.approx(want, rel=ulps * np.finfo(float).eps + 4e-15, abs=0.0)

    @pytest.mark.parametrize("theta", [2.0, 100.0, 1000.0])
    def test_clayton_near_the_diagonal_within_theta_ulps(self, theta):
        # (u/v)^theta rounds u/v once, so the error is about theta ulps; the
        # difference of the rounded theta log u and theta log v errs by about
        # 16 theta ulps here.
        rng = np.random.default_rng(5)
        u = 10.0 ** -rng.uniform(0, 12, 400)
        v = np.minimum(u * np.exp(rng.normal(0.0, 1.0, 400) / theta), np.nextafter(1.0, 0.0))
        got = conditional_cdf(CopulaModel("clayton", theta), v, u)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            t = decimal.Decimal(theta)
            for ui, vi, ci in zip(u, v, got):
                lu, lv = decimal.Decimal(ui).ln(), decimal.Decimal(vi).ln()
                g = (t * lu).exp() * ((-t * lv).exp() - 1)
                want = float((-(t + 1) / t * (1 + g).ln()).exp())
                assert ci == pytest.approx(want, rel=(theta + 4.0) * np.finfo(float).eps, abs=0.0)

    def test_gumbel_near_the_diagonal_matches_mpmath_table(self):
        # theta from 1 + 1e-9 to 1e6; the bound does not grow with theta (a form
        # in log s and log x reaches 1.7e5 at theta = 1e6).
        assert gumbel_table_error(lambda model, u, v: conditional_cdf(model, v, u), 3).max() <= 4.0

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.label())
    def test_nondecreasing_in_v(self, model):
        v = np.linspace(0.0, 1.0, 401)
        out = conditional_cdf(model, v, 0.37)
        assert (np.diff(out) >= -1e-12).all()


class TestInverseConditional:
    def test_independence(self):
        assert inverse_conditional(CopulaModel("independence"), 0.3, 0.77) == 0.3

    def test_clayton_hand_inverse(self):
        got = inverse_conditional(CopulaModel("clayton", 2.0), 8.0 * 7.0**-1.5, 0.5)
        assert got == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.label())
    def test_roundtrip(self, model):
        rng = np.random.default_rng(21)
        v = rng.uniform(0.02, 0.98, 100)
        u = rng.uniform(0.02, 0.98, 100)
        w = np.clip(conditional_cdf(model, v, u), 1e-12, 1 - 1e-12)
        back = inverse_conditional(model, w, u)
        assert np.abs(back - v).max() <= 1e-8

    @pytest.mark.parametrize("theta", [2.0, 100.0, 300.0, 1000.0])
    def test_clayton_where_the_grown_term_overflows(self, theta):
        rng = np.random.default_rng(3)
        u = np.concatenate([rng.random(600), 10.0 ** -rng.uniform(0, 15, 600)])
        w = np.concatenate([rng.uniform(1e-12, 1.0, 900), 1.0 - 10.0 ** -rng.uniform(1, 15, 300)])
        got = inverse_conditional(CopulaModel("clayton", theta), w, u)
        # The plain form, kept bit for bit wherever its grown term is finite.
        with np.errstate(over="ignore"):
            grow = np.exp(-theta * np.log(u)) * np.expm1(-theta / (1.0 + theta) * np.log(w))
        finite = np.isfinite(grow)
        plain = np.exp(-np.log1p(grow[finite]) / theta)
        assert np.array_equal(got[finite], np.clip(plain, 0.0, 1.0))
        assert theta == 2.0 or not finite.all()
        # Elsewhere v = (1 + u^-theta (w^(-theta/(1+theta)) - 1))^(-1/theta), at 40 digits.
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            t = decimal.Decimal(theta)
            for ui, wi, vi in zip(u[~finite], w[~finite], got[~finite]):
                lu, lw = decimal.Decimal(ui).ln(), decimal.Decimal(wi).ln()
                g = (-t * lu).exp() * ((-t / (1 + t) * lw).exp() - 1)
                assert vi == pytest.approx(float((-(1 + g).ln() / t).exp()), rel=4e-15)

    def test_rejects_boundary_inputs(self):
        with pytest.raises(ConfigError):
            inverse_conditional(CopulaModel("frank", 5.0), 0.0, 0.5)
        with pytest.raises(ConfigError):
            inverse_conditional(CopulaModel("frank", 5.0), 0.5, 1.0)

    def test_solver_reports_nonconvergence(self):
        # Two Newton steps are too few for the last two rows.  The message names
        # the family, theta and the first unconverged row with its last iterate
        # and residual, in full precision, so the failure can be re-run from it.
        u = np.array([0.9, 1.0 - 3e-6, 0.5])
        w = np.array([1.0 - 1e-16, 1e-16, 0.5])
        with pytest.raises(NumericalError) as info:
            _gumbel_inverse(1.69, w, u, max_steps=2)
        msg = str(info.value)
        assert "gumbel" in msg and "theta=1.69" in msg and "2 of 3 points" in msg
        pattern = r"u=(\S+), w=(\S+), d=(\S+), g\(d\)=(\S+)$"
        got_u, got_w, got_d, got_g = re.search(pattern, msg).groups()
        assert (float(got_u), float(got_w)) == (u[1], w[1])
        x, big_l, d = -np.log(u[1]), -np.log(w[1]), float(got_d)
        assert float(got_g) == pytest.approx(d + 0.69 * np.log1p(d / x) - big_l, rel=1e-12)
        with pytest.raises(NumericalError) as again:
            _gumbel_inverse(1.69, np.array([float(got_w)]), np.array([float(got_u)]), max_steps=2)
        assert re.search(pattern, str(again.value)).groups() == (got_u, got_w, got_d, got_g)

    def test_gumbel_solve_evaluates_no_cdf(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the Gumbel solve evaluated the copula")

        monkeypatch.setattr(families, "conditional_cdf", forbidden)
        monkeypatch.setattr(families, "density", forbidden)
        v = inverse_conditional(CopulaModel("gumbel", 1.69), np.full(5, 0.3), np.linspace(0.1, 0.9, 5))
        assert ((v > 0.0) & (v < 1.0)).all()

    @pytest.mark.parametrize("u", [1.0 - 3e-6, 1.0 - 1e-16])
    def test_gumbel_unit_rows(self, u):
        # Near u = 1 one ulp of v can move C_2 by more than 1e-12, so no fixed
        # tolerance in w can be met there.
        w = np.array([1e-300, 1e-16, 1e-8, 0.3, 0.7, 1.0 - 1e-8, 1.0 - 1e-16])
        # theta = 1 is independence: v = w, with the rounding of y = -log w
        # (a few ulps of y, so up to y ulps of v).
        v = inverse_conditional(CopulaModel("gumbel", 1.0), w, u)
        assert (np.abs(v - w) <= 4.0 * np.finfo(float).eps * np.maximum(1.0, -np.log(w)) * w).all()
        for theta in (1.69, 5.0, 20.0, 100.0):
            model = CopulaModel("gumbel", theta)
            v = inverse_conditional(model, w, u)
            assert_solves_gumbel(model, v, np.full_like(w, u), w)

    @pytest.mark.parametrize("theta", [1.0, 1.0001, 1.69, 5.0, 100.0, 1e6])
    def test_gumbel_matches_decimal_solution(self, theta):
        rng = np.random.default_rng(17)
        edge = np.array([1e-300, 1e-16, 1e-8, 0.5, 1.0 - 3e-6, 1.0 - 1e-16])
        u = np.concatenate([np.repeat(edge, 3), rng.random(12)])
        w = np.concatenate([np.tile([1e-16, 0.3, 1.0 - 1e-16], 6), rng.random(12)])
        got = inverse_conditional(CopulaModel("gumbel", theta), w, u)
        for ui, wi, vi in zip(u, w, got):
            y = gumbel_y_at_40_digits(theta, ui, wi)
            # v = exp(-y): a relative error of a few eps in y is y times that in v.
            rel = 16.0 * np.finfo(float).eps * max(1.0, y)
            assert vi == pytest.approx(np.exp(-y), rel=rel, abs=1e-300)

    @given(
        theta=st.floats(1.0, 1e6),
        u=st.floats(5e-324, 1.0, exclude_max=True),
        w=st.floats(5e-324, 1.0, exclude_max=True),
    )
    @settings(max_examples=400, deadline=None)
    def test_gumbel_solves_or_sits_on_the_sign_change(self, theta, u, w):
        model = CopulaModel("gumbel", theta)
        u, w = np.array([u]), np.array([w])
        assert_solves_gumbel(model, inverse_conditional(model, w, u), u, w)

    @pytest.mark.parametrize("theta", [1.0 + 1e-15, 1e10, 1e100, 1e300, 1.7e308])
    def test_gumbel_converges_at_any_accepted_theta(self, theta):
        edge = np.array([5e-324, 1e-300, 1e-16, 0.5, 1.0 - 3e-6, np.nextafter(1.0, 0.0)])
        u, w = (a.ravel() for a in np.meshgrid(edge, edge))
        v = inverse_conditional(CopulaModel("gumbel", theta), w, u)
        assert ((v >= 0.0) & (v <= 1.0)).all()


# The worst error in ulps of Frank's inverse_conditional at (w = v, u) and of
# its cdf, density and conditional_cdf (of v given u) at (u, v), over 200 pairs
# in [1e-3, 1 - 1e-3], against mpmath.  The former inverse -log(num/den)/theta
# read 108 ulps at theta = -2, 9.6e13 at 1e-12, 9e15 (every draw 1 or -0.0)
# from 1e-17 and 55 at -350; the former cdf 2243 at 1e-154, 0 from about 1e-200
# and 184 at -350.  The density and conditional_cdf, with theta u and theta v
# rounded, read 1532 and 434 ulps at -350, 1140 and 259 at 350, 254 and 59 at
# -50 and 103 and 3 at 1e-12.  Their pins also hold on the edge lattice of
# test_density_and_conditional_cdf_at_the_edges, which sets -350's density pin.
FRANK_WORST_ULPS = {
    1e-300: (1, 2, 0, 1), -1e-300: (1, 2, 0, 1), 1e-17: (1, 2, 0, 1), -1e-17: (1, 2, 0, 1),
    1e-12: (3, 3, 2, 2), -1e-12: (3, 3, 4, 3), 1e-8: (3, 3, 2, 3), -1e-8: (3, 3, 3, 3),
    1e-3: (3, 4, 2, 3), -1e-3: (3, 2, 4, 3), 2.0: (2, 2, 4, 3), -2.0: (2, 2, 4, 2), 5.0: (2, 2, 5, 4),
    18.0: (3, 2, 5, 3), 50.0: (1, 2, 4, 3), -50.0: (2, 2, 4, 3), 350.0: (1, 1, 3, 2), -350.0: (1, 4, 4, 2),
}


def frank_worst_ulps(theta, u, v):
    """The worst ulps of the four functions of FRANK_WORST_ULPS at these points,
    in its order, each checked to be free of -0.0."""
    mp = pytest.importorskip("mpmath")
    model = CopulaModel("frank", theta)
    refs = ([], [], [], [])
    # 60 digits plus |theta|, so that 1 + q is resolved where it is near
    # e^-|theta|; expm1 and log1p keep q's digits at tiny |theta|.
    with mp.workdps(60 + int(abs(theta))):
        t = mp.mpf(theta)
        d = mp.expm1(-t)
        for a, b in zip(map(mp.mpf, u), map(mp.mpf, v)):
            ea, eb = mp.expm1(-t * a), mp.expm1(-t * b)
            refs[0].append(-mp.log1p(b * d / (b + (1 - b) * mp.exp(-t * a))) / t)
            refs[1].append(-mp.log1p(ea * eb / d) / t)
            refs[2].append(-t * d * mp.exp(-t * (a + b)) / (d + ea * eb) ** 2)
            refs[3].append(mp.exp(-t * a) * eb / (d + ea * eb))
    gots = (inverse_conditional(model, v, u), cdf(model, u, v), density(model, u, v), conditional_cdf(model, v, u))
    worst = []
    for got, ref in zip(gots, refs):
        ref = np.array([float(r) for r in ref])
        assert not np.signbit(got).any()
        worst.append(np.max(np.abs(got - ref) / np.spacing(ref)))
    return worst


class TestFrankAccuracy:
    @pytest.mark.parametrize("theta", FRANK_WORST_ULPS, ids=repr)
    def test_inverse_and_cdf_match_mpmath(self, theta):
        w, u = np.random.default_rng(0).uniform(1e-3, 1.0 - 1e-3, (2, 200))
        worst = frank_worst_ulps(theta, u, w)[:2]
        assert all(np.less_equal(worst, FRANK_WORST_ULPS[theta][:2])), worst

    @pytest.mark.parametrize("theta", FRANK_WORST_ULPS, ids=repr)
    def test_density_and_conditional_cdf_match_mpmath(self, theta):
        w, u = np.random.default_rng(0).uniform(1e-3, 1.0 - 1e-3, (2, 200))
        worst = frank_worst_ulps(theta, u, w)[2:]
        assert all(np.less_equal(worst, FRANK_WORST_ULPS[theta][2:])), worst

    @pytest.mark.parametrize("theta", [350.0, -350.0, 50.0, -50.0], ids=repr)
    def test_density_and_conditional_cdf_at_the_edges(self, theta):
        # Here e^{-theta (u + v)} or (1 + q)^2 would leave the double range if
        # formed before dividing.
        edge = np.array([1e-12, 0.5, 1.0 - 1e-12])
        u, v = (a.ravel() for a in np.meshgrid(edge, edge))
        model = CopulaModel("frank", theta)
        dens, cond = density(model, u, v), conditional_cdf(model, v, u)
        assert (np.isfinite(dens) & (dens > 0.0)).all()
        assert ((cond >= 0.0) & (cond <= 1.0)).all()
        worst = frank_worst_ulps(theta, u, v)[2:]
        assert all(np.less_equal(worst, FRANK_WORST_ULPS[theta][2:])), worst

    @pytest.mark.parametrize("theta", [1e-300, -1e-300], ids=repr)
    def test_inverse_within_its_subnormal_bound(self, theta):
        # w |theta| = 1e-316 is subnormal, so q keeps about 7 digits: the
        # docstring's bound 2^-1074 / (w |theta|) is 4.9e-8 here; 1.6e-8 is read.
        mp = pytest.importorskip("mpmath")
        w, u = 1e-16, 0.5
        got = inverse_conditional(CopulaModel("frank", theta), w, u)
        with mp.workdps(60):
            t, a, b = mp.mpf(theta), mp.mpf(w), mp.mpf(u)
            ref = float(-mp.log1p(a * mp.expm1(-t) / (a + (1 - a) * mp.exp(-t * b))) / t)
        assert abs(got - ref) / ref <= np.finfo(float).smallest_subnormal / (w * abs(theta))

    def test_subnormal_theta_refused(self):
        # Below the smallest normal double both functions lose 4-5 digits.
        for theta in (1e-310, -1e-310, 5e-324):
            with pytest.raises(ConfigError, match="frank parameter magnitude must be at least"):
                CopulaModel("frank", theta)
        assert CopulaModel("frank", -families.FRANK_THETA_MIN).theta == -2.2250738585072014e-308


class TestTauMaps:
    def test_clayton_tau(self):
        assert tau_from_theta(CopulaModel("clayton", 2.0)) == 0.5

    def test_gumbel_independence_member(self):
        assert tau_from_theta(CopulaModel("gumbel", 1.0)) == 0.0

    def test_independence_tau(self):
        assert tau_from_theta(CopulaModel("independence")) == 0.0

    def test_frank_tau_against_simpson_oracle(self):
        theta = 4.33
        oracle_tau = 1.0 - 4.0 / theta * (1.0 - simpson_debye1(theta))
        got = tau_from_theta(CopulaModel("frank", theta))
        assert got == pytest.approx(oracle_tau, abs=1e-9)
        # value frozen from the oracle; ~0.412, not far above the 0.408 target
        assert got == pytest.approx(0.41208897204, abs=1e-9)

    def test_frank_tau_matches_mpmath_table(self):
        # theta from 1e-6 to 350, both signs, through the series/closed-form switch at 2
        theta, ref = np.array(FRANK_TAU_TABLE).T
        got = np.array([tau_from_theta(CopulaModel("frank", t)) for t in theta])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 2e-15

    def test_frank_inversion_recovers_theta(self):
        for theta in np.logspace(-6.0, np.log10(349.0), 50):
            for t in (theta, -theta):
                back = theta_from_tau("frank", tau_from_theta(CopulaModel("frank", t)))
                assert back == pytest.approx(t, rel=1e-13, abs=0.0)
        # the bisection never returns a theta below the smallest normal double,
        # which no Frank model accepts
        assert CopulaModel("frank", theta_from_tau("frank", 5e-324)).theta > 0.0

    def test_frank_tau_odd(self):
        assert tau_from_theta(CopulaModel("frank", -5.0)) == pytest.approx(
            -tau_from_theta(CopulaModel("frank", 5.0)), abs=1e-12
        )

    def test_inversions_table(self):
        assert theta_from_tau("clayton", 0.408) == pytest.approx(1.38, abs=0.01)
        assert theta_from_tau("gumbel", 0.408) == pytest.approx(1.69, abs=0.01)

    def test_frank_inversion_roundtrip(self):
        theta = theta_from_tau("frank", 0.408)
        assert tau_from_theta(CopulaModel("frank", theta)) == pytest.approx(0.408, abs=1e-6)
        assert 4.0 < theta < 4.6

    def test_range_rejections(self):
        with pytest.raises(ConfigError):
            theta_from_tau("clayton", 0.0)
        # gumbel reaches tau = 0 at theta = 1, the independence copula
        assert theta_from_tau("gumbel", 0.0) == 1.0
        for family in ("clayton", "gumbel"):
            with pytest.raises(ConfigError):
                theta_from_tau(family, 1.0)
            with pytest.raises(ConfigError):
                theta_from_tau(family, -0.3)
        with pytest.raises(ConfigError):
            theta_from_tau("frank", 0.0)
        cap_tau = tau_from_theta(CopulaModel("frank", families.FRANK_THETA_MAX))
        with pytest.raises(ConfigError):
            theta_from_tau("frank", cap_tau + 0.001)
        assert theta_from_tau("independence", 0.0) == 0.0
        with pytest.raises(ConfigError, match="independence copula has tau = 0 only"):
            theta_from_tau("independence", 0.1)
        with pytest.raises(ConfigError, match="unknown copula family 'gauss'"):
            theta_from_tau("Gauss", 0.3)

    @given(tau=st.floats(0.01, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_identity_positive(self, tau):
        for family in ("clayton", "gumbel", "frank"):
            theta = theta_from_tau(family, tau)
            assert tau_from_theta(CopulaModel(family, theta)) == pytest.approx(tau, abs=1e-8)

    @given(tau=st.floats(-0.95, -0.01))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_identity_negative_frank(self, tau):
        theta = theta_from_tau("frank", tau)
        assert theta < 0
        assert tau_from_theta(CopulaModel("frank", theta)) == pytest.approx(tau, abs=1e-8)


class TestDebye:
    def test_zero_limit(self):
        assert debye1(0.0) == 1.0
        assert debye1(1e-10) == pytest.approx(1.0, abs=1e-9)

    def test_unit_value_frozen_from_simpson(self):
        oracle = simpson_debye1(1.0)
        assert debye1(1.0) == pytest.approx(oracle, abs=1e-10)
        assert debye1(1.0) == pytest.approx(0.77750463411, abs=1e-10)

    def test_large_argument_asymptote(self):
        assert debye1(50.0) == pytest.approx(np.pi**2 / (6 * 50.0), rel=0.01)

    def test_negative_reflection(self):
        x = 2.0
        assert debye1(-x) == pytest.approx(debye1(x) + x / 2.0, abs=1e-12)

    def test_matches_mpmath_table(self):
        # x from 1e-6 to 1e6 and negative x; the old quadrature returned
        # 2.2e-48 at x = 1e5, missing the integrand's mass near 0
        x, ref = np.array(DEBYE1_TABLE).T
        got = np.array([debye1(v) for v in x])
        assert np.max(np.abs(got - ref) / ref) <= 2e-15

    def test_limits(self):
        assert debye1(np.inf) == 0.0
        assert debye1(-np.inf) == np.inf
        assert np.isnan(debye1(np.nan))
