"""Parametric bivariate copula families: Clayton, Frank, Gumbel, Independence.

Provides the CDF, the density (mixed second partial), the conditional CDF
given the first coordinate, its inverse, and the Kendall-tau <-> parameter
maps.  Frank quantities are evaluated through exp/expm1 groupings chosen so
that no catastrophic cancellation occurs anywhere on the supported parameter
range; Clayton and Gumbel work in log space where their powers would
overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import ConfigError, NumericalError

CLAYTON = "clayton"
FRANK = "frank"
GUMBEL = "gumbel"
INDEPENDENCE = "independence"
FAMILIES = (CLAYTON, FRANK, GUMBEL, INDEPENDENCE)

# Keeps exp(2*|theta|) finite in double precision with margin.
FRANK_THETA_MAX = 350.0


@dataclass(frozen=True)
class CopulaModel:
    """Family tag plus parameter; the parameter domain is checked on build."""

    family: str
    theta: float | None = None

    def __post_init__(self):
        family = str(self.family).lower()
        object.__setattr__(self, "family", family)
        if family not in FAMILIES:
            raise ConfigError(f"unknown copula family {self.family!r}; expected one of {FAMILIES}")
        if family == INDEPENDENCE:
            if self.theta is not None:
                raise ConfigError("independence copula takes no parameter")
            return
        if self.theta is None or not np.isfinite(self.theta):
            raise ConfigError(f"{family} copula needs a finite parameter, got {self.theta!r}")
        theta = float(self.theta)
        object.__setattr__(self, "theta", theta)
        if family == CLAYTON and not theta > 0.0:
            raise ConfigError(f"clayton parameter must be > 0, got {theta}")
        if family == FRANK:
            if theta == 0.0:
                raise ConfigError("frank parameter must be nonzero (theta -> 0 is independence)")
            if abs(theta) > FRANK_THETA_MAX:
                raise ConfigError(f"frank parameter magnitude capped at {FRANK_THETA_MAX}, got {theta}")
        if family == GUMBEL and not theta >= 1.0:
            raise ConfigError(f"gumbel parameter must be >= 1, got {theta}")

    def label(self) -> str:
        if self.family == INDEPENDENCE:
            return INDEPENDENCE
        return f"{self.family} theta={self.theta:g}"


def _check_range(arr, name, strict=False):
    bad = (arr < 0.0) | (arr > 1.0) | ~np.isfinite(arr)
    if strict:
        bad |= (arr == 0.0) | (arr == 1.0)
    if bad.any():
        kind = "strictly inside" if strict else "in"
        raise ConfigError(f"{name} must lie {kind} [0.0, 1.0]")


def _log_abs_expm1(z):
    """log|e^z - 1|, stable for any z."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.maximum(z, 0.0) + np.log1p(-np.exp(-np.abs(z)))
    return out


def _frank_denom(theta, u, v):
    """D + (e^{-theta u}-1)(e^{-theta v}-1) with D = e^{-theta} - 1.

    Regrouped as e^{-theta v} expm1(-theta u) + e^{-theta u} expm1(-theta (1-u));
    both terms share a sign, so the sum never cancels.
    """
    return np.exp(-theta * v) * np.expm1(-theta * u) + np.exp(-theta * u) * np.expm1(
        -theta * (1.0 - u)
    )


def _boundary_frame(u, v, interior_value):
    """Apply the uniform-margin boundary identities around interior values."""
    out = np.array(interior_value, dtype=float, copy=True)
    u1 = u >= 1.0
    v1 = v >= 1.0
    out[u1] = v[u1]
    out[v1] = u[v1]
    zero = (u <= 0.0) | (v <= 0.0)
    out[zero] = 0.0
    return out


def _clayton_cdf(theta, u, v):
    out = np.zeros_like(u)
    inner = (u > 0.0) & (v > 0.0) & (u < 1.0) & (v < 1.0)
    ui, vi = u[inner], v[inner]
    with np.errstate(over="ignore"):
        a = np.exp(-theta * np.log(ui)) + np.exp(-theta * np.log(vi)) - 1.0
    out[inner] = np.exp(-np.log(a) / theta)
    return _boundary_frame(u, v, out)


def _frank_cdf(theta, u, v):
    out = np.zeros_like(u)
    inner = (u > 0.0) & (v > 0.0) & (u < 1.0) & (v < 1.0)
    ui, vi = u[inner], v[inner]
    ratio = _frank_denom(theta, ui, vi) / np.expm1(-theta)
    out[inner] = -np.log(ratio) / theta
    return _boundary_frame(u, v, out)


def _gumbel_cdf(theta, u, v):
    out = np.zeros_like(u)
    inner = (u > 0.0) & (v > 0.0) & (u < 1.0) & (v < 1.0)
    x = -np.log(u[inner])
    y = -np.log(v[inner])
    out[inner] = np.exp(-_gumbel_s(theta, x, y))
    return _boundary_frame(u, v, out)


def _gumbel_s(theta, x, y):
    """(x^theta + y^theta)^(1/theta) without overflow: factor out max(x, y)."""
    big = np.maximum(x, y)
    small = np.minimum(x, y)
    r = np.where(big > 0.0, small / np.where(big > 0.0, big, 1.0), 0.0)
    return big * np.exp(np.log1p(r**theta) / theta)


def cdf(model: CopulaModel, u, v):
    """Copula CDF C(u, v); boundary identities are exact branches."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_range(u, "u")
    _check_range(v, "v")
    u, v = np.broadcast_arrays(u, v)
    scalar = u.ndim == 0
    u = np.atleast_1d(u).astype(float)
    v = np.atleast_1d(v).astype(float)
    if model.family == INDEPENDENCE:
        out = u * v
    elif model.family == CLAYTON:
        out = _clayton_cdf(model.theta, u, v)
    elif model.family == FRANK:
        out = _frank_cdf(model.theta, u, v)
    else:
        out = _gumbel_cdf(model.theta, u, v)
    return float(out[0]) if scalar else out


def density(model: CopulaModel, u, v):
    """Copula density C_12 = d^2 C / du dv at strictly interior points."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_range(u, "u", strict=True)
    _check_range(v, "v", strict=True)
    u, v = np.broadcast_arrays(u, v)
    scalar = u.ndim == 0
    u = np.atleast_1d(u).astype(float)
    v = np.atleast_1d(v).astype(float)
    theta = model.theta
    if model.family == INDEPENDENCE:
        out = np.ones_like(u)
    elif model.family == CLAYTON:
        a = -theta * np.log(u)
        b = -theta * np.log(v)
        m = np.maximum(a, b)
        log_sum = m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))
        log_c = (
            np.log1p(theta)
            - (theta + 1.0) * (np.log(u) + np.log(v))
            - (2.0 + 1.0 / theta) * log_sum
        )
        out = np.exp(log_c)
    elif model.family == FRANK:
        n = _frank_denom(theta, u, v)
        log_c = (
            np.log(abs(theta))
            + _log_abs_expm1(-theta)
            - theta * (u + v)
            - 2.0 * np.log(np.abs(n))
        )
        out = np.exp(log_c)
    else:
        x = -np.log(u)
        y = -np.log(v)
        s = _gumbel_s(theta, x, y)
        log_c = (
            -s
            + (theta - 1.0) * (np.log(x) + np.log(y))
            + (1.0 - 2.0 * theta) * np.log(s)
            + np.log(s + theta - 1.0)
            - np.log(u)
            - np.log(v)
        )
        out = np.exp(log_c)
    return float(out[0]) if scalar else out


def conditional_cdf(model: CopulaModel, v, given_u):
    """C_2(v | u) = dC(u, v)/du, the conditional CDF of V given U = u."""
    v = np.asarray(v, dtype=float)
    given_u = np.asarray(given_u, dtype=float)
    _check_range(v, "v")
    _check_range(given_u, "given_u", strict=True)
    v, u = np.broadcast_arrays(v, given_u)
    scalar = v.ndim == 0
    v = np.atleast_1d(v).astype(float)
    u = np.atleast_1d(u).astype(float)
    theta = model.theta
    inner = (v > 0.0) & (v < 1.0)
    out = np.where(v >= 1.0, 1.0, 0.0)
    vi, ui = v[inner], u[inner]
    if model.family == INDEPENDENCE:
        out[inner] = vi
    elif model.family == CLAYTON:
        # (1 + u^theta (v^-theta - 1))^(-(theta+1)/theta)
        with np.errstate(over="ignore"):
            grow = np.exp(theta * np.log(ui)) * np.expm1(-theta * np.log(vi))
        out[inner] = np.exp(-(theta + 1.0) / theta * np.log1p(grow))
    elif model.family == FRANK:
        out[inner] = np.exp(-theta * ui) * np.expm1(-theta * vi) / _frank_denom(theta, ui, vi)
    else:
        x = -np.log(ui)
        y = -np.log(vi)
        s = _gumbel_s(theta, x, y)
        out[inner] = np.exp(-s + (1.0 - theta) * np.log(s) + (theta - 1.0) * np.log(x) - np.log(ui))
    return float(out[0]) if scalar else out


def inverse_conditional(model: CopulaModel, w, given_u):
    """Solve C_2(v | u) = w for v; closed form except Gumbel (bracketed solve).

    The Gumbel solve stops at 1e-12, tighter than the 1e-10 contract, so that
    v itself is accurate even where the conditional CDF is nearly flat.
    """
    w = np.asarray(w, dtype=float)
    given_u = np.asarray(given_u, dtype=float)
    _check_range(w, "w", strict=True)
    _check_range(given_u, "given_u", strict=True)
    w, u = np.broadcast_arrays(w, given_u)
    scalar = w.ndim == 0
    w = np.atleast_1d(w).astype(float)
    u = np.atleast_1d(u).astype(float)
    theta = model.theta
    if model.family == INDEPENDENCE:
        out = w.copy()
    elif model.family == CLAYTON:
        with np.errstate(over="ignore"):
            grow = np.exp(-theta * np.log(u)) * np.expm1(-theta / (1.0 + theta) * np.log(w))
        out = np.exp(-np.log1p(grow) / theta)
    elif model.family == FRANK:
        eu = np.exp(-theta * u)
        num = w * np.exp(-theta) + (1.0 - w) * eu
        den = w + (1.0 - w) * eu
        out = -np.log(num / den) / theta
    else:
        # d/dv of C_2(v | u) is the copula density at (u, v).
        out = _invert_monotone(
            lambda vv: conditional_cdf(model, vv, u),
            lambda vv: density(model, u, vv),
            w,
            tol=1e-12,
        )
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def _invert_monotone(f, df, w, tol=1e-10, max_iter=200, lo=1e-12, hi=None):
    """Elementwise safeguarded solve of f(v) = w on [lo, hi].

    Bisection bracket updates with Newton steps (derivative df) accepted only
    when they stay inside the bracket.  Raises with the offending indices if
    any element fails to converge within the iteration cap.
    """
    if hi is None:
        hi = 1.0 - 1e-12
    w = np.asarray(w, dtype=float)
    lo_b = np.full(w.shape, lo)
    hi_b = np.full(w.shape, hi)
    v = 0.5 * (lo_b + hi_b)
    done = np.zeros(w.shape, dtype=bool)
    for _ in range(max_iter):
        err = f(v) - w
        done |= np.abs(err) <= tol
        if done.all():
            break
        hi_b = np.where((err > 0) & ~done, v, hi_b)
        lo_b = np.where((err < 0) & ~done, v, lo_b)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = v - err / df(v)
        inside = np.isfinite(newton) & (newton > lo_b) & (newton < hi_b)
        v = np.where(done, v, np.where(inside, newton, 0.5 * (lo_b + hi_b)))
    else:
        err = f(v) - w
        done |= np.abs(err) <= tol
        if not done.all():
            bad = np.flatnonzero(~np.atleast_1d(done))
            raise NumericalError(
                f"conditional inverse failed to converge at indices {bad[:10].tolist()}"
            )
    return v


def debye1(x: float) -> float:
    """Debye function of order 1: (1/x) * int_0^x t / (e^t - 1) dt.

    The integrand's removable singularity at 0 is patched by its limit 1;
    negative arguments use D1(-y) = D1(y) + y/2.
    """
    x = float(x)
    if x == 0.0:
        return 1.0
    if x < 0.0:
        return debye1(-x) - x / 2.0
    val, _ = quad(_debye_integrand, 0.0, x, limit=200)
    return val / x


def _debye_integrand(t):
    if t == 0.0:
        return 1.0
    denom = np.expm1(t)
    if not np.isfinite(denom):
        return 0.0
    return t / denom


def _frank_tau(theta: float) -> float:
    # Series below 1e-4 avoids the 1 - D1 cancellation at tiny theta.
    if abs(theta) < 1e-4:
        return theta / 9.0 - theta**3 / 900.0
    return 1.0 - 4.0 / theta * (1.0 - debye1(theta))


def tau_from_theta(model: CopulaModel) -> float:
    """Population Kendall tau implied by the model parameter."""
    if model.family == INDEPENDENCE:
        return 0.0
    theta = model.theta
    if model.family == CLAYTON:
        return theta / (theta + 2.0)
    if model.family == GUMBEL:
        return (theta - 1.0) / theta
    return _frank_tau(theta)


def frank_tau_bound() -> float:
    """Largest |tau| reachable within the Frank parameter cap."""
    return _frank_tau(FRANK_THETA_MAX)


def theta_from_tau(family: str, tau: float) -> float:
    """Invert the Kendall-tau map; Frank uses a monotone root-find."""
    family = str(family).lower()
    tau = float(tau)
    if family == INDEPENDENCE:
        if tau != 0.0:
            raise ConfigError("independence copula has tau = 0 only")
        return 0.0
    if family == CLAYTON:
        if not 0.0 < tau < 1.0:
            raise ConfigError(f"clayton attains tau in (0, 1), got {tau}")
        return 2.0 * tau / (1.0 - tau)
    if family == GUMBEL:
        if not 0.0 < tau < 1.0:
            raise ConfigError(f"gumbel attains tau in (0, 1), got {tau}")
        return 1.0 / (1.0 - tau)
    if family == FRANK:
        if not -1.0 < tau < 1.0 or tau == 0.0:
            raise ConfigError(f"frank attains tau in (-1, 1) excluding 0, got {tau}")
        bound = frank_tau_bound()
        if abs(tau) >= bound:
            raise ConfigError(
                f"|tau| = {abs(tau):.6f} exceeds the numerically supported frank range "
                f"(|tau| < {bound:.6f})"
            )
        target = abs(tau)
        if target < _frank_tau(1e-8):
            return np.sign(tau) * 9.0 * target
        theta = brentq(
            lambda th: _frank_tau(th) - target,
            1e-8,
            FRANK_THETA_MAX,
            xtol=1e-13,
            rtol=8.9e-16,
            maxiter=200,
        )
        return float(np.sign(tau) * theta)
    raise ConfigError(f"unknown copula family {family!r}")
