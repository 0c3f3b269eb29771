"""Parametric bivariate copula families: Clayton, Frank, Gumbel, Independence.

Provides the CDF, the density (mixed second partial), the conditional CDF
given the first coordinate, its inverse, and the Kendall-tau <-> parameter
maps.  The four functions of (model, a, b) check and broadcast their
arguments through one helper (``_unit_args``), and ``cdf`` takes its edge
values from min(u, v) around each family's interior formula.  Frank's
CDF, density and conditional CDF are read from one frame (``_frank_frame``),
whose exponentials the inverse conditional shares: each product theta u is
taken exactly, and -log(1 + q) is taken by log1p where 1 + q is near 1.
Against mpmath on the tests' 200 points in [1e-3, 1 - 1e-3]^2 the inverse is
within 3 ulps, the CDF within 4, the density within 5 and the conditional CDF
within 4 at every tested |theta| from 1e-300 to 350, both signs (the CDF within
8 on other draws); a subnormal theta, below the smallest normal double, is
refused.
Clayton's and Gumbel's CDF, density and conditional CDF each build on one
log-space terms helper per family, from min(u, v) and the log ratio of
``_log_gap``, so no power overflows and no terms of size theta |log u| cancel.
Frank's tau and the Debye function behind it come from two series to a few
ulps, and tau is inverted by bisection to 1 ulp; numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._arrays import unwrap
from .errors import ConfigError, NumericalError

CLAYTON = "clayton"
FRANK = "frank"
GUMBEL = "gumbel"
INDEPENDENCE = "independence"
FAMILIES = (CLAYTON, FRANK, GUMBEL, INDEPENDENCE)

# Keeps exp(2*|theta|) finite in double precision with margin.
FRANK_THETA_MAX = 350.0
# The smallest normal double: below it theta and its products are subnormal,
# Frank's CDF and inverse lose 4-5 digits and Clayton's functions read 0 or 1.
THETA_MIN = float(np.finfo(float).tiny)


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
        if family == CLAYTON and not theta >= THETA_MIN:
            raise ConfigError(f"clayton parameter must be at least {THETA_MIN!r}, got {theta!r}")
        if family == FRANK:
            if abs(theta) < THETA_MIN:
                raise ConfigError(f"frank parameter magnitude must be at least {THETA_MIN!r}, "
                                  f"got {theta!r} (theta -> 0 is independence)")
            if abs(theta) > FRANK_THETA_MAX:
                raise ConfigError(f"frank parameter magnitude capped at {FRANK_THETA_MAX}, got {theta}")
        if family == GUMBEL and not theta >= 1.0:
            raise ConfigError(f"gumbel parameter must be >= 1, got {theta}")

    def label(self) -> str:
        if self.family == INDEPENDENCE:
            return INDEPENDENCE
        short = f"{self.theta:g}"  # six digits, unless that would name another model
        return f"{self.family} theta={short if float(short) == self.theta else repr(self.theta)}"


def _unit_args(a, b, names, strict):
    """The pair ``a``, ``b`` as float arrays of at least one dimension and one
    broadcast shape, plus whether that shape is scalar.  Each is checked in
    turn to lie in [0, 1], or strictly inside where its ``strict`` flag is set;
    ``ConfigError`` names the first that does not."""
    pair = [np.asarray(a, dtype=float), np.asarray(b, dtype=float)]
    for arr, name, strict_one in zip(pair, names, strict):
        # NaN fails both compares, so no isfinite pass is needed.
        inside = (arr > 0.0) & (arr < 1.0) if strict_one else (arr >= 0.0) & (arr <= 1.0)
        if not inside.all():
            kind = "strictly inside" if strict_one else "in"
            raise ConfigError(f"{name} must lie {kind} [0.0, 1.0]")
    a, b = np.broadcast_arrays(*pair)
    return np.atleast_1d(a), np.atleast_1d(b), a.ndim == 0


def _log1mexp(a):
    """log(1 - e^-a) for a >= 0: log(-expm1(-a)) for a <= log 2 and log1p(-exp(-a))
    above (Maechler 2012, "Accurately computing log(1 - exp(-|a|))")."""
    with np.errstate(divide="ignore"):
        return np.where(a <= np.log(2.0), np.log(-np.expm1(-a)), np.log1p(-np.exp(-a)))


def _log_gap(lo, hi):
    """log(hi/lo) for 0 < lo <= hi as log1p((hi - lo)/lo), whose hi - lo is exact
    near the diagonal, where log(lo/hi) loses digits to the rounded ratio.  Where
    the quotient overflows (lo subnormal): log hi - log lo, on those points only."""
    with np.errstate(over="ignore"):
        gap = np.log1p((hi - lo) / lo)
    far = np.nonzero(gap == np.inf)
    gap[far] = np.log(hi[far]) - np.log(lo[far])
    return gap


def _clayton_terms(theta, u, v):
    """(lo, log hi, log(hi/lo), log1p(g)) at interior u, v, lo = min(u, v),
    hi = max(u, v): u^-theta + v^-theta - 1 = lo^-theta (1 + g) with
    g = (lo/hi)^theta (1 - hi^theta) in [0, 1).  log(hi/lo) is ``_log_gap``'s
    and no power can overflow, so nothing of size theta (|log u| + |log v|) cancels."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    log_hi, gap = np.log(hi), _log_gap(lo, hi)
    return lo, log_hi, gap, np.log1p(np.exp(-theta * gap) * -np.expm1(theta * log_hi))


def _frank_log(theta, q, one_plus_q):
    """-log(1 + q)/theta.  Where 1 + q > 1/2 it is -log1p(q)/theta, which keeps
    every digit of a q near 0 and is never negative; elsewhere it is
    -log(one_plus_q)/theta, ``one_plus_q`` being 1 + q formed without
    cancellation.  (The clamp only keeps log1p finite on the other elements.)"""
    return np.where(q > -0.5, -np.log1p(np.maximum(q, -0.5)), -np.log(one_plus_q)) / theta


def _exp_expm1(theta, x):
    """(e^{-theta x}, expm1(-theta x)) with the product -theta x taken exactly:
    p = -theta x rounded and p + e = -theta x to about 2^-105 relative, by
    Veltkamp's split (Dekker 1971), and e^{p + e} = e^p (1 + e) to first order.
    That keeps the digits that rounding |theta x| to p loses, |theta x| eps of
    them relative, so the error does not grow with |theta|.  Arrays are
    worked in place where they can be: six n-length allocations in all."""
    def split(y):
        hi = 134217729.0 * y  # 2^27 + 1
        hi -= hi - y
        return hi, y - hi

    (ah, al), (bh, bl) = split(-theta), split(x)
    p = -theta * x
    e = ah * bh
    e -= p
    ep = np.multiply(ah, bl)
    e += ep
    e += np.multiply(al, bh, out=bh)
    e += np.multiply(al, bl, out=bl)
    e *= np.exp(p, out=ep)
    ep += e
    return ep, np.add(np.expm1(p, out=p), e, out=p)


def _frank_frame(theta, u, v):
    """(e^{-theta u}, e^{-theta v}, B/d, q, 1 + q) at interior u, v, from which
    Frank's CDF, density and conditional CDF are read: A = expm1(-theta u) and
    B = expm1(-theta v) by ``_exp_expm1``, d = expm1(-theta) and q = A (B/d),
    so that C = -log(1 + q)/theta.  Dividing before the product keeps q from
    underflowing at tiny |theta|.  1 + q is formed as such where q > -1/2;
    elsewhere (theta > 0 only, where |d| > 1/2) it is
    (e^{-theta v} A + (e^{-theta} - e^{-theta u}))/d.  Its two terms share a
    sign, so the sum does not cancel, and where the difference cancels (u near
    1) the first term, near e^{-theta v} d, outweighs it: 1 + q was within 4
    ulps of mpmath at 23,000 such points, theta from 0.7 to 350.  Only those
    points do that work."""
    eu, a = _exp_expm1(theta, u)
    ev, b = _exp_expm1(theta, v)
    d = np.expm1(-theta)
    b_d = b / d
    q = a * b_d
    one_plus_q = 1.0 + q
    far = np.nonzero(q <= -0.5)  # index arrays: the mask is searched once, not per gather
    one_plus_q[far] = (ev[far] * a[far] + (np.exp(-theta) - eu[far])) / d
    return eu, ev, b_d, q, one_plus_q


def _gumbel_terms(theta, u, v):
    """(min(x, y), m, |y - x|, log r, t, d) at interior u, v: x = -log u, y = -log v,
    m = max(x, y), r = min(x, y)/m, t = log1p(r^theta)/theta, d = s - m = m expm1(t).

    Near the diagonal r^theta needs log r to its last digits: there
    |y - x| is ``_log_gap``'s and log r = log1p(-|y - x|/m).
    """
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    small, m = -np.log(hi), -np.log(lo)
    gap = _log_gap(lo, hi)
    q = np.minimum(gap / m, 0.5)
    log_r = np.where(q < 0.5, np.log1p(-q), np.log(small / m))
    t = np.log1p(np.exp(theta * log_r)) / theta
    return small, m, gap, log_r, t, m * np.expm1(t)


def cdf(model: CopulaModel, u, v):
    """Copula CDF C(u, v).  It starts from min(u, v), C itself on every edge of
    the square (``+ 0.0`` turns -0.0 into 0.0).  The family's formula runs on
    interior points only, clipped into the Frechet bounds [max(u + v - 1, 0),
    min(u, v)] as computed (where rounding puts the lower bound above the upper
    one, the upper wins)."""
    u, v, scalar = _unit_args(u, v, ("u", "v"), (False, False))
    out = np.minimum(u, v) + 0.0
    inner = (u > 0.0) & (v > 0.0) & (u < 1.0) & (v < 1.0)
    theta = model.theta
    ui, vi = u[inner], v[inner]
    if model.family == INDEPENDENCE:
        interior = ui * vi
    elif model.family == CLAYTON:
        lo, _, _, log1p_g = _clayton_terms(theta, ui, vi)
        interior = lo * np.exp(-log1p_g / theta)
    elif model.family == FRANK:
        interior = _frank_log(theta, *_frank_frame(theta, ui, vi)[3:])
    else:
        interior = np.minimum(ui, vi) * np.exp(-_gumbel_terms(theta, ui, vi)[-1])  # e^-s = lo e^-d
    out[inner] = np.clip(interior, np.maximum(ui + vi - 1.0, 0.0), out[inner])
    return unwrap(out, scalar)


def density(model: CopulaModel, u, v):
    """Copula density C_12 = d^2 C / du dv at strictly interior points."""
    u, v, scalar = _unit_args(u, v, ("u", "v"), (True, True))
    theta = model.theta
    if model.family == INDEPENDENCE:
        out = np.ones_like(u)
    elif model.family == CLAYTON:
        _, log_hi, gap, log1p_g = _clayton_terms(theta, u, v)
        out = np.exp(np.log1p(theta) - log_hi - theta * gap - (2.0 + 1.0 / theta) * log1p_g)
    elif model.family == FRANK:
        # -theta d e^{-theta (u + v)} / (d (1 + q))^2, each factor divided
        # before the product, so nothing overflows or underflows at |theta| = 350.
        eu, ev, _, _, one_plus_q = _frank_frame(theta, u, v)
        out = -theta / np.expm1(-theta) * (eu / one_plus_q) * (ev / one_plus_q)
    else:
        # log c = x + y - s + (theta - 1)(log x + log y - 2 log s) + log((s + theta - 1)/s)
        small, m, _, log_r, t, d = _gumbel_terms(theta, u, v)
        log_c = small - d + (theta - 1.0) * (log_r - 2.0 * t) + np.log1p((theta - 1.0) / (m + d))
        out = np.exp(log_c)
    return unwrap(out, scalar)


def conditional_cdf(model: CopulaModel, v, given_u):
    """C_2(v | u) = dC(u, v)/du, the conditional CDF of V given U = u."""
    v, u, scalar = _unit_args(v, given_u, ("v", "given_u"), (False, True))
    theta = model.theta
    inner = (v > 0.0) & (v < 1.0)
    out = np.where(v >= 1.0, 1.0, 0.0)
    vi, ui = v[inner], u[inner]
    if model.family == INDEPENDENCE:
        out[inner] = vi
    elif model.family == CLAYTON:
        # (u^-theta + v^-theta - 1)^(-(theta+1)/theta) u^(-theta-1)
        # = (lo/u)^(theta+1) (1 + g)^(-(theta+1)/theta), where log(lo/u) = -gap if v < u, else 0.
        _, _, gap, log1p_g = _clayton_terms(theta, ui, vi)
        out[inner] = np.exp(-(theta + 1.0) * np.where(vi < ui, gap, 0.0) - (theta + 1.0) / theta * log1p_g)
    elif model.family == FRANK:
        eu, _, b_d, _, one_plus_q = _frank_frame(theta, ui, vi)
        out[inner] = eu * b_d / one_plus_q
    else:
        # exp(-(s - x)) (s/x)^(1 - theta), with s/x = (1 + r^theta)^(1/theta) times 1/r if y > x
        _, _, gap, log_r, t, d = _gumbel_terms(theta, ui, vi)
        skew = np.where(vi < ui, (theta - 1.0) * log_r - gap, 0.0)
        out[inner] = np.exp(-d - (theta - 1.0) * t + skew)
    return unwrap(out, scalar)


def inverse_conditional(model: CopulaModel, w, given_u):
    """Solve C_2(v | u) = w for v: closed form except Gumbel (Newton in d = s - x).

    The Gumbel solve stops each element once its residual in the log-space
    equation is at the rounding floor of that equation's terms (see
    :func:`_gumbel_inverse`), so it converges wherever C_2 itself is too steep
    in v for any v to meet a fixed tolerance in w.

    Frank's inverse loses digits where w |theta| is subnormal: q then carries
    an absolute error up to 2^-1074, so v is off by up to about
    2^-1074 / (w |theta|) relative.  At the sampler's w >= 1e-16 that takes
    |theta| below about 2e-292; at 1e-300 it is 4.9e-8.
    """
    w, u, scalar = _unit_args(w, given_u, ("w", "given_u"), (True, True))
    theta = model.theta
    if model.family == INDEPENDENCE:
        out = w.copy()
    elif model.family == CLAYTON:
        # v = (1 + grow)^(-1/theta).  Where grow overflows (large theta, small
        # u) that form gives v = 0; there log v = -softplus(L)/theta, L = log(grow).
        y = -theta / (1.0 + theta) * np.log(w)
        with np.errstate(over="ignore"):
            grow = np.exp(-theta * np.log(u)) * np.expm1(y)
        out = np.exp(-np.log1p(grow) / theta)
        big = np.isinf(grow)
        if big.any():
            yb = y[big]
            log_grow = -theta * np.log(u[big]) + yb + np.log(-np.expm1(-yb))
            out[big] = np.exp(-np.logaddexp(0.0, log_grow) / theta)
    elif model.family == FRANK:
        # v = -log(1 + q)/theta, q = w expm1(-theta)/den: the ratio num/den
        # is 1 + q without cancellation where q is far from 0.
        eu = _exp_expm1(theta, u)[0]
        den = w + (1.0 - w) * eu
        q = w * np.expm1(-theta) / den
        out = _frank_log(theta, q, (w * np.exp(-theta) + (1.0 - w) * eu) / den)
    else:
        out = _gumbel_inverse(theta, w.ravel(), u.ravel()).reshape(w.shape)
    out = np.clip(out, 0.0, 1.0)
    return unwrap(out, scalar)


def _gumbel_inverse(theta, w, u, max_steps=60):
    """Gumbel's C_2(v | u) = w by Newton's method in d = s - x >= 0.

    With x = -log u, L = -log w and s = (x^theta + y^theta)^(1/theta), y = -log v,
    C_2(v | u) = exp(-d) (1 + d/x)^(1 - theta), so the equation is
    g(d) = d + (theta - 1) log1p(d/x) - L = 0 (a Lambert-W type equation;
    Corless et al. 1996).  g is increasing and concave with g(0) = -L < 0, so
    Newton from d = 0 rises monotonically to the root: no bracket is needed.
    The iterate is kept as r = d/x, which gives the same Newton steps but
    neither overflows in g' = 1 + (theta - 1)/(x + d) nor goes subnormal
    where x is tiny and theta huge.  An element stops once
    |g| <= 4 eps (d + (theta - 1) log1p(d/x) + L), the rounding floor of g's
    terms, and only unconverged elements are iterated.  Then
    y = s (1 - (x/s)^theta)^(1/theta) with (x/s)^theta = exp(-theta log1p(r)),
    and v = exp(-y).
    """
    x = -np.log(u)
    big_l = -np.log(w)
    # The first Newton step from r = 0, where g = -L.
    r = big_l / (x + (theta - 1.0))
    active = np.arange(x.size)
    # The spacing of r near 0 times g'; it only counts where r is subnormal,
    # which takes theta above about 1e290.
    spacing = theta * np.finfo(float).smallest_subnormal
    steps = 1
    while True:
        xa, ra, la = x[active], r[active], big_l[active]
        xr = xa * ra
        bend = (theta - 1.0) * np.log1p(ra)
        g = xr + bend - la
        todo = np.abs(g) > 4.0 * np.finfo(float).eps * (xr + bend + la) + spacing
        if not todo.any():
            break
        if steps >= max_steps:
            k = np.argmax(todo)
            raise NumericalError(
                f"gumbel inverse conditional (theta={theta!r}) did not converge in "
                f"{max_steps} Newton steps at {int(todo.sum())} of {x.size} points; "
                f"first: u={float(u[active[k]])!r}, w={float(w[active[k]])!r}, "
                f"d={float(xr[k])!r}, g(d)={float(g[k])!r}"
            )
        active, xa, ra = active[todo], xa[todo], ra[todo]
        r[active] = ra - g[todo] / (xa + (theta - 1.0) / (1.0 + ra))
        steps += 1
    y = x * (1.0 + r) * np.exp(_log1mexp(theta * np.log1p(r)) / theta)
    return np.exp(-y)


# c_k = 4 B_2k / ((2k + 1) (2k)!), k = 1..15, from mpmath's Bernoulli numbers at
# 40 digits: Frank's tau = sum_k c_k theta^(2k-1), a Taylor series of radius 2 pi.
_FRANK_TAU_SERIES = np.array([
    0.1111111111111111, -0.0011111111111111111, 1.889644746787604e-05, -3.6743092298647856e-07,
    7.5915479955884e-09, -1.6259046580576902e-10, 3.568676408182581e-12, -7.97571834428843e-14,
    1.8075920118479673e-15, -4.142607044872499e-17, 9.580874484104748e-19,
    -2.2327143497300036e-20, 5.236603021673285e-22, -1.2349679209706961e-23, 2.926390261080881e-25,
])


def debye1(x: float) -> float:
    """Debye function of order 1: (1/x) * int_0^x t / (e^t - 1) dt, to a few ulps.

    Below |x| = 2 it is 1 - (x/4)(1 - tau(x)) with Frank's tau series; from 2 up it
    is (pi^2/6 - sum_{k<=20} e^(-kx) (x/k + 1/k^2)) / x (Abramowitz & Stegun 1964,
    27.1).  Negative arguments use D1(-y) = D1(y) + y/2.
    """
    x = float(x)
    if x <= -2.0:
        return debye1(-x) - x / 2.0
    if x < 2.0:
        return 1.0 - x / 4.0 * (1.0 - _frank_tau(x))
    if x == np.inf:
        return 0.0
    k = np.arange(1.0, 21.0)
    return float((np.pi**2 / 6.0 - np.sum(np.exp(-k * x) * (x / k + 1.0 / (k * k)))) / x)


def _frank_tau(theta: float) -> float:
    """Frank's tau (Genest 1987): Taylor series below |theta| = 2, else 1 - (4/theta)(1 - D1)."""
    if abs(theta) < 2.0:
        return float(theta * np.polyval(_FRANK_TAU_SERIES[::-1], theta * theta))
    return math.copysign(1.0 - 4.0 / abs(theta) * (1.0 - debye1(abs(theta))), theta)


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


def theta_from_tau(family: str, tau: float) -> float:
    """Invert the Kendall-tau map; Frank by bisection to 1 ulp."""
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
        if not 0.0 <= tau < 1.0:
            raise ConfigError(f"gumbel attains tau in [0, 1), got {tau}")
        return 1.0 / (1.0 - tau)
    if family == FRANK:
        if not -1.0 < tau < 1.0 or tau == 0.0:
            raise ConfigError(f"frank attains tau in (-1, 1) excluding 0, got {tau}")
        bound = _frank_tau(FRANK_THETA_MAX)  # the largest |tau| within the cap
        if abs(tau) >= bound:
            raise ConfigError(
                f"|tau| = {abs(tau):.6f} exceeds the numerically supported frank range "
                f"(|tau| < {bound:.6f})"
            )
        # Bisect to 1 ulp, until the midpoint is an end; tau(hi) >= |tau| and hi > THETA_MIN.
        target, lo, hi = abs(tau), THETA_MIN, FRANK_THETA_MAX
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if _frank_tau(mid) < target else (lo, mid)
        return math.copysign(hi, tau)
    raise ConfigError(f"unknown copula family {family!r}")
