"""Empirical Kendall tau, tau-inversion estimates, and likelihood ranking.

The workflow mirrors the classical two-step fit: estimate each family's
parameter by inverting the empirical tau, then rank families by copula
log-likelihood at those parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .families import CLAYTON, FRANK, GUMBEL, CopulaModel, density, theta_from_tau
from .kernels import run_bounds
from .margins import PseudoSample

# Pseudo-observations are pulled off the boundary before taking log densities;
# corner densities diverge for Clayton/Gumbel.
CLAMP_EPS = 1e-10
DENSITY_FLOOR = 1e-300

DEFAULT_FAMILIES = (CLAYTON, GUMBEL, FRANK)


def _tied_pairs(bounds: np.ndarray) -> int:
    """Pairs of equal values, from the bounds of their runs (``run_bounds``)."""
    counts = np.diff(bounds)
    return int((counts * (counts - 1)).sum()) // 2


# Pairs inside blocks of 2**TAU_BLOCK_BITS elements are counted without sorting.
TAU_BLOCK_BITS = 5


def _discordant_pairs(ys: np.ndarray) -> int:
    """Pairs i < j with ys[i] > ys[j], for integer ys in [0, n).

    Pairs inside 32-element blocks are counted one block offset at a time,
    that offset of every block against the later ones.  Then a bottom-up
    merge sort (Knight 1966, JASA 61) of the keys 2y from width 32 does one
    in-place row sort per level.  At width w the right half of each 2w-row
    is marked by its low bit, 2y + 1, so it sorts after the equal left keys;
    a right element moving from offset w + q to m has passed the w + q - m
    left elements greater than it.  The marked offsets of all rows sum to
    rows * w(3w - 1)/2 less the level's count."""
    n = len(ys)
    size = max(1 << (n - 1).bit_length(), 1 << TAU_BLOCK_BITS)
    # Padding with 2n + 2, even and above every key, adds no pair.
    keys = np.full(size, 2 * n + 2, dtype=np.int32 if 2 * n + 2 < 2**31 else np.int64)
    keys[:n] = 2 * ys
    blocks = keys.reshape(-1, 1 << TAU_BLOCK_BITS)
    at = blocks.T.copy()  # at[i]: offset i of every block
    count = sum(int(np.count_nonzero(at[i] > at[i + 1 :])) for i in range(len(at) - 1))
    blocks.sort(axis=1)
    for bits in range(TAU_BLOCK_BITS, size.bit_length() - 1):  # widths 32 <= w < size
        w = 1 << bits
        rows = keys.reshape(-1, 2 * w)
        rows[:, w:] |= 1
        rows.sort(axis=1)
        count += size // (2 * w) * w * (3 * w - 1) // 2 - int(np.dot((rows & 1).sum(axis=0), np.arange(2 * w)))
        rows &= ~1
    return count


def empirical_kendall_tau(sample: PseudoSample) -> float:
    """Tau-a: (concordant - discordant) / C(n, 2), ties counting as neither.

    Ranks and ties come from the runs of the sample's sorted columns.  One sort of
    the joint ranks orders each u-run by v and gives the joint ties."""
    n = sample.n
    if n < 2:
        raise ConfigError(f"kendall tau needs n >= 2, got {n}")
    su, sv = sample.sorted_columns
    runs_u, runs_v = run_bounds(su.values), run_bounds(sv.values)
    # The v dense ranks in u-sorted order.  Sorted by (u, v), u-ties are ordered by v, so their
    # inversions are exactly the discordant pairs among those distinct in both coordinates.
    seq = np.repeat(np.arange(runs_v.size - 1), np.diff(runs_v))[sv.rank[su.order]]
    joint = np.sort(np.repeat(np.arange(runs_u.size - 1) * n, np.diff(runs_u)) + seq)
    seq, joint_ties = joint % n, _tied_pairs(run_bounds(joint))
    n0 = n * (n - 1) // 2
    s = n0 - _tied_pairs(runs_u) - _tied_pairs(runs_v) + joint_ties - 2 * _discordant_pairs(seq)
    return s / n0


def log_likelihood(model: CopulaModel, sample: PseudoSample) -> tuple[float, int]:
    """Sum of log copula densities over the clamped pseudo-observations, and
    the number of density values below the floor, which are lifted to it."""
    u = np.clip(sample.u, CLAMP_EPS, 1.0 - CLAMP_EPS)
    v = np.clip(sample.v, CLAMP_EPS, 1.0 - CLAMP_EPS)
    dens = np.atleast_1d(density(model, u, v))
    floored = int((dens < DENSITY_FLOOR).sum())
    return float(np.sum(np.log(np.maximum(dens, DENSITY_FLOOR)))), floored


@dataclass(frozen=True)
class FitRow:
    family: str
    theta: float | None
    log_likelihood: float | None
    applicable: bool
    note: str = ""


@dataclass(frozen=True)
class FitReport:
    tau_hat: float
    rows: tuple[FitRow, ...]
    selected: str


def fit_families(sample: PseudoSample) -> FitReport:
    """Tau-inversion estimates and likelihood ranking for ``DEFAULT_FAMILIES``.

    Rows are sorted by log-likelihood, best first; families whose tau range
    does not contain the empirical tau are marked inapplicable and sink to
    the bottom.  Raises when no family is applicable.
    """
    tau_hat = empirical_kendall_tau(sample)
    rows = []
    for family in DEFAULT_FAMILIES:
        try:
            theta = theta_from_tau(family, tau_hat)
        except ConfigError as exc:
            rows.append(FitRow(family, None, None, False, note=str(exc)))
            continue
        model = CopulaModel(family, theta)
        value, floored = log_likelihood(model, sample)
        note = f"{floored} floored density terms" if floored else ""
        rows.append(FitRow(family, theta, value, True, note=note))
    # Stable: inapplicable rows keep the DEFAULT_FAMILIES order.
    rows.sort(key=lambda r: (not r.applicable, -r.log_likelihood if r.applicable else 0.0))
    if not rows[0].applicable:
        raise ConfigError(f"no applicable family for empirical tau {tau_hat:.4f}")
    return FitReport(tau_hat=tau_hat, rows=tuple(rows), selected=rows[0].family)
