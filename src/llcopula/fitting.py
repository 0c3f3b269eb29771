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
from .kernels import SortedColumn
from .margins import PseudoSample

# Pseudo-observations are pulled off the boundary before taking log densities;
# corner densities diverge for Clayton/Gumbel.
CLAMP_EPS = 1e-10
DENSITY_FLOOR = 1e-300

DEFAULT_FAMILIES = (CLAYTON, GUMBEL, FRANK)


def _tied_pairs(ascending: np.ndarray) -> int:
    """Pairs of equal values in a sorted array."""
    counts = np.diff(np.flatnonzero(np.r_[True, ascending[1:] != ascending[:-1], True]))
    return int((counts * (counts - 1)).sum()) // 2


def _dense_ranks(col: SortedColumn) -> np.ndarray:
    """Each point's index among the column's distinct values."""
    dense = np.empty(col.values.size, dtype=np.int64)
    dense[col.order] = np.cumsum(np.r_[False, col.values[1:] != col.values[:-1]])
    return dense


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

    Ranks and ties come from the sample's sorted columns; one sort of the
    joint ranks gives both the joint ties and the inversion sequence."""
    n = sample.n
    if n < 2:
        raise ConfigError(f"kendall tau needs n >= 2, got {n}")
    su, sv = sample.sorted_columns
    joint = np.sort(_dense_ranks(su) * n + _dense_ranks(sv))
    n0 = n * (n - 1) // 2
    # Sorted by (u, v), x-ties are ordered by v, so inversions of the v ranks
    # are exactly the discordant pairs among those distinct in both coordinates.
    discordant = _discordant_pairs(joint % n)
    s = n0 - _tied_pairs(su.values) - _tied_pairs(sv.values) + _tied_pairs(joint) - 2 * discordant
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
    applicable = [r for r in rows if r.applicable]
    if not applicable:
        raise ConfigError(f"no applicable family for empirical tau {tau_hat:.4f}")
    applicable.sort(key=lambda r: -r.log_likelihood)
    inapplicable = [r for r in rows if not r.applicable]
    ordered = tuple(applicable + inapplicable)
    return FitReport(tau_hat=tau_hat, rows=ordered, selected=ordered[0].family)
