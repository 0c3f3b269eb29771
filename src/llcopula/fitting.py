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


# Pairs inside blocks of 2**TAU_BLOCK_BITS elements are counted all at once.
TAU_BLOCK_BITS = 5
_LATER = np.triu(np.ones((1 << TAU_BLOCK_BITS,) * 2, dtype=bool), 1)  # [i, j]: j > i


def _discordant_pairs(ys: np.ndarray) -> int:
    """Pairs i < j with ys[i] > ys[j], for integer ys in [0, n).

    Pairs inside 32-element blocks are counted by one broadcast comparison;
    then a bottom-up merge sort (Knight 1966, JASA 61) from width 32, with
    one sort and one searchsorted per level.  At width w each w-block is
    sorted, so keyed by 2w-block * n + value the left halves form one sorted
    array.  A right-half value y in 2w-block b follows (b + 1) * w left
    elements in blocks up to its own; searchsorted counts those keyed
    <= b * n + y, and the rest are the left elements of its block greater
    than y.  Sorting the keys then merges each pair of halves."""
    n = len(ys)
    # Padding with n, above every value, adds no pair and sorts to the end.
    blocks = np.full((-(-n >> TAU_BLOCK_BITS), 1 << TAU_BLOCK_BITS), n, dtype=np.int64)
    blocks.reshape(-1)[:n] = ys
    count = int(np.count_nonzero((blocks[:, :, None] > blocks[:, None, :]) & _LATER))
    ys = np.sort(blocks, axis=1).reshape(-1)[:n]
    pos = np.arange(n)
    for bits in range(TAU_BLOCK_BITS, (n - 1).bit_length()):  # widths 32 <= w < n
        block = pos >> (bits + 1)
        keys = block * n + ys
        right = ((pos >> bits) & 1).astype(bool)
        below = np.searchsorted(keys[~right], keys[right], side="right")
        count += int((((block[right] + 1) << bits) - below).sum())
        ys = np.sort(keys, kind="stable") - block * n
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
