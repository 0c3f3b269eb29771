#!/usr/bin/env python3
"""Replicate coverage of the full grid for outer and inner band widths.

The outer width (1 + eps) A / R_n should cover the whole grid in essentially
every replicate; the inner width (1 - eps) A / R_n with eps near one should
essentially never cover it.  Prints both rates for a range of eps values.
"""

import argparse

import numpy as np

from llcopula.bands import BandParameters, band_halfwidth, shrunken_halfwidth
from llcopula.estimator import BandwidthPolicy, evaluate_grid
from llcopula.families import CopulaModel, cdf
from llcopula.margins import RawSample, to_pseudo_ranks
from llcopula.sampling import SeededStream, sample_copula


def sup_errors(model, n, replicates, grid, seed):
    """Sup-norm error of the rank-based grid estimate, one per replicate.

    Replicate r draws n pairs from stream seed + r.
    """
    policy = BandwidthPolicy.from_sample_size(n)
    lattice = np.linspace(0.0, 1.0, grid)
    uu, vv = np.meshgrid(lattice, lattice, indexing="ij")
    truth = cdf(model, uu, vv)
    sups = []
    for r in range(replicates):
        draws = sample_copula(model, n, SeededStream(seed + r))
        pseudo = to_pseudo_ranks(RawSample(draws.u, draws.v))
        ge = evaluate_grid(pseudo, grid, policy)
        sups.append(np.abs(ge.values - truth).max())
    return np.array(sups)


def coverage(sups, n, eps):
    """Outer and inner half-widths at eps, each with the share of replicates
    whose whole grid lies inside that band: (outer, outer_rate, inner,
    inner_rate).  The inner pair is None for eps >= 1, where that band is empty."""
    params = BandParameters(n=n, epsilon=eps)
    outer = band_halfwidth(params)
    outer_rate = float((sups <= outer).mean())
    if eps >= 1.0:
        return outer, outer_rate, None, None
    inner = shrunken_halfwidth(params)
    return outer, outer_rate, inner, float((sups <= inner).mean())


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", default="clayton")
    ap.add_argument("--theta", type=float, default=2.0)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--replicates", type=int, default=100)
    ap.add_argument("--grid", type=int, default=21)
    ap.add_argument("--seed", type=int, default=31000)
    ap.add_argument("--eps", type=float, nargs="+", default=[0.0, 0.5, 0.9, 0.99])
    args = ap.parse_args()

    model = CopulaModel(args.family, args.theta)
    sups = sup_errors(model, args.n, args.replicates, args.grid, args.seed)

    print(f"{model.label()} n={args.n} replicates={args.replicates}")
    print(f"sup-error quantiles: 50% {np.quantile(sups, 0.5):.4f}  "
          f"95% {np.quantile(sups, 0.95):.4f}  max {sups.max():.4f}")
    print(f"{'eps':>6}{'outer width':>14}{'outer rate':>12}{'inner width':>14}{'inner rate':>12}")
    for eps in args.eps:
        outer, outer_rate, inner, inner_rate = coverage(sups, args.n, eps)
        if inner is None:
            print(f"{eps:>6.2f}{outer:>14.5f}{outer_rate:>12.2f}{'-':>14}{'-':>12}")
        else:
            print(f"{eps:>6.2f}{outer:>14.5f}{outer_rate:>12.2f}{inner:>14.5f}{inner_rate:>12.2f}")


if __name__ == "__main__":
    main()
