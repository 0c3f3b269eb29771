#!/usr/bin/env python3
"""Monte-Carlo bias of the smoothed estimator as the bandwidth halves.

At a point where the copula has nonzero second derivatives the bias is
quadratic in the bandwidth, so halving h divides it by about four.  For the
independence copula the centre bias is identically zero and the measured
ratio is pure noise; run both to see the contrast.
"""

import argparse

import numpy as np

from llcopula.estimator import BandwidthPolicy, ll_copula_estimate
from llcopula.families import CopulaModel, cdf
from llcopula.sampling import SeededStream, sample_copula


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", default="clayton")
    ap.add_argument("--theta", type=float, default=2.0)
    ap.add_argument("--point", type=float, nargs=2, default=[0.5, 0.5])
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--replicates", type=int, default=400)
    ap.add_argument("--h0", type=float, default=0.3)
    ap.add_argument("--halvings", type=int, default=2)
    ap.add_argument("--seed", type=int, default=20260810)
    args = ap.parse_args()

    theta = None if args.family == "independence" else args.theta
    model = CopulaModel(args.family, theta)
    u0, v0 = args.point
    truth = cdf(model, u0, v0)
    seeds = [s.seed for s in SeededStream(args.seed).substreams(args.replicates)]

    print(f"{model.label()} at ({u0}, {v0}), true value {truth:.6f}, "
          f"n={args.n}, {args.replicates} replicates")
    print(f"{'h':>10}{'bias':>14}{'mc se':>12}{'ratio to prev':>16}")
    prev = None
    for k in range(args.halvings + 1):
        h = args.h0 / 2**k
        policy = BandwidthPolicy(h_n=h, h_min=h, h_max=h)  # h at every coordinate
        values = np.array(
            [
                ll_copula_estimate(sample_copula(model, args.n, SeededStream(sd)), u0, v0, policy)
                for sd in seeds
            ]
        )
        bias = values.mean() - truth
        se = values.std(ddof=1) / np.sqrt(args.replicates)
        ratio = "" if prev is None else f"{abs(prev) / abs(bias):>16.3f}"
        print(f"{h:>10.4f}{bias:>+14.6f}{se:>12.2e}{ratio}")
        prev = bias


if __name__ == "__main__":
    main()
