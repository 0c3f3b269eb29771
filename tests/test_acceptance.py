"""End-to-end validation gates for the whole package.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per gate.  Gate 07 checks the smoothing bias at the centre of the unit square
on independent data, where the method's bias is exactly zero: the
product copula has no curvature, and the rank lattice is symmetric about 1/2.
It asserts that exact zero, computed through the estimator itself, and that
the Monte-Carlo mean of the whole sample -> rank -> estimate pipeline agrees
with it.  The quadratic bias decay where the curvature is not zero is checked
on Clayton data in test_estimator.py.
"""

from pathlib import Path

import numpy as np
from scipy.integrate import quad

from llcopula.bands import (
    BandParameters,
    band_halfwidth,
    confidence_bands,
    rate_rn,
    shrunken_halfwidth,
)
from llcopula.cli import main as cli_main
from llcopula.estimator import (
    BandwidthPolicy,
    evaluate_grid,
    ll_copula_estimate,
)
from llcopula.families import (
    CopulaModel,
    cdf,
    tau_from_theta,
    theta_from_tau,
)
from llcopula.fitting import fit_families
from llcopula.kernels import LocalKernel
from llcopula.margins import PseudoSample, RawSample, to_pseudo_ranks
from llcopula.sampling import SeededStream, sample_copula
from oracles import empirical_copula, local_linear_density


def report(num, name, ok, detail=""):
    print(f"[GATE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"gate {num} ({name}) failed: {detail}"


def rank_sample(model, n, seed):
    draws = sample_copula(model, n, SeededStream(seed))
    return to_pseudo_ranks(RawSample(draws.u, draws.v))


def test_gate_01_parametric_cdf_spot_checks():
    clayton = CopulaModel("clayton", 2.0)
    frank = CopulaModel("frank", 5.0)
    checks = [
        (clayton, 0.96, 0.29, 0.289),
        (clayton, 0.46, 0.42, 0.326),
        (clayton, 0.65, 0.26, 0.248),
        (frank, 0.47, 0.38, 0.297),
        (frank, 0.41, 0.47, 0.315),
    ]
    worst = max(abs(cdf(m, u, v) - want) for m, u, v, want in checks)
    report(1, "parametric cdf spot checks", worst <= 1e-3, f"worst |err| = {worst:.2e}")


def test_gate_02_tau_inversion():
    clayton_theta = theta_from_tau("clayton", 0.408)
    gumbel_theta = theta_from_tau("gumbel", 0.408)
    frank_theta = theta_from_tau("frank", 0.408)
    frank_roundtrip = tau_from_theta(CopulaModel("frank", frank_theta))
    ok = (
        abs(clayton_theta - 1.38) <= 0.01
        and abs(gumbel_theta - 1.69) <= 0.01
        and abs(frank_roundtrip - 0.408) <= 1e-6
    )
    report(
        2,
        "kendall tau inversion",
        ok,
        f"clayton {clayton_theta:.4f}, gumbel {gumbel_theta:.4f}, "
        f"frank {frank_theta:.4f} (tau roundtrip {frank_roundtrip:.8f})",
    )


def test_gate_03_kernel_moment_identities():
    rng = np.random.default_rng(20260810)
    worst_mass = worst_mean = 0.0
    for _ in range(1000):
        kern = LocalKernel.at(rng.random(), rng.uniform(0.01, 1.0))
        lo, hi = kern.moments.lo, kern.moments.hi
        mass, _ = quad(lambda t: local_linear_density(kern, t), lo, hi, limit=100, epsabs=1e-13)
        mean, _ = quad(lambda t: t * local_linear_density(kern, t), lo, hi, limit=100, epsabs=1e-13)
        worst_mass = max(worst_mass, abs(mass - 1.0))
        worst_mean = max(worst_mean, abs(mean))
    ok = worst_mass <= 1e-10 and worst_mean <= 1e-10
    report(
        3,
        "kernel mass and zero-mean identities",
        ok,
        f"sup |mass-1| = {worst_mass:.2e}, sup |mean| = {worst_mean:.2e} over 1000 draws",
    )


def test_gate_04_band_halfwidth():
    hw = band_halfwidth(BandParameters(n=116))
    sample = rank_sample(CopulaModel("clayton", 2.0), 116, 1)
    grid = evaluate_grid(sample, 21, BandwidthPolicy.from_sample_size(116))
    bands = confidence_bands(grid, BandParameters(n=116))
    constant = np.array_equal(bands.upper, bands.values + hw) and np.array_equal(
        bands.lower, bands.values - hw
    )
    ok = abs(hw - 0.4919) <= 1e-4 and constant
    report(4, "band half-width formula", ok, f"halfwidth = {hw:.6f}, scalar shift everywhere")


def test_gate_05_containment_tables():
    settings = [
        ("clayton", 0.5), ("clayton", 2.0), ("clayton", 6.0),
        ("frank", -2.0), ("frank", 5.0), ("frank", 18.0),
    ]
    n, seeds_per_setting = 500, 20
    hw = band_halfwidth(BandParameters(n=n))
    pol = BandwidthPolicy.from_sample_size(n)
    detail = []
    ok = True
    for family, theta in settings:
        model = CopulaModel(family, theta)
        full_runs = 0
        for s in range(seeds_per_setting):
            sub = SeededStream(7000 + s).substreams(2)
            sample = rank_sample(model, n, sub[0].seed)
            pts = sub[1].generator().random((10, 2))
            est = ll_copula_estimate(sample, pts[:, 0], pts[:, 1], pol)
            truth = cdf(model, pts[:, 0], pts[:, 1])
            full_runs += bool(np.all((est - hw <= truth) & (truth <= est + hw)))
        ok &= full_runs >= 19
        detail.append(f"{family}({theta:g})={full_runs}/20")
    report(5, "containment at the table points", ok, ", ".join(detail))


def test_gate_06_oracle_equivalence():
    n = 2000
    pol = BandwidthPolicy.from_sample_size(n)
    grid = np.linspace(0.0, 1.0, 21)
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    detail = []
    ok = True
    for model in (
        CopulaModel("clayton", 2.0),
        CopulaModel("frank", 5.0),
        CopulaModel("gumbel", 1.69),
        CopulaModel("independence"),
    ):
        sample = rank_sample(model, n, 42)
        ge = evaluate_grid(sample, 21, pol)
        gap = np.abs(ge.values - empirical_copula(sample, uu, vv)).max()
        ok &= gap <= 2.0 * pol.h_max
        detail.append(f"{model.family}={gap:.4f}")
    report(6, "smoothed vs unsmoothed oracle", ok, f"sup gaps {detail} vs bound {2*pol.h_max:.4f}")


def test_gate_07_bias_decay_on_independent_data():
    # Independent data, centre point, default policy at h0 = 1/log n, h0/2 and h0/4.
    # The leading bias term (h^2/2) mu_2(K) (C_uu + C_vv) vanishes for
    # Pi(u, v) = uv.  Under independence the pairing of u-ranks with v-ranks
    # is a uniformly random permutation, so E[C_hat] is the estimator averaged
    # over every pairing; the n cyclic re-pairings of one rank sample cover
    # each (u-rank, v-rank) pair exactly once and give that average exactly.
    # The lattice {i/(n+1)} is symmetric about 1/2 and the centre factor obeys
    # K(-t) = 1 - K(t), so E[C_hat(1/2, 1/2)] = 1/4 at every bandwidth.
    n, reps = 2000, 400
    model = CopulaModel("independence")
    seeds = [s.seed for s in SeededStream(20260810).substreams(reps)]
    samples = [rank_sample(model, n, sd) for sd in seeds]
    ranks = samples[0]
    h0 = 1.0 / np.log(n)
    ok = True
    detail = []
    for label, h in (("h0", h0), ("h0/2", h0 / 2.0), ("h0/4", h0 / 4.0)):
        pol = BandwidthPolicy.from_sample_size(n, h_n=h)
        exact = np.mean([
            ll_copula_estimate(PseudoSample(ranks.u, np.roll(ranks.v, k)), 0.5, 0.5, pol)
            for k in range(n)
        ])
        vals = np.array([ll_copula_estimate(s, 0.5, 0.5, pol) for s in samples])
        se = vals.std(ddof=1) / np.sqrt(reps)
        z = (vals.mean() - exact) / se
        ok &= abs(exact - 0.25) <= 1e-12 and abs(z) <= 3.0
        detail.append(
            f"{label}: exact bias {exact - 0.25:+.1e}, "
            f"mc bias {vals.mean() - 0.25:+.2e} (se {se:.1e}, z {z:+.2f})"
        )
    report(7, "zero centre bias on independent data", ok, "; ".join(detail))


def test_gate_08_inner_band_must_fail():
    n, reps = 1000, 100
    model = CopulaModel("clayton", 2.0)
    inner = shrunken_halfwidth(BandParameters(n=n, epsilon=0.99))
    pol = BandwidthPolicy.from_sample_size(n)
    grid = np.linspace(0.0, 1.0, 21)
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    truth = cdf(model, uu, vv)
    hits = 0
    for seed in range(reps):
        sample = rank_sample(model, n, 31_000 + seed)
        ge = evaluate_grid(sample, 21, pol)
        hits += bool(np.abs(ge.values - truth).max() <= inner)
    rate = hits / reps
    report(
        8,
        "shrunken inner band fails",
        rate < 0.5,
        f"full-grid containment rate {rate:.2f} at half-width {inner:.5f}",
    )


def test_gate_09_model_recovery():
    generators = [
        CopulaModel("clayton", 2.0),
        CopulaModel("gumbel", 1.69),
        CopulaModel("frank", 4.33),
    ]
    detail = []
    ok = True
    for model in generators:
        wins = 0
        for seed in range(20):
            sample = rank_sample(model, 1000, 92_000 + seed)
            wins += fit_families(sample).selected == model.family
        ok &= wins >= 18
        detail.append(f"{model.family}={wins}/20")
    report(9, "family recovery by likelihood ranking", ok, ", ".join(detail))


def test_gate_10_pipeline_determinism(tmp_path):
    def one_pass():
        s = str(tmp_path / "s.csv")
        b = str(tmp_path / "b.csv")
        p = str(tmp_path / "p.svg")
        assert cli_main(["sample", "--family", "clayton", "--theta", "2",
                         "--n", "400", "--seed", "123", "--out", s]) == 0
        assert cli_main(["bands", "--in", s, "--grid", "21", "--out", b]) == 0
        assert cli_main(["plot", "--in", b, "--out", p,
                         "--overlay", "clayton=2", "--overlay", "independence"]) == 0
        return Path(s).read_bytes(), Path(b).read_bytes(), Path(p).read_bytes()

    first = one_pass()
    second = one_pass()
    ok = all(a == b for a, b in zip(first, second))
    sizes = ", ".join(str(len(x)) for x in first)
    report(10, "seeded pipeline is byte-identical", ok, f"file sizes {sizes} bytes")


def test_rate_formula_spot_value():
    # companion spot value used by gate 04
    assert abs(rate_rn(116) - 6.099649015386191) < 1e-12
