"""Command-line workflow: sample / estimate / bands / fit / plot / reproduce.

Every output file carries a trailing metadata block echoing the full run
configuration, and all randomness flows from the single --seed flag, so a
run is reproducible byte for byte from its command line.  Each subcommand
accepts only the flags it reads (the ``_FLAGS`` table); any other flag is an
argparse usage error, exit code 2.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace


from .bands import BandParameters, band_halfwidth, confidence_bands
from .errors import ConfigError, LLCopulaError
from .estimator import BandwidthPolicy, evaluate_grid, ll_copula_estimate
from .families import CLAYTON, FRANK, GUMBEL, CopulaModel, cdf
from .fitting import fit_families
from .gridio import meta_line, read_grid_csv, read_pairs_csv, write_csv, write_grid_csv, write_pairs_csv
from .margins import RawSample, to_pseudo
from .plotting import render_surface_svg
from .sampling import SeededStream, sample_copula

EXIT_CODES = {"config": 2, "input": 3, "numeric": 4, "error": 1}

REPRODUCE_THETAS = {CLAYTON: (0.5, 2.0, 6.0), FRANK: (-2.0, 5.0, 18.0)}
REPRODUCE_POINTS = 10


@dataclass
class RunConfig:
    """Flat record of one CLI invocation; echoed into output metadata.

    The field defaults are the CLI's flag defaults: the parser leaves unset
    flags out of its namespace so that these apply.
    """

    command: str
    family: str | None = None
    theta: float | None = None
    n: int = 500
    seed: int = 0
    grid_size: int = 101
    alpha: float = 0.5
    h_n: float | None = None
    A_c: float = 3.0
    epsilon: float = 0.0
    transform: str = "rank"
    clip: bool = False
    input_path: str | None = None
    output_path: str | None = None
    overlays: tuple[str, ...] = ()
    thetas: tuple[float, ...] | None = None

    def as_meta(self) -> dict[str, str]:
        meta = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ";".join(str(x) for x in value)
            meta[f.name] = str(value)
        return meta


def _parse_overlay(text: str) -> CopulaModel:
    name, eq, theta = text.partition("=")
    try:
        return CopulaModel(name.strip(), float(theta) if eq else None)
    except ValueError:
        raise ConfigError(f"overlay {text!r} has a non-numeric parameter") from None


def _model_from_config(config: RunConfig) -> CopulaModel:
    if config.family is None:
        raise ConfigError("--family is required")
    return CopulaModel(config.family, config.theta)


def validate_config(config: RunConfig) -> list[str]:
    """Collect every configuration problem before any work starts."""
    problems = []
    if config.command in ("sample", "reproduce"):
        try:
            if config.command == "sample":
                _model_from_config(config)
            elif str(config.family).lower() not in REPRODUCE_THETAS:
                raise ConfigError("reproduce supports --family clayton or frank")
        except ConfigError as exc:
            problems.append(str(exc))
        if config.n < 1:
            problems.append(f"sample size must be >= 1, got {config.n}")
    for theta in config.thetas or ():
        try:
            if str(config.family).lower() in (CLAYTON, FRANK, GUMBEL):
                CopulaModel(config.family, theta)
            elif not math.isfinite(theta):
                raise ConfigError(f"parameter list values must be finite, got {theta}")
        except ConfigError as exc:
            problems.append(str(exc))
    if not 0 <= config.seed < 2**64:
        problems.append(f"seed must fit in 64 unsigned bits, got {config.seed}")
    if config.grid_size < 2:
        problems.append(f"grid size must be >= 2, got {config.grid_size}")
    if not (math.isfinite(config.alpha) and config.alpha > 0):
        problems.append(f"shrink exponent must be positive, got {config.alpha}")
    if config.h_n is not None and not (math.isfinite(config.h_n) and config.h_n > 0):
        problems.append(f"bandwidth override must be positive, got {config.h_n}")
    rate_ok = 0 < config.A_c <= 3
    if not rate_ok:
        problems.append(f"rate constant must satisfy 0 < A_c <= 3, got {config.A_c}")
    # BandParameters' check, refused here before any input is read; a bad A_c is reported once.
    if not (config.epsilon >= 0 and math.isfinite((1 + config.epsilon) * (config.A_c if rate_ok else 1))):
        problems.append(f"inflation must be nonnegative with (1 + epsilon) * A_c finite, got {config.epsilon}")
    if config.command in ("estimate", "bands", "fit", "plot") and not config.input_path:
        problems.append(f"{config.command} requires --in")
    if config.command != "fit" and not config.output_path:
        problems.append(f"{config.command} requires --out")
    # Every command but plot echoes the configuration into its output file.
    if config.command != "plot" and config.output_path:
        for key, value in config.as_meta().items():
            try:
                meta_line(key, value)
            except ConfigError as exc:
                problems.append(str(exc))
    if len(config.overlays) > 3:
        problems.append("at most 3 overlays are supported")
    for overlay in config.overlays:
        try:
            _parse_overlay(overlay)
        except ConfigError as exc:
            problems.append(str(exc))
    return problems


def _pseudo_from_file(config: RunConfig):
    sample, diagnostics = read_pairs_csv(config.input_path)
    if diagnostics.blank_lines:
        print(f"note: skipped {diagnostics.blank_lines} blank lines", file=sys.stderr)
    return to_pseudo(sample, transform=config.transform)


def _policy_for(config: RunConfig) -> BandwidthPolicy:
    return BandwidthPolicy.from_sample_size(config.n, h_n=config.h_n, alpha=config.alpha)


def _estimate_from_file(config: RunConfig):
    """Grid estimate of the --in pairs, with the config echo (n is the file's
    row count) and the derived bandwidth policy actually used as its meta."""
    pseudo = _pseudo_from_file(config)
    config = replace(config, n=pseudo.n)
    policy = _policy_for(config)
    meta = {
        **config.as_meta(),
        "policy_h_n": policy.h_n,
        "policy_h_min": policy.h_min,
        "policy_h_max": policy.h_max,
        "policy_alpha": policy.alpha,
    }
    return replace(evaluate_grid(pseudo, config.grid_size, policy), meta=meta)


def cmd_sample(config: RunConfig) -> int:
    model = _model_from_config(config)
    draws = sample_copula(model, config.n, SeededStream(config.seed))
    write_pairs_csv(config.output_path, draws.u, draws.v, meta=config.as_meta())
    print(f"wrote {config.n} draws from {model.label()} to {config.output_path}")
    return 0


def cmd_estimate(config: RunConfig) -> int:
    write_grid_csv(_estimate_from_file(config), config.output_path)
    print(f"wrote {config.grid_size}x{config.grid_size} estimate grid to {config.output_path}")
    return 0


def cmd_bands(config: RunConfig) -> int:
    grid = _estimate_from_file(config)
    params = BandParameters(n=grid.n, A_c=config.A_c, epsilon=config.epsilon)
    result = confidence_bands(grid, params, clip_to_frechet=config.clip)
    write_grid_csv(result, config.output_path)
    print(
        f"wrote bands (half-width {result.halfwidth:.6f}) on a "
        f"{config.grid_size}x{config.grid_size} grid to {config.output_path}"
    )
    return 0


def cmd_fit(config: RunConfig) -> int:
    pseudo = _pseudo_from_file(config)
    config = replace(config, n=pseudo.n)
    report = fit_families(pseudo)
    print(f"empirical kendall tau: {report.tau_hat:.6f}")
    print(f"{'family':<14}{'theta':>12}{'log-likelihood':>18}  note")
    for row in report.rows:
        theta = f"{row.theta:.4f}" if row.theta is not None else "-"
        ll = f"{row.log_likelihood:.4f}" if row.log_likelihood is not None else "n/a"
        note = row.note or ("" if row.applicable else "inapplicable")
        print(f"{row.family:<14}{theta:>12}{ll:>18}  {note}")
    print(f"selected: {report.selected}")
    if config.output_path:
        rows = [
            (row.family, row.theta, row.log_likelihood, int(row.applicable), row.note)
            for row in report.rows
        ]
        meta = {**config.as_meta(), "tau_hat": report.tau_hat, "selected": report.selected}
        header = ("family", "theta", "log_likelihood", "applicable", "note")
        write_csv(config.output_path, header, rows, meta)
    return 0


def cmd_plot(config: RunConfig) -> int:
    grid = read_grid_csv(config.input_path)
    overlays = tuple(_parse_overlay(o) for o in config.overlays)
    render_surface_svg(grid, config.output_path, overlays=overlays)
    print(f"wrote figure to {config.output_path}")
    return 0


def cmd_reproduce(config: RunConfig) -> int:
    """Containment tables: simulate, estimate at 10 uniform points, band, verdict."""
    thetas = config.thetas or REPRODUCE_THETAS[config.family.lower()]
    streams = SeededStream(config.seed).substreams(2 * len(thetas))
    params = BandParameters(n=config.n, A_c=config.A_c, epsilon=config.epsilon)
    halfwidth = band_halfwidth(params)
    rows = []
    all_contained = True
    for k, theta in enumerate(thetas):
        model = CopulaModel(config.family, theta)
        draws = sample_copula(model, config.n, streams[2 * k])
        pseudo = to_pseudo(RawSample(draws.u, draws.v), transform=config.transform)
        points = streams[2 * k + 1].generator().random((REPRODUCE_POINTS, 2))
        estimates = ll_copula_estimate(pseudo, points[:, 0], points[:, 1], _policy_for(config))
        truth = cdf(model, points[:, 0], points[:, 1])
        lower = estimates - halfwidth
        upper = estimates + halfwidth
        contained = (lower <= truth) & (truth <= upper)
        all_contained &= bool(contained.all())
        verdicts = ("yes" if c else "no" for c in contained)
        rows.extend(zip([theta] * REPRODUCE_POINTS, *points.T, lower, truth, upper, verdicts))
    meta = {**config.as_meta(), "halfwidth": halfwidth}
    header = ("theta", "u", "v", "lower", "true_value", "upper", "contained")
    write_csv(config.output_path, header, rows, meta)
    verdict = "all contained" if all_contained else "violations present"
    print(
        f"wrote {len(thetas) * REPRODUCE_POINTS} containment rows "
        f"({verdict}) to {config.output_path}"
    )
    return 0


_COMMANDS = {
    "sample": (cmd_sample, "draw from a parametric copula"),
    "estimate": (cmd_estimate, "smoothed copula estimate on a grid"),
    "bands": (cmd_bands, "estimate plus confidence bands"),
    "fit": (cmd_fit, "tau-inversion fits and likelihood ranking"),
    "plot": (cmd_plot, "render a band grid as SVG"),
    "reproduce": (cmd_reproduce, "containment tables for simulated data"),
}

# Each flag, its argparse arguments and the subcommands that read it; any
# other subcommand rejects it as a usage error.
_FLAGS = (
    ("--family", dict(type=str), "sample reproduce"),
    ("--theta", dict(type=float), "sample"),
    ("--n", dict(type=int), "sample reproduce"),
    ("--seed", dict(type=int), "sample reproduce"),
    ("--grid", dict(type=int, dest="grid_size"), "estimate bands"),
    ("--alpha", dict(type=float, help="shrink exponent"), "estimate bands reproduce"),
    ("--hn", dict(type=float, dest="h_n", help="global bandwidth override"), "estimate bands reproduce"),
    ("--Ac", dict(type=float, dest="A_c", help="band rate constant"), "bands reproduce"),
    ("--epsilon", dict(type=float), "bands reproduce"),
    ("--transform", dict(choices=("rank", "smoothed")), "estimate bands fit reproduce"),
    ("--clip", dict(action="store_true", help="clip bands to the copula envelope"), "bands"),
    ("--in", dict(type=str, dest="input_path"), "estimate bands fit plot"),
    ("--out", dict(type=str, dest="output_path"), "sample estimate bands fit plot reproduce"),
    ("--overlay", dict(action="append", dest="overlays",
                       help="family=theta curve to draw, repeatable up to 3 times"), "plot"),
    ("--theta-list", dict(type=float, nargs="+", dest="thetas",
                          help="override the per-family default parameter list"), "reproduce"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llcopula",
        description="Local-linear kernel copula estimation with simultaneous confidence bands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary) in _COMMANDS.items():
        # Unset flags stay out of the namespace; RunConfig holds the defaults.
        # No abbreviations: reproduce would read --theta as --theta-list.
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for flag, kwargs, commands in _FLAGS:
            if name in commands.split():
                p.add_argument(flag, **kwargs)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = dict(vars(args))
    for name in ("overlays", "thetas"):
        if name in values:
            values[name] = tuple(values[name])
    return RunConfig(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    problems = validate_config(config)
    if problems:
        for problem in problems:
            print(f"error:config: {problem}", file=sys.stderr)
        return EXIT_CODES["config"]
    try:
        return _COMMANDS[config.command][0](config)
    except LLCopulaError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)


if __name__ == "__main__":
    sys.exit(main())
