"""Local-linear kernel copula estimation with simultaneous confidence bands."""

from .bands import (
    BandGrid,
    BandParameters,
    ContainmentReport,
    band_halfwidth,
    confidence_bands,
    containment_report,
    rate_rn,
    shrunken_halfwidth,
)
from .errors import (
    ConfigError,
    DegenerateKernelError,
    InputError,
    LLCopulaError,
    NumericalError,
)
from .estimator import (
    BandwidthPolicy,
    GridEvaluation,
    evaluate_grid,
    ll_copula_estimate,
)
from .families import (
    FAMILIES,
    CopulaModel,
    cdf,
    conditional_cdf,
    debye1,
    density,
    inverse_conditional,
    tau_from_theta,
    theta_from_tau,
)
from .fitting import FitReport, FitRow, empirical_kendall_tau, fit_families, log_likelihood
from .gridio import read_grid_csv, read_pairs_csv, write_grid_csv, write_pairs_csv
from .kernels import (
    KernelMoments,
    LocalKernel,
    kernel_moments,
    local_linear_cdf,
)
from .margins import (
    PseudoSample,
    RawSample,
    smoothed_marginal_cdf,
    to_pseudo,
    to_pseudo_ranks,
    to_pseudo_smoothed,
)
from .plotting import render_surface_svg
from .sampling import SeededStream, sample_copula

__version__ = "0.1.0"

__all__ = [
    "BandGrid",
    "BandParameters",
    "BandwidthPolicy",
    "ConfigError",
    "ContainmentReport",
    "CopulaModel",
    "DegenerateKernelError",
    "FAMILIES",
    "FitReport",
    "FitRow",
    "GridEvaluation",
    "InputError",
    "KernelMoments",
    "LLCopulaError",
    "LocalKernel",
    "NumericalError",
    "PseudoSample",
    "RawSample",
    "SeededStream",
    "band_halfwidth",
    "cdf",
    "conditional_cdf",
    "confidence_bands",
    "containment_report",
    "debye1",
    "density",
    "empirical_kendall_tau",
    "evaluate_grid",
    "fit_families",
    "inverse_conditional",
    "kernel_moments",
    "ll_copula_estimate",
    "local_linear_cdf",
    "log_likelihood",
    "rate_rn",
    "read_grid_csv",
    "read_pairs_csv",
    "render_surface_svg",
    "sample_copula",
    "shrunken_halfwidth",
    "smoothed_marginal_cdf",
    "tau_from_theta",
    "theta_from_tau",
    "to_pseudo",
    "to_pseudo_ranks",
    "to_pseudo_smoothed",
    "write_grid_csv",
    "write_pairs_csv",
]
