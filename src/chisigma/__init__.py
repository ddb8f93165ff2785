"""Automatic noise-level and degrees-of-freedom estimation for magnitude MRI.

The package estimates the per-channel Gaussian noise standard deviation
sigma_g and the effective degrees of freedom N of 4D magnitude data by
identifying noise-only background voxels and fitting the gamma
distribution obtained under the change of variable t = m^2 / (2 sigma_g^2).
"""

from .errors import (
    ChiSigmaError,
    ConfigError,
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    NiftiError,
    NoNoiseVoxelsError,
    SchemaError,
)
from .identify import (
    RejectionBounds,
    SearchConfig,
    SliceEstimate,
    count_in_bounds,
    estimate_n_mle,
    estimate_n_moments,
    estimate_sigma,
    estimate_slice,
    estimate_volume,
    initial_grid,
    refine_grid,
    sigma_upper_bound,
)
from .io import (
    EstimateReport,
    build_report,
    read_nifti,
    read_report,
    write_nifti,
    write_report,
    write_slice_csv,
)
from .model import Volume4D
from .synth import (
    PhantomSpec,
    build_phantom,
    build_tau,
    corrupt,
    object_mask,
    sigma_from_snr,
    simulate,
    simulate_stream,
)

__version__ = "0.1.0"

__all__ = [
    "ChiSigmaError", "ConfigError", "ConvergenceError", "DegenerateDataError",
    "DomainError", "NiftiError", "NoNoiseVoxelsError", "SchemaError",
    "RejectionBounds", "SearchConfig", "SliceEstimate", "count_in_bounds",
    "estimate_slice", "estimate_volume", "initial_grid", "refine_grid",
    "sigma_upper_bound",
    "EstimateReport", "Volume4D", "build_report", "read_nifti", "read_report",
    "write_nifti", "write_report", "write_slice_csv",
    "estimate_n_mle", "estimate_n_moments", "estimate_sigma",
    "PhantomSpec", "build_phantom", "build_tau", "corrupt",
    "object_mask", "sigma_from_snr", "simulate", "simulate_stream",
    "__version__",
]
