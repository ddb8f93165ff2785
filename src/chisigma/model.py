"""Noise distribution types and closed-form parameter estimators.

Magnitude values over signal-free voxels follow a central chi
distribution with ``n_dof`` complex channels and per-channel standard
deviation ``sigma_g``. The change of variable t = m^2 / (2 sigma_g^2)
maps those magnitudes to a gamma distribution with shape ``n_dof`` and
unit scale, which is what the estimators in this module exploit.

All estimators are pure functions of the sample values. Each formula
lives in a function of sample sums (``sigma_from_moments``,
``n_from_moments``, ``n_from_log_moments``), which the slice search
calls with sums of per-voxel moments; ``estimate_*`` validate a sample
array, sum it and call those. Summations use numpy's pairwise reduction,
so results are deterministic for a fixed sample ordering and accurate
for sample counts well past 10^6.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DomainError
from .specfun import inv_digamma, ln_gamma

__all__ = [
    "NoiseSampleSet",
    "GammaParams",
    "ChiParams",
    "TransformedSampleSet",
    "chi_pdf",
    "transform",
    "estimate_sigma",
    "estimate_n_moments",
    "estimate_n_mle",
    "sigma_from_moments",
    "n_from_moments",
    "n_from_log_moments",
]


def _as_sample_array(samples) -> np.ndarray:
    arr = samples.samples if isinstance(samples, NoiseSampleSet) else np.asarray(samples, dtype=np.float64)
    arr = arr.ravel()
    if arr.size == 0:
        raise DegenerateDataError("sample set is empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError("sample values must be finite")
    if np.any(arr < 0.0):
        raise DomainError("magnitude samples must be nonnegative")
    return arr


class NoiseSampleSet:
    """Validated collection of magnitude values from noise-only voxels.

    Parameters
    ----------
    samples : array_like
        Nonnegative magnitude values, flattened to one dimension. At
        least one value must be strictly positive.

    Attributes
    ----------
    samples : ndarray
        The validated float64 sample vector.
    count : int
        Number of samples K.
    """

    __slots__ = ("samples",)

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=np.float64).ravel()
        if arr.size == 0:
            raise DegenerateDataError("sample set is empty")
        if not np.all(np.isfinite(arr)):
            raise DomainError("sample values must be finite")
        if np.any(arr < 0.0):
            raise DomainError("magnitude samples must be nonnegative")
        if not np.any(arr > 0.0):
            raise DegenerateDataError("sample set has no positive values")
        arr.setflags(write=False)
        self.samples = arr

    @property
    def count(self) -> int:
        return self.samples.size

    def __len__(self) -> int:
        return self.samples.size

    def __repr__(self) -> str:
        return f"NoiseSampleSet(count={self.count})"


@dataclass(frozen=True)
class GammaParams:
    """Shape/scale parameters of a gamma distribution.

    The theoretical mean is ``alpha * beta`` and the variance is
    ``alpha * beta ** 2``.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise DomainError(f"gamma shape must be positive, got {self.alpha}")
        if not self.beta > 0.0:
            raise DomainError(f"gamma scale must be positive, got {self.beta}")

    @property
    def mean(self) -> float:
        return self.alpha * self.beta

    @property
    def variance(self) -> float:
        return self.alpha * self.beta ** 2


@dataclass(frozen=True)
class ChiParams:
    """Parameters of the magnitude-signal distribution.

    ``sigma_g`` is the per-channel Gaussian noise standard deviation,
    ``n_dof`` the effective number of complex channels (fractional
    values allowed), and ``eta`` the underlying noiseless intensity
    (zero over background).
    """

    sigma_g: float
    n_dof: float
    eta: float = 0.0

    def __post_init__(self):
        if not self.sigma_g > 0.0:
            raise DomainError(f"sigma_g must be positive, got {self.sigma_g}")
        if not self.n_dof > 0.0:
            raise DomainError(f"n_dof must be positive, got {self.n_dof}")
        if not self.eta >= 0.0:
            raise DomainError(f"eta must be nonnegative, got {self.eta}")


@dataclass(frozen=True)
class TransformedSampleSet:
    """Samples mapped to gamma space, t_k = m_k^2 / (2 sigma^2)."""

    t_values: np.ndarray

    @property
    def count(self) -> int:
        return self.t_values.size


def chi_pdf(m, params: ChiParams):
    """Probability density of the magnitude of pure complex noise.

    Evaluates m^(2N-1) / (2^(N-1) sigma^(2N) Gamma(N)) * exp(-m^2 / (2 sigma^2))
    for N = ``params.n_dof`` and sigma = ``params.sigma_g``.

    Parameters
    ----------
    m : float or array_like
        Magnitude values, nonnegative.
    params : ChiParams
        Distribution parameters; ``eta`` must be zero (only the
        signal-free density is modeled).

    Returns
    -------
    float or ndarray
        Density values, same shape as ``m``.
    """
    if params.eta != 0.0:
        raise DomainError("chi_pdf models signal-free voxels only (eta must be 0)")
    m_arr = np.asarray(m, dtype=np.float64)
    if np.any(m_arr < 0.0):
        raise DomainError("magnitude must be nonnegative")
    n = params.n_dof
    sigma = params.sigma_g
    log_norm = (n - 1.0) * math.log(2.0) + 2.0 * n * math.log(sigma) + ln_gamma(n)
    out = np.zeros_like(m_arr, dtype=np.float64)
    pos = m_arr > 0.0
    mp = m_arr[pos]
    out[pos] = np.exp((2.0 * n - 1.0) * np.log(mp) - mp * mp / (2.0 * sigma * sigma) - log_norm)
    if np.any(~pos):
        # At m = 0 the density is 0 for N > 1/2, finite for the
        # half-Gaussian case N = 1/2, divergent below.
        if n == 0.5:
            out[~pos] = math.exp(-log_norm)
        elif n < 0.5:
            out[~pos] = np.inf
    if np.isscalar(m) or np.ndim(m) == 0:
        return float(out)
    return out


def transform(samples, sigma: float) -> TransformedSampleSet:
    """Map magnitude samples to gamma space via t = m^2 / (2 sigma^2)."""
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    arr = _as_sample_array(samples)
    t = arr * arr / (2.0 * sigma * sigma)
    return TransformedSampleSet(t_values=t)


def sigma_from_moments(s2: float, s4: float, k: int) -> float:
    """Noise standard deviation from the sums of m^2 and m^4 over K samples.

        sigma = sqrt( s4/s2 - s2/K ) / sqrt(2)

    Raises :class:`DegenerateDataError` for fewer than two samples, an
    all-zero sample set, or moments that leave no spread.
    """
    if k < 2:
        raise DegenerateDataError("sigma estimation needs at least 2 samples")
    if s2 <= 0.0:
        raise DegenerateDataError("all samples are zero")
    term = s4 / s2 - s2 / k
    if term <= 0.0:
        raise DegenerateDataError(
            "sample moments are degenerate (all values equal or nearly so)"
        )
    return math.sqrt(term) / math.sqrt(2.0)


def n_from_moments(s2: float, k: int, sigma: float) -> float:
    """Degrees of freedom N = s2 / (2 K sigma^2), the mean of t = m^2/(2 sigma^2)."""
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    return s2 / (2.0 * k * sigma * sigma)


def n_from_log_moments(sum_log: float, k: int, n_zero: int, sigma: float,
                       ref: float) -> float:
    """Maximum-likelihood degrees of freedom from a sum of logs.

    ``sum_log`` is the sum of log(m^2 / ref) over the K - n_zero positive
    samples of a set of K. Then N = inv_digamma(mean(log(m^2 / (2 sigma^2)))),
    the mean being sum_log / (K - n_zero) + log(ref / (2 sigma^2)). Any
    positive ``ref`` gives the same N up to roundoff; passing 2 sigma^2
    makes the correction term exactly zero.

    Exact-zero samples are scanner padding rather than noise draws; they
    are dropped with a warning as long as at least 90% of the samples are
    positive, and rejected as a domain error otherwise.
    """
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if n_zero > 0:
        if n_zero > 0.1 * k:
            raise DomainError(
                f"{n_zero} of {k} samples are zero; "
                "too many for a log-likelihood fit"
            )
        warnings.warn(
            f"dropped {n_zero} zero-valued samples before likelihood fit",
            RuntimeWarning,
            stacklevel=3,
        )
    mean_log_t = sum_log / (k - n_zero) + math.log(ref / (2.0 * sigma * sigma))
    return inv_digamma(mean_log_t)


def estimate_sigma(samples) -> float:
    """Estimate the Gaussian noise standard deviation from noise samples.

    Uses the moments of the magnitude values:

        sigma = sqrt( sum(m^4)/sum(m^2) - sum(m^2)/K ) / sqrt(2)

    Parameters
    ----------
    samples : NoiseSampleSet or array_like
        At least two magnitude values, not all equal.

    Returns
    -------
    float
        The estimated standard deviation, strictly positive.
    """
    arr = _as_sample_array(samples)
    m2 = arr * arr
    return sigma_from_moments(float(np.sum(m2)), float(np.sum(m2 * m2)), arr.size)


def estimate_n_moments(samples, sigma: float) -> float:
    """Estimate the effective degrees of freedom from the second moment.

    Computes N = sum(m^2) / (2 K sigma^2), the sample mean of the
    transformed values t_k = m_k^2 / (2 sigma^2).
    """
    arr = _as_sample_array(samples)
    return n_from_moments(float(np.sum(arr * arr)), arr.size, sigma)


def estimate_n_mle(samples, sigma: float) -> float:
    """Estimate the effective degrees of freedom by maximum likelihood.

    Computes N = inv_digamma( mean(log(m^2 / (2 sigma^2))) ), dropping or
    rejecting exact-zero samples as :func:`n_from_log_moments` describes.
    """
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    arr = _as_sample_array(samples)
    pos = arr[arr > 0.0]
    ref = 2.0 * sigma * sigma
    sum_log = float(np.sum(np.log(pos * pos / ref)))
    return n_from_log_moments(sum_log, arr.size, arr.size - pos.size, sigma, ref)
