"""The chi noise distribution and closed-form parameter estimators.

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
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DomainError
from .specfun import inv_digamma, ln_gamma

__all__ = [
    "Volume4D",
    "VolumeStream",
    "ChiParams",
    "chi_pdf",
    "transform",
    "estimate_sigma",
    "estimate_n_moments",
    "estimate_n_mle",
    "sigma_from_moments",
    "n_from_moments",
    "n_from_log_moments",
]


def check_magnitudes(arr: np.ndarray) -> None:
    """Raise :class:`DomainError` unless every value is finite and nonnegative.

    The one home of this rule for in-memory magnitudes; min/max
    reductions propagate NaN and need no temporary arrays.
    """
    if arr.size == 0:
        return
    lo, hi = float(arr.min()), float(arr.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError("sample values must be finite")
    if lo < 0.0:
        raise DomainError("magnitude samples must be nonnegative")


def _spacing(spacing) -> tuple:
    if len(spacing) != 3 or any(not s > 0.0 for s in spacing):
        raise DomainError(f"spacing must be 3 positive reals, got {spacing}")
    return tuple(float(s) for s in spacing)


# Stored dtypes, as kind and item size; other input is kept as float64.
_STORED_TYPES = ("u1", "i2", "i4", "f4", "f8")


class Volume4D:
    """Dense 4D magnitude data, kept as stored, with voxel-spacing metadata.

    ``stored`` holds the values as a NIfTI file stores them: dtype u1,
    i2, i4, f4 or f8 (little-endian), C-ordered with shape (V, Z, Y, X),
    so that each 3D volume is one contiguous block. The magnitude signal
    is ``max(stored * slope + inter, 0)`` in float64, with ``scale =
    (slope, inter)``; :meth:`to_signal` is the one home of that rule,
    and code that reads the data takes one volume (or part of one) at a
    time through it, so no float64 4D array is built.

    Building one from an array runs :func:`check_magnitudes` on it once,
    so code handed a ``Volume4D`` trusts it and does not check again.
    The array is the signal itself (``scale`` is (1, 0)). An F-ordered
    (X, Y, Z, V) array is already volume-major and is adopted without a
    copy: the caller must not write to it afterwards. Any other array is
    copied into volume-major order, so later writes to it do not reach
    the volume. ``stored`` is read-only. :func:`chisigma.io.read_nifti`
    builds its volumes from the file's values and scaling, which it
    checks as it reads them.

    Parameters
    ----------
    voxels : array_like
        Shape (X, Y, Z, V), or (X, Y, Z) for a single volume. Values of
        another dtype than the five above are converted to float64.
    spacing : tuple of float
        Voxel edge lengths (dx, dy, dz) in mm.
    """

    def __init__(self, voxels, spacing=(1.0, 1.0, 1.0)):
        arr = np.asarray(voxels)
        if f"{arr.dtype.kind}{arr.dtype.itemsize}" not in _STORED_TYPES:
            arr = arr.astype(np.float64)
        if arr.ndim == 3:
            arr = arr[..., np.newaxis]
        if arr.ndim != 4:
            raise DomainError(f"volume must be 3D or 4D, got {arr.ndim} dimensions")
        if any(d < 1 for d in arr.shape):
            raise DomainError(f"volume axes must be nonempty, got {arr.shape}")
        check_magnitudes(arr)
        # A view of an F-ordered little-endian array, a volume-major copy
        # of anything else.
        stored = np.asarray(arr.T, dtype=arr.dtype.newbyteorder("<"), order="C")
        self._adopt(stored, spacing, (1.0, 0.0), clamp=False)

    @classmethod
    def _from_checked(cls, stored: np.ndarray, spacing, scale, clamp: bool) -> "Volume4D":
        # A volume over stored values whose scaled values the caller found
        # finite; ``clamp`` says some of them are negative.
        vol = cls.__new__(cls)
        vol._adopt(stored, spacing, (float(scale[0]), float(scale[1])), clamp)
        return vol

    def _adopt(self, stored, spacing, scale, clamp):
        # A view, so that freezing it leaves the caller's array writable.
        stored = stored.view()
        stored.flags.writeable = False
        self.stored = stored
        self.spacing = _spacing(spacing)
        self.scale = scale
        self._clamp = clamp

    @property
    def dims(self) -> tuple:
        """(X, Y, Z, V)."""
        return self.stored.shape[::-1]

    def to_signal(self, values: np.ndarray) -> np.ndarray:
        """Stored ``values`` as float64 signal: max(values * slope + inter, 0).

        Float64 values under identity scaling, none of them negative,
        come back as they are, without a copy.
        """
        slope, inter = self.scale
        identity = (slope, inter) == (1.0, 0.0)
        if values.dtype == np.float64 and identity and not self._clamp:
            return values
        out = values.astype(np.float64)
        if not identity:
            out *= slope
            out += inter
        if self._clamp:
            np.maximum(out, 0.0, out=out)
        return out

    @property
    def voxels(self) -> np.ndarray:
        """The signal as a read-only (X, Y, Z, V) float64 array.

        A zero-copy view (``stored.T``) for float64 data with identity
        scaling; otherwise a float64 copy of the whole volume, computed
        on each access. The estimation pipeline does not use it.
        """
        out = self.to_signal(self.stored)
        out.flags.writeable = False
        return out.T


class VolumeStream:
    """4D magnitude data handed over one 3D volume at a time.

    ``volumes`` yields the V volumes in order, each a float64 signal
    array of shape (Z, Y, X), the block a :class:`Volume4D`'s ``stored``
    holds for that volume. The values are trusted to be magnitudes, that
    is finite and nonnegative. A stream is read once:
    :func:`chisigma.io.write_nifti` writes each volume as it arrives, so
    no 4D array is ever built. Iterating checks each volume's shape and
    the volume count against ``dims``.

    Parameters
    ----------
    dims : tuple of int
        (X, Y, Z, V).
    volumes : iterable of ndarray
        The V volumes, each of shape (Z, Y, X).
    spacing : tuple of float
        Voxel edge lengths (dx, dy, dz) in mm.
    """

    def __init__(self, dims, volumes, spacing=(1.0, 1.0, 1.0)):
        if len(dims) != 4 or any(not isinstance(d, numbers.Integral) or d < 1 for d in dims):
            raise DomainError(f"dims must be 4 positive integers, got {dims}")
        self.dims = tuple(int(d) for d in dims)
        self.spacing = _spacing(spacing)
        self._volumes = volumes

    def __iter__(self):
        shape, count = self.dims[2::-1], self.dims[3]
        n = 0
        for vol in self._volumes:
            if n == count or vol.shape != shape:
                raise DomainError(f"stream volume {n} does not fit dims {self.dims}")
            n += 1
            yield vol
        if n != count:
            raise DomainError(f"stream ended after {n} of {count} volumes")


def _as_sample_array(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise DegenerateDataError("sample set is empty")
    check_magnitudes(arr)
    return arr


@dataclass(frozen=True)
class ChiParams:
    """Parameters of the signal-free magnitude distribution.

    ``sigma_g`` is the per-channel Gaussian noise standard deviation and
    ``n_dof`` the effective number of complex channels (fractional
    values allowed).
    """

    sigma_g: float
    n_dof: float

    def __post_init__(self):
        if not self.sigma_g > 0.0:
            raise DomainError(f"sigma_g must be positive, got {self.sigma_g}")
        if not self.n_dof > 0.0:
            raise DomainError(f"n_dof must be positive, got {self.n_dof}")


def chi_pdf(m, params: ChiParams):
    """Probability density of the magnitude of pure complex noise.

    Evaluates m^(2N-1) / (2^(N-1) sigma^(2N) Gamma(N)) * exp(-m^2 / (2 sigma^2))
    for N = ``params.n_dof`` and sigma = ``params.sigma_g``.

    Parameters
    ----------
    m : float or array_like
        Magnitude values, nonnegative.
    params : ChiParams
        Distribution parameters.

    Returns
    -------
    float or ndarray
        Density values, same shape as ``m``.
    """
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


def transform(samples, sigma: float) -> np.ndarray:
    """Map magnitude samples to gamma space via t = m^2 / (2 sigma^2).

    Returns the flattened float64 array of t values.
    """
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    arr = _as_sample_array(samples)
    return arr * arr / (2.0 * sigma * sigma)


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
    samples : array_like
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
