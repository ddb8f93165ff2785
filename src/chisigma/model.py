"""Magnitude data types, shared input rules and the formulas of the estimators.

``Volume4D`` and ``VolumeStream`` carry 4D magnitude data, whole or one
volume at a time. The estimators use the change of variable
t = m^2 / (2 sigma_g^2), which maps signal-free magnitudes (central chi
with ``n_dof`` complex channels of standard deviation ``sigma_g``) to a
gamma law with shape ``n_dof`` and unit scale.

Each estimator is a formula of a few sample sums (``sigma_from_moments``,
``n_from_moments``, ``n_from_log_moments``). The sums come from one
moment pass in :mod:`chisigma.identify`, which serves both the slice
search and the sample-array estimators ``estimate_*`` there, so this
module squares no magnitudes.
"""

import functools
import math
import numbers
import warnings

import numpy as np

from .errors import DegenerateDataError, DomainError
from .specfun import inv_digamma

__all__ = [
    "Volume4D",
    "VolumeStream",
    "sigma_from_moments",
    "n_from_moments",
    "n_from_log_moments",
]


def check_magnitudes(arr: np.ndarray) -> None:
    """Raise :class:`DomainError` unless every value is finite and nonnegative.

    The one home of this rule for in-memory magnitudes, which its callers
    have found nonempty; min/max reductions propagate NaN and need no
    temporary arrays.
    """
    lo, hi = float(arr.min()), float(arr.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError("sample values must be finite")
    if lo < 0.0:
        raise DomainError("magnitude samples must be nonnegative")


def _is_whole(x) -> bool:
    """True for an integer or a finite real with no fractional part.

    The one home of this rule. int() raises on inf and NaN, and
    math.isfinite on ints beyond float range, so integers go first.
    """
    if isinstance(x, numbers.Integral):
        return True
    return isinstance(x, numbers.Real) and math.isfinite(x) and int(x) == x


def _spacing(spacing) -> tuple:
    if len(spacing) != 3 or any(not s > 0.0 for s in spacing):
        raise DomainError(f"spacing must be 3 positive reals, got {spacing}")
    return tuple(float(s) for s in spacing)


# Stored dtypes by NIfTI-1 datatype code; other input is kept as float64.
_STORED_TYPES = {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8"}


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

    A volume that :func:`chisigma.io.read_nifti` leaves *file-backed*
    (every uncompressed file) holds the header's dims, dtype, scaling
    and the results of that check, but no voxel data: the estimation
    pipeline, :func:`chisigma.io.volume_fingerprint` and
    :func:`chisigma.io.write_nifti` read its file again in passes of a
    few volumes, and only what they reduce it to stays in memory. Its
    ``stored`` (and so ``voxels``) reads the whole file into memory when
    first accessed and keeps it. Its file must stay in place while the
    volume is used: a pass over a file that changed since the check,
    or that ``write_nifti`` replaced, raises
    :class:`~chisigma.errors.NiftiError`.

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
        if f"{arr.dtype.kind}{arr.dtype.itemsize}" not in _STORED_TYPES.values():
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
    def _from_checked(cls, stored, spacing, scale, clamp: bool, sample) -> "Volume4D":
        # A volume over stored values whose scaled values the caller found
        # finite; ``clamp`` says some of them are negative. ``stored`` is an
        # array, or a file source read in passes: an object with the
        # ``shape`` (V, Z, Y, X) and ``dtype`` of the stored array whose
        # ``groups()`` yields that array's consecutive blocks of whole
        # volumes, each valid until the next is taken. ``sample`` is the
        # sorted sample that brackets the median, taken while checking (see
        # identify._median_sample).
        vol = cls.__new__(cls)
        vol._adopt(stored, spacing, (float(scale[0]), float(scale[1])), clamp, sample)
        return vol

    def _adopt(self, stored, spacing, scale, clamp, sample=None):
        if isinstance(stored, np.ndarray):
            # A view, so that freezing it leaves the caller's array writable.
            stored = stored.view()
            stored.flags.writeable = False
            self._stored, self._source = stored, None
        else:
            self._stored, self._source = None, stored
        self._shape = tuple(stored.shape)
        self.dtype = stored.dtype
        self.spacing = _spacing(spacing)
        self.scale = scale
        self._clamp = clamp
        self._sample = sample

    @property
    def stored(self) -> np.ndarray:
        """The stored values, shape (V, Z, Y, X), read-only.

        On a file-backed volume the first access reads the whole file.
        """
        if self._stored is None:
            stored = np.empty(self._shape, self.dtype)
            v = 0
            for group in self._source.groups():
                stored[v:v + len(group)] = group
                v += len(group)
            stored.flags.writeable = False
            self._stored = stored
        return self._stored

    @property
    def dims(self) -> tuple:
        """(X, Y, Z, V)."""
        return self._shape[::-1]

    def _groups(self):
        # The stored array as consecutive (g, Z, Y, X) blocks of whole
        # volumes: all of it at once when it is in memory, else a few
        # volumes at a time from the file, each block valid only until the
        # next is taken.
        if self._stored is not None:
            yield self._stored
        else:
            yield from self._source.groups()

    def to_signal(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Stored ``values`` as float64 signal: max(values * slope + inter, 0).

        Float64 values under identity scaling, none of them negative,
        come back as they are, without a copy. Otherwise the signal is
        written to ``out`` (a float64 array of the same shape) when it
        is given, or to a new array.
        """
        slope, inter = self.scale
        identity = (slope, inter) == (1.0, 0.0)
        if values.dtype == np.float64 and identity and not self._clamp:
            return values
        if out is None:
            out = values.astype(np.float64)
        else:
            np.copyto(out, values)
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
        on each access. The estimation pipeline does not use it. On a
        file-backed volume it reads the whole file, as ``stored`` does.
        """
        out = self.to_signal(self.stored)
        out.flags.writeable = False
        return out.T


class VolumeStream:
    """4D magnitude data handed over one 3D volume at a time.

    ``volumes`` yields the V volumes in order. Each is a float64 signal
    array of shape (Z, Y, X), the block a :class:`Volume4D`'s ``stored``
    holds for that volume, or a *maker* of one: a callable ``make(out=None)``
    that returns the volume in a new float64 array, or, given ``out`` (an
    array of that shape, of any real dtype), writes it into ``out`` with
    numpy's assignment cast and returns ``out``. A maker depends on no
    other, so makers may run on several threads at once and in any order.
    The values are trusted to be magnitudes, that is finite and
    nonnegative. A stream is read once, through :meth:`makers` or by
    iterating it: :func:`chisigma.io.write_nifti` draws each volume
    straight into a float32 buffer of its own, on its deflate threads for
    a ``.gz`` file, and writes it, so no 4D array is ever built.

    Parameters
    ----------
    dims : tuple of int
        (X, Y, Z, V).
    volumes : iterable of ndarray or callable
        The V volumes, each of shape (Z, Y, X), or their makers.
    spacing : tuple of float
        Voxel edge lengths (dx, dy, dz) in mm.
    """

    def __init__(self, dims, volumes, spacing=(1.0, 1.0, 1.0)):
        if len(dims) != 4 or any(not isinstance(d, numbers.Integral) or d < 1 for d in dims):
            raise DomainError(f"dims must be 4 positive integers, got {dims}")
        self.dims = tuple(int(d) for d in dims)
        self.spacing = _spacing(spacing)
        self._volumes = volumes

    def makers(self):
        """Yield one maker per volume, in order; an array is lent as one.

        Taking the makers checks the volume count, and each array's shape,
        against ``dims``; a maker's volume has the shape of ``dims``.
        """
        shape, count = self.dims[2::-1], self.dims[3]
        n = 0
        for vol in self._volumes:
            if n == count or not (callable(vol) or vol.shape == shape):
                raise DomainError(f"stream volume {n} does not fit dims {self.dims}")
            n += 1
            yield vol if callable(vol) else functools.partial(_lend, vol)
            del vol  # let the volume go before the next one is made
        if n != count:
            raise DomainError(f"stream ended after {n} of {count} volumes")

    def __iter__(self):
        for make in self.makers():
            yield make()


def _lend(vol: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # The maker of a volume that already exists.
    if out is None:
        return vol
    out[...] = vol
    return out


_OVERFLOW = ("the sums of m^2 and m^4 overflow float64: magnitudes above about 1.2e77 (m^4) "
             "or 1.3e154 (m^2) units, the unit being 1, or a power of two near the median for "
             "data beyond 2^-128..2^128: outliers far above the rest of the data")
_UNDERFLOW = ("the sum of log(m^2 / (2 sigma^2)) is -inf: for some positive magnitude m^2 "
              "underflows float64 to 0, or m^2 / (2 sigma^2) does: magnitudes far below the "
              "rest of the data, or sigma far above them")


def _check_sigma(sigma: float, unit: float = 1.0) -> float:
    # sigma / unit, for the formulas below given sums of powers of m / unit,
    # refused unless it and 2 (sigma / unit)^2 are positive (the square is 0
    # below about 1.6e-162). The one home of this rule; the error names sigma
    # as the caller gave it.
    s = float(sigma) / unit
    if not (s > 0.0 and 2.0 * s * s > 0.0):
        where = "" if unit == 1.0 else f" in units of {unit!r}"
        raise DomainError(f"sigma must be positive, with 2 sigma^2 > 0{where}, got {sigma}")
    return s


def sigma_from_moments(s2: float, s4: float, k: int) -> float:
    """Noise standard deviation from the sums of m^2 and m^4 over K samples.

        sigma = sqrt( s4/s2 - s2/K ) / sqrt(2)

    Raises :class:`DegenerateDataError` for fewer than two samples, an
    all-zero sample set, or moments that leave no spread, and
    :class:`DomainError` when a sum is not finite: m^4 overflows float64
    for magnitudes above about 1.2e77, and a sum of K of them for
    magnitudes above about 1.2e77 / K^(1/4).
    """
    if k < 2:
        raise DegenerateDataError("sigma estimation needs at least 2 samples")
    if not (math.isfinite(s2) and math.isfinite(s4)):
        raise DomainError(_OVERFLOW)
    if s2 <= 0.0:
        raise DegenerateDataError("all samples are zero")
    term = s4 / s2 - s2 / k
    if term <= 0.0:
        raise DegenerateDataError(
            "sample moments are degenerate (all values equal or nearly so)"
        )
    return math.sqrt(term) / math.sqrt(2.0)


def n_from_moments(s2: float, k: int, sigma: float) -> float:
    """Degrees of freedom N = s2 / (2 K sigma^2), the mean of t = m^2/(2 sigma^2).

    Raises :class:`DomainError` when N overflows float64, as it does for
    ordinary magnitudes once 2 sigma^2 is subnormal.
    """
    _check_sigma(sigma)
    if not math.isfinite(s2):
        raise DomainError(_OVERFLOW)
    n = s2 / (2.0 * k * sigma * sigma)
    if not math.isfinite(n):
        raise DomainError(f"N = sum(m^2) / (2 K sigma^2) overflows float64 at sigma = {sigma!r}: "
                          "sigma is too small for the magnitudes, as when 2 sigma^2 is subnormal")
    return n


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
    positive, and rejected as a domain error otherwise. An inf or NaN
    ``sum_log`` (squares that overflow float64) raises the overflow error,
    and -inf (a positive sample whose ratio to ref underflows to 0) the
    underflow error.
    """
    _check_sigma(sigma)
    if not sum_log < math.inf:
        raise DomainError(_OVERFLOW)
    if sum_log == -math.inf:
        raise DomainError(_UNDERFLOW)
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
