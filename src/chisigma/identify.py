"""Noise-voxel identification, the per-slice search and the sample estimators.

For each 2D slice of a 4D dataset the algorithm searches a grid of
candidate noise levels. For a candidate sigma, the per-voxel statistic
s = sum_v m_v^2 / (2 sigma^2) over the V volumes follows a gamma
distribution with shape V*N and unit scale when the voxel holds pure
noise, so voxels whose s falls between two gamma quantiles are taken as
noise-only. The candidate identifying the most voxels wins, the noise
parameters are re-estimated from the identified voxels, and the search
grid and quantile bounds are tightened until sigma and N stabilize.

The fit needs only sums over the identified voxels, so the data are
reduced once to per-voxel moments (sum_v m^2, sum_v m^4 and, for the
likelihood estimator, sum_v log m^2 and a zero count), the rows of one
array, adding one volume at a time; every outer pass then fits from one
take of a slice's moments instead of re-gathering the samples. That pass
is the one place where magnitudes become moments: the sample-array
estimators (``estimate_*``) run it too, each sample one voxel, and sum
its rows pairwise, which is accurate for sample counts well past 10^6.

Candidates are scored on each slice's sums of m^2, sorted once: for a
candidate, s never decreases as sum_v m^2 grows, so the voxels it
identifies are one run of the sorted sums, whose two ends one binary
search finds. Only the winner's mask is built, from the ends of its run,
and the fit sums the moments at its voxels' indices.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChiSigmaError,
    ConfigError,
    DegenerateDataError,
    DomainError,
    NoNoiseVoxelsError,
)
from .model import (
    _OVERFLOW,
    Volume4D,
    _check_sigma,
    _is_whole,
    n_from_log_moments,
    n_from_moments,
    sigma_from_moments,
)
from .specfun import inv_gamma_p

__all__ = [
    "SearchConfig",
    "SliceEstimate",
    "RejectionBounds",
    "sigma_upper_bound",
    "initial_grid",
    "refine_grid",
    "count_in_bounds",
    "estimate_slice",
    "estimate_volume",
    "estimate_sigma",
    "estimate_n_moments",
    "estimate_n_mle",
]

# Spatial axis of a (X, Y, Z, V) array for each slice-axis name.
AXIS_INDEX = {"x": 0, "y": 1, "z": 2}
# How N is re-estimated each pass: method of moments or maximum likelihood.
ESTIMATORS = ("moments", "mle")
# Largest initial grid: each pass scores its whole grid in one call.
MAX_GRID_SIZE = 1 << 15
_ONE_VOLUME = ("a single volume cannot be estimated: each voxel's statistic is one draw, "
               "which cannot tell noise from faint object (needs at least 2 volumes)")


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the iterative search.

    Parameters
    ----------
    p : float
        Two-sided rejection probability level, strictly in (0, 1).
    grid_size : int
        Number of candidates in the initial search grid, from 2 to
        ``MAX_GRID_SIZE`` (2^15 = 32768). This and ``max_outer_iters``
        take whole floats, stored as int.
    n_min, n_max : float
        Degrees-of-freedom bracket of the first pass's bounds; ``n_min``
        also sets its grid's top. Positive and finite, as is ``fixed_n``.
    estimator : str
        "moments" or "mle"; how N is re-estimated each iteration.
    fixed_n : float or None
        When set, N is never estimated and all bounds use this value.
    max_outer_iters : int
        Cap on outer iterations; hitting it returns converged=False.
        A search stops earlier, also with converged=False, at the first
        pass that repeats an earlier pass's (sigma, N) exactly: it is
        cycling, and its result does not depend on the cap.
    rel_tol : float
        Convergence threshold on the relative change of sigma and N.
    slice_axis : str
        Spatial axis ("x", "y" or "z") whose slices are estimated
        independently.
    """

    p: float = 0.05
    grid_size: int = 50
    n_min: float = 1.0
    n_max: float = 12.0
    estimator: str = "moments"
    fixed_n: float | None = None
    max_outer_iters: int = 100
    rel_tol: float = 1e-4
    slice_axis: str = "z"

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:  # NaN fails too
            raise ConfigError(f"p must lie strictly in (0, 1), got {self.p}")
        if not _is_whole(self.grid_size) or not 2 <= self.grid_size <= MAX_GRID_SIZE:
            raise ConfigError(f"grid_size must be an integer from 2 to {MAX_GRID_SIZE}, "
                              f"got {self.grid_size}")
        for name in ("n_min", "n_max", "fixed_n"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not self.n_min <= self.n_max:
            raise ConfigError(
                f"n_min must not exceed n_max, got [{self.n_min}, {self.n_max}]"
            )
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if not _is_whole(self.max_outer_iters) or self.max_outer_iters < 1:
            raise ConfigError(
                f"max_outer_iters must be an integer >= 1, got {self.max_outer_iters}"
            )
        if not self.rel_tol > 0.0:
            raise ConfigError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.slice_axis not in AXIS_INDEX:
            raise ConfigError(f"slice_axis must be one of {', '.join(AXIS_INDEX)}, "
                              f"got {self.slice_axis!r}")
        object.__setattr__(self, "grid_size", int(self.grid_size))
        object.__setattr__(self, "max_outer_iters", int(self.max_outer_iters))

    def effective_n_bracket(self) -> tuple[float, float]:
        """N range for the first-iteration bounds; collapses under fixed_n."""
        if self.fixed_n is not None:
            return self.fixed_n, self.fixed_n
        return self.n_min, self.n_max


@dataclass(frozen=True)
class RejectionBounds:
    """Closed interval [lambda_minus, lambda_plus] on the summed statistic."""

    lambda_minus: float
    lambda_plus: float

    def __post_init__(self):
        if not self.lambda_minus >= 0.0:
            raise DomainError(f"lambda_minus must be nonnegative, got {self.lambda_minus}")
        if not self.lambda_minus < self.lambda_plus:
            raise DomainError(
                f"bounds must satisfy lambda_minus < lambda_plus, got "
                f"[{self.lambda_minus}, {self.lambda_plus}]"
            )


@dataclass
class SliceEstimate:
    """Result of estimating one slice.

    ``mask`` marks the identified noise-only voxels in slice
    coordinates; ``n_identified`` is its true-count. A slice where no
    candidate identified any voxel is reported with ``converged=False``
    and zero sigma_g/n_dof rather than raising from the volume loop.
    """

    slice_index: int
    sigma_g: float
    n_dof: float
    mask: np.ndarray
    n_identified: int
    outer_iters: int
    converged: bool
    error: str | None = field(default=None)


def _bounds_for(n_low: float, n_high: float, n_volumes: int, p: float) -> RejectionBounds:
    lam_minus = inv_gamma_p(n_volumes * n_low, p / 2.0)
    lam_plus = inv_gamma_p(n_volumes * n_high, 1.0 - p / 2.0)
    return RejectionBounds(lambda_minus=lam_minus, lambda_plus=lam_plus)


def sigma_upper_bound(data, n_dof: float) -> float:
    """Largest noise level worth searching.

    Computed as median(all voxel values) / sqrt(2 * icdf(n_dof, 1/2))
    with icdf the gamma quantile at unit scale: if the data were pure
    noise with n_dof degrees of freedom, the median of the transformed
    values would sit at that quantile. The search takes it at ``n_min``
    (or ``fixed_n``): the quantile grows with N, so the bound is at least
    the noise level if the median voxel is object or noise with N >= n_min.

    ``data`` is a :class:`Volume4D`, trusted as checked, or an array of
    any shape, which is wrapped in one (and so checked) once: a negative,
    NaN or infinite value in it raises :class:`DomainError`, and an empty
    one :class:`DegenerateDataError`. The two middle order statistics
    are selected among the volume's *stored* values, then mapped to the
    signal and averaged in float64. The map to the signal is monotone
    (for either sign of the slope, and with the clamp at zero), so this
    is bit-equal to ``np.median`` of the float64 signal, which is never
    built. Beyond 2^17 values it takes one pass over the stored values
    (a read of a file-backed volume's file), which :func:`estimate_volume`
    shares with its moments unless its log sums need the bound.
    """
    vol = data if isinstance(data, Volume4D) else _row_volume(data)
    if not n_dof > 0.0:
        raise DomainError(f"n_dof must be positive, got {n_dof}")
    return _bound(_median(vol), n_dof)


def _bound(median: float, n_dof: float) -> float:
    if median <= 0.0:
        raise DegenerateDataError("data median is zero; no signal present")
    return median / np.sqrt(2.0 * inv_gamma_p(n_dof, 0.5))


def _row_volume(data) -> Volume4D:
    # An array of shape (..., V) as one checked Volume4D of shape (1, 1, n, V):
    # its n voxels in one row along z, in C order, so the volume code reduces
    # a slice, in blocks of _BLOCK_VOXELS z-planes of one voxel each, and
    # reshaping its (n, 1, 1) moments restores the slice's shape. The median
    # does not depend on the layout.
    arr = np.asarray(data, dtype=np.float64)
    if arr.size == 0:
        raise DegenerateDataError("the data are empty")
    return Volume4D(voxels=arr.reshape(1, 1, -1, arr.shape[-1] if arr.ndim else 1))


_MEDIAN_SAMPLE = 1 << 16
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _median_sample(groups, n: int) -> np.ndarray:
    # The sorted sample whose order statistics bracket the median of the n
    # values of ``groups`` (consecutive blocks, each valid only until the
    # next is taken): all of them up to 2 * _MEDIAN_SAMPLE values, else the
    # values at the _MEDIAN_SAMPLE positions n * frac(i * golden ratio). A
    # stride can line up with the voxel grid (120 over rows of 64 voxels
    # samples every 8th column) and bias the bracket until it misses the
    # median; this sequence is evenly spread modulo any period.
    positions = None
    if n > 2 * _MEDIAN_SAMPLE:
        at = np.arange(1.0, _MEDIAN_SAMPLE + 1.0) * _GOLDEN
        at -= np.floor(at)
        at *= n
        positions = np.minimum(at.astype(np.int64), n - 1)
        positions.sort()
    parts, start = [], 0
    for group in groups:
        flat = group.reshape(-1)
        if positions is None:
            parts.append(flat.copy())
        else:
            a, b = np.searchsorted(positions, (start, start + flat.size))
            parts.append(flat[positions[a:b] - start])
        start += flat.size
    sample = np.concatenate(parts)
    sample.sort()
    return sample


def _sample(vol: Volume4D) -> np.ndarray:
    # The sorted sample of _median_sample over vol: read_nifti's for a volume
    # it built, else taken on first use and kept on vol.
    if vol._sample is None:
        vol._sample = _median_sample(vol._groups(), math.prod(vol.dims))
    return vol._sample


def _median(vol: Volume4D) -> float:
    # np.median of vol's float64 signal, bit for bit (see _reduce).
    return _reduce(vol, select=True, moments=False)[0]


def _unit(vol: Volume4D) -> float:
    # The power of two that the moment pass divides the magnitudes by, so
    # that m^4 stays a normal float from 2^-255 to 2^255 units: 1 while the
    # data's scale lies within 2^-128..2^128, so ordinary data run the plain
    # pass, else the power of two at it (within 2^+-1022, where its inverse
    # is normal). The scale is the middle value of vol's median sample, or its
    # largest if that is zero; not its largest, which up to 2^17 values is any
    # spike's, and would push every other value into subnormals. Division by
    # a power of two is exact: the sums are those of m times a power of two,
    # bit for bit, while they stay normal floats.
    sample = _sample(vol)
    ends = vol.to_signal(sample[[0, sample.size // 2, -1]])  # either sign of the slope
    scale = float(ends[1] or ends.max())
    if scale == 0.0 or 2.0 ** -128 <= scale <= 2.0 ** 128:
        return 1.0
    return 2.0 ** min(max(math.frexp(scale)[1], -1022), 1022)


def initial_grid(sigma_max: float, a: int) -> np.ndarray:
    """Evenly spaced candidates sigma_max * i/a for i = 1..a."""
    if not sigma_max > 0.0:
        raise DomainError(f"sigma_max must be positive, got {sigma_max}")
    if not _is_whole(a) or a < 1:
        raise DomainError(f"grid size must be a positive integer, got {a}")
    return sigma_max * (np.arange(1, a + 1, dtype=np.float64) / a)


def refine_grid(sigma: float) -> np.ndarray:
    """Eleven candidates spanning sigma * [0.95, 1.05] in 1% steps."""
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    return sigma * (0.95 + 0.01 * np.arange(11, dtype=np.float64))


# Rows of the per-voxel moments, one C-ordered float64 array of shape
# (M, Z, Y, X): sums over the volumes of m^2 and m^4 (M = 2) and, for the
# likelihood estimator (M = 4), of log(m^2 / ref) over positive samples and
# the count of zero samples, which float64 holds exactly.
_S2, _S4, _LOG, _ZEROS = range(4)


# Voxels per block of the reduction: the block's sums and temporaries stay
# in cache while every volume is added to them.
_BLOCK_VOXELS = 1 << 15


def _reduce(vol: Volume4D, select: bool, moments: bool, ref: float | None = None,
            unit: float = 1.0):
    # (median, moments) of vol, each None unless asked for, from one pass over
    # its stored values. The moments are one C-ordered float64 array of
    # shape (M, Z, Y, X), allocated here once, whose rows _S2 and _S4 (M = 2)
    # and, when ``ref`` is given, _LOG and _ZEROS (M = 4) are sums over the
    # volumes of powers of m / unit, ``unit`` a power of two (see _unit).
    # The median is np.median of the float64 signal, bit for bit: the mean
    # of the one or two middle stored values mapped by the monotone
    # to_signal (two middle ranks are symmetric, so a decreasing map only
    # swaps them). Floyd-Rivest selection: pivots from the sorted sample of
    # _median_sample (read_nifti's, for a volume it built) bracket the middle
    # ranks, the pass counts the values below and keeps those inside, and
    # only those are partitioned, or a copy of the whole if the bracket
    # misses. A sample of every value is the whole, sorted: no pass.
    n = math.prod(vol.dims)
    median = bracket = sums = None
    if select:
        sample = _sample(vol)
        k, m = ((n - 1) // 2, n // 2), sample.size
        if m == n:
            median = float(np.mean(vol.to_signal(sample[k[0]:k[1] + 1])))
        else:
            delta = 3.0 * np.sqrt(m) + 1.0
            bracket = (sample[max(0, int((m - 1) * k[0] / n - delta))],
                       sample[min(m - 1, int((m - 1) * k[1] / n + delta) + 1)])
    if moments:
        sums = np.zeros((2 if ref is None else 4,) + vol.dims[2::-1])
    if bracket is not None or sums is not None:
        n_low, inside = _reduce_pass(vol, bracket, sums, ref, unit)
    if bracket is not None:
        mid = np.concatenate(inside)
        del inside
        j = (k[0] - (n - n_low), k[1] - (n - n_low))
        if j[0] < 0 or j[1] >= mid.size:
            # The bracket missed: partition one copy of the whole, by groups.
            mid, j, at = np.empty(n, vol.dtype), k, 0
            for g in vol._groups():
                mid[at:at + g.size] = g.reshape(-1)
                at += g.size
        mid.partition(j)
        median = float(np.mean(vol.to_signal(mid[j[0]:j[1] + 1])))
    return median, sums


# m^2 and m^4 beyond the float64 range of those powers are summed as inf
# (and log(m^2 / ref) as -inf or NaN when ref is inf), which the formulas
# of model report.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _reduce_pass(vol: Volume4D, bracket, sums: np.ndarray | None, ref: float | None,
                 unit: float):
    # The pass of _reduce, in a frame of its own so that the read buffer is
    # freed before the kept values are joined. It takes each group of
    # vol._groups() by blocks of z-planes, a block one volume at a time, so
    # every voxel's sums see the volumes in file order, and returns the
    # count of values at or above the bracket and the list of those inside.
    # (Threads do not speed this up: it is bound by memory.)
    n_z, n_y, n_x = vol.dims[2::-1]
    step = min(n_z, max(1, _BLOCK_VOXELS // (n_y * n_x)))
    signal, m2_buf = (np.empty(step * n_y * n_x) for _ in "sm")
    t_buf = None if ref is None else np.empty(step * n_y * n_x)
    ge_buf, le_buf = (np.empty(step * n_y * n_x, bool) for _ in "gl")
    n_low, inside = 0, []
    for group in vol._groups():
        for z0 in range(0, n_z, step):
            z = slice(z0, z0 + step)
            size = min(step, n_z - z0) * n_y * n_x
            # A view: each row's block of z-planes is contiguous.
            part = None if sums is None else sums[:, z].reshape(len(sums), -1)
            for block in group[:, z]:
                values = block.reshape(-1)
                if bracket is not None:
                    ge = np.greater_equal(values, bracket[0], out=ge_buf[:size])
                    n_low += int(np.count_nonzero(ge))
                    keep = np.logical_and(
                        ge, np.less_equal(values, bracket[1], out=le_buf[:size]), out=ge)
                    inside.append(values[keep])
                if part is not None:
                    # Float64 values under identity scaling come back as they
                    # are, and ``out`` is left untouched.
                    m = vol.to_signal(values, out=signal[:size])
                    if unit != 1.0:
                        m = np.multiply(m, 1.0 / unit, out=signal[:size])
                    m2 = np.square(m, out=m2_buf[:size])
                    np.add(part[_S2], m2, out=part[_S2])
                    if ref is not None:
                        pos = np.greater(m, 0.0, out=le_buf[:size])
                        t = np.divide(m2, ref, out=t_buf[:size])
                        np.log(t, out=t, where=pos)
                        np.add(part[_LOG], t, out=part[_LOG])
                        np.add(part[_ZEROS], np.logical_not(pos, out=pos), out=part[_ZEROS])
                    np.add(part[_S4], np.square(m2, out=m2), out=part[_S4])
    return n_low, inside


def _sample_moments(samples, sigma: float | None = None, log: bool = False):
    # (sums, K, unit, sigma / unit) of K samples: the moment pass of one volume
    # whose voxels they are, in its unit (see _unit), each row summed pairwise
    # as np.sum sums it, and sigma checked in that unit (see model._check_sigma).
    # With ``log``, the log rows too, with the reference 2 (sigma / unit)^2.
    vol = _row_volume(np.reshape(samples, (-1, 1)))
    unit = _unit(vol)
    s = None if sigma is None else _check_sigma(sigma, unit)
    sums = _reduce(vol, select=False, moments=True, ref=2.0 * s * s if log else None, unit=unit)[1]
    with _search_errstate():
        return np.add.reduce(sums.reshape(len(sums), -1), axis=1), vol.dims[2], unit, s


def estimate_sigma(samples) -> float:
    """Estimate the Gaussian noise standard deviation from noise samples.

    ``samples`` holds at least two magnitude values, not all equal, and
    the estimate is strictly positive. It uses their moments:

        sigma = sqrt( sum(m^4)/sum(m^2) - sum(m^2)/K ) / sqrt(2)

    The sums are those of the moment pass (see :func:`estimate_slice`),
    in its power-of-two unit, so the samples times 2^k give sigma times
    2^k, bit for bit, while the sums stay normal floats.
    """
    sums, k, unit, _ = _sample_moments(samples)
    return sigma_from_moments(float(sums[_S2]), float(sums[_S4]), k) * unit


def estimate_n_moments(samples, sigma: float) -> float:
    """Estimate the effective degrees of freedom from the second moment.

    N = sum(m^2) / (2 K sigma^2), the sample mean of t = m^2 / (2 sigma^2),
    from the moment pass as :func:`estimate_sigma` takes it.
    """
    sums, k, _, s = _sample_moments(samples, sigma)
    return n_from_moments(float(sums[_S2]), k, s)


def estimate_n_mle(samples, sigma: float) -> float:
    """Estimate the effective degrees of freedom by maximum likelihood.

    N = inv_digamma(mean(log(m^2 / (2 sigma^2)))), from the moment pass as
    :func:`estimate_sigma` takes it; exact-zero samples are dropped or
    rejected as :func:`~chisigma.model.n_from_log_moments` describes.
    """
    sums, k, _, s = _sample_moments(samples, sigma, log=True)
    return n_from_log_moments(float(sums[_LOG]), k, int(sums[_ZEROS]), s, 2.0 * s * s)


def _log_ref(config: SearchConfig, sigma_max: float) -> float | None:
    # The reference of the log sums, None unless the likelihood estimator
    # runs. It scales with the data, which keeps the sums, and so N,
    # bit-exact under power-of-two scaling.
    if config.fixed_n is None and config.estimator == "mle":
        sigma_max = float(sigma_max)  # overflows to inf without a warning
        return 2.0 * sigma_max * sigma_max
    return None


def _search_setup(vol: Volume4D, config: SearchConfig, sigma_max: float | None):
    # (moments, sigma_max / unit, first-pass bounds, unit) of vol, the bound
    # from vol's median unless given: the moments are of m / unit (see
    # _unit), and the bounds are at the N bracket. A single volume raises
    # before any pass. The sums of m^2 and m^4 do not need the bound, so one
    # pass serves both; the log sums do, so the median takes a pass of its
    # own first.
    if vol.dims[3] == 1:
        raise DegenerateDataError(_ONE_VOLUME)
    n_low, n_high = config.effective_n_bracket()
    bounds = _bounds_for(n_low, n_high, vol.dims[3], config.p)
    unit = _unit(vol)
    if sigma_max is None and _log_ref(config, 1.0) is None:
        median, sums = _reduce(vol, select=True, moments=True, unit=unit)
        return sums, _bound(median, n_low) / unit, bounds, unit
    if sigma_max is None:
        sigma_max = sigma_upper_bound(vol, n_low)
    sigma_max = sigma_max / unit
    sums = _reduce(vol, select=False, moments=True, ref=_log_ref(config, sigma_max), unit=unit)[1]
    return sums, sigma_max, bounds, unit


def count_in_bounds(slice_data, sigma_candidate: float, bounds: RejectionBounds):
    """Count voxels whose summed transformed value falls inside the bounds.

    Parameters
    ----------
    slice_data : ndarray
        Magnitudes of one slice, shape (..., V) with V >= 1 volumes.
    sigma_candidate : float
        Candidate noise level, positive.
    bounds : RejectionBounds
        Closed acceptance interval on s = sum_v m_v^2 / (2 sigma^2).

    Returns
    -------
    (int, ndarray)
        The count and the boolean voxel mask, found as the search scores
        a candidate, on the slice's sorted sums of m^2. All-zero padding
        voxels are never counted.

    Raises
    ------
    DomainError
        If the slice holds negative or non-finite values: it is checked
        as :func:`estimate_slice` checks its slice.
    DegenerateDataError
        If the slice is empty.
    """
    if not sigma_candidate > 0.0:
        raise DomainError(f"sigma candidate must be positive, got {sigma_candidate}")
    arr = np.asarray(slice_data, dtype=np.float64)
    if arr.ndim < 2:
        raise DomainError("slice data must have a trailing volume axis")
    s2 = _reduce(_row_volume(arr), select=False, moments=True)[1][_S2].reshape(arr.shape[:-1])
    with _search_errstate():
        count, _, mask = _best_candidate(np.array([float(sigma_candidate)]), s2,
                                         np.sort(s2[s2 > 0.0]), bounds)
    return count, np.zeros(s2.shape, dtype=bool) if mask is None else mask


def _best_candidate(grid, sum_m2, ranked, bounds):
    # ranked holds the sums > 0 of sum_m2, ascending. For a divisor d > 0,
    # v / d never decreases as v grows, so a candidate's mask, s in
    # [lambda-, lambda+], is the run of ranked between the values with
    # s < lambda- and those past s <= lambda+ (a NaN s, inf / inf, fails
    # both tests and sits at the end). s < lambda- is s <= the float below
    # lambda-, so one call counts both, for the whole grid at once (a grid
    # holds at most MAX_GRID_SIZE candidates). argmax returns the first of
    # tied maxima, so the first candidate wins ties. The winner's mask is
    # the sums between its run's ends (> 0, so no padding), with no
    # quotient taken.
    if ranked.size == 0:
        return 0, None, None
    lams = np.array([[bounds.lambda_plus], [np.nextafter(bounds.lambda_minus, -np.inf)]])
    tops, bottoms = _count_leading(ranked, 2.0 * grid * grid, lams)
    counts = tops - bottoms
    i = int(np.argmax(counts))
    count, top = int(counts[i]), int(tops[i])
    if count == 0:
        return 0, None, None
    mask = (sum_m2 >= ranked[top - count]) & (sum_m2 <= ranked[top - 1])
    return count, float(grid[i]), mask


def _count_leading(ranked, d, lam):
    # Per divisor in d and bound in lam, broadcast together, how many leading
    # values v of ranked pass v / d <= lam, a test that holds on a prefix of
    # ranked. The rounded lam * d only guesses that count: the guess stands
    # when the value before it passes and the value at it fails, and a
    # bisection on the same test settles each count where it does not.
    n = ranked.size
    k = np.searchsorted(ranked, lam * d, "right")
    right = ((k == 0) | (ranked[np.maximum(k - 1, 0)] / d <= lam)) & (
        (k == n) | ~(ranked[np.minimum(k, n - 1)] / d <= lam))
    if right.all():
        return k
    lo, hi = np.where(right, k, 0), np.where(right, k, n)
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        passes = ranked[np.minimum(mid, n - 1)] / d <= lam
        lo = np.where(open_ & passes, mid + 1, lo)
        hi = np.where(open_ & ~passes, mid, hi)
    return lo


def estimate_slice(slice_data, config: SearchConfig, sigma_max: float | None = None,
                   slice_index: int = 0) -> SliceEstimate:
    """Estimate sigma_g and N for one slice.

    Runs the full iterative search: identify noise voxels with the
    current bounds over the candidate grid, re-estimate sigma from the
    identified voxels and N per ``config.estimator``, then refine the
    grid around the new sigma and recompute the bounds from the new N.
    Iterations stop when the relative change of both falls below
    ``config.rel_tol`` or the iteration cap is hit (``converged=False``).
    A pass's (sigma, N) fixes the next pass, so a pass that repeats an
    earlier pass's (sigma, N) bit for bit starts a cycle that would run
    to the cap: the search stops there and returns that pass's estimate
    and mask, with ``converged=False``. ``outer_iters`` is always the
    number of passes run.

    The search is set up as :func:`estimate_volume` sets up each of its
    slices: a single volume is rejected before any pass, the first grid
    tops out at ``sigma_max`` and the first pass's bounds are the gamma
    quantiles at the N bracket (``n_min`` to ``n_max``, or ``fixed_n``).
    The slice is checked once, as a :class:`Volume4D` whose voxels form
    one row, and reduced to per-voxel moments by the pass that reduces a
    whole volume in :func:`estimate_volume`, one volume at a time: the
    rows of one array, reshaped once to the slice's shape, of sums over
    the volume axis of m^2 and m^4, and for ``estimator="mle"`` of
    log(m^2 / (2 sigma_max^2)) over positive samples plus a count of zero
    samples. The magnitudes are first divided by a power of two, 1 unless
    the middle value of the slice's median sample lies beyond 2^+-128,
    which is exact and keeps the sums finite, and sigma is scaled back.
    Each iteration fits from one take of those rows at the identified
    voxels, summed row by row, with K = count * V samples.

    With ``config.fixed_n`` set, N is pinned and only sigma is searched.

    Parameters
    ----------
    slice_data : ndarray
        Shape (..., V): spatial grid with a trailing volume axis.
        Values must be finite and nonnegative.
    config : SearchConfig
        Search parameters.
    sigma_max : float, optional
        Upper bound for the initial grid. Defaults to the bound computed
        from this slice's own data; pass the whole-volume bound when
        estimating many slices of one dataset.
    slice_index : int, optional
        Index recorded in the returned estimate.

    Raises
    ------
    DomainError
        If the slice holds negative or non-finite values.
    DegenerateDataError
        If the slice is empty or holds a single volume (see
        :func:`estimate_volume`), or ``sigma_max`` is not given and the
        slice's median is zero.
    NoNoiseVoxelsError
        If the slice holds no nonzero voxel, or every candidate of the
        current grid identifies zero voxels.
    """
    arr = np.asarray(slice_data, dtype=np.float64)
    if arr.ndim < 2:
        raise DomainError("slice data must have a trailing volume axis")
    # _row_volume is the one check of the slice.
    sums, sigma_max, bounds, unit = _search_setup(_row_volume(arr), config, sigma_max)
    sums = sums.reshape((len(sums),) + arr.shape[:-1])
    with _search_errstate():
        return _search_slice(sums, arr.shape[-1], config, sigma_max, bounds, slice_index, unit)


def _search_errstate() -> np.errstate:
    # Huge magnitudes overflow in the search, a candidate's 2 sigma^2 to inf
    # (and inf / inf to NaN), which _best_candidate's counts handle, and in
    # the row sums of a fit or a sample estimator, which the formulas report.
    # So numpy's warnings are off around them, in the callers: a decorator's
    # frame would be the one that n_from_log_moments's warning names.
    return np.errstate(over="ignore", invalid="ignore")


def _search_slice(sums: np.ndarray, n_volumes: int, config: SearchConfig, sigma_max: float,
                  bounds: RejectionBounds, slice_index: int, unit: float = 1.0) -> SliceEstimate:
    # The search of estimate_slice, on one slice's per-voxel moments of
    # m / unit, from the first-pass bounds and sigma_max in that unit; sigma
    # is returned in the data's. A pass's output (sigma, N) sets the next
    # pass's grid and bounds on the fixed moments, so a pass that repeats an
    # earlier pass's state starts a cycle: the search stops at it. The states
    # compare as floats, which is bit for bit here: sigma and N of a pass
    # whose grid and bounds were refined from them are positive and finite.
    ranked = np.sort(sums[_S2][sums[_S2] > 0.0])
    flat = sums.reshape(len(sums), -1)
    if ranked.size == 0:
        raise NoNoiseVoxelsError(f"slice {slice_index} holds no nonzero voxels")
    if ranked[0] == np.inf:
        raise DomainError(_OVERFLOW)

    ref = _log_ref(config, sigma_max)
    grid = initial_grid(sigma_max, config.grid_size)

    sigma_prev = None
    n_prev = None
    converged = False
    seen = set()  # the (sigma, N) of every pass so far

    for iters in range(1, config.max_outer_iters + 1):
        count, _, mask = _best_candidate(grid, sums[_S2], ranked, bounds)
        if count == 0:
            raise NoNoiseVoxelsError(
                f"slice {slice_index}: no candidate noise level identified any voxels"
            )
        # Taken in memory order, as the mask would, and each row summed
        # pairwise, as np.sum sums it: the sums keep their bits.
        total = np.add.reduce(flat.take(np.flatnonzero(mask), axis=1), axis=1)
        k = count * n_volumes
        s2 = float(total[_S2])
        sigma = sigma_from_moments(s2, float(total[_S4]), k)
        if config.fixed_n is not None:
            n_dof = config.fixed_n
        elif ref is not None:
            n_dof = n_from_log_moments(float(total[_LOG]), k, int(total[_ZEROS]), sigma, ref)
        else:
            n_dof = n_from_moments(s2, k, sigma)

        if sigma_prev is not None:
            d_sigma = abs(sigma - sigma_prev) / sigma_prev
            d_n = abs(n_dof - n_prev) / n_prev
            if d_sigma < config.rel_tol and d_n < config.rel_tol:
                converged = True
                break
        if (sigma, n_dof) in seen or iters == config.max_outer_iters:
            break
        seen.add((sigma, n_dof))
        sigma_prev, n_prev = sigma, n_dof
        grid = refine_grid(sigma)
        if config.fixed_n is None:
            bounds = _bounds_for(n_dof, n_dof, n_volumes, config.p)

    return SliceEstimate(
        slice_index=slice_index,
        sigma_g=sigma * unit,
        n_dof=n_dof,
        mask=mask,
        n_identified=count,
        outer_iters=iters,
        converged=converged,
    )


def _failed_slice(index: int, shape, message: str) -> SliceEstimate:
    return SliceEstimate(
        slice_index=index,
        sigma_g=0.0,
        n_dof=0.0,
        mask=np.zeros(shape, dtype=bool),
        n_identified=0,
        outer_iters=0,
        converged=False,
        error=message,
    )


def estimate_volume(data, config: SearchConfig, threads: int = 1) -> list[SliceEstimate]:
    """Estimate every slice of a 4D dataset independently.

    The search is set up once for the whole volume, as for one slice in
    :func:`estimate_slice`: the initial-grid upper bound from the median
    of the whole 4D data (selected among the stored values, without
    copying them), the first pass's bounds at the N bracket, and the
    per-voxel moments, adding one volume at a time in a fixed order.
    Then each slice along ``config.slice_axis`` is searched on its own
    on its 2D view of those moments, one slice after another on the
    calling thread. Slices that fail (no identifiable noise voxels,
    degenerate samples) are reported with ``converged=False`` and zero
    estimates instead of aborting the volume. A volume the setup rejects
    fails every slice with a record naming the cause: a single volume
    (V = 1), with or without ``fixed_n``, since each voxel's statistic is
    then one draw, which cannot tell noise from faint object, found
    before any pass; or a median of zero ("data median is zero; no
    signal present"), which leaves no first grid.

    One pass over the stored values selects the median and sums m^2 and
    m^4, which do not depend on it; ``estimator="mle"`` selects it in a
    pass of its own first, since its log sums are of log(m^2 / (2
    sigma_max^2)), which keeps N bit-exact under power-of-two scaling.
    The sums are the rows of one (M, Z, Y, X) float64 array, and each
    slice is cut from it with one take. They are of m divided by a power
    of two: 1 while the middle value of the median's sample lies within
    2^-128..2^128, else the power of two at that value. The division is
    exact, so the data times 2^k give the same records with sigma_g times
    2^k, bit for bit, while the sums stay normal floats (k from -900 to
    900 on chi noise); a slice fails with a record naming the overflow
    only if all its nonzero values exceed about 1.3e154 of those units.
    A file-backed volume (see :func:`chisigma.io.read_nifti`) is read
    from its file in each pass, a few volumes at a time, so only the 3D
    moments, a read buffer and the values near the median stay in
    memory. The results are those of the same data held in memory, bit
    for bit.

    A :class:`Volume4D` is trusted as checked; an ndarray is checked
    once, whole, by wrapping it in one. No slice is checked again.

    Parameters
    ----------
    data : Volume4D or ndarray
        4D magnitude data, shape (X, Y, Z, V).
    config : SearchConfig
        Search parameters.
    threads : int
        At least 1. The search is serial whatever the count: it spends
        its time in many small numpy calls that hold the interpreter
        lock, so worker threads made it no faster. Results are identical
        for any thread count.

    Returns
    -------
    list of SliceEstimate
        One entry per slice, in slice order.

    Raises
    ------
    DomainError
        If an ndarray is not 4D or holds a negative or non-finite value.
    NiftiError
        If the file of a file-backed volume changed since it was read.
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    if not isinstance(data, Volume4D):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise DomainError(f"expected 4D data, got {arr.ndim} dimensions")
        data = Volume4D(voxels=arr)
    axis = AXIS_INDEX[config.slice_axis]
    n_slices = data.dims[axis]
    slice_shape = tuple(d for i, d in enumerate(data.dims[:3]) if i != axis)
    try:
        sums, sigma_max, bounds, unit = _search_setup(data, config, None)
    except DegenerateDataError as exc:
        return [_failed_slice(k, slice_shape, str(exc)) for k in range(n_slices)]

    def run_one(k: int) -> SliceEstimate:
        # The slice in (X, Y, Z) order, copied C-ordered: the search runs
        # faster on it than on a strided view. The moments are (M, Z, Y, X)
        # and are sliced along their own axes: np.take would first copy a
        # transposed array whole.
        part = np.take(sums, k, axis=3 - axis).transpose(0, 2, 1).copy()
        try:
            return _search_slice(part, data.dims[3], config, sigma_max, bounds, k, unit)
        except ChiSigmaError as exc:
            return _failed_slice(k, slice_shape, str(exc))

    with _search_errstate():
        return [run_one(k) for k in range(n_slices)]
