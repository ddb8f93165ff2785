"""Iterative identification of noise-only voxels and per-slice estimation.

For each 2D slice of a 4D dataset the algorithm searches a grid of
candidate noise levels. For a candidate sigma, the per-voxel statistic
s = sum_v m_v^2 / (2 sigma^2) over the V volumes follows a gamma
distribution with shape V*N and unit scale when the voxel holds pure
noise, so voxels whose s falls between two gamma quantiles are taken as
noise-only. The candidate identifying the most voxels wins, the noise
parameters are re-estimated from the identified voxels, and the search
grid and quantile bounds are tightened until sigma and N stabilize.

The fit needs only sums over the identified voxels, so each slice is
reduced once to per-voxel moments (sum_v m^2, sum_v m^4 and, for the
likelihood estimator, sum_v log m^2 and a zero count); every outer pass
then works on those 2D arrays instead of re-gathering the samples.
"""

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChiSigmaError,
    ConfigError,
    DegenerateDataError,
    DomainError,
    NoNoiseVoxelsError,
)
# The sample-array estimators are not called here; they stay importable
# from this module because bench/spans.py hooks them by name on it.
from .model import (  # noqa: F401
    estimate_n_mle,
    estimate_n_moments,
    estimate_sigma,
    n_from_log_moments,
    n_from_moments,
    sigma_from_moments,
)
from .specfun import check_prob_level, inv_gamma_p

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
]

# Spatial axis of a (X, Y, Z, V) array for each slice-axis name.
AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the iterative search.

    Parameters
    ----------
    p : float
        Two-sided rejection probability level, strictly in (0, 1).
    grid_size : int
        Number of candidates in the initial search grid, at least 2.
    n_min, n_max : float
        Degrees-of-freedom bracket used for the first-iteration bounds.
    estimator : str
        "moments" or "mle"; how N is re-estimated each iteration.
    fixed_n : float or None
        When set, N is never estimated and all bounds use this value.
    max_outer_iters : int
        Cap on outer iterations; hitting it returns converged=False.
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
        check_prob_level(self.p)
        if int(self.grid_size) != self.grid_size or self.grid_size < 2:
            raise ConfigError(f"grid_size must be an integer >= 2, got {self.grid_size}")
        if not self.n_min > 0.0:
            raise ConfigError(f"n_min must be positive, got {self.n_min}")
        if not self.n_min <= self.n_max:
            raise ConfigError(
                f"n_min must not exceed n_max, got [{self.n_min}, {self.n_max}]"
            )
        if self.estimator not in ("moments", "mle"):
            raise ConfigError(f"estimator must be 'moments' or 'mle', got {self.estimator!r}")
        if self.fixed_n is not None and not self.fixed_n > 0.0:
            raise ConfigError(f"fixed_n must be positive, got {self.fixed_n}")
        if self.max_outer_iters < 1:
            raise ConfigError("max_outer_iters must be at least 1")
        if not self.rel_tol > 0.0:
            raise ConfigError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.slice_axis not in AXIS_INDEX:
            raise ConfigError(f"slice_axis must be one of x, y, z, got {self.slice_axis!r}")

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


def sigma_upper_bound(data, n_max: float) -> float:
    """Largest noise level worth searching.

    Computed as median(all voxel values) / sqrt(2 * icdf(n_max, 1/2))
    with icdf the gamma quantile at unit scale: if the data were pure
    noise with n_max degrees of freedom, the median of the transformed
    values would sit at that quantile.
    """
    arr = np.asarray(getattr(data, "voxels", data), dtype=np.float64)
    if arr.size == 0:
        raise DegenerateDataError("cannot bound sigma on empty data")
    if not n_max > 0.0:
        raise DomainError(f"n_max must be positive, got {n_max}")
    med = _median(arr)
    if med <= 0.0:
        raise DegenerateDataError("data median is zero; no signal present")
    return med / np.sqrt(2.0 * inv_gamma_p(n_max, 0.5))


_MEDIAN_SAMPLE = 1 << 16
_MEDIAN_CHUNK = 1 << 20


def _median(arr: np.ndarray) -> float:
    # Bit-equal to np.median without copying or partitioning the whole
    # array (Floyd-Rivest selection); only a non-contiguous view is
    # flattened into a copy. Two pivots taken from a sorted
    # strided sample bracket the middle ranks; one chunked pass counts the
    # values below the bracket and extracts those inside it, and only that
    # small set is partitioned. If the bracket misses the middle ranks, or
    # holds a NaN (which compares with neither pivot), np.median runs.
    flat = arr.reshape(-1)
    n = flat.size
    sample = np.sort(flat[:: max(1, n // _MEDIAN_SAMPLE)])
    m = sample.size
    delta = 3.0 * np.sqrt(m) + 1.0
    lo = sample[max(0, int((m - 1) * ((n - 1) // 2) / n - delta))]
    hi = sample[min(m - 1, int((m - 1) * (n // 2) / n + delta) + 1)]
    n_below = 0
    inside = []
    for start in range(0, n, _MEDIAN_CHUNK):
        chunk = flat[start:start + _MEDIAN_CHUNK]
        below = chunk < lo
        above = chunk > hi
        n_below += int(np.count_nonzero(below))
        inside.append(chunk[~(below | above)])
    mid = np.concatenate(inside)
    k = [(n - 1) // 2 - n_below, n // 2 - n_below]
    if k[0] < 0 or k[1] >= mid.size or np.isnan(mid).any():
        return float(np.median(arr))
    part = np.partition(mid, k)
    return float(np.mean(part[k[0]:k[1] + 1]))


def initial_grid(sigma_max: float, a: int) -> np.ndarray:
    """Evenly spaced candidates sigma_max * i/a for i = 1..a."""
    if not sigma_max > 0.0:
        raise DomainError(f"sigma_max must be positive, got {sigma_max}")
    if int(a) != a or a < 1:
        raise DomainError(f"grid size must be a positive integer, got {a}")
    return sigma_max * (np.arange(1, a + 1, dtype=np.float64) / a)


def refine_grid(sigma: float) -> np.ndarray:
    """Eleven candidates spanning sigma * [0.95, 1.05] in 1% steps."""
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    return sigma * (0.95 + 0.01 * np.arange(11, dtype=np.float64))


def _sum_squares(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Returns (m^2, its sum over volumes, nonpadding mask). Voxels that are
    # zero across every volume are padding, never noise draws.
    m2 = arr ** 2
    sum_m2 = np.sum(m2, axis=-1)
    return m2, sum_m2, sum_m2 > 0.0


def _mask_from_sums(sum_m2, nonpadding, sigma, bounds):
    s = sum_m2 / (2.0 * sigma * sigma)
    return (s >= bounds.lambda_minus) & (s <= bounds.lambda_plus) & nonpadding


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
        The count and the boolean voxel mask. All-zero padding voxels
        are never counted.
    """
    if not sigma_candidate > 0.0:
        raise DomainError(f"sigma candidate must be positive, got {sigma_candidate}")
    arr = np.asarray(slice_data, dtype=np.float64)
    if arr.ndim < 2:
        raise DomainError("slice data must have a trailing volume axis")
    _, sum_m2, nonpadding = _sum_squares(arr)
    mask = _mask_from_sums(sum_m2, nonpadding, sigma_candidate, bounds)
    return int(np.count_nonzero(mask)), mask


def _best_candidate(grid, sum_m2, nonpadding, bounds):
    # All candidates at once: the grid broadcast along a new leading axis
    # gives row i the same operations as a single call for grid[i]. argmax
    # returns the first of tied maxima, so the smallest candidate wins ties.
    g = grid.reshape((-1,) + (1,) * sum_m2.ndim)
    masks = _mask_from_sums(sum_m2, nonpadding, g, bounds)
    counts = np.count_nonzero(masks.reshape(grid.size, -1), axis=1)
    best = int(np.argmax(counts))
    if counts[best] == 0:
        return 0, None, None
    return int(counts[best]), float(grid[best]), masks[best]


def _check_magnitudes(arr: np.ndarray) -> None:
    # min/max reductions propagate NaN and need no temporary arrays.
    if arr.size == 0:
        return
    lo, hi = float(arr.min()), float(arr.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError("sample values must be finite")
    if lo < 0.0:
        raise DomainError("magnitude samples must be nonnegative")


def _log_moments(arr: np.ndarray, m2: np.ndarray, ref: float):
    # Per voxel: sum over positive samples of log(m^2 / ref), and the
    # number of zero samples. Zero samples leave t at 0, adding nothing.
    pos = arr > 0.0
    t = m2 / ref
    np.log(t, out=t, where=pos)
    return np.sum(t, axis=-1), arr.shape[-1] - np.count_nonzero(pos, axis=-1)


def estimate_slice(slice_data, config: SearchConfig, sigma_max: float | None = None,
                   slice_index: int = 0) -> SliceEstimate:
    """Estimate sigma_g and N for one slice.

    Runs the full iterative search: identify noise voxels with the
    current bounds over the candidate grid, re-estimate sigma from the
    identified voxels and N per ``config.estimator``, then refine the
    grid around the new sigma and recompute the bounds from the new N.
    Iterations stop when the relative change of both falls below
    ``config.rel_tol`` or the iteration cap is hit (``converged=False``).

    The slice is validated and reduced to per-voxel moments once: sums
    over the volume axis of m^2 and m^4, and for ``estimator="mle"`` of
    log(m^2 / (2 sigma_max^2)) over positive samples plus a count of
    zero samples. Each iteration fits from sums of those over the
    identified voxels, with K = count * V samples.

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
    NoNoiseVoxelsError
        If every candidate of the current grid identifies zero voxels.
    """
    arr = np.asarray(slice_data, dtype=np.float64)
    if arr.ndim < 2:
        raise DomainError("slice data must have a trailing volume axis")
    _check_magnitudes(arr)
    n_volumes = arr.shape[-1]
    m2, sum_m2, nonpadding = _sum_squares(arr)
    if not np.any(nonpadding):
        raise NoNoiseVoxelsError(f"slice {slice_index} holds no nonzero voxels")

    n_low, n_high = config.effective_n_bracket()
    if sigma_max is None:
        sigma_max = sigma_upper_bound(arr, n_high)
    use_mle = config.fixed_n is None and config.estimator == "mle"
    if use_mle:
        # A reference that scales with the data keeps the sums, and so N,
        # bit-exact under power-of-two scaling.
        ref = 2.0 * sigma_max * sigma_max
        sum_log, zeros = _log_moments(arr, m2, ref)
    m4 = np.multiply(m2, m2, out=m2)
    sum_m4 = np.sum(m4, axis=-1)
    bounds = _bounds_for(n_low, n_high, n_volumes, config.p)
    grid = initial_grid(sigma_max, config.grid_size)

    sigma_prev = None
    n_prev = None
    sigma = 0.0
    n_dof = 0.0
    mask = np.zeros(arr.shape[:-1], dtype=bool)
    converged = False
    iters = 0

    for iters in range(1, config.max_outer_iters + 1):
        count, _, best_mask = _best_candidate(grid, sum_m2, nonpadding, bounds)
        if count == 0:
            raise NoNoiseVoxelsError(
                f"slice {slice_index}: no candidate noise level identified any voxels"
            )
        k = count * n_volumes
        s2 = float(np.sum(sum_m2[best_mask]))
        sigma = sigma_from_moments(s2, float(np.sum(sum_m4[best_mask])), k)
        if config.fixed_n is not None:
            n_dof = config.fixed_n
        elif use_mle:
            n_dof = n_from_log_moments(float(np.sum(sum_log[best_mask])), k,
                                       int(np.sum(zeros[best_mask])), sigma, ref)
        else:
            n_dof = n_from_moments(s2, k, sigma)
        mask = best_mask

        if sigma_prev is not None:
            d_sigma = abs(sigma - sigma_prev) / sigma_prev
            d_n = abs(n_dof - n_prev) / n_prev
            if d_sigma < config.rel_tol and d_n < config.rel_tol:
                converged = True
                break
        sigma_prev, n_prev = sigma, n_dof
        grid = refine_grid(sigma)
        bounds = _bounds_for(n_dof, n_dof, n_volumes, config.p)

    return SliceEstimate(
        slice_index=slice_index,
        sigma_g=sigma,
        n_dof=n_dof,
        mask=mask,
        n_identified=int(np.count_nonzero(mask)),
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


def _slice_view(arr: np.ndarray, axis: int, index: int) -> np.ndarray:
    sl = [slice(None)] * arr.ndim
    sl[axis] = index
    return arr[tuple(sl)]


def estimate_volume(data, config: SearchConfig, threads: int = 1) -> list[SliceEstimate]:
    """Estimate every slice of a 4D dataset independently.

    The initial-grid upper bound is computed once from the median of
    the whole 4D data (found by selection, without copying the array),
    then each slice along ``config.slice_axis`` is estimated on its own
    from its per-voxel moments (see :func:`estimate_slice`). Slices that
    fail (no identifiable noise voxels, degenerate samples) are reported
    with ``converged=False`` and zero estimates instead of aborting the
    volume.

    Parameters
    ----------
    data : Volume4D or ndarray
        4D magnitude data, shape (X, Y, Z, V).
    config : SearchConfig
        Search parameters.
    threads : int
        Worker threads for slice-level parallelism; results are
        identical for any thread count.

    Returns
    -------
    list of SliceEstimate
        One entry per slice, in slice order.
    """
    arr = np.asarray(getattr(data, "voxels", data), dtype=np.float64)
    if arr.ndim != 4:
        raise DomainError(f"expected 4D data, got {arr.ndim} dimensions")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    axis = AXIS_INDEX[config.slice_axis]
    n_slices = arr.shape[axis]
    _, n_high = config.effective_n_bracket()
    try:
        sigma_max = sigma_upper_bound(arr, n_high)
    except DegenerateDataError:
        slice_shape = _slice_view(arr, axis, 0).shape[:-1]
        return [
            _failed_slice(k, slice_shape, "volume median is zero")
            for k in range(n_slices)
        ]

    def run_one(k: int) -> SliceEstimate:
        slice_data = _slice_view(arr, axis, k)
        try:
            return estimate_slice(slice_data, config, sigma_max=sigma_max, slice_index=k)
        except ChiSigmaError as exc:
            return _failed_slice(k, slice_data.shape[:-1], str(exc))

    if threads == 1:
        return [run_one(k) for k in range(n_slices)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run_one, range(n_slices)))
