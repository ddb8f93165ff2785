"""Synthetic phantom generation and noncentral-chi noise corruption.

Phantoms are simple geometric objects (a uniform ball or concentric
spheres) on an exact-zero background, with the first volume acting as
the non-diffusion-weighted reference. Corruption gives each voxel of
each volume the magnitude of N complex Gaussian channels around the
noiseless intensity, with a noise level s that varies over the grid:
``corrupt`` takes the (X, Y, Z) map of s, and the phantoms' map is
s = tau * sigma_g. Its squared magnitude over s^2 is noncentral
chi-square with 2N degrees of freedom and noncentrality (I/s)^2, so it
is drawn once per voxel-volume from that law.

One private draw function makes each noisy 3D volume, from its
noncentrality map, into the buffer it is given: volume v draws from its
own Philox child stream v, so its values do not depend on which thread
draws it or when, and ``corrupt``, ``simulate`` and ``simulate_stream``
give the same values. ``corrupt`` and ``simulate_stream`` each pair the
child streams with their maps as one maker per volume, in volume order,
and ``simulate`` takes the makers of ``simulate_stream``. That hands
its makers over as a ``VolumeStream``; they share one noncentrality map,
the reference volume's, times 1 or the attenuation squared, so the draws
hold the scale and the map, never a 4D array, and ``write_nifti`` runs
them on its deflate threads. ``simulate`` and ``corrupt`` run them in
order, each straight into its volume's block of an in-memory
``Volume4D``; ``corrupt`` makes each volume's map as its maker is taken.

``simulate`` writes a ``chisigma-truth-v1`` ground-truth record naming
the generator (``ncchisq-philox-v1``), and ``evaluate_report`` reads it
back, with or without that key, to score an estimation report.
"""

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError, DomainError, SchemaError
from .identify import AXIS_INDEX, SearchConfig
from .model import Volume4D, VolumeStream, _is_whole, _lend

__all__ = [
    "PhantomSpec",
    "build_phantom",
    "sigma_from_snr",
    "build_tau",
    "corrupt",
    "simulate",
    "simulate_stream",
    "object_mask",
    "EvalReport",
    "evaluate_report",
]

GEOMETRIES = ("uniform_object", "concentric_spheres")
PROFILES = ("uniform", "sphere_ramp")
GENERATOR = "ncchisq-philox-v1"

# Diffusion-weighted volumes carry attenuated copies of the reference
# intensity; the exact factor is irrelevant to noise estimation, which
# only ever samples the background.
_DWI_ATTENUATION = 0.5


@dataclass(frozen=True)
class PhantomSpec:
    """Recipe for one synthetic dataset.

    ``b0_intensity`` sets the mean reference-volume intensity over the
    object, which together with ``snr`` fixes the noise level as
    sigma_g = b0_intensity / snr. The default pairs with snr=30 to give
    sigma_g = 171. Whole floats are taken for ``dims``, ``n_volumes``
    and ``seed`` and stored as ``int``.
    """

    dims: tuple = (64, 64, 50)
    n_volumes: int = 65
    geometry: str = "uniform_object"
    snr: float = 30.0
    n_true: float = 4.0
    profile: str = "uniform"
    tau_max: float = 1.75
    seed: int = 0
    b0_intensity: float = 5130.0

    def __post_init__(self):
        if len(self.dims) != 3 or any(not _is_whole(d) or d < 1 for d in self.dims):
            raise ConfigError(f"dims must be 3 positive integers, got {self.dims}")
        if not _is_whole(self.n_volumes) or self.n_volumes < 1:
            raise ConfigError(f"n_volumes must be a positive integer, got {self.n_volumes}")
        if self.geometry not in GEOMETRIES:
            raise ConfigError(f"geometry must be one of {GEOMETRIES}, got {self.geometry!r}")
        if not (math.isfinite(self.snr) and self.snr > 0.0):
            raise ConfigError(f"snr must be positive and finite, got {self.snr}")
        if not (math.isfinite(self.n_true) and self.n_true > 0.0):
            raise ConfigError(f"n_true must be positive and finite, got {self.n_true}")
        if self.profile not in PROFILES:
            raise ConfigError(f"profile must be one of {PROFILES}, got {self.profile!r}")
        if not (math.isfinite(self.tau_max) and self.tau_max >= 1.0):
            raise ConfigError(f"tau_max must be finite and at least 1, got {self.tau_max}")
        if not _is_whole(self.seed) or self.seed < 0 or self.seed >= 2 ** 64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not (math.isfinite(self.b0_intensity) and self.b0_intensity > 0.0):
            raise ConfigError(
                f"b0_intensity must be positive and finite, got {self.b0_intensity}"
            )
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "n_volumes", int(self.n_volumes))
        object.__setattr__(self, "seed", int(self.seed))


def _radius_grid(dims) -> np.ndarray:
    # Euclidean distance of each voxel center from the grid center. The
    # axes are broadcast open, so only the sum is a full grid.
    center = [(d - 1) / 2.0 for d in dims]
    axes = [np.arange(d, dtype=np.float64) - c for d, c in zip(dims, center)]
    gx, gy, gz = np.ix_(*axes)
    r2 = gx * gx + gy * gy + gz * gz
    return np.sqrt(r2, out=r2)


def _object_radius(dims) -> float:
    r_obj = 0.8 * (min(dims) / 2.0 - 1.0)
    if r_obj < 2.0:
        raise ConfigError(f"dims {dims} are too small to hold the object")
    return r_obj


def object_mask(spec: PhantomSpec) -> np.ndarray:
    """Boolean grid marking the phantom object (True) vs background."""
    return _radius_grid(spec.dims) <= _object_radius(spec.dims)


def _reference(spec: PhantomSpec) -> np.ndarray:
    # The noiseless reference volume b0, (X, Y, Z).
    r = _radius_grid(spec.dims)
    r_obj = _object_radius(spec.dims)
    inside = r <= r_obj

    b0 = np.zeros(spec.dims, dtype=np.float64)
    if spec.geometry == "uniform_object":
        b0[inside] = spec.b0_intensity
    else:
        # Plateau multipliers from outer shell to core, then normalized
        # so mean(b0 over object) = b0_intensity exactly.
        b0[inside] = 0.7
        b0[r <= 2.0 * r_obj / 3.0] = 1.0
        b0[r <= r_obj / 3.0] = 1.3
        b0 *= spec.b0_intensity / float(np.mean(b0[inside]))
    return b0


def build_phantom(spec: PhantomSpec) -> Volume4D:
    """Construct the noiseless 4D phantom.

    The object sits at the grid center on an exact-zero background. For
    ``uniform_object`` every object voxel of the reference volume holds
    ``b0_intensity``; for ``concentric_spheres`` three nested plateaus
    are scaled so the object mean still equals ``b0_intensity``. Volumes
    after the first carry the same geometry at reduced intensity.
    """
    ref = _reference(spec).T
    out = np.empty((spec.n_volumes,) + ref.shape)
    out[0] = ref
    out[1:] = _DWI_ATTENUATION * ref
    return Volume4D(voxels=out.T)


def sigma_from_snr(b0, snr: float) -> float:
    """Base noise level from the reference volume: mean over object / snr."""
    if not snr > 0.0:
        raise DomainError(f"snr must be positive, got {snr}")
    arr = np.asarray(b0, dtype=np.float64)
    obj = arr[arr > 0.0]
    if obj.size == 0:
        raise DegenerateDataError("reference volume has no object voxels")
    return float(np.mean(obj)) / snr


def build_tau(dims, profile: str, tau_max: float) -> np.ndarray:
    """Noise-modulation grid.

    ``uniform`` is 1 everywhere. ``sphere_ramp`` rises linearly with the
    distance from the grid center, from 1 at the center to ``tau_max``
    at the farthest corner.
    """
    if profile not in PROFILES:
        raise ConfigError(f"profile must be one of {PROFILES}, got {profile!r}")
    if not tau_max >= 1.0:
        raise ConfigError(f"tau_max must be at least 1, got {tau_max}")
    if profile == "uniform":
        return np.ones(tuple(dims), dtype=np.float64)
    r = _radius_grid(dims)
    r_max = float(np.max(r))
    if r_max == 0.0:
        return np.ones(tuple(dims), dtype=np.float64)
    return 1.0 + (tau_max - 1.0) * (r / r_max)


def _dof(n_true) -> int:
    # Noise generation needs whole channels; fractional degrees of
    # freedom exist on the estimation side only.
    if not _is_whole(n_true) or n_true < 1:
        raise DomainError(f"noise generation needs a positive integer N, got {n_true}")
    return 2 * int(n_true)


# The x-rows of a volume drawn by one call: the draws then fill the
# (Z, Y, X) output in runs of 8 values, one cache line of float64.
_DRAW_ROWS = 8


def _draw_volume(stream, df, nonc, factor, scale, out) -> np.ndarray:
    # One noisy volume, (Z, Y, X) C-ordered, drawn from the SeedSequence
    # ``stream`` into ``out`` (of any real dtype: the float64 draws are cast
    # on assignment), from ``factor`` times the (X, Y, Z) C-ordered
    # noncentrality map ``nonc`` and the scale. The draws run over (X, Y, Z)
    # in C order, a slab of x-rows per call: runs of at most _DRAW_ROWS rows,
    # each all background (noncentrality 0 everywhere) or not. Consecutive
    # calls continue one stream, so the values are those of a single call over
    # the map, and no (X, Y, Z) copy of the volume is made. numpy draws
    # noncentrality 0 as a central chi-square, so an all-background slab takes
    # the scalar-df call, which consumes the stream alike and gives the same
    # values, faster.
    rng = np.random.Generator(np.random.Philox(stream))
    background = ~nonc.any(axis=(1, 2))
    start = 0
    for stop in range(1, len(nonc) + 1):
        if stop < len(nonc) and stop - start < _DRAW_ROWS and background[stop] == background[start]:
            continue  # row ``stop`` joins the slab
        rows = slice(start, stop)
        if background[start]:
            x = rng.chisquare(df, nonc[rows].shape)
        else:
            x = rng.noncentral_chisquare(df, nonc[rows] if factor == 1.0 else nonc[rows] * factor)
        np.sqrt(x, out=x)
        x *= scale[rows]
        out[..., rows] = x.T
        start = stop
    return out


def _collect(dims, makers, spacing) -> Volume4D:
    # The in-memory volume of the makers (see VolumeStream), each volume made
    # straight into its block of a volume-major array.
    out = np.empty(dims[::-1])
    for v, make in enumerate(makers):
        make(out=out[v])
    return Volume4D(voxels=out.T, spacing=spacing)


def corrupt(noiseless, scale, n_true, seed: int) -> Volume4D:
    """Apply noncentral-chi noise to a noiseless volume.

    Each voxel value I becomes

        s * sqrt(x),  x ~ noncentral chi-square(df = 2N, nonc = (I/s)^2)

    with s the voxel's value in ``scale``, the (X, Y, Z) noise-level map
    (tau * sigma_g in the paper's phantoms, or sigma_g times a g-factor
    map), one draw per voxel and volume. This is exactly the law of the
    root sum of squares of N complex channels with independent
    Normal(0, s^2) noise in each real and imaginary part, the intensity
    split evenly across the real parts; I = 0 gives the central
    chi-square of the background. Volume v draws from the v-th child
    stream of a Philox generator seeded from ``seed``, so the output is
    reproducible and independent of any schedule over volumes.

    ``scale`` must match the volume's grid and be finite and positive
    everywhere, or zero everywhere, which gives a float64 copy of the
    noiseless signal. ``n_true`` must be a positive integer; fractional
    degrees of freedom exist on the estimation side only.
    """
    df = _dof(n_true)
    vol = noiseless if isinstance(noiseless, Volume4D) else Volume4D(voxels=noiseless)
    dims = vol.dims
    scale = np.asarray(scale, dtype=np.float64, order="C")
    if scale.shape != dims[:3]:
        raise DomainError(f"noise-level map {scale.shape} does not match volume {dims[:3]}")
    # NaN propagates to min and max.
    lo, hi = float(scale.min()), float(scale.max())
    if not (0.0 < lo and hi < math.inf or lo == hi == 0.0):
        raise DomainError("the noise-level map must be finite and positive everywhere, "
                          "or zero everywhere")
    signals = (vol.to_signal(block) for block in vol.stored)
    if hi == 0.0:
        makers = (functools.partial(_lend, signal) for signal in signals)
    else:
        # Volume v draws from the v-th Philox child stream of seed, whichever
        # thread runs its maker and whenever, with the noncentrality map
        # (I / s)^2 of its signal, made (C-ordered) as its maker is taken.
        makers = (functools.partial(_draw_volume, stream, df,
                                    np.square(np.divide(signal.T, scale, order="C")), 1.0, scale)
                  for stream, signal in zip(np.random.SeedSequence(seed).spawn(dims[3]), signals))
    return _collect(dims, makers, vol.spacing)


def simulate_stream(spec: PhantomSpec):
    """Describe one synthetic dataset and draw it one volume at a time.

    The noncentrality map is computed once, for the reference volume; the
    attenuated volumes draw from it times the attenuation squared. Each
    volume is corrupted as :func:`corrupt` does, with the same draws, when
    its maker runs (see :class:`~chisigma.model.VolumeStream`); the makers
    are independent, so ``write_nifti`` draws several volumes at once on
    its deflate threads. So ``write_nifti(simulate_stream(spec)[0], path)``
    writes the same file as ``write_nifti(simulate(spec)[0], path)`` and
    holds only a few 3D volumes at a time: the scale, the one map and the
    writer's buffers.

    Returns
    -------
    (VolumeStream, dict)
        The noisy volumes, to be read once, and the ground-truth record
        that :func:`simulate` returns.
    """
    df = _dof(spec.n_true)
    b0 = _reference(spec)
    sigma_g = sigma_from_snr(b0, spec.snr)
    scale = build_tau(spec.dims, spec.profile, spec.tau_max)
    scale *= sigma_g
    # One map for every volume: the reference volume's, times the attenuation
    # squared for the diffusion-weighted ones. The attenuation is a power of
    # two, so (a b0 / s)^2 = a^2 (b0 / s)^2 exactly unless a value is
    # subnormal. b0 is this call's own: the map takes its place.
    nonc = np.square(np.divide(b0, scale, out=b0), out=b0)
    noisy = (functools.partial(_draw_volume, stream, df, nonc,
                               1.0 if v == 0 else _DWI_ATTENUATION ** 2, scale)
             for v, stream in enumerate(np.random.SeedSequence(spec.seed).spawn(spec.n_volumes)))
    truth = {
        "schema": "chisigma-truth-v1",
        "generator": GENERATOR,
        "sigma_g": sigma_g,
        "spec": asdict(spec),
    }
    truth["spec"]["dims"] = list(spec.dims)
    return VolumeStream(spec.dims + (spec.n_volumes,), noisy), truth


def simulate(spec: PhantomSpec):
    """Build, corrupt and describe one synthetic dataset.

    Returns
    -------
    (Volume4D, dict)
        The noisy volume and a ground-truth record holding the full
        spec echo plus the realized sigma_g.
    """
    stream, truth = simulate_stream(spec)
    return _collect(stream.dims, stream.makers(), stream.spacing), truth


@dataclass
class EvalReport:
    """Per-slice percentage errors of sigma_g against ground truth.

    Each record holds slice_index, pct_error_sigma, n_est and n_true,
    with pct_error_sigma = 100 * (sigma_est - sigma_true) / sigma_true.
    ``mean_pct_error``/``std_pct_error`` summarize the included slices;
    ``skipped`` lists slices that produced no estimate.
    """

    per_slice: list
    mean_pct_error: float
    std_pct_error: float
    skipped: list


def _truth_spec(truth: dict) -> PhantomSpec:
    if not isinstance(truth, dict) or "spec" not in truth or "sigma_g" not in truth:
        raise SchemaError("ground-truth record must carry 'spec' and 'sigma_g'")
    spec = truth["spec"]
    if not isinstance(spec, dict):
        raise SchemaError(f"ground-truth spec must be an object, got {spec!r}")
    known = {f: spec[f] for f in PhantomSpec.__dataclass_fields__ if f in spec}
    missing = [f for f in PhantomSpec.__dataclass_fields__ if f not in known]
    if missing:
        raise SchemaError(f"ground-truth spec missing fields {missing}")
    # A field of the wrong type fails in tuple() or in PhantomSpec's checks.
    try:
        return PhantomSpec(**dict(known, dims=tuple(known["dims"])))
    except (ConfigError, TypeError, ValueError) as exc:
        raise SchemaError(f"ground-truth spec is invalid: {exc}") from exc


def evaluate_report(report, truth: dict) -> EvalReport:
    """Compare an estimation report against a simulation's ground truth.

    The estimator reports one sigma_g per slice, so spatially varying
    truth is reduced to a per-slice scalar: the mean of tau * sigma_g
    over the slice's true background voxels.

    Raises :class:`SchemaError` when the truth record is malformed, the
    volume dims differ, or the report names an unknown slice axis or a
    slice index outside the grid.
    """
    spec = _truth_spec(truth)
    try:
        sigma_g = float(truth["sigma_g"])
    except (TypeError, ValueError):
        sigma_g = math.nan
    if not 0.0 < sigma_g < math.inf:
        raise SchemaError(f"ground-truth sigma_g must be positive and finite, "
                          f"got {truth['sigma_g']!r}")
    dims = list(spec.dims) + [spec.n_volumes]
    rep_dims = list(report.fingerprint.get("dims", []))
    if rep_dims != dims:
        raise SchemaError(
            f"report volume dims {rep_dims} do not match ground truth {dims}"
        )
    axis_name = report.config.get("slice_axis", SearchConfig.slice_axis)
    axis = AXIS_INDEX.get(axis_name) if isinstance(axis_name, str) else None
    if axis is None:
        raise SchemaError(f"report slice_axis must be one of {', '.join(AXIS_INDEX)}, "
                          f"got {axis_name!r}")
    n_slices = spec.dims[axis]
    background = ~object_mask(spec)
    sigma_map = build_tau(spec.dims, spec.profile, spec.tau_max) * sigma_g

    per_slice = []
    skipped = []
    for rec in report.slices:
        k = rec["slice_index"]
        if not 0 <= k < n_slices:
            raise SchemaError(
                f"report slice_index {k} is outside the {n_slices} slices of the truth grid"
            )
        if rec["n_identified"] <= 0 or rec["sigma_g"] <= 0.0:
            skipped.append(k)
            continue
        bg = np.take(background, k, axis=axis)
        if not np.any(bg):
            skipped.append(k)
            continue
        sigma_true = float(np.mean(np.take(sigma_map, k, axis=axis)[bg]))
        per_slice.append({
            "slice_index": k,
            "pct_error_sigma": 100.0 * (rec["sigma_g"] - sigma_true) / sigma_true,
            "n_est": rec["n_dof"],
            "n_true": spec.n_true,
        })
    errs = np.array([r["pct_error_sigma"] for r in per_slice], dtype=np.float64)
    mean = float(np.mean(errs)) if errs.size else 0.0
    std = float(np.std(errs)) if errs.size else 0.0
    return EvalReport(per_slice=per_slice, mean_pct_error=mean,
                      std_pct_error=std, skipped=skipped)
