"""Synthetic phantom generation and noncentral-chi noise corruption.

Phantoms are simple geometric objects (a uniform ball or concentric
spheres) on an exact-zero background, with the first volume acting as
the non-diffusion-weighted reference. Corruption gives each voxel of
each volume the magnitude of N complex Gaussian channels around the
noiseless intensity, with a spatially modulated noise level
s = tau * sigma_g. Its squared magnitude over s^2 is noncentral
chi-square with 2N degrees of freedom and noncentrality (I/s)^2, so it
is drawn once per voxel-volume from that law.

One private generator draws the noise one 3D volume at a time, in
volume order, each volume from its own Philox child stream, so that
``corrupt``, ``simulate`` and ``simulate_stream`` give the same values.
``simulate_stream`` hands the volumes over as a ``VolumeStream``, each
one made from the reference volume and drawn when the consumer reaches
it, so ``chisigma simulate`` holds a few 3D volumes, never a 4D array;
``simulate`` and ``corrupt`` collect the volumes into an in-memory
``Volume4D``.

``simulate`` writes a ``chisigma-truth-v1`` ground-truth record naming
the generator (``ncchisq-philox-v1``), and ``evaluate_report`` reads it
back, with or without that key, to score an estimation report.
"""

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError, DomainError, SchemaError
from .identify import AXIS_INDEX
from .model import Volume4D, VolumeStream

__all__ = [
    "PhantomSpec",
    "NoiseField",
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


def _is_whole(x) -> bool:
    # int() raises on inf and NaN, and math.isfinite on ints beyond float range.
    if isinstance(x, numbers.Integral):
        return True
    return isinstance(x, numbers.Real) and math.isfinite(x) and int(x) == x


@dataclass(frozen=True)
class PhantomSpec:
    """Recipe for one synthetic dataset.

    ``b0_intensity`` sets the mean reference-volume intensity over the
    object, which together with ``snr`` fixes the noise level as
    sigma_g = b0_intensity / snr. The default pairs with snr=30 to give
    sigma_g = 171.
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


@dataclass(frozen=True)
class NoiseField:
    """Spatial noise model: per-voxel modulation tau times base level sigma_g."""

    tau: np.ndarray
    sigma_g: float

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=np.float64)
        if tau.ndim != 3:
            raise DomainError(f"tau must be a 3D grid, got {tau.ndim} dimensions")
        if not np.all(tau >= 1.0):
            raise DomainError("tau must be at least 1 everywhere")
        if not self.sigma_g >= 0.0:
            raise DomainError(f"sigma_g must be nonnegative, got {self.sigma_g}")
        object.__setattr__(self, "tau", tau)


def _radius_grid(dims) -> np.ndarray:
    # Euclidean distance of each voxel center from the grid center.
    center = [(d - 1) / 2.0 for d in dims]
    axes = [np.arange(d, dtype=np.float64) - c for d, c in zip(dims, center)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(gx * gx + gy * gy + gz * gz)


def _object_radius(dims) -> float:
    return 0.8 * (min(dims) / 2.0 - 1.0)


def object_mask(spec: PhantomSpec) -> np.ndarray:
    """Boolean grid marking the phantom object (True) vs background."""
    r_obj = _object_radius(spec.dims)
    if r_obj < 2.0:
        raise ConfigError(f"dims {spec.dims} are too small to hold the object")
    return _radius_grid(spec.dims) <= r_obj


def _reference(spec: PhantomSpec) -> np.ndarray:
    # The noiseless reference volume b0, (X, Y, Z).
    r = _radius_grid(spec.dims)
    r_obj = _object_radius(spec.dims)
    if r_obj < 2.0:
        raise ConfigError(f"dims {spec.dims} are too small to hold the object")
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


def _noiseless_volumes(ref: np.ndarray, n_volumes: int):
    # The noiseless volumes, each (Z, Y, X) like a volume's stored block:
    # the reference volume, then one attenuated copy of it, yielded again
    # for each diffusion-weighted volume.
    yield ref
    dwi = _DWI_ATTENUATION * ref
    for _ in range(1, n_volumes):
        yield dwi


def build_phantom(spec: PhantomSpec) -> Volume4D:
    """Construct the noiseless 4D phantom.

    The object sits at the grid center on an exact-zero background. For
    ``uniform_object`` every object voxel of the reference volume holds
    ``b0_intensity``; for ``concentric_spheres`` three nested plateaus
    are scaled so the object mean still equals ``b0_intensity``. Volumes
    after the first carry the same geometry at reduced intensity.
    """
    # F-ordered, that is volume-major, so the Volume4D adopts it as it is.
    vols = np.empty(spec.dims + (spec.n_volumes,), dtype=np.float64, order="F")
    ref = np.ascontiguousarray(_reference(spec).T)
    for block, vol in zip(vols.T, _noiseless_volumes(ref, spec.n_volumes)):
        block[...] = vol
    return Volume4D(voxels=vols)


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


def _noisy_volumes(noiseless, field: NoiseField, df: int, seed: int, n_volumes: int):
    # The one draw loop: each noiseless (Z, Y, X) volume with noise, in
    # volume order, volume v from the v-th Philox child stream of seed.
    if field.sigma_g == 0.0:
        yield from noiseless
        return
    # Transposed to (Z, Y, X), the volumes' order; the draws still run
    # over (X, Y, Z) in C order, through transposed views.
    scale = np.multiply(field.tau.T, field.sigma_g, order="C")
    del field  # the draws need only scale, so tau can go
    nonc = np.empty_like(scale)
    for stream, block in zip(np.random.SeedSequence(seed).spawn(n_volumes), noiseless):
        rng = np.random.Generator(np.random.Philox(stream))
        np.square(np.divide(block, scale, out=nonc), out=nonc)
        x = rng.noncentral_chisquare(df, nonc.T)
        yield np.multiply(scale, np.sqrt(x, out=x).T, out=np.empty_like(scale))


def _collect(stream: VolumeStream) -> Volume4D:
    # The in-memory volume of a stream, each volume one block of a
    # volume-major array.
    out = np.empty(stream.dims[::-1])
    for v, vol in enumerate(stream):
        out[v] = vol
    return Volume4D(voxels=out.T, spacing=stream.spacing)


def corrupt(noiseless, field: NoiseField, n_true, seed: int) -> Volume4D:
    """Apply noncentral-chi noise to a noiseless volume.

    Each voxel value I becomes

        s * sqrt(x),  x ~ noncentral chi-square(df = 2N, nonc = (I/s)^2)

    with s = tau * sigma_g, one draw per voxel and volume. This is
    exactly the law of the root sum of squares of N complex channels
    with independent Normal(0, s^2) noise in each real and imaginary
    part, the intensity split evenly across the real parts; I = 0 gives
    the central chi-square of the background. Volume v draws from the
    v-th child stream of a Philox generator seeded from ``seed``, so the
    output is reproducible and independent of any schedule over volumes.

    ``n_true`` must be a positive integer; fractional degrees of freedom
    exist on the estimation side only.
    """
    df = _dof(n_true)
    vol = noiseless if isinstance(noiseless, Volume4D) else Volume4D(voxels=noiseless)
    dims = vol.dims
    if dims[:3] != np.asarray(field.tau).shape:
        raise DomainError(
            f"tau grid {np.asarray(field.tau).shape} does not match volume {dims[:3]}"
        )
    blocks = (vol.to_signal(block) for block in vol.stored)
    noisy = _noisy_volumes(blocks, field, df, seed, dims[3])
    return _collect(VolumeStream(dims, noisy, vol.spacing))


def simulate_stream(spec: PhantomSpec):
    """Describe one synthetic dataset and draw it one volume at a time.

    The noiseless volumes are made one at a time from the reference
    volume and the attenuation, and each is corrupted as :func:`corrupt`
    does, with the same draws, when the stream reaches it. So
    ``write_nifti(simulate_stream(spec)[0], path)`` writes the same file
    as ``write_nifti(simulate(spec)[0], path)`` and holds only a few 3D
    volumes at a time.

    Returns
    -------
    (VolumeStream, dict)
        The noisy volumes, to be read once, and the ground-truth record
        that :func:`simulate` returns.
    """
    b0 = _reference(spec)
    sigma_g = sigma_from_snr(b0, spec.snr)
    tau = build_tau(spec.dims, spec.profile, spec.tau_max)
    field = NoiseField(tau=tau, sigma_g=sigma_g)
    noiseless = _noiseless_volumes(np.ascontiguousarray(b0.T), spec.n_volumes)
    noisy = _noisy_volumes(noiseless, field, _dof(spec.n_true), spec.seed, spec.n_volumes)
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
    return _collect(stream), truth


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
    spec = dict(truth["spec"])
    known = {f: spec[f] for f in PhantomSpec.__dataclass_fields__ if f in spec}
    missing = [f for f in PhantomSpec.__dataclass_fields__ if f not in known]
    if missing:
        raise SchemaError(f"ground-truth spec missing fields {missing}")
    known["dims"] = tuple(known["dims"])
    try:
        return PhantomSpec(**known)
    except ConfigError as exc:
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
    sigma_g = float(truth["sigma_g"])
    dims = list(spec.dims) + [spec.n_volumes]
    rep_dims = list(report.fingerprint.get("dims", []))
    if rep_dims != dims:
        raise SchemaError(
            f"report volume dims {rep_dims} do not match ground truth {dims}"
        )
    axis_name = report.config.get("slice_axis", "z")
    axis = AXIS_INDEX.get(axis_name) if isinstance(axis_name, str) else None
    if axis is None:
        raise SchemaError(f"report slice_axis must be one of x, y, z, got {axis_name!r}")
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
        sl = [slice(None)] * 3
        sl[axis] = k
        bg = background[tuple(sl)]
        if not np.any(bg):
            skipped.append(k)
            continue
        sigma_true = float(np.mean(sigma_map[tuple(sl)][bg]))
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
