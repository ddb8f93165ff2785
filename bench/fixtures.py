"""Benchmark fixtures: synthetic 4D magnitude volumes with known noise.

Everything here uses numpy alone, so a change to ``chisigma.synth`` can
never change what the estimate workloads read. The phantom is a ball at
the grid centre on a zero background. Each voxel-volume value is drawn
directly from its exact distribution:

    m = s * sqrt(chi2'(2N, (I / s)^2)),   s = tau * sigma_g,

which is central chi on the background (I = 0). Volumes are generated
and written one at a time, so fixture memory stays at a few 3D arrays.

This module also holds the benchmark's own NIfTI-1 header packer and
reader, used both to write fixtures and to check the program's output
files without importing ``chisigma.io``.
"""

import gzip
import os
import struct
from dataclasses import dataclass

import numpy as np

HEADER_SIZE = 348
VOX_OFFSET = 352
DTYPES = {2: "<u1", 4: "<i2", 16: "<f4"}
_CODES = {np.dtype(v): k for k, v in DTYPES.items()}


@dataclass(frozen=True)
class FixtureSpec:
    dims: tuple          # (X, Y, Z, V)
    n_true: int          # coil channels, the true N
    sigma_g: float       # base Gaussian noise level
    profile: str         # "uniform" or "sphere"
    tau_max: float       # noise at the farthest corner, in units of sigma_g
    snr: float           # object intensity of volume 0 over sigma_g
    dtype: str           # "<f4" or "<i2" on disk
    scl_slope: float     # stored value * slope = signal value


@dataclass
class Truth:
    """What the benchmark scores against: the noise field, N, background."""

    sigma_field: np.ndarray   # tau * sigma_g, shape (X, Y, Z)
    background: np.ndarray    # True outside the object, shape (X, Y, Z)
    n_true: int


def pack_header(dims, dtype, scl_slope=1.0) -> bytes:
    """A little-endian single-file NIfTI-1 header plus empty extension block."""
    dt = np.dtype(dtype)
    hdr = bytearray(VOX_OFFSET)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, len(dims), *dims, *([1] * (7 - len(dims))))
    struct.pack_into("<2h", hdr, 70, _CODES[dt], 8 * dt.itemsize)
    struct.pack_into("<8f", hdr, 76, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", hdr, 108, float(VOX_OFFSET), scl_slope, 0.0)
    hdr[123] = 2 | 8
    hdr[344:348] = b"n+1\x00"
    return bytes(hdr)


def read_header(f):
    """Parse the header of an open little-endian single-file NIfTI-1 stream.

    Returns (dims, dtype, vox_offset, scl_slope) and leaves the stream at
    byte 348.
    """
    hdr = f.read(HEADER_SIZE)
    if len(hdr) != HEADER_SIZE or struct.unpack_from("<i", hdr, 0)[0] != HEADER_SIZE:
        raise ValueError("not a little-endian NIfTI-1 header")
    if hdr[344:348] != b"n+1\x00":
        raise ValueError(f"bad magic {hdr[344:348]!r}")
    dim = struct.unpack_from("<8h", hdr, 40)
    if not 1 <= dim[0] <= 7:
        raise ValueError(f"bad dim[0] {dim[0]}")
    datatype, bitpix = struct.unpack_from("<2h", hdr, 70)
    if datatype not in DTYPES or 8 * np.dtype(DTYPES[datatype]).itemsize != bitpix:
        raise ValueError(f"unexpected datatype {datatype}/{bitpix}")
    vox_offset, slope = struct.unpack_from("<2f", hdr, 108)
    return tuple(dim[1:dim[0] + 1]), np.dtype(DTYPES[datatype]), int(vox_offset), slope


def iter_volumes(path):
    """Yield (dims, stored dtype, scaled volume) per 3D volume of a .nii or .nii.gz."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as f:
        dims, dt, offset, slope = read_header(f)
        f.read(offset - HEADER_SIZE)
        shape = dims[:3]
        n = int(np.prod(shape))
        for _ in range(dims[3] if len(dims) > 3 else 1):
            buf = f.read(n * dt.itemsize)
            if len(buf) != n * dt.itemsize:
                raise ValueError(f"{path}: truncated voxel data")
            vol = np.frombuffer(buf, dtype=dt).reshape(shape, order="F")
            yield dims, dt, vol * (slope if slope else 1.0)


def radius(shape) -> np.ndarray:
    """Distance of each voxel centre from the grid centre, broadcastable to ``shape``."""
    axes = [np.arange(d, dtype=np.float64) - (d - 1) / 2.0 for d in shape]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij", sparse=True)
    return np.sqrt(gx * gx + gy * gy + gz * gz)


def sphere_ramp(shape, tau_max: float) -> np.ndarray:
    """1 at the grid centre, rising linearly to tau_max at the corners."""
    r = radius(shape)
    return 1.0 + (tau_max - 1.0) * r / float(r.max())


def make_fixture(spec: FixtureSpec, seed: int, path) -> Truth:
    """Draw the volume for ``seed``, write it to ``path`` and return the truth."""
    shape = spec.dims[:3]
    n_vol = spec.dims[3]
    rng = np.random.default_rng(seed)
    r = radius(shape)
    obj = r <= 0.35 * min(shape)
    # A different attenuation per volume, as in a diffusion series.
    atten = np.concatenate([[1.0], rng.uniform(0.25, 0.6, n_vol - 1)])
    tau = sphere_ramp(shape, spec.tau_max) if spec.profile == "sphere" else np.ones(shape)
    s = tau * spec.sigma_g
    s_obj = s[obj]
    intensity = spec.snr * spec.sigma_g
    k = 2 * spec.n_true

    opener = (lambda p: gzip.open(p, "wb", compresslevel=6)) if str(path).endswith(".gz") \
        else (lambda p: open(p, "wb"))
    with opener(path) as f:
        f.write(pack_header(spec.dims, spec.dtype, spec.scl_slope))
        for v in range(n_vol):
            # chi2(2N) = 2 * Gamma(N); object voxels get the noncentral law.
            x = 2.0 * rng.standard_gamma(spec.n_true, size=shape)
            lam = (intensity * atten[v] / s_obj) ** 2
            x[obj] = rng.noncentral_chisquare(k, lam)
            m = s * np.sqrt(x)
            if np.dtype(spec.dtype).kind == "i":
                m = np.clip(np.rint(m / spec.scl_slope), 0, np.iinfo(spec.dtype).max)
            f.write(m.astype(spec.dtype).tobytes(order="F"))
    # Written back now, so no flush of the fixture runs during a timed call.
    with open(path, "rb+") as f:
        os.fsync(f.fileno())
    return Truth(sigma_field=s, background=~obj, n_true=spec.n_true)
