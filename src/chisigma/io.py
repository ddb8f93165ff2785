"""Volume and report I/O: minimal NIfTI-1 support plus JSON/CSV results.

The NIfTI-1 reader/writer handles the plain single-file layout (magic
"n+1") and the two-file header/image pair (magic "ni1"), both endian
orders, optional gzip compression, and the five datatypes that cover
magnitude MRI in practice. Everything is parsed with explicit bounds
checks so malformed files fail with :class:`NiftiError` rather than
crashing.
"""

import csv
import gzip
import hashlib
import json
import struct
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, NiftiError, SchemaError
from .identify import SearchConfig, SliceEstimate

__all__ = [
    "Volume4D",
    "EstimateReport",
    "read_nifti",
    "write_nifti",
    "build_report",
    "write_report",
    "read_report",
    "write_slice_csv",
    "volume_fingerprint",
]

_HEADER_SIZE = 348
_MAX_AXIS = 512
_DTYPES = {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8"}
_GZIP_MAGIC = b"\x1f\x8b"

REPORT_SCHEMA = "chisigma-report-v1"

_SLICE_FIELDS = ("slice_index", "sigma_g", "n_dof", "n_identified", "converged", "outer_iters")


@dataclass
class Volume4D:
    """Dense 4D magnitude data with voxel-spacing metadata.

    Attributes
    ----------
    voxels : ndarray
        Shape (X, Y, Z, V), float64, finite and nonnegative. 3D input
        arrays are promoted to a single volume.
    spacing : tuple of float
        Voxel edge lengths (dx, dy, dz) in mm.
    scale : tuple of float
        The (slope, intercept) scaling that was applied when the data
        was read from file; (1, 0) for in-memory volumes.
    """

    voxels: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)
    scale: tuple = (1.0, 0.0)

    def __post_init__(self):
        arr = np.asarray(self.voxels, dtype=np.float64)
        if arr.ndim == 3:
            arr = arr[..., np.newaxis]
        if arr.ndim != 4:
            raise DomainError(f"volume must be 3D or 4D, got {arr.ndim} dimensions")
        if any(d < 1 for d in arr.shape):
            raise DomainError(f"volume axes must be nonempty, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("volume contains non-finite values")
        if np.any(arr < 0.0):
            raise DomainError("magnitude volume contains negative values")
        if len(self.spacing) != 3 or any(not s > 0.0 for s in self.spacing):
            raise DomainError(f"spacing must be 3 positive reals, got {self.spacing}")
        self.voxels = np.ascontiguousarray(arr)
        self.spacing = tuple(float(s) for s in self.spacing)
        self.scale = (float(self.scale[0]), float(self.scale[1]))

    @property
    def dims(self) -> tuple:
        return self.voxels.shape


def _open_for_read(path):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == _GZIP_MAGIC:
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(f, n, path, what):
    buf = f.read(n)
    if len(buf) != n:
        raise NiftiError(f"{path}: truncated file while reading {what} "
                         f"({len(buf)} of {n} bytes)")
    return buf


def _img_sibling(path):
    s = str(path)
    for hdr_ext, img_ext in ((".hdr.gz", ".img.gz"), (".hdr", ".img")):
        if s.endswith(hdr_ext):
            return s[: -len(hdr_ext)] + img_ext
    raise NiftiError(f"{path}: two-file layout requires a .hdr/.img pair")


def read_nifti(path) -> Volume4D:
    """Read a NIfTI-1 volume (.nii, .nii.gz, or .hdr/.img pair).

    Voxel values are returned as float64 in signal units, with
    scl_slope/scl_inter applied (a stored slope of 0 means unscaled).
    Negative values after scaling are clamped to 0 with a warning, since
    magnitude data is nonnegative by definition. 3D files become a
    single-volume 4D dataset.

    Raises
    ------
    NiftiError
        On truncated or malformed headers, unsupported datatypes or
        dimensionality, or axes beyond the 512-voxel guard.
    """
    try:
        f = _open_for_read(path)
    except OSError as exc:
        raise NiftiError(f"{path}: {exc}") from exc
    with f:
        hdr = _read_exact(f, _HEADER_SIZE, path, "header")
        (sizeof_hdr,) = struct.unpack("<i", hdr[:4])
        if sizeof_hdr == _HEADER_SIZE:
            bo = "<"
        elif struct.unpack(">i", hdr[:4])[0] == _HEADER_SIZE:
            bo = ">"
        else:
            raise NiftiError(f"{path}: not a NIfTI-1 file (sizeof_hdr={sizeof_hdr})")
        magic = hdr[344:348]
        if magic not in (b"n+1\x00", b"ni1\x00"):
            raise NiftiError(f"{path}: bad magic {magic!r}")

        dim = struct.unpack(bo + "8h", hdr[40:56])
        ndim = dim[0]
        if ndim not in (3, 4):
            raise NiftiError(f"{path}: unsupported dimensionality {ndim} (need 3 or 4)")
        shape = tuple(int(d) for d in dim[1 : ndim + 1])
        if any(d < 1 for d in shape):
            raise NiftiError(f"{path}: nonpositive axis in dims {shape}")
        if any(d > _MAX_AXIS for d in shape):
            raise NiftiError(f"{path}: axis exceeds the {_MAX_AXIS}-voxel guard: {shape}")

        (datatype, bitpix) = struct.unpack(bo + "2h", hdr[70:74])
        if datatype not in _DTYPES:
            raise NiftiError(f"{path}: unsupported datatype code {datatype}")
        dt = np.dtype(_DTYPES[datatype]).newbyteorder(bo)
        if bitpix != 8 * dt.itemsize:
            raise NiftiError(f"{path}: bitpix {bitpix} inconsistent with datatype {datatype}")

        pixdim = struct.unpack(bo + "8f", hdr[76:108])
        spacing = tuple(float(d) if d > 0.0 else 1.0 for d in pixdim[1:4])
        (vox_offset,) = struct.unpack(bo + "f", hdr[108:112])
        (slope,) = struct.unpack(bo + "f", hdr[112:116])
        (inter,) = struct.unpack(bo + "f", hdr[116:120])
        if slope == 0.0:
            slope = 1.0

        n_vox = 1
        for d in shape:
            n_vox *= d
        n_bytes = n_vox * dt.itemsize

        if magic == b"n+1\x00":
            offset = int(vox_offset)
            if offset < _HEADER_SIZE:
                raise NiftiError(f"{path}: vox_offset {offset} overlaps the header")
            _read_exact(f, offset - _HEADER_SIZE, path, "header extensions")
            data = _read_exact(f, n_bytes, path, "voxel data")
        else:
            img_path = _img_sibling(path)
            try:
                g = _open_for_read(img_path)
            except OSError as exc:
                raise NiftiError(f"{img_path}: {exc}") from exc
            with g:
                _read_exact(g, max(int(vox_offset), 0), img_path, "image offset")
                data = _read_exact(g, n_bytes, img_path, "voxel data")

    # One C-ordered float64 copy, made straight from the file bytes, which
    # are released before any further work. The file runs x fastest and
    # the array its last axis, so the copy goes one slab of the third axis
    # at a time: both sides of a slab stay in cache, where a whole-array
    # copy would miss on nearly every element.
    raw = np.frombuffer(data, dtype=dt, count=n_vox).reshape(shape, order="F")
    arr = np.empty(shape, dtype=np.float64)
    for k in range(shape[2]):
        arr[:, :, k] = raw[:, :, k]
    del raw, data
    if slope != 1.0 or inter != 0.0:
        arr *= slope
        arr += inter
    # min/max propagate NaN and need no full-size temporaries.
    lo, hi = float(arr.min()), float(arr.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NiftiError(f"{path}: voxel data contains non-finite values")
    n_neg = int(np.count_nonzero(arr < 0.0)) if lo < 0.0 else 0
    if n_neg:
        warnings.warn(
            f"{path}: clamped {n_neg} negative voxel values to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        np.maximum(arr, 0.0, out=arr)
    return Volume4D(voxels=arr, spacing=spacing, scale=(float(slope), float(inter)))


def _pack_header(shape, spacing, datatype, bitpix) -> bytes:
    hdr = bytearray(_HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, _HEADER_SIZE)
    hdr[38] = ord("r")
    dim = [len(shape)] + list(shape) + [1] * (7 - len(shape))
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<2h", hdr, 70, datatype, bitpix)
    pixdim = [1.0] + list(spacing) + [0.0] * (7 - len(spacing))
    struct.pack_into("<8f", hdr, 76, *pixdim)
    struct.pack_into("<f", hdr, 108, float(_HEADER_SIZE + 4))
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)
    hdr[123] = 2 | 8  # mm and seconds
    hdr[148:156] = b"chisigma"
    hdr[344:348] = b"n+1\x00"
    return bytes(hdr)


def write_nifti(volume, path) -> None:
    """Write a volume or a boolean mask as a single-file NIfTI-1 image.

    Volumes are stored as little-endian float32 with identity scaling;
    boolean masks as uint8 with values {0, 1}. A ``.gz`` suffix selects
    gzip compression with a fixed timestamp, so identical data yields
    identical bytes.
    """
    if isinstance(volume, Volume4D):
        arr = volume.voxels.astype("<f4")
        spacing = volume.spacing
        datatype, bitpix = 16, 32
    else:
        arr = np.asarray(volume)
        if arr.dtype != np.bool_:
            raise DomainError("write_nifti takes a Volume4D or a boolean mask")
        if arr.ndim not in (2, 3):
            raise DomainError(f"mask must be 2D or 3D, got {arr.ndim} dimensions")
        if arr.ndim == 2:
            arr = arr[..., np.newaxis]
        arr = arr.astype("u1")
        spacing = (1.0, 1.0, 1.0)
        datatype, bitpix = 2, 8
    if any(d > _MAX_AXIS for d in arr.shape):
        raise NiftiError(f"{path}: axis exceeds the {_MAX_AXIS}-voxel guard: {arr.shape}")

    payload = _pack_header(arr.shape, spacing, datatype, bitpix)
    payload += b"\x00\x00\x00\x00"  # no header extensions
    payload += arr.tobytes(order="F")
    try:
        if str(path).endswith(".gz"):
            with open(path, "wb") as raw:
                # Fixed mtime and no embedded name keep output byte-stable.
                with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as zf:
                    zf.write(payload)
        else:
            with open(path, "wb") as raw:
                raw.write(payload)
    except OSError as exc:
        raise NiftiError(f"{path}: {exc}") from exc


def volume_fingerprint(volume) -> dict:
    """Dims plus a sha256 checksum of the voxel bytes."""
    arr = np.ascontiguousarray(getattr(volume, "voxels", volume), dtype=np.float64)
    digest = hashlib.sha256(arr).hexdigest()
    return {"dims": list(arr.shape), "sha256": digest}


@dataclass
class EstimateReport:
    """Serializable record of one estimation run.

    ``slices`` holds one record per slice with the keys slice_index,
    sigma_g, n_dof, n_identified, converged and outer_iters. ``config``
    echoes the SearchConfig fields and ``fingerprint`` ties the report
    to its input volume (dims plus checksum).
    """

    slices: list
    config: dict
    fingerprint: dict

    def search_config(self) -> SearchConfig:
        """Reconstruct the SearchConfig this report was produced with."""
        known = {f: self.config[f] for f in SearchConfig.__dataclass_fields__
                 if f in self.config}
        return SearchConfig(**known)


def build_report(estimates, config: SearchConfig, volume) -> EstimateReport:
    """Assemble an EstimateReport from per-slice estimates."""
    records = []
    for est in estimates:
        if isinstance(est, SliceEstimate):
            records.append({
                "slice_index": est.slice_index,
                "sigma_g": est.sigma_g,
                "n_dof": est.n_dof,
                "n_identified": est.n_identified,
                "converged": est.converged,
                "outer_iters": est.outer_iters,
            })
        else:
            records.append({f: est[f] for f in _SLICE_FIELDS})
    return EstimateReport(
        slices=records,
        config=asdict(config),
        fingerprint=volume_fingerprint(volume),
    )


def write_report(report: EstimateReport, path) -> None:
    """Serialize a report to JSON with full floating-point precision."""
    doc = {
        "schema": REPORT_SCHEMA,
        "slices": report.slices,
        "config": report.config,
        "fingerprint": report.fingerprint,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def read_report(path) -> EstimateReport:
    """Read a report written by :func:`write_report`.

    Unknown extra fields are ignored for forward compatibility; missing
    required fields raise :class:`SchemaError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: report must be a JSON object")
    for key in ("slices", "config", "fingerprint"):
        if key not in doc:
            raise SchemaError(f"{path}: missing required field {key!r}")
    if not isinstance(doc["slices"], list):
        raise SchemaError(f"{path}: 'slices' must be a list")
    slices = []
    for i, rec in enumerate(doc["slices"]):
        if not isinstance(rec, dict):
            raise SchemaError(f"{path}: slice record {i} must be an object")
        missing = [f for f in _SLICE_FIELDS if f not in rec]
        if missing:
            raise SchemaError(f"{path}: slice record {i} missing {missing}")
        slices.append({f: rec[f] for f in _SLICE_FIELDS})
    fp = doc["fingerprint"]
    if not isinstance(fp, dict) or "dims" not in fp or "sha256" not in fp:
        raise SchemaError(f"{path}: fingerprint must carry dims and sha256")
    if not isinstance(doc["config"], dict):
        raise SchemaError(f"{path}: 'config' must be an object")
    return EstimateReport(slices=slices, config=doc["config"], fingerprint=fp)


def write_slice_csv(report: EstimateReport, path) -> None:
    """Export per-slice (slice_index, sigma_g, n_dof) rows as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["slice_index", "sigma_g", "n_dof"])
        for rec in report.slices:
            w.writerow([rec["slice_index"], repr(rec["sigma_g"]), repr(rec["n_dof"])])
