"""Volume and report I/O: minimal NIfTI-1 support plus JSON/CSV results.

The NIfTI-1 reader/writer handles the plain single-file layout (magic
"n+1") and the two-file header/image pair (magic "ni1"), both endian
orders, optional gzip compression, and the five datatypes that cover
magnitude MRI in practice. Everything is parsed with explicit bounds
checks so malformed files fail with :class:`NiftiError` rather than
crashing.
"""

import concurrent.futures
import contextlib
import csv
import gzip
import hashlib
import itertools
import json
import math
import os
import struct
import sys
import warnings
import zlib
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, NiftiError, SchemaError
from .identify import SearchConfig
from .model import Volume4D, VolumeStream

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
# Deflate, no flags, mtime 0, maximum compression, unknown OS.
_GZIP_HEADER = _GZIP_MAGIC + b"\x08\x00\x00\x00\x00\x00\x02\xff"

# The report schema written; read_report also reads v1, whose fingerprint
# is the dims and the sha256 of the float64 voxels in C order.
REPORT_SCHEMA = "chisigma-report-v2"
_READ_SCHEMAS = ("chisigma-report-v1", REPORT_SCHEMA)

# JSON types each slice record field may take. Matched by exact type, so
# true/false is never read as a number.
_SLICE_FIELDS = {
    "slice_index": (int,),
    "sigma_g": (int, float),
    "n_dof": (int, float),
    "n_identified": (int,),
    "converged": (bool,),
    "outer_iters": (int,),
}


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


def _read_into(f, arr, path, what):
    # Fills the contiguous ``arr`` from ``f``; a read may return less than
    # asked, so it loops until the buffer is full or the file ends.
    buf = memoryview(arr).cast("B")
    got = 0
    while got < len(buf):
        n = f.readinto(buf[got:])
        if not n:
            raise NiftiError(f"{path}: truncated file while reading {what} "
                             f"({got} of {len(buf)} bytes)")
        got += n


def _img_sibling(path):
    s = str(path)
    for hdr_ext, img_ext in ((".hdr.gz", ".img.gz"), (".hdr", ".img")):
        if s.endswith(hdr_ext):
            return s[: -len(hdr_ext)] + img_ext
    raise NiftiError(f"{path}: two-file layout requires a .hdr/.img pair")


def read_nifti(path) -> Volume4D:
    """Read a NIfTI-1 volume (.nii, .nii.gz, or .hdr/.img pair).

    The voxel values are kept as the file stores them, in its dtype
    (converted to little-endian) and its order, x fastest: each 3D
    volume is read straight into its block of the returned
    :class:`Volume4D`'s ``stored`` array, so the file is never held
    whole in memory and never reordered. The signal is
    ``max(stored * slope + inter, 0)`` with the file's scl_slope and
    scl_inter (a stored slope of 0 means unscaled); see
    :meth:`Volume4D.to_signal`. Each volume is checked as it is read
    (min and max of the stored values, mapped through the monotone
    scaling). Negative scaled values are clamped to 0 with a warning,
    since magnitude data is nonnegative by definition. 3D files become
    a single-volume 4D dataset.

    Raises
    ------
    NiftiError
        On truncated or malformed headers (including a vox_offset that
        is not a finite byte offset), unsupported datatypes or
        dimensionality, axes beyond the 512-voxel guard, or voxel values
        that are NaN or infinite after scaling.
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
        dt = np.dtype(_DTYPES[datatype]).newbyteorder("<")
        if bitpix != 8 * dt.itemsize:
            raise NiftiError(f"{path}: bitpix {bitpix} inconsistent with datatype {datatype}")

        pixdim = struct.unpack(bo + "8f", hdr[76:108])
        spacing = tuple(float(d) if d > 0.0 else 1.0 for d in pixdim[1:4])
        (vox_offset,) = struct.unpack(bo + "f", hdr[108:112])
        (slope,) = struct.unpack(bo + "f", hdr[112:116])
        (inter,) = struct.unpack(bo + "f", hdr[116:120])
        if slope == 0.0:
            slope = 1.0
        # NaN, infinities and offsets past any file position would crash
        # int() or the seek below.
        if not (math.isfinite(vox_offset) and abs(vox_offset) < sys.maxsize):
            raise NiftiError(f"{path}: vox_offset {vox_offset} is not a byte offset")
        offset = int(vox_offset)
        if magic == b"n+1\x00":
            if offset < _HEADER_SIZE:
                raise NiftiError(f"{path}: vox_offset {offset} overlaps the header")
            source, data_path = f, path
        else:
            img_path = _img_sibling(path)
            try:
                source = _open_for_read(img_path)
            except OSError as exc:
                raise NiftiError(f"{img_path}: {exc}") from exc
            offset = max(offset, 0)
            data_path = img_path

        x, y, z = shape[:3]
        stored = np.empty((shape[3] if ndim == 4 else 1, z, y, x), dtype=dt)
        lo = np.inf
        with source:
            # Forward, by reading, on a gzip stream; past the end of a plain
            # file, the first volume's read comes up short.
            source.seek(offset)
            for block in stored:
                _read_into(source, block, data_path, "voxel data")
                if bo == ">":
                    block.byteswap(inplace=True)
                # Checked while the block is in cache: NaN propagates to min
                # and max, and the linear scaling maps them to the extremes
                # of the scaled values.
                ends = (float(block.min()) * slope + inter, float(block.max()) * slope + inter)
                if not all(math.isfinite(e) for e in ends):
                    raise NiftiError(f"{path}: voxel data contains non-finite values")
                lo = min(lo, *ends)
    clamp = lo < 0.0
    if clamp:
        n_neg = sum(int(np.count_nonzero(block.astype(np.float64) * slope + inter < 0.0))
                    for block in stored)
        warnings.warn(f"{path}: clamped {n_neg} negative voxel values to 0",
                      RuntimeWarning, stacklevel=2)
    return Volume4D._from_checked(stored, spacing, (slope, inter), clamp)


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


def _file_chunks(volume, spacing, path):
    """The NIfTI-1 file of ``volume``: its header, then a buffer per 3D volume.

    The input and its dims are checked at once, before any byte is
    produced. The file runs x fastest, as a volume's ``stored`` array
    and a stream's volumes do, so each 3D volume is one contiguous run
    of both, mapped to the signal (or drawn) and cast only when the
    iterator reaches it.
    """
    if isinstance(volume, (Volume4D, VolumeStream)):
        shape = volume.dims
        spacing = volume.spacing
        datatype, bitpix, dtype = 16, 32, "<f4"
        if isinstance(volume, VolumeStream):
            vols = volume
        else:
            vols = (volume.to_signal(block) for block in volume.stored)
    else:
        arr = np.asarray(volume)
        if arr.dtype != np.bool_:
            raise DomainError("write_nifti takes a Volume4D, a VolumeStream or a boolean mask")
        if arr.ndim not in (2, 3):
            raise DomainError(f"mask must be 2D or 3D, got {arr.ndim} dimensions")
        if arr.ndim == 2:
            arr = arr[..., np.newaxis]
        shape = arr.shape
        datatype, bitpix, dtype = 2, 8, "u1"
        vols = (arr.T,)
    if any(d > _MAX_AXIS for d in shape):
        raise NiftiError(f"{path}: axis exceeds the {_MAX_AXIS}-voxel guard: {shape}")
    # Four zero bytes after the header: no extensions.
    header = _pack_header(shape, spacing, datatype, bitpix) + b"\x00\x00\x00\x00"
    return itertools.chain((header,), (_cast(vol, dtype, path) for vol in vols))


def _cast(vol, dtype, path) -> memoryview:
    # Signal values beyond the float32 range would be cast to inf, which
    # read_nifti rejects. Magnitudes are nonnegative, so the maximum of
    # the cast shows any such value.
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(vol, dtype=dtype)
    if out.dtype.kind == "f" and not math.isfinite(out.max()):
        raise NiftiError(f"{path}: voxel values are not finite in float32")
    return memoryview(out).cast("B")


def _deflate(chunk) -> bytes:
    """``chunk`` as a raw deflate stream of its own.

    Volumes and masks use the Z_RLE strategy, which matches only runs of
    one repeated byte. That is all float32 noise offers: on simulated
    data it gives a smaller stream than the default strategy for about a
    quarter of the CPU time. A chunk no larger than the header (the
    header itself) keeps the default strategy, whose match search costs
    nothing there and finds the header's repeated fields. The stream
    ends on a byte boundary with a non-final block, so that such streams
    concatenate into one.
    """
    strategy = zlib.Z_DEFAULT_STRATEGY if len(chunk) <= _HEADER_SIZE + 4 else zlib.Z_RLE
    z = zlib.compressobj(9, zlib.DEFLATED, -15, strategy=strategy)
    return z.compress(chunk) + z.flush(zlib.Z_SYNC_FLUSH)


def _write_gzip(f, chunks, workers: int) -> None:
    """Write ``chunks`` to ``f`` as one gzip member, each deflated on its own.

    The chunks are deflated on ``workers`` threads (zlib releases the
    GIL), at most two per thread in flight, and written in order. While
    they deflate, this thread takes the next chunk from ``chunks``, so
    the work that makes a chunk (a cast, or the draws of a simulated
    volume) overlaps the deflate of earlier ones. Every chunk starts a
    fresh deflate stream, so the bytes do not depend on ``workers``.
    """
    f.write(_GZIP_HEADER)
    crc = size = 0
    pending = deque()

    def write_oldest():
        nonlocal crc, size
        chunk, deflated = pending.popleft()
        crc = zlib.crc32(chunk, crc)
        size += len(chunk)
        f.write(deflated.result())

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        for chunk in chunks:
            pending.append((chunk, pool.submit(_deflate, chunk)))
            if len(pending) > 2 * workers:
                write_oldest()
        while pending:
            write_oldest()
    # An empty final block ends the deflate stream.
    f.write(zlib.compressobj(9, zlib.DEFLATED, -15).flush(zlib.Z_FINISH))
    f.write(struct.pack("<II", crc, size & 0xFFFFFFFF))


def write_nifti(volume, path, spacing=(1.0, 1.0, 1.0)) -> None:
    """Write a volume, a volume stream or a boolean mask as a NIfTI-1 image.

    Volumes and streams are stored as little-endian float32 with identity
    scaling and their own spacing; boolean masks as uint8 with values
    {0, 1} and the voxel edge lengths ``spacing`` (pass the source
    volume's, so the mask lies on its grid). The header is checked
    (including the 512-voxel guard) before any byte is written, then the
    file is written one 3D volume at a time: a :class:`VolumeStream`'s
    volumes are taken one by one as the write reaches them, so a stream
    is never held whole. A ``.gz`` suffix selects gzip compression: each
    3D volume is deflated on its own (Z_RLE strategy), on a thread per
    CPU, into one gzip member with no name and mtime 0, so the bytes
    depend neither on the thread count nor on the time, and identical
    data yields identical bytes.

    Raises
    ------
    NiftiError
        If an axis exceeds the guard, a value is not finite as float32
        (a signal beyond the float32 range), or the file cannot be
        written. A write that fails part way removes the partial file.
    """
    chunks = _file_chunks(volume, spacing, path)
    try:
        f = open(path, "wb")
    except OSError as exc:
        raise NiftiError(f"{path}: {exc}") from exc
    try:
        with f:
            if str(path).endswith(".gz"):
                _write_gzip(f, chunks, os.cpu_count() or 1)
            else:
                for chunk in chunks:
                    f.write(chunk)
    except BaseException as exc:
        # A partial file is no NIfTI file; a streamed write may fail late.
        with contextlib.suppress(OSError):
            os.unlink(path)
        if isinstance(exc, OSError):
            raise NiftiError(f"{path}: {exc}") from exc
        raise


def volume_fingerprint(volume) -> dict:
    """The ``chisigma-report-v2`` fingerprint of a volume.

    ``{"dims", "dtype", "scale", "sha256"}``: the (X, Y, Z, V) dims, the
    stored dtype's name, the (slope, intercept) scaling, and the sha256
    of the stored values' bytes (little-endian, x fastest, volume after
    volume: the file's voxel payload), hashed through the buffer protocol
    without a copy. So the same values, dtype and scaling give the same
    fingerprint from a .nii, a .nii.gz, a big-endian file or a .hdr/.img
    pair. An ndarray is wrapped in a :class:`Volume4D` first.
    """
    vol = volume if isinstance(volume, Volume4D) else Volume4D(voxels=volume)
    return {
        "dims": list(vol.dims),
        "dtype": vol.stored.dtype.name,
        "scale": list(vol.scale),
        "sha256": hashlib.sha256(vol.stored).hexdigest(),
    }


@dataclass
class EstimateReport:
    """Serializable record of one estimation run.

    ``slices`` holds one record per slice with the keys slice_index,
    sigma_g, n_dof, n_identified, converged and outer_iters. ``config``
    echoes the SearchConfig fields and ``fingerprint`` ties the report
    to its input volume (see :func:`volume_fingerprint`).
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
    return EstimateReport(
        slices=[{f: getattr(est, f) for f in _SLICE_FIELDS} for est in estimates],
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
    """Read a report written by :func:`write_report`, of schema v2 or v1.

    Unknown extra fields are ignored for forward compatibility; a
    ``schema`` other than ``chisigma-report-v1`` or ``-v2`` (or none),
    missing required fields, slice fields of the wrong JSON type, or a
    slice index that appears twice raise :class:`SchemaError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: report must be a JSON object")
    schema = doc.get("schema")
    if not (isinstance(schema, str) and schema in _READ_SCHEMAS):
        raise SchemaError(f"{path}: schema must be one of {_READ_SCHEMAS}, got {schema!r}")
    for key in ("slices", "config", "fingerprint"):
        if key not in doc:
            raise SchemaError(f"{path}: missing required field {key!r}")
    if not isinstance(doc["slices"], list):
        raise SchemaError(f"{path}: 'slices' must be a list")
    slices, seen = [], set()
    for i, rec in enumerate(doc["slices"]):
        if not isinstance(rec, dict):
            raise SchemaError(f"{path}: slice record {i} must be an object")
        missing = [f for f in _SLICE_FIELDS if f not in rec]
        if missing:
            raise SchemaError(f"{path}: slice record {i} missing {missing}")
        wrong = [f for f, types in _SLICE_FIELDS.items() if type(rec[f]) not in types]
        if wrong:
            raise SchemaError(f"{path}: slice record {i} has fields of the wrong type {wrong}")
        if rec["slice_index"] in seen:
            raise SchemaError(f"{path}: slice record {i} repeats slice_index "
                              f"{rec['slice_index']}")
        seen.add(rec["slice_index"])
        slices.append({f: rec[f] for f in _SLICE_FIELDS})
    fp = doc["fingerprint"]
    if not isinstance(fp, dict) or not isinstance(fp.get("dims"), list) or "sha256" not in fp:
        raise SchemaError(f"{path}: fingerprint must carry a dims list and sha256")
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
