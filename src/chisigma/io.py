"""Volume and report I/O: minimal NIfTI-1 support plus JSON/CSV results.

The NIfTI-1 reader/writer handles the plain single-file layout (magic
"n+1") and the two-file header/image pair (magic "ni1"), both endian
orders, optional gzip compression, and the six datatypes that cover
magnitude MRI in practice. Everything is parsed with explicit bounds
checks so malformed files fail with :class:`NiftiError` rather than
crashing.
"""

import contextlib
import functools
import gzip
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
from .identify import SearchConfig, _median_sample
from .model import _STORED_TYPES, Volume4D, VolumeStream, _lend

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
# The header fields read and written, from offset 0, in struct's notation
# after a byte-order character: sizeof_hdr, dim[8], datatype, bitpix,
# pixdim[8], vox_offset, scl_slope and scl_inter.
_HEADER_FIELDS = "i36x8h14x2h2x8f3f"
# Largest spatial axis read or written; it bounds the per-voxel moments
# that estimate keeps. The volume axis has no such guard.
_MAX_AXIS = 512
# Bytes per voxel of a group of volumes read at once (but at least one
# volume): half the two float64 moment arrays that estimate adds them to,
# since the values near the median and a second pass's buffer on the
# --threads helper are held beside it.
_GROUP_BYTES = 8
# Largest request of one read call.
_READ_BYTES = 1 << 20
_GZIP_MAGIC = b"\x1f\x8b"
# Deflate, no flags, mtime 0, maximum compression, unknown OS.
_GZIP_HEADER = _GZIP_MAGIC + b"\x08\x00\x00\x00\x00\x00\x02\xff"
# Largest input of one deflate call: zlib gathers a call's output in
# blocks and then copies it whole, so small calls bound that transient.
_DEFLATE_BYTES = 1 << 16
# Threads of a .gz write, which make (or draw) and deflate its volumes. At
# most one volume more is in flight, so a fixed count, not the CPU count,
# bounds the memory a streamed write holds.
_DEFLATE_WORKERS = 4

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


def _read_into(f, arr, path, what):
    # Fills the contiguous ``arr`` from ``f``; a read may return less than
    # asked, so it loops until the buffer is full or the file ends. Each
    # call asks for at most _READ_BYTES: a gzip stream inflates a request
    # into a temporary of its size before copying it.
    buf = memoryview(arr).cast("B")
    got = 0
    while got < len(buf):
        with _gzip_checked(path):
            n = f.readinto(buf[got:got + _READ_BYTES])
        if not n:
            raise NiftiError(f"{path}: truncated file while reading {what} "
                             f"({got} of {len(buf)} bytes)")
        got += n


@contextlib.contextmanager
def _gzip_checked(path):
    # A gzip stream that is cut short, holds bad deflate data or fails its
    # CRC-32 or length check raises NiftiError naming ``path``.
    try:
        yield
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise NiftiError(f"{path}: damaged gzip stream: {exc}") from exc


def _read_to_end(f, path) -> None:
    # gzip checks a stream's CRC-32 and length only at its end, so a gzip
    # stream is read there, any bytes after what was read being dropped.
    with _gzip_checked(path):
        while isinstance(f, gzip.GzipFile) and f.read(_READ_BYTES):
            pass


def _img_sibling(path):
    s = str(path)
    for hdr_ext, img_ext in ((".hdr.gz", ".img.gz"), (".hdr", ".img")):
        if s.endswith(hdr_ext):
            return s[: -len(hdr_ext)] + img_ext
    raise NiftiError(f"{path}: two-file layout requires a .hdr/.img pair")


def _check_axes(path, shape) -> None:
    if any(d > _MAX_AXIS for d in shape[:3]):
        raise NiftiError(f"{path}: axis exceeds the {_MAX_AXIS}-voxel guard: {shape}")


def _identity(f) -> tuple:
    st = os.fstat(f.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class _Payload:
    """The voxel payload of a file that read_nifti checked, read in passes.

    ``shape`` (V, Z, Y, X) and ``dtype`` (little-endian) are those of the
    stored array; ``path`` names the file in messages. Each pass of
    :meth:`groups` opens the uncompressed file, by its absolute path (so
    a later change of the working directory does not change the file
    read), on its own handle, so passes may run on several threads at
    once. It reads the array in groups of whole volumes, into the array
    it is given or one buffer of _GROUP_BYTES per voxel: two float32
    volumes, four int16 ones.
    A pass that finds the file changed since the
    check (another device, inode, size or mtime) raises
    :class:`NiftiError` instead of reading other values than were checked;
    that includes a file that :func:`write_nifti` has since replaced.
    """

    def __init__(self, path, offset: int, dtype, swap: bool, shape: tuple, identity: tuple):
        self.path, self._abspath = path, os.path.abspath(path)
        self.offset, self.dtype, self.swap = offset, dtype, swap
        self.shape, self.identity = shape, identity
        self.group_volumes = max(1, _GROUP_BYTES // dtype.itemsize)

    def read(self, f, into=None):
        """Yield the groups from ``f``, positioned at the payload's start.

        Each group is a view of ``into`` (the whole stored array), filled
        as the read reaches it, or of one reused buffer.
        """
        n_vol, g = self.shape[0], self.group_volumes
        buf = np.empty((min(g, n_vol), *self.shape[1:]), self.dtype) if into is None else None
        for v0 in range(0, n_vol, g):
            block = into[v0:v0 + g] if into is not None else buf[:min(g, n_vol - v0)]
            _read_into(f, block, self.path, "voxel data")
            if self.swap:
                block.byteswap(inplace=True)
            yield block

    def groups(self, into=None):
        """One pass over the payload, checked against the file read_nifti checked.

        The groups are those of :meth:`read` with ``into``.
        """
        try:
            f = open(self._abspath, "rb")
        except OSError as exc:
            raise NiftiError(f"{self.path}: {exc}") from exc
        with f:
            self._same_file(f)
            f.seek(self.offset)
            yield from self.read(f, into)
            self._same_file(f)

    def _same_file(self, f) -> None:
        if _identity(f) != self.identity:
            raise NiftiError(f"{self.path}: file changed while being read")


def read_nifti(path) -> Volume4D:
    """Read a NIfTI-1 volume (.nii, .nii.gz, or .hdr/.img pair).

    The voxel values are kept as the file stores them, in its dtype
    (converted to little-endian) and its order, x fastest. The signal is
    ``max(stored * slope + inter, 0)`` with the file's scl_slope and
    scl_inter (a stored slope of 0 means unscaled); see
    :meth:`Volume4D.to_signal`. The file is read once here, a few volumes
    at a time, and each group of volumes is checked as it is read (min
    and max of the stored values, mapped through the monotone scaling).
    Negative scaled values are clamped to 0 with a warning, since
    magnitude data is nonnegative by definition. 3D files become a
    single-volume 4D dataset.

    One rule decides what is kept: a gzip payload is read straight into
    the returned :class:`Volume4D`'s ``stored`` array, so that it is
    inflated once, and an uncompressed one (``.nii`` or ``.img``) is
    not kept. Every gzip stream opened here, the header's of a pair
    included, is read to its end, where gzip checks the CRC-32 and the
    length of its data; bytes after the payload are dropped. A volume
    read from an uncompressed file is *file-backed*, and holds only the
    header, the scaling and the check's results (among them the sorted
    sample that brackets the median).
    :func:`~chisigma.identify.estimate_volume` (once, for every
    estimator), :func:`volume_fingerprint` and :func:`write_nifti` then read the file
    again, a few volumes at a time into one reused buffer, and only the
    3D moments and the values near the median stay in memory. The file
    must stay in place while the volume is used. The checks are not
    repeated; instead each such pass raises :class:`NiftiError` if the
    file changed (device, inode, size or mtime) since it was checked.
    ``stored`` and ``voxels`` of a file-backed volume read the whole
    file when first accessed.

    Raises
    ------
    NiftiError
        On truncated or malformed headers (including a vox_offset that
        is not a finite byte offset), unsupported datatypes or
        dimensionality, spatial axes beyond the 512-voxel guard (the
        volume axis has none), dims that need more voxel data than the
        file can hold (checked before any allocation; a gzip file holds
        at most 1032 times its size), voxel values that are NaN or
        infinite after scaling, or a gzip stream that is cut short, holds
        bad deflate data or fails its CRC-32 or length check.
    """
    try:
        f = _open_for_read(path)
    except OSError as exc:
        raise NiftiError(f"{path}: {exc}") from exc
    with f:
        hdr = bytearray(_HEADER_SIZE)
        _read_into(f, hdr, path, "header")
        little, big = (struct.unpack_from(bo + _HEADER_FIELDS, hdr) for bo in "<>")
        if _HEADER_SIZE not in (little[0], big[0]):
            raise NiftiError(f"{path}: not a NIfTI-1 file (sizeof_hdr={little[0]})")
        swap = little[0] != _HEADER_SIZE
        fields = big if swap else little
        magic = bytes(hdr[344:348])
        if magic not in (b"n+1\x00", b"ni1\x00"):
            raise NiftiError(f"{path}: bad magic {magic!r}")

        ndim = fields[1]  # dim[0]
        if ndim not in (3, 4):
            raise NiftiError(f"{path}: unsupported dimensionality {ndim} (need 3 or 4)")
        shape = tuple(int(d) for d in fields[2 : ndim + 2])
        if any(d < 1 for d in shape):
            raise NiftiError(f"{path}: nonpositive axis in dims {shape}")
        _check_axes(path, shape)

        datatype, bitpix = fields[9:11]
        if datatype not in _STORED_TYPES:
            raise NiftiError(f"{path}: unsupported datatype code {datatype}")
        dt = np.dtype(_STORED_TYPES[datatype]).newbyteorder("<")
        if bitpix != 8 * dt.itemsize:
            raise NiftiError(f"{path}: bitpix {bitpix} inconsistent with datatype {datatype}")

        spacing = tuple(float(d) if d > 0.0 else 1.0 for d in fields[12:15])  # pixdim[1:4]
        vox_offset, slope, inter = fields[19:]
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
            _read_to_end(f, path)
            img_path = _img_sibling(path)
            try:
                source = _open_for_read(img_path)
            except OSError as exc:
                raise NiftiError(f"{img_path}: {exc}") from exc
            offset = max(offset, 0)
            data_path = img_path

        x, y, z = shape[:3]
        stored_shape = (shape[3] if ndim == 4 else 1, z, y, x)
        with source:
            identity = _identity(source)
            # Checked before anything is allocated: deflate expands at most 1032-fold.
            room = identity[2] * (1032 if isinstance(source, gzip.GzipFile) else 1) - offset
            need = math.prod(shape) * dt.itemsize
            if need > room:
                raise NiftiError(f"{data_path}: truncated file: dims {shape} need {need} "
                                 f"bytes of voxel data, at most {max(room, 0)} fit")
            payload = _Payload(data_path, offset, dt, swap, stored_shape, identity)
            resident = isinstance(source, gzip.GzipFile)
            stored = np.empty(stored_shape, dtype=dt) if resident else None
            lo, n_neg = np.inf, 0

            def checked(groups):
                # Checked while the group is in memory: NaN propagates to min
                # and max, and the linear scaling maps them to the extremes
                # of the scaled values.
                nonlocal lo, n_neg
                for group in groups:
                    ends = (float(group.min()) * slope + inter,
                            float(group.max()) * slope + inter)
                    if not all(math.isfinite(e) for e in ends):
                        raise NiftiError(f"{path}: voxel data contains non-finite values")
                    if min(ends) < 0.0:
                        n_neg += sum(int(np.count_nonzero(block.astype(np.float64) * slope
                                                          + inter < 0.0)) for block in group)
                    lo = min(lo, *ends)
                    yield group

            # Forward, by reading, on a gzip stream.
            source.seek(offset)
            sample = _median_sample(checked(payload.read(source, stored)),
                                    math.prod(stored_shape))
            _read_to_end(source, data_path)
    clamp = lo < 0.0
    if clamp:
        warnings.warn(f"{path}: clamped {n_neg} negative voxel values to 0",
                      RuntimeWarning, stacklevel=2)
    return Volume4D._from_checked(stored if resident else payload, spacing, (slope, inter),
                                  clamp, sample)


def _pack_header(shape, spacing, datatype, bitpix) -> bytes:
    hdr = bytearray(_HEADER_SIZE)
    dim = [len(shape)] + list(shape) + [1] * (7 - len(shape))
    pixdim = [1.0] + list(spacing) + [0.0] * (7 - len(spacing))
    struct.pack_into("<" + _HEADER_FIELDS, hdr, 0, _HEADER_SIZE, *dim, datatype, bitpix,
                     *pixdim, float(_HEADER_SIZE + 4), 1.0, 0.0)
    hdr[38] = ord("r")
    hdr[123] = 2 | 8  # mm and seconds
    hdr[148:156] = b"chisigma"
    hdr[344:348] = b"n+1\x00"
    return bytes(hdr)


def _file_chunks(volume, spacing, path):
    """The NIfTI-1 file of ``volume``, as ``(header, (shape, dtype), fills)``.

    ``header`` is the header's bytes. ``fills`` yields one callable per 3D
    volume, in file order: ``fill(out)`` makes the volume into ``out``, an
    array of that ``shape`` and ``dtype``, and returns ``out``'s bytes, or
    raises :class:`NiftiError` on a value that is not finite as float32.
    The fills depend on no other, so they may run on several threads at
    once. The input and its dims are checked at once, before any byte is
    produced. The file runs x fastest, as a volume's ``stored`` array and
    a stream's volumes do, so each 3D volume is one contiguous run of
    both, mapped to the signal (or read from a file-backed volume's file)
    when the iterator reaches it, or drawn when its fill runs.
    """
    if isinstance(volume, (Volume4D, VolumeStream)):
        shape = volume.dims
        spacing = volume.spacing
        datatype, bitpix, dtype = 16, 32, "<f4"
        makers = volume.makers() if isinstance(volume, VolumeStream) else _signals(volume)
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
        makers = (functools.partial(_lend, arr.T),)
    _check_axes(path, shape)
    # Four zero bytes after the header: no extensions.
    header = _pack_header(shape, spacing, datatype, bitpix) + b"\x00\x00\x00\x00"
    fills = (functools.partial(_fill, make, path=path) for make in makers)
    return header, (shape[2::-1], np.dtype(dtype)), fills


def _signals(volume: Volume4D):
    # The maker of each volume's float64 signal, lending an array that the
    # next read of a file-backed volume does not overwrite: fills run after
    # later volumes are read.
    for group in volume._groups():
        for block in group:
            signal = volume.to_signal(block)
            reused = signal is block and volume._stored is None
            yield functools.partial(_lend, signal.copy() if reused else signal)


def _fill(make, out, path) -> memoryview:
    # Signal values beyond the float32 range are cast to inf, which
    # read_nifti rejects. Magnitudes are nonnegative, so the maximum of
    # the cast shows any such value.
    with np.errstate(over="ignore"):
        make(out=out)
    if out.dtype.kind == "f" and not math.isfinite(out.max()):
        raise NiftiError(f"{path}: voxel values are not finite in float32")
    return memoryview(out).cast("B")


def _deflate(chunk) -> list:
    """``chunk`` as a raw deflate stream of its own, in parts.

    Volumes and masks use the Z_RLE strategy, which matches only runs of
    one repeated byte. That is all float32 noise offers: on simulated
    data it gives a smaller stream than the default strategy for about a
    quarter of the CPU time. A chunk no larger than the header (the
    header itself) keeps the default strategy, whose match search costs
    nothing there and finds the header's repeated fields. The stream
    ends on a byte boundary with a non-final block, so that such streams
    concatenate into one. The chunk is fed _DEFLATE_BYTES at a time,
    which gives the bytes of one call on the whole chunk, and the parts
    are written one after the other, not joined into a copy.
    """
    strategy = zlib.Z_DEFAULT_STRATEGY if len(chunk) <= _HEADER_SIZE + 4 else zlib.Z_RLE
    z = zlib.compressobj(9, zlib.DEFLATED, -15, strategy=strategy)
    parts = [z.compress(chunk[i:i + _DEFLATE_BYTES]) for i in range(0, len(chunk), _DEFLATE_BYTES)]
    parts.append(z.flush(zlib.Z_SYNC_FLUSH))
    return parts


def _fill_and_deflate(fill: list, out) -> tuple:
    # ``fill`` is a one-item list, emptied here: the volume's maker, and the
    # noncentrality map it may hold alone, go before the deflate runs.
    chunk = fill.pop()(out)
    return chunk, _deflate(chunk)


def _write_gzip(f, chunks, workers: int) -> None:
    """Write the file ``chunks`` of :func:`_file_chunks` to ``f`` as one gzip member.

    Each 3D volume is one task on ``workers`` threads: its fill makes it
    (draws it, for a simulated volume) into a buffer that this thread
    lends, checks it, and deflates it (numpy's draws and zlib release the
    interpreter lock). At most ``workers + 1`` volumes are in flight, in
    as many buffers, allocated here and reused; one more than the
    workers, so that a worker is never idle while this thread waits for
    the oldest volume. This thread adds each volume to the CRC and size
    and writes its deflated parts in volume order, then lends its buffer
    to the next fill. Every volume starts a fresh deflate stream, so the
    bytes do not depend on ``workers``.
    """
    import concurrent.futures

    header, (shape, dtype), fills = chunks
    f.write(_GZIP_HEADER)
    f.writelines(_deflate(header))
    crc, size = zlib.crc32(header), len(header)
    pending, free = deque(), []

    def write_oldest():
        nonlocal crc, size
        done, out = pending.popleft()
        chunk, parts = done.result()
        crc = zlib.crc32(chunk, crc)
        size += len(chunk)
        f.writelines(parts)
        free.append(out)

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        for fill in fills:
            if len(pending) > workers:
                write_oldest()
            out = free.pop() if free else np.empty(shape, dtype)
            pending.append((pool.submit(_fill_and_deflate, [fill], out), out))
            del fill  # the task holds the maker while it needs it
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
    (including the 512-voxel guard on the spatial axes) before any byte
    is written, then the file is written one 3D volume at a time: each
    of a :class:`VolumeStream`'s makers draws its volume straight into a
    float32 buffer, so a stream is never held whole, and a file-backed
    volume is read from its file as it is written. Uncompressed, the
    volumes are made one after another into one buffer. A ``.gz``
    suffix selects gzip compression: each 3D volume is made, checked
    and deflated on its own (Z_RLE strategy) by one task on a thread
    per CPU up to 4, with at most one volume more than threads in
    flight, each in a buffer of its own, into one gzip member with no
    name and mtime 0, so the bytes depend neither on the thread count
    nor on the time, and identical data yields identical bytes.

    The file is written to a new temporary file beside the target (a
    symlink is resolved first) and renamed over the target only once
    the write is complete, so a failed write leaves the target as it
    was. The rename gives the target a new inode: another hard link to
    the old file keeps the old bytes, and a file-backed volume written
    onto its own file is stale afterwards (a pass over it raises
    :class:`NiftiError`). A target that exists and is not a regular
    file (a device or a FIFO) is written in place and never removed.

    Raises
    ------
    NiftiError
        If a spatial axis exceeds the guard, a value is not finite as float32
        (a signal beyond the float32 range), or the file cannot be
        written (among others, when the target's directory is read-only).
    """
    chunks = _file_chunks(volume, spacing, path)
    target = os.path.realpath(path)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    head, tail = os.path.split(target)
    # Random, and created exclusively: no other writer uses the same name.
    out = target if in_place else os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    try:
        f = open(out, "wb" if in_place else "xb")
    except OSError as exc:
        raise NiftiError(f"{path}: {exc}") from exc
    try:
        with f:
            if str(path).endswith(".gz"):
                _write_gzip(f, chunks, min(os.cpu_count() or 1, _DEFLATE_WORKERS))
            else:
                header, (shape, dtype), fills = chunks
                f.write(header)
                buf = np.empty(shape, dtype)
                for fill in fills:
                    f.write(fill(buf))
        if not in_place:
            os.replace(out, target)
    except BaseException as exc:
        if not in_place:
            with contextlib.suppress(OSError):
                os.unlink(out)
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
    pair. An ndarray is wrapped in a :class:`Volume4D` first. A
    file-backed volume's file is read once more, on a handle and buffer
    of this call's own, so the hash may run on another thread while
    :func:`~chisigma.identify.estimate_volume` reads the same file; it
    raises :class:`NiftiError` if the file changed since it was checked.
    """
    import hashlib

    vol = volume if isinstance(volume, Volume4D) else Volume4D(voxels=volume)
    digest = hashlib.sha256()
    for group in vol._groups():
        digest.update(group)
    return {
        "dims": list(vol.dims),
        "dtype": vol.dtype.name,
        "scale": list(vol.scale),
        "sha256": digest.hexdigest(),
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


def build_report(estimates, config: SearchConfig, volume,
                 fingerprint: dict | None = None) -> EstimateReport:
    """Assemble an EstimateReport from per-slice estimates.

    ``fingerprint`` is ``volume_fingerprint(volume)`` when already
    computed, for instance on another thread; by default it is computed
    here.
    """
    return EstimateReport(
        slices=[{f: getattr(est, f) for f in _SLICE_FIELDS} for est in estimates],
        config=asdict(config),
        fingerprint=volume_fingerprint(volume) if fingerprint is None else fingerprint,
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

    Unknown extra fields are ignored for forward compatibility; a file
    that is not UTF-8 JSON, a ``schema`` other than ``chisigma-report-v1``
    or ``-v2`` (or none), missing required fields, slice fields of the
    wrong JSON type, or a slice index that appears twice raise
    :class:`SchemaError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    import csv

    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["slice_index", "sigma_g", "n_dof"])
        for rec in report.slices:
            w.writerow([rec["slice_index"], repr(rec["sigma_g"]), repr(rec["n_dof"])])
