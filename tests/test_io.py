"""File I/O: NIfTI-1 parsing/writing and report serialization.

Read-side fixtures are handcrafted byte-by-byte with struct packing so
the parser is tested against the format definition, not against the
package's own writer.
"""

import gzip
import hashlib
import io
import json
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from chisigma.errors import DomainError, NiftiError, SchemaError
from chisigma.identify import (
    SearchConfig,
    SliceEstimate,
    _median,
    estimate_slice,
    estimate_volume,
    sigma_upper_bound,
)
from chisigma.io import (
    EstimateReport,
    Volume4D,
    build_report,
    read_nifti,
    read_report,
    volume_fingerprint,
    write_nifti,
    write_report,
    write_slice_csv,
)
from chisigma.io import _file_chunks, _write_gzip
from chisigma.model import VolumeStream
from chisigma.specfun import inv_gamma_p


def craft_nifti(shape, dtype_code, data_bytes, endian="<", slope=1.0, inter=0.0,
                spacing=(1.0, 1.0, 1.0), vox_offset=352, magic=b"n+1\x00",
                bitpix=None, sizeof_hdr=348):
    """Assemble a NIfTI-1 file image from scratch."""
    itemsize = {2: 1, 4: 2, 8: 4, 16: 4, 64: 8}.get(dtype_code, 4)
    if bitpix is None:
        bitpix = 8 * itemsize
    hdr = bytearray(348)
    struct.pack_into(endian + "i", hdr, 0, sizeof_hdr)
    dim = [len(shape)] + list(shape) + [1] * (7 - len(shape))
    struct.pack_into(endian + "8h", hdr, 40, *dim)
    struct.pack_into(endian + "2h", hdr, 70, dtype_code, bitpix)
    pixdim = [1.0] + list(spacing) + [0.0] * (7 - len(spacing))
    struct.pack_into(endian + "8f", hdr, 76, *pixdim)
    struct.pack_into(endian + "f", hdr, 108, float(vox_offset))
    struct.pack_into(endian + "2f", hdr, 112, slope, inter)
    hdr[344:348] = magic
    pad = b"\x00" * max(0, vox_offset - 348)
    return bytes(hdr) + pad + data_bytes


def write_layout(tmp_path, layout, shape, dtype_code, data_bytes, **kw):
    """Write a single file (``layout`` "nii" or "nii.gz") or a .hdr/.img pair ("pair")."""
    if layout == "pair":
        hdr = craft_nifti(shape, dtype_code, b"", vox_offset=0, magic=b"ni1\x00", **kw)
        (tmp_path / "pair.img").write_bytes(data_bytes)
        path = tmp_path / "pair.hdr"
        path.write_bytes(hdr)
        return path
    raw = craft_nifti(shape, dtype_code, data_bytes, **kw)
    path = tmp_path / f"vol.{layout}"
    path.write_bytes(gzip.compress(raw) if layout == "nii.gz" else raw)
    return path


class TestReadNifti:
    def test_float32_little_endian(self, tmp_path):
        rng = np.random.default_rng(50)
        arr = rng.uniform(0.0, 100.0, (4, 4, 4, 2)).astype("<f4")
        path = tmp_path / "a.nii"
        path.write_bytes(craft_nifti((4, 4, 4, 2), 16, arr.tobytes(order="F")))
        vol = read_nifti(path)
        assert vol.dims == (4, 4, 4, 2)
        np.testing.assert_array_equal(vol.voxels, arr.astype(np.float64))

    def test_big_endian_detected(self, tmp_path):
        arr = np.arange(24, dtype=">f4").reshape((2, 3, 4), order="F")
        path = tmp_path / "b.nii"
        path.write_bytes(craft_nifti((2, 3, 4), 16, arr.tobytes(order="F"),
                                     endian=">"))
        vol = read_nifti(path)
        assert vol.dims == (2, 3, 4, 1)
        np.testing.assert_array_equal(vol.voxels[..., 0], arr.astype(np.float64))

    def test_3d_becomes_single_volume(self, tmp_path):
        arr = np.ones((3, 3, 3), dtype="<f4")
        path = tmp_path / "c.nii"
        path.write_bytes(craft_nifti((3, 3, 3), 16, arr.tobytes(order="F")))
        assert read_nifti(path).dims == (3, 3, 3, 1)

    def test_int16_with_scaling(self, tmp_path):
        arr = np.array([10, 20, 30, 40], dtype="<i2").reshape((4, 1, 1), order="F")
        path = tmp_path / "d.nii"
        path.write_bytes(craft_nifti((4, 1, 1), 4, arr.tobytes(order="F"),
                                     slope=2.5, inter=1.0))
        vol = read_nifti(path)
        np.testing.assert_allclose(vol.voxels[:, 0, 0, 0], [26.0, 51.0, 76.0, 101.0])
        assert vol.scale == (2.5, 1.0)

    def test_scaled_float64_single_column(self, tmp_path):
        # With one non-unit axis the file's order is also C order. The volume
        # keeps the file's values unscaled and read-only; the signal is a
        # scaled float64 copy that shares no memory with them.
        arr = np.array([1.0, 2.0, 3.0], dtype="<f8").reshape((3, 1, 1), order="F")
        path = tmp_path / "f8.nii"
        path.write_bytes(craft_nifti((3, 1, 1), 64, arr.tobytes(order="F"), slope=2.0))
        vol = read_nifti(path)
        np.testing.assert_array_equal(vol.stored.ravel(), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(vol.voxels[:, 0, 0, 0], [2.0, 4.0, 6.0])
        assert not vol.stored.flags.writeable and not vol.voxels.flags.writeable
        assert not np.shares_memory(vol.voxels, vol.stored)

    @pytest.mark.parametrize("shape", [(5, 3, 4, 6), (2, 7, 1, 3), (3, 2, 5)])
    def test_layout_matches_file_order(self, tmp_path, shape):
        # Distinct axis lengths pin the volume-major layout: the stored array
        # is the file's payload as it is, x fastest, and voxels its transpose.
        arr = np.arange(np.prod(shape), dtype="<f4").reshape(shape, order="F")
        path = tmp_path / "layout.nii"
        path.write_bytes(craft_nifti(shape, 16, arr.tobytes(order="F")))
        vol = read_nifti(path)
        expected = arr.astype(np.float64).reshape(vol.dims, order="F")
        np.testing.assert_array_equal(vol.voxels, expected)
        assert vol.stored.shape == vol.dims[::-1] and vol.stored.flags.c_contiguous
        assert vol.stored.tobytes() == arr.tobytes(order="F")

    @pytest.mark.parametrize("first,bad", [
        (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf), (-2.0, np.nan), (-2.0, -np.inf),
    ], ids=["nan", "inf", "-inf", "nan_and_negative", "-inf_and_negative"])
    def test_non_finite_values_rejected(self, tmp_path, first, bad):
        # Rejected, with no negative value clamped (a clamp would warn).
        arr = np.array([first, bad, 3.0, 4.0], dtype="<f4").reshape((4, 1, 1), order="F")
        path = tmp_path / "nf.nii"
        path.write_bytes(craft_nifti((4, 1, 1), 16, arr.tobytes(order="F")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NiftiError, match="non-finite"):
                read_nifti(path)

    def test_zero_slope_treated_as_one(self, tmp_path):
        arr = np.array([7.0, 8.0], dtype="<f4").reshape((2, 1, 1), order="F")
        path = tmp_path / "e.nii"
        path.write_bytes(craft_nifti((2, 1, 1), 16, arr.tobytes(order="F"), slope=0.0))
        vol = read_nifti(path)
        np.testing.assert_array_equal(vol.voxels[:, 0, 0, 0], [7.0, 8.0])

    def test_negative_values_clamped_with_warning(self, tmp_path):
        arr = np.array([-5, 10, -1, 3], dtype="<i2").reshape((4, 1, 1), order="F")
        path = tmp_path / "f.nii"
        path.write_bytes(craft_nifti((4, 1, 1), 4, arr.tobytes(order="F")))
        with pytest.warns(RuntimeWarning, match="clamped 2 negative"):
            vol = read_nifti(path)
        np.testing.assert_array_equal(vol.voxels[:, 0, 0, 0], [0.0, 10.0, 0.0, 3.0])

    def test_gzip_by_magic_bytes(self, tmp_path):
        arr = np.full((2, 2, 2), 5.0, dtype="<f4")
        raw = craft_nifti((2, 2, 2), 16, arr.tobytes(order="F"))
        path = tmp_path / "g.nii"  # gzip content behind a bare .nii name
        path.write_bytes(gzip.compress(raw))
        vol = read_nifti(path)
        assert np.all(vol.voxels == 5.0)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.nii"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(NiftiError, match="truncated"):
            read_nifti(path)

    def test_truncated_data(self, tmp_path):
        arr = np.ones((4, 4, 4), dtype="<f4")
        full = craft_nifti((4, 4, 4), 16, arr.tobytes(order="F"))
        path = tmp_path / "i.nii"
        path.write_bytes(full[:-40])
        with pytest.raises(NiftiError, match="truncated"):
            read_nifti(path)

    def test_bad_sizeof_hdr(self, tmp_path):
        path = tmp_path / "j.nii"
        path.write_bytes(craft_nifti((2, 2, 2), 16,
                                     np.ones((2, 2, 2), dtype="<f4").tobytes(),
                                     sizeof_hdr=999))
        with pytest.raises(NiftiError, match="sizeof_hdr"):
            read_nifti(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "k.nii"
        path.write_bytes(craft_nifti((2, 2, 2), 16,
                                     np.ones((2, 2, 2), dtype="<f4").tobytes(),
                                     magic=b"abc\x00"))
        with pytest.raises(NiftiError, match="magic"):
            read_nifti(path)

    def test_unsupported_datatype(self, tmp_path):
        path = tmp_path / "l.nii"
        path.write_bytes(craft_nifti((2, 2, 2), 128, b"\x00" * 32))
        with pytest.raises(NiftiError, match="datatype"):
            read_nifti(path)

    def test_axis_guard(self, tmp_path):
        path = tmp_path / "m.nii"
        path.write_bytes(craft_nifti((600, 1, 1), 16, b"\x00" * 2400))
        with pytest.raises(NiftiError, match="guard"):
            read_nifti(path)

    def test_unsupported_dimensionality(self, tmp_path):
        path = tmp_path / "n.nii"
        path.write_bytes(craft_nifti((4, 4), 16, b"\x00" * 64))
        with pytest.raises(NiftiError, match="dimensionality"):
            read_nifti(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(NiftiError):
            read_nifti(tmp_path / "absent.nii")

    @pytest.mark.parametrize("layout", ["nii", "pair"])
    @pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf, 1e30],
                             ids=["nan", "inf", "-inf", "1e30"])
    def test_vox_offset_not_a_byte_offset(self, tmp_path, layout, offset):
        path = write_layout(tmp_path, layout, (2, 2, 2), 16,
                            np.ones((2, 2, 2), dtype="<f4").tobytes())
        hdr = bytearray(path.read_bytes())
        struct.pack_into("<f", hdr, 108, offset)
        path.write_bytes(bytes(hdr))
        with pytest.raises(NiftiError, match="vox_offset .* is not a byte offset"):
            read_nifti(path)

    def test_fuzzed_headers_never_crash(self, tmp_path):
        rng = np.random.default_rng(51)
        path = tmp_path / "fuzz.nii"
        for i in range(60):
            blob = bytes(rng.integers(0, 256, int(rng.integers(0, 800)), dtype=np.uint8))
            path.write_bytes(blob)
            with pytest.raises(NiftiError):
                read_nifti(path)

    def test_fuzzed_valid_prefix_headers(self, tmp_path):
        # Start from a valid file and corrupt single header bytes: the
        # parser must fail cleanly or read successfully, never crash.
        rng = np.random.default_rng(52)
        arr = np.ones((3, 3, 3), dtype="<f4")
        good = bytearray(craft_nifti((3, 3, 3), 16, arr.tobytes(order="F")))
        path = tmp_path / "fuzz2.nii"
        for i in range(120):
            blob = bytearray(good)
            pos = int(rng.integers(0, 348))
            blob[pos] = int(rng.integers(0, 256))
            path.write_bytes(bytes(blob))
            try:
                read_nifti(path)
            except NiftiError:
                pass


class TestWriteNifti:
    def test_roundtrip_volume(self, tmp_path):
        rng = np.random.default_rng(53)
        arr = rng.uniform(0.0, 50.0, (5, 4, 3, 2)).astype(np.float32).astype(np.float64)
        vol = Volume4D(voxels=arr, spacing=(2.0, 2.0, 3.5))
        path = tmp_path / "w.nii"
        write_nifti(vol, path)
        back = read_nifti(path)
        assert back.dims == (5, 4, 3, 2)
        assert back.spacing == (2.0, 2.0, 3.5)
        np.testing.assert_array_equal(back.voxels, arr)

    def test_write_read_write_stable(self, tmp_path):
        rng = np.random.default_rng(54)
        vol = Volume4D(voxels=rng.uniform(0.0, 9.0, (4, 4, 4, 3)))
        p1, p2 = tmp_path / "x1.nii", tmp_path / "x2.nii"
        write_nifti(vol, p1)
        write_nifti(read_nifti(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_gzip_roundtrip_and_determinism(self, tmp_path):
        rng = np.random.default_rng(55)
        vol = Volume4D(voxels=rng.uniform(0.0, 9.0, (4, 4, 4, 2)))
        p1, p2 = tmp_path / "y1.nii.gz", tmp_path / "y2.nii.gz"
        write_nifti(vol, p1)
        write_nifti(vol, p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = read_nifti(p1)
        np.testing.assert_allclose(back.voxels, vol.voxels, rtol=1e-7)

    def test_mask_roundtrip(self, tmp_path):
        rng = np.random.default_rng(56)
        mask = rng.random((6, 5, 4)) > 0.5
        path = tmp_path / "mask.nii"
        write_nifti(mask, path, spacing=(2.0, 2.0, 3.0))
        back = read_nifti(path)
        assert back.spacing == (2.0, 2.0, 3.0)
        assert set(np.unique(back.voxels)) <= {0.0, 1.0}
        np.testing.assert_array_equal(back.voxels[..., 0] > 0, mask)

    def test_gzip_mask_roundtrip(self, tmp_path):
        rng = np.random.default_rng(56)
        mask = rng.random((6, 5)) > 0.5
        plain, packed = tmp_path / "mask.nii", tmp_path / "mask.nii.gz"
        write_nifti(mask, plain)
        write_nifti(mask, packed)
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        np.testing.assert_array_equal(read_nifti(packed).voxels[..., 0, 0] > 0, mask)

    def test_gzip_is_one_member_holding_the_plain_file(self, tmp_path):
        rng = np.random.default_rng(57)
        vol = Volume4D(voxels=rng.uniform(0.0, 9.0, (7, 5, 3, 9)))
        plain, packed = tmp_path / "v.nii", tmp_path / "v.nii.gz"
        write_nifti(vol, plain)
        write_nifti(vol, packed)
        inflate = zlib.decompressobj(wbits=31)  # gzip wrapper, one member
        assert inflate.decompress(packed.read_bytes()) == plain.read_bytes()
        assert inflate.eof and inflate.unused_data == b""
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()

    def test_gzip_bytes_do_not_depend_on_workers(self, tmp_path):
        rng = np.random.default_rng(58)
        vol = Volume4D(voxels=rng.uniform(0.0, 9.0, (6, 4, 5, 11)))
        path = tmp_path / "v.nii.gz"
        write_nifti(vol, path)
        for workers in (1, 3):
            buf = io.BytesIO()
            _write_gzip(buf, _file_chunks(vol, vol.spacing, path), workers)
            assert buf.getvalue() == path.read_bytes()

    @pytest.mark.parametrize("suffix", ["nii", "nii.gz"])
    @pytest.mark.parametrize("where", ["every_volume", "last_volume"])
    def test_float32_overflow_rejected(self, tmp_path, suffix, where):
        # A finite signal beyond the float32 range would be written as inf,
        # which read_nifti rejects; the write fails instead and leaves no file.
        arr = np.full((4, 4, 4, 3), 7.0)
        if where == "every_volume":
            arr[...] = 1e300
        else:
            arr[1, 2, 3, 2] = 1e39
        path = tmp_path / f"big.{suffix}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NiftiError, match="big") as info:
                write_nifti(Volume4D(voxels=arr), path)
        assert "float32" in str(info.value)
        assert not path.exists()

    def test_largest_float32_is_written(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        path = tmp_path / "top.nii"
        write_nifti(Volume4D(voxels=np.full((2, 2, 2, 2), top)), path)
        assert read_nifti(path).voxels.max() == top

    @pytest.mark.parametrize("suffix", ["nii", "nii.gz"])
    def test_stream_writes_the_volume_file(self, tmp_path, suffix):
        rng = np.random.default_rng(59)
        vol = Volume4D(voxels=rng.uniform(0.0, 9.0, (7, 5, 3, 4)), spacing=(2.0, 1.5, 3.0))
        want, got = tmp_path / f"v.{suffix}", tmp_path / f"s.{suffix}"
        write_nifti(vol, want)
        write_nifti(VolumeStream(vol.dims, iter(vol.stored), vol.spacing), got)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("suffix", ["nii", "nii.gz"])
    @pytest.mark.parametrize("count,shape", [(2, (3, 5, 7)), (4, (3, 5, 7)), (3, (3, 7, 5))],
                             ids=["short", "long", "wrong_shape"])
    def test_stream_that_does_not_fit_its_dims(self, tmp_path, suffix, count, shape):
        vols = (np.ones(shape) for _ in range(count))
        path = tmp_path / f"s.{suffix}"
        with pytest.raises(DomainError, match="stream"):
            write_nifti(VolumeStream((7, 5, 3, 3), vols), path)
        assert not path.exists()

    def test_stream_dims_checked(self):
        for dims in [(7, 5, 3), (7, 5, 3, 0), (7, 5, 3.0, 2)]:
            with pytest.raises(DomainError):
                VolumeStream(dims, iter(()))
        with pytest.raises(DomainError):
            VolumeStream((2, 2, 2, 1), iter(()), spacing=(1.0, 0.0, 1.0))

    def test_stream_guard_runs_before_any_byte(self, tmp_path):
        drawn = []

        def volumes():
            drawn.append(1)
            yield np.zeros((2, 2, 513))

        path = tmp_path / "big.nii"
        with pytest.raises(NiftiError, match="guard"):
            write_nifti(VolumeStream((513, 2, 2, 1), volumes()), path)
        assert drawn == [] and not path.exists()

    def test_rejects_non_boolean_array(self, tmp_path):
        with pytest.raises(DomainError):
            write_nifti(np.ones((3, 3, 3)), tmp_path / "z.nii")

    def test_axis_guard_on_write(self, tmp_path):
        mask = np.zeros((513, 2, 2), dtype=bool)
        with pytest.raises(NiftiError, match="guard"):
            write_nifti(mask, tmp_path / "big.nii")


class TestVolume4D:
    def test_validates(self):
        with pytest.raises(DomainError):
            Volume4D(voxels=np.ones((2, 2)))
        with pytest.raises(DomainError):
            Volume4D(voxels=-np.ones((2, 2, 2, 1)))
        with pytest.raises(DomainError):
            Volume4D(voxels=np.full((2, 2, 2, 1), np.nan))
        with pytest.raises(DomainError):
            Volume4D(voxels=np.ones((2, 2, 2, 1)), spacing=(1.0, 0.0, 1.0))
        # One magnitude rule: a volume and a slice fail with the same message.
        for bad in (-1.0, np.nan, np.inf, -np.inf):
            arr = np.ones((2, 2, 2, 3))
            arr[1, 0, 1, 2] = bad
            with pytest.raises(DomainError) as vol_err:
                Volume4D(voxels=arr)
            with pytest.raises(DomainError) as slice_err:
                estimate_slice(arr[:, :, 1], SearchConfig(), sigma_max=1.0)
            assert str(vol_err.value) == str(slice_err.value)

    def test_voxels_read_only(self):
        # The search trusts a checked volume, so a write into it would go unseen.
        rng = np.random.default_rng(59)
        arr = np.sqrt(rng.chisquare(8, (16, 16, 3, 9)))
        vol = Volume4D(voxels=arr)
        with pytest.raises(ValueError, match="read-only"):
            vol.voxels[2, 2, 1, 3] = -5.0
        assert vol.voxels[2, 2, 1, 3] >= 0.0
        assert arr.flags.writeable  # the caller's own array is left as it was
        estimates = estimate_volume(vol, SearchConfig())
        assert [e.error for e in estimates] == [None] * 3

    def test_caller_c_ordered_array_is_copied(self):
        # Volume-major storage copies a C-ordered array, so a later write to
        # the caller's array does not reach the checked volume.
        rng = np.random.default_rng(59)
        arr = np.sqrt(rng.chisquare(8, (16, 16, 3, 9)))
        vol = Volume4D(voxels=arr)
        before = vol.voxels[2, 2, 1, 3]
        arr[2, 2, 1, 3] = -5.0
        assert vol.voxels[2, 2, 1, 3] == before >= 0.0
        assert not np.shares_memory(vol.stored, arr)
        estimates = estimate_volume(vol, SearchConfig())
        assert [e.error for e in estimates] == [None] * 3

    def test_f_ordered_array_is_adopted(self):
        # An F-ordered array is already volume-major: no copy, and voxels is
        # a read-only view of it, while the caller's array stays writable.
        arr = np.asfortranarray(np.random.default_rng(60).uniform(0.0, 5.0, (6, 5, 4, 3)))
        vol = Volume4D(voxels=arr)
        assert np.shares_memory(vol.stored, arr) and np.shares_memory(vol.voxels, arr)
        assert vol.stored.flags.c_contiguous and vol.stored.shape == (3, 4, 5, 6)
        assert not vol.voxels.flags.writeable and arr.flags.writeable
        np.testing.assert_array_equal(vol.voxels, arr)

    def test_promotes_3d(self):
        assert Volume4D(voxels=np.ones((2, 3, 4))).dims == (2, 3, 4, 1)


def stored_values(rng, dtype, shape, ties):
    # Values a file of ``dtype`` can hold: a few distinct ones, or a spread.
    if ties:
        return rng.integers(0, 4, shape).astype(dtype)
    if np.dtype(dtype).kind == "f":
        return rng.gamma(4.0, 30.0, shape).astype(dtype)
    return rng.integers(0, 256 if np.dtype(dtype).itemsize == 1 else 30000, shape).astype(dtype)


DTYPE_CODES = {"u1": 2, "i2": 4, "i4": 8, "f4": 16, "f8": 64}


class TestStoredValues:
    # The volume keeps the file's values; the median is selected among them
    # and must equal np.median of the float64 signal, bit for bit.
    @pytest.mark.parametrize("dtype", sorted(DTYPE_CODES))
    @pytest.mark.parametrize("endian", ["<", ">"])
    @pytest.mark.parametrize("slope,inter", [(1.0, 0.0), (0.37, 2.0), (-0.5, 300.0),
                                             (2.0, -60.0), (-1.5, 90.0)],
                             ids=["identity", "slope>0", "slope<0", "clamp", "slope<0_clamp"])
    @pytest.mark.parametrize("shape,ties", [((7, 5, 3, 3), False), ((8, 5, 3, 3), True),
                                            ((41, 41, 21, 5), True), ((40, 41, 21, 5), False)],
                             ids=["odd", "even_ties", "odd_large_ties", "even_large"])
    def test_median_matches_signal(self, tmp_path, dtype, endian, slope, inter, shape, ties):
        rng = np.random.default_rng(list(map(ord, dtype + endian)) + [len(shape), ties])
        values = stored_values(rng, dtype, shape, ties)
        path = tmp_path / "m.nii"
        path.write_bytes(craft_nifti(shape, DTYPE_CODES[dtype],
                                     values.astype(endian + dtype).tobytes(order="F"),
                                     endian=endian, slope=slope, inter=inter))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the clamp cases warn
            vol = read_nifti(path)
        slope32, inter32 = float(np.float32(slope)), float(np.float32(inter))
        signal = np.maximum(values.astype(np.float64) * slope32 + inter32, 0.0)
        if (slope, inter) == (1.0, 0.0):
            signal = values.astype(np.float64)
        np.testing.assert_array_equal(vol.voxels, signal)
        assert vol.stored.dtype == np.dtype("<" + dtype)
        med = float(np.median(signal))
        assert _median(vol.stored, vol.to_signal) == med
        if med > 0.0:
            assert sigma_upper_bound(vol, 12.0) == med / np.sqrt(2.0 * inv_gamma_p(12.0, 0.5))

    def test_scaled_int16_estimates_match_float64_signal(self, tmp_path):
        rng = np.random.default_rng(70)
        shape = (24, 24, 6, 9)
        chi = 30.0 * np.sqrt(rng.chisquare(8, shape))
        values = np.round(chi / 0.37).astype("<i2")
        path = tmp_path / "i16.nii"
        path.write_bytes(craft_nifti(shape, 4, values.tobytes(order="F"), slope=0.37))
        vol = read_nifti(path)
        signal = values.astype(np.float64) * float(np.float32(0.37))
        np.testing.assert_array_equal(vol.voxels, signal)
        ref = Volume4D(voxels=signal)
        for estimator in ("moments", "mle"):
            config = SearchConfig(estimator=estimator)
            got = estimate_volume(vol, config, threads=2)
            want = estimate_volume(ref, config)
            assert all(e.error is None for e in want)
            for a, b in zip(got, want):
                assert (a.sigma_g, a.n_dof, a.outer_iters, a.converged) == \
                    (b.sigma_g, b.n_dof, b.outer_iters, b.converged)
                assert np.array_equal(a.mask, b.mask)

    def test_estimate_peaks_below_one_float64_copy(self, tmp_path):
        shape = (48, 48, 24, 33)
        data = (10.0 * np.sqrt(np.random.default_rng(71).chisquare(8, shape))).astype("<f4")
        path = tmp_path / "f4.nii"
        path.write_bytes(craft_nifti(shape, 16, data.tobytes(order="F")))
        del data
        tracemalloc.start()
        try:
            vol = read_nifti(path)
            estimates = estimate_volume(vol, SearchConfig(), threads=2)
            volume_fingerprint(vol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(e.error is None for e in estimates)
        assert peak < int(np.prod(shape)) * 8


def sample_report():
    estimates = [
        SliceEstimate(slice_index=k, sigma_g=171.0 + k, n_dof=4.0 + 0.01 * k,
                      mask=np.ones((2, 2), dtype=bool), n_identified=4,
                      outer_iters=3, converged=True)
        for k in range(60)
    ]
    vol = Volume4D(voxels=np.ones((2, 2, 60, 3)))
    return build_report(estimates, SearchConfig(), vol)


class TestReports:
    def test_roundtrip_identity(self, tmp_path):
        report = sample_report()
        path = tmp_path / "r.json"
        write_report(report, path)
        back = read_report(path)
        assert back.slices == report.slices
        assert back.config == report.config
        assert back.fingerprint == report.fingerprint

    def test_writes_schema_v2(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(sample_report(), path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "chisigma-report-v2"
        assert sorted(doc["fingerprint"]) == ["dims", "dtype", "scale", "sha256"]

    def test_reads_literal_v1_report(self, tmp_path):
        doc = {
            "schema": "chisigma-report-v1",
            "slices": [{"slice_index": 0, "sigma_g": 171.5, "n_dof": 4.0, "n_identified": 9,
                        "converged": True, "outer_iters": 4}],
            "config": {"p": 0.05, "slice_axis": "z"},
            "fingerprint": {"dims": [3, 3, 1, 5], "sha256": "0" * 64},
        }
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        back = read_report(path)
        assert back.slices == doc["slices"]
        assert back.fingerprint == doc["fingerprint"]
        assert back.search_config() == SearchConfig()

    def test_config_echo_reconstructs(self, tmp_path):
        report = sample_report()
        path = tmp_path / "r.json"
        write_report(report, path)
        cfg = read_report(path).search_config()
        assert cfg == SearchConfig()

    def test_full_float_precision(self, tmp_path):
        report = sample_report()
        report.slices[0]["sigma_g"] = 171.00000000012345
        path = tmp_path / "r.json"
        write_report(report, path)
        assert read_report(path).slices[0]["sigma_g"] == 171.00000000012345

    def test_extra_fields_ignored(self, tmp_path):
        report = sample_report()
        path = tmp_path / "r.json"
        write_report(report, path)
        doc = json.loads(path.read_text())
        doc["future_field"] = {"a": 1}
        doc["slices"][0]["extra"] = True
        path.write_text(json.dumps(doc))
        back = read_report(path)
        assert "extra" not in back.slices[0]

    def test_missing_field_rejected(self, tmp_path):
        report = sample_report()
        path = tmp_path / "r.json"
        write_report(report, path)
        doc = json.loads(path.read_text())
        del doc["slices"][3]["sigma_g"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="sigma_g"):
            read_report(path)

    @pytest.mark.parametrize("field,value", [
        ("slice_index", "3"), ("slice_index", 3.0), ("sigma_g", "abc"),
        ("sigma_g", None), ("n_dof", True), ("n_identified", 4.5),
        ("converged", 1), ("outer_iters", [3]),
    ])
    def test_wrong_field_type_rejected(self, tmp_path, field, value):
        report = sample_report()
        path = tmp_path / "r.json"
        write_report(report, path)
        doc = json.loads(path.read_text())
        doc["slices"][2][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=field):
            read_report(path)

    def test_repeated_slice_index_rejected(self, tmp_path):
        report = sample_report()
        path = tmp_path / "r.json"
        write_report(report, path)
        doc = json.loads(path.read_text())
        doc["slices"][5]["slice_index"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="repeats slice_index 2"):
            read_report(path)

    @pytest.mark.parametrize(
        "schema", [None, "not-a-report", "chisigma-report-v3", 2, ["chisigma-report-v2"]],
        ids=["missing", "not_a_report", "v3", "number", "list"])
    def test_unknown_schema_rejected(self, tmp_path, schema):
        path = tmp_path / "r.json"
        write_report(sample_report(), path)
        doc = json.loads(path.read_text())
        if schema is None:
            del doc["schema"]
        else:
            doc["schema"] = schema
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="schema"):
            read_report(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("not json {")
        with pytest.raises(SchemaError):
            read_report(path)

    def test_csv_export(self, tmp_path):
        report = sample_report()
        path = tmp_path / "r.csv"
        write_slice_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "slice_index,sigma_g,n_dof"
        assert len(lines) == 61
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == 171.0

    def test_fingerprint_tracks_content(self):
        a = Volume4D(voxels=np.ones((2, 2, 2, 1)))
        b = Volume4D(voxels=np.full((2, 2, 2, 1), 2.0))
        fa, fb = volume_fingerprint(a), volume_fingerprint(b)
        assert fa["dims"] == fb["dims"] == [2, 2, 2, 1]
        assert fa["sha256"] != fb["sha256"]
        assert volume_fingerprint(a) == fa

    def test_fingerprint_digest_is_c_order_bytes(self):
        # The digest is over the stored (V, Z, Y, X) array in C order, which
        # is the (X, Y, Z, V) values in F order, whatever the input layout.
        rng = np.random.default_rng(56)
        c_arr = rng.uniform(0.0, 10.0, (3, 4, 5, 2))
        f_arr = np.asfortranarray(c_arr)
        expected = hashlib.sha256(c_arr.tobytes(order="F")).hexdigest()
        assert volume_fingerprint(c_arr)["sha256"] == expected
        assert volume_fingerprint(f_arr)["sha256"] == expected
        assert volume_fingerprint(Volume4D(voxels=f_arr)) == {
            "dims": [3, 4, 5, 2], "dtype": "float64", "scale": [1.0, 0.0],
            "sha256": expected}


    def test_fingerprint_is_of_the_payload(self, tmp_path):
        # Same values, dtype and scaling: the same fingerprint from every
        # layout and byte order, hashed over the little-endian payload.
        shape = (5, 4, 3, 2)
        values = np.random.default_rng(72).integers(0, 500, shape)
        little = values.astype("<i2").tobytes(order="F")
        big = values.astype(">i2").tobytes(order="F")
        prints = []
        for layout in ("nii", "nii.gz", "pair"):
            for endian, payload in (("<", little), (">", big)):
                d = tmp_path / f"{layout}{endian == '>'}"
                d.mkdir()
                path = write_layout(d, layout, shape, 4, payload, endian=endian,
                                    slope=0.5, inter=1.0)
                prints.append(volume_fingerprint(read_nifti(path)))
        assert prints == [{"dims": list(shape), "dtype": "int16", "scale": [0.5, 1.0],
                           "sha256": hashlib.sha256(little).hexdigest()}] * 6
        other = tmp_path / "other.nii"
        other.write_bytes(craft_nifti(shape, 4, little, slope=0.25, inter=1.0))
        assert volume_fingerprint(read_nifti(other))["scale"] == [0.25, 1.0]


class TestHdrImgPair:
    def test_two_file_layout(self, tmp_path):
        arr = np.arange(8, dtype="<f4").reshape((2, 2, 2), order="F")
        full = craft_nifti((2, 2, 2), 16, arr.tobytes(order="F"),
                           vox_offset=0, magic=b"ni1\x00")
        (tmp_path / "pair.hdr").write_bytes(full[:348])
        (tmp_path / "pair.img").write_bytes(arr.tobytes(order="F"))
        vol = read_nifti(tmp_path / "pair.hdr")
        np.testing.assert_array_equal(vol.voxels[..., 0], arr.astype(np.float64))

    def test_missing_img_sibling(self, tmp_path):
        full = craft_nifti((2, 2, 2), 16, b"", vox_offset=0, magic=b"ni1\x00")
        (tmp_path / "lone.hdr").write_bytes(full[:348])
        with pytest.raises(NiftiError):
            read_nifti(tmp_path / "lone.hdr")
