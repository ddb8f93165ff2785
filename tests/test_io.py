"""File I/O: NIfTI-1 parsing/writing and report serialization.

Read-side fixtures are handcrafted byte-by-byte with struct packing so
the parser is tested against the format definition, not against the
package's own writer.
"""

import gzip
import hashlib
import json
import struct

import numpy as np
import pytest

from chisigma.errors import DomainError, NiftiError, SchemaError
from chisigma.identify import SearchConfig, SliceEstimate
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
        # With one non-unit axis the file's F-ordered view is also C-ordered;
        # the reader must still hand back its own writable copy to scale.
        arr = np.array([1.0, 2.0, 3.0], dtype="<f8").reshape((3, 1, 1), order="F")
        path = tmp_path / "f8.nii"
        path.write_bytes(craft_nifti((3, 1, 1), 64, arr.tobytes(order="F"), slope=2.0))
        vol = read_nifti(path)
        np.testing.assert_array_equal(vol.voxels[:, 0, 0, 0], [2.0, 4.0, 6.0])
        assert vol.voxels.flags.c_contiguous and vol.voxels.flags.writeable

    @pytest.mark.parametrize("shape", [(5, 3, 4, 6), (2, 7, 1, 3), (3, 2, 5)])
    def test_layout_matches_file_order(self, tmp_path, shape):
        # Distinct axis lengths pin the slab-wise F-to-C reordering.
        arr = np.arange(np.prod(shape), dtype="<f4").reshape(shape, order="F")
        path = tmp_path / "layout.nii"
        path.write_bytes(craft_nifti(shape, 16, arr.tobytes(order="F")))
        vol = read_nifti(path)
        expected = arr.astype(np.float64).reshape(vol.dims)
        np.testing.assert_array_equal(vol.voxels, expected)
        assert vol.voxels.flags.c_contiguous

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, tmp_path, bad):
        arr = np.array([1.0, bad, 3.0, 4.0], dtype="<f4").reshape((4, 1, 1), order="F")
        path = tmp_path / "nf.nii"
        path.write_bytes(craft_nifti((4, 1, 1), 16, arr.tobytes(order="F")))
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
        write_nifti(mask, path)
        back = read_nifti(path)
        assert set(np.unique(back.voxels)) <= {0.0, 1.0}
        np.testing.assert_array_equal(back.voxels[..., 0] > 0, mask)

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

    def test_promotes_3d(self):
        assert Volume4D(voxels=np.ones((2, 3, 4))).dims == (2, 3, 4, 1)


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
        rng = np.random.default_rng(56)
        c_arr = rng.uniform(0.0, 10.0, (3, 4, 5, 2))
        f_arr = np.asfortranarray(c_arr)
        expected = hashlib.sha256(c_arr.tobytes()).hexdigest()
        assert volume_fingerprint(c_arr)["sha256"] == expected
        assert volume_fingerprint(f_arr)["sha256"] == expected
        assert volume_fingerprint(Volume4D(voxels=f_arr))["sha256"] == expected


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
