"""File-backed volumes: an uncompressed payload stays on disk and is read in passes.

``read_nifti`` keeps a file's values in memory exactly when the file is
gzip-compressed; ``estimate_volume``, ``volume_fingerprint`` and
``write_nifti`` read an uncompressed file (``.nii`` or ``.hdr``/``.img``)
again, a group of volumes at a time. These tests hold that path to the
same data held in memory, bit for bit, and bound the memory it keeps.
``write_nifti`` replaces its target by a rename, so a volume written
onto its own file is never read whole, and is stale afterwards.
"""

import hashlib
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from test_identify import misleading_values
from test_io import craft_nifti, write_layout

from chisigma import cli, identify, io
from chisigma.cli import EXIT_IO, EXIT_OK, main
from chisigma.errors import NiftiError
from chisigma.identify import SearchConfig, estimate_volume, sigma_upper_bound
from chisigma.io import Volume4D, read_nifti, volume_fingerprint, write_nifti

_CODES = {"u1": 2, "i2": 4, "i4": 8, "f4": 16, "f8": 64}
# (scl_slope, scl_inter) per layout, so that every dtype and byte order
# meets each scaling: none, slope and intercept, and one that makes some
# values negative, which read_nifti clamps to 0.
_SCALINGS = {"nii": (1.0, 0.0), "nii.gz": (0.5, 2.0), "pair": (1.5, -4.0)}
_CONFIGS = [SearchConfig(estimator=e, fixed_n=n, slice_axis=a)
            for e, n in (("moments", None), ("mle", None), ("moments", 1.0))
            for a in ("x", "y", "z")]


def phantom(shape, seed, sigma=6.0):
    """Magnitudes: Rician noise (N = 1) for x < 3, a bright object beyond."""
    rng = np.random.default_rng(seed)
    m2 = sigma * sigma * rng.chisquare(2, shape)
    obj = np.zeros(shape[:3], dtype=bool)
    obj[3:] = True
    m2[obj] = sigma * sigma * rng.noncentral_chisquare(2, 300.0, (int(obj.sum()), shape[3]))
    return np.sqrt(m2)


def stored_values(signal, dtype, slope, inter):
    """The values a file of ``dtype`` stores for ``signal``, rounded and clipped."""
    dt = np.dtype(dtype)
    values = (signal - inter) / slope
    if dt.kind in "iu":
        info = np.iinfo(dt)
        values = np.clip(np.rint(values), max(info.min, -1000), info.max)
    return values.astype(dt)


def assert_same_estimates(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.slice_index, a.sigma_g, a.n_dof, a.n_identified, a.outer_iters,
                a.converged, a.error) == (b.slice_index, b.sigma_g, b.n_dof, b.n_identified,
                                          b.outer_iters, b.converged, b.error)
        assert np.array_equal(a.mask, b.mask)


def estimates(vol, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # zero samples in the mle fit
        return estimate_volume(vol, config)


@pytest.mark.parametrize("layout", list(_SCALINGS))
@pytest.mark.parametrize("endian", ["<", ">"])
@pytest.mark.parametrize("dtype", list(_CODES))
def test_streamed_matches_in_memory(tmp_path, monkeypatch, dtype, endian, layout):
    # A short median sample makes the small volume take the bracketing pass
    # over the file, in many groups, as a large one does.
    monkeypatch.setattr(identify, "_MEDIAN_SAMPLE", 64)
    # An uncompressed file streams; a gzip file is read into memory.
    shape = (8, 7, 5, 20)
    streams = layout != "nii.gz"
    slope, inter = _SCALINGS[layout]
    # Under the clamping scaling the darkest values map below zero.
    values = stored_values(phantom(shape, 11) - 1.0 * (inter < 0.0), dtype, slope, inter)
    payload = values.astype(endian + dtype).tobytes(order="F")
    path = write_layout(tmp_path, layout, shape, _CODES[dtype], payload, endian=endian,
                        slope=slope, inter=inter)
    slope32, inter32 = float(np.float32(slope)), float(np.float32(inter))
    signal = values.astype(np.float64)
    if (slope, inter) != (1.0, 0.0):
        signal = signal * slope32 + inter32
    n_neg = int(np.count_nonzero(signal < 0.0))
    assert (n_neg > 0) == (inter < 0.0)
    signal = np.maximum(signal, 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vol = read_nifti(path)
    assert [str(w.message) for w in caught] == (
        [f"{path}: clamped {n_neg} negative voxel values to 0"] if n_neg else [])
    assert (vol._stored is None) == streams
    ref = Volume4D(voxels=signal)
    for config in _CONFIGS:
        want = estimates(ref, config)
        assert any(e.error is None for e in want), config
        assert_same_estimates(estimates(vol, config), want)
    assert volume_fingerprint(vol) == {
        "dims": list(shape), "dtype": np.dtype(dtype).name, "scale": [slope32, inter32],
        "sha256": hashlib.sha256(values.astype("<" + dtype).tobytes(order="F")).hexdigest()}
    assert (vol._stored is None) == streams
    np.testing.assert_array_equal(vol.voxels, signal)
    assert not vol.stored.flags.writeable


@pytest.mark.parametrize("layout", ["nii", "pair", "nii.gz"])
@pytest.mark.parametrize("volumes", [1, 8, 9])
def test_only_gzip_payloads_stay_in_memory(tmp_path, volumes, layout):
    # A gzip file of any size is read into memory, so it is inflated once;
    # an uncompressed one of any size is read again in passes.
    shape = (6, 5, 4, volumes)
    values = np.arange(np.prod(shape), dtype="<i2").reshape(shape, order="F")
    path = write_layout(tmp_path, layout, shape, 4, values.tobytes(order="F"))
    vol = read_nifti(path)
    assert (vol._stored is not None) == (layout == "nii.gz")
    assert vol.dims == shape and vol.dtype == np.dtype("<i2")
    np.testing.assert_array_equal(vol.voxels, values)


def test_gzip_read_holds_no_group_sized_temporary(tmp_path):
    # 8 int16 volumes, read into memory in two groups of 4 MiB. A gzip
    # stream inflates each read request into a temporary of its size, so
    # the reader asks for a little at a time.
    shape = (128, 128, 32, 8)
    path = write_layout(tmp_path, "nii.gz", shape, 4, bytes(int(np.prod(shape)) * 2))
    tracemalloc.start()
    try:
        vol = read_nifti(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vol._stored is not None
    assert peak < 2 * vol.stored.nbytes, peak


def test_stored_of_a_file_backed_volume_reads_into_place(tmp_path):
    # 8 int16 volumes of 1 MiB, read straight into the stored array: no
    # buffer of a group of 4 volumes is held beside it.
    shape = (128, 128, 32, 8)
    values = (np.arange(int(np.prod(shape))) % 1000).astype("<i2")
    path = write_layout(tmp_path, "nii", shape, 4, values.tobytes())
    vol = read_nifti(path)
    tracemalloc.start()
    try:
        stored = vol.stored
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(stored.reshape(-1), values)
    assert peak < 1.1 * stored.nbytes, (peak, stored.nbytes)


def test_write_streams_a_file_backed_volume(tmp_path):
    shape = (9, 8, 3, 12)
    signal = phantom(shape, 12).astype("<f4")
    path = tmp_path / "in.nii"
    path.write_bytes(craft_nifti(shape, 16, signal.tobytes(order="F"), slope=2.0))
    streamed, memory = tmp_path / "streamed.nii.gz", tmp_path / "memory.nii.gz"
    vol = read_nifti(path)
    write_nifti(vol, streamed)
    assert vol._stored is None
    write_nifti(Volume4D(voxels=signal.astype(np.float64) * 2.0), memory)
    assert streamed.read_bytes() == memory.read_bytes()


def own_path(tmp_path, path):
    return path


def hard_link_named_gz(tmp_path, path):
    link = tmp_path / "alias.nii.gz"
    os.link(path, link)
    return link


@pytest.mark.parametrize("source_layout, target", [("nii", own_path), ("nii", hard_link_named_gz),
                                                   ("nii.gz", own_path)])
def test_write_onto_its_own_file(tmp_path, source_layout, target):
    # The write goes to a new file that replaces the target at the end, so
    # the volume reads its file in passes as for any other target.
    shape = (9, 8, 3, 12)
    signal = phantom(shape, 15).astype("<f4")
    path = write_layout(tmp_path, source_layout, shape, 16, signal.tobytes(order="F"))
    raw = path.read_bytes()
    vol = read_nifti(path)
    assert (vol._stored is None) == (source_layout == "nii")
    out = target(tmp_path, path)
    write_nifti(vol, out)
    assert (vol._stored is None) == (source_layout == "nii")
    if out != path:
        assert path.read_bytes() == raw  # the other hard link keeps the old bytes
    elif vol._stored is None:
        with pytest.raises(NiftiError, match="changed while being read"):
            volume_fingerprint(vol)
    want = tmp_path / ("want.nii.gz" if str(out).endswith(".gz") else "want.nii")
    write_nifti(Volume4D(voxels=signal.astype(np.float64)), want)
    assert out.read_bytes() == want.read_bytes()
    np.testing.assert_array_equal(read_nifti(out).voxels, signal)


def test_relative_path_survives_a_change_of_directory(tmp_path, monkeypatch):
    # The .hdr/.img pair's image path is derived from the header's relative path.
    shape = (8, 7, 5, 20)
    values = phantom(shape, 16).astype("<f4")
    write_layout(tmp_path, "pair", shape, 16, values.tobytes(order="F"))
    (tmp_path / "elsewhere").mkdir()
    (tmp_path / "elsewhere" / "pair.img").write_bytes(bytes(values.nbytes))
    monkeypatch.chdir(tmp_path)
    vol = read_nifti("pair.hdr")
    assert vol._stored is None
    monkeypatch.chdir(tmp_path / "elsewhere")
    want = Volume4D(voxels=values.astype(np.float64))
    assert_same_estimates(estimates(vol, SearchConfig()), estimates(want, SearchConfig()))
    sha256 = hashlib.sha256(values.tobytes(order="F")).hexdigest()
    assert volume_fingerprint(vol)["sha256"] == sha256


def test_estimate_peaks_under_a_quarter_of_the_stored_bytes(tmp_path):
    shape = (64, 64, 16, 120)
    data = phantom(shape, 13).astype("<f4")
    path = tmp_path / "big.nii"
    path.write_bytes(craft_nifti(shape, 16, data.tobytes(order="F")))
    del data
    config = SearchConfig(estimator="mle")
    tracemalloc.start()
    try:
        vol = read_nifti(path)
        got = estimates(vol, config)
        fingerprint = volume_fingerprint(vol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vol._stored is None
    stored_bytes = int(np.prod(shape)) * 4
    assert peak < stored_bytes / 4, (peak, stored_bytes)
    # The same values in memory give the same estimates and fingerprint.
    vol.stored
    assert_same_estimates(got, estimates(vol, config))
    assert volume_fingerprint(vol) == fingerprint


def count_reads(monkeypatch) -> list:
    """The passes over file-backed volumes' files, as they start."""
    reads = []
    real = io._Payload.groups

    def spy(payload, *args, **kwargs):
        reads.append(payload.path)
        return real(payload, *args, **kwargs)

    monkeypatch.setattr(io._Payload, "groups", spy)
    return reads


@pytest.mark.parametrize("shape", [(32, 32, 8, 20), (16, 16, 8, 20)],
                         ids=["bracket", "whole_sample"])
@pytest.mark.parametrize("config", [SearchConfig(), SearchConfig(fixed_n=4.0),
                                    SearchConfig(estimator="mle")],
                         ids=["moments", "fixed_n", "mle"])
def test_estimate_reads_the_file_once_unless_the_log_sums_need_the_bound(
        tmp_path, monkeypatch, shape, config):
    # Beyond 2**17 values the median needs a pass over the values inside
    # its bracket. Every moment row, the likelihood's log sums included, is
    # taken in the same pass, since none needs the bound. A sample of every
    # value needs no pass for the median.
    path = tmp_path / "vol.nii"
    data = phantom(shape, 16).astype("<f4")
    path.write_bytes(craft_nifti(shape, 16, data.tobytes(order="F")))
    vol = read_nifti(path)
    got = count_reads(monkeypatch)
    result = estimates(vol, config)
    whole = np.prod(shape) <= 1 << 17
    assert len(got) == 1, got
    vol.stored
    assert_same_estimates(result, estimates(vol, config))
    del got[:]
    bound = sigma_upper_bound(read_nifti(path), config.effective_n_bracket()[0])
    assert len(got) == (0 if whole else 1), got
    assert bound == sigma_upper_bound(vol, config.effective_n_bracket()[0])


def test_misleading_sample_falls_back_file_backed(tmp_path, monkeypatch):
    # The bracket from read_nifti's sample misses the median, so the whole
    # is read again and partitioned. The moments of that one pass match a
    # pass for the moments alone, bit for bit.
    shape = (64, 64, 8, 8)
    values = misleading_values(int(np.prod(shape)), 63).astype("<f4")  # in file order
    path = tmp_path / "m.nii"
    path.write_bytes(craft_nifti(shape, 16, values.tobytes()))
    vol = read_nifti(path)
    reads = count_reads(monkeypatch)
    median, sums = identify._reduce(vol, select=True, moments=True)
    assert len(reads) == 2
    assert median == float(np.median(values.astype(np.float64)))
    _, want = identify._reduce(vol, select=False, moments=True)
    assert np.array_equal(sums[0], want[0]) and np.array_equal(sums[1], want[1])
    assert_same_estimates(estimates(vol, SearchConfig()),
                          estimates(Volume4D(voxels=vol.voxels), SearchConfig()))


def test_misleading_sample_fallback_holds_one_copy(tmp_path):
    # When the bracket misses, every stored value is copied for the
    # partition: one copy and a read group, not a copy per group and
    # then their concatenation (2x the stored bytes).
    shape = (64, 64, 32, 16)
    values = misleading_values(int(np.prod(shape)), 63).astype("<f4")
    path = tmp_path / "m.nii"
    path.write_bytes(craft_nifti(shape, 16, values.tobytes()))
    vol = read_nifti(path)
    tracemalloc.start()
    try:
        median = identify._median(vol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert median == float(np.median(values.astype(np.float64)))
    assert peak < 1.25 * values.nbytes, peak / values.nbytes


@pytest.mark.parametrize("file_backed", [True, False], ids=["file", "memory"])
def test_float64_identity_sums_are_of_the_values(tmp_path, file_backed):
    # to_signal hands float64 values under identity scaling back as they
    # are and leaves its ``out`` buffer untouched: the sums must be of the
    # values it returns.
    shape = (24, 20, 6, 50)
    data = phantom(shape, 17)
    if file_backed:
        path = tmp_path / "f8.nii"
        path.write_bytes(craft_nifti(shape, 64, data.astype("<f8").tobytes(order="F")))
        vol = read_nifti(path)
        assert vol._stored is None and vol._sample.size < data.size
    else:
        vol = Volume4D(voxels=data)
    s2, s4, log, exp = (np.zeros(shape[2::-1]) for _ in "s4le")
    for v in range(shape[3]):
        m = data[..., v].T
        m2 = m * m
        s2 += m2
        s4 += m2 * m2
        f, e = np.frexp(m)
        log += np.log(f)
        exp += e
    median, sums = identify._reduce(vol, select=True, moments=True)
    assert median == float(np.median(data))
    assert np.array_equal(sums[0], s2) and np.array_equal(sums[1], s4)
    _, sums = identify._reduce(vol, select=False, moments=True, log=True)
    assert np.array_equal(sums[0], s2) and np.array_equal(sums[1], s4)
    assert np.array_equal(sums[2], log) and np.array_equal(sums[3], exp)
    assert not sums[4].any()


@pytest.mark.parametrize("unit", [1.0, 2.0 ** -40], ids=["unit1", "unit2^-40"])
@pytest.mark.parametrize("log", [False, True], ids=["no_log", "log"])
@pytest.mark.parametrize("file_backed", [True, False], ids=["file", "memory"])
def test_reduce_writes_through_its_view(tmp_path, file_backed, log, unit):
    # The pass adds each block of z-planes into a view of the moments: with
    # 8 planes of 64x64 voxels a block, 20 planes take 3 blocks. A copy would
    # leave the sums at zero. They must be those of m / unit summed over the
    # volumes in order, and for the log rows of log f and of e, m = f 2^e
    # with a zero's f taken as 1, and the count of zeros.
    shape = (64, 64, 20, 7)
    assert -(-shape[2] // (identify._BLOCK_VOXELS // (shape[0] * shape[1]))) >= 3
    data = phantom(shape, 18).astype("<f4")
    data[::7, ::5] = 0.0
    if file_backed:
        path = tmp_path / "f4.nii"
        path.write_bytes(craft_nifti(shape, 16, data.tobytes(order="F")))
        vol = read_nifti(path)
        assert vol._stored is None
    else:
        vol = Volume4D(voxels=data)
    want = np.zeros((5 if log else 2,) + shape[2::-1])
    for v in range(shape[3]):
        m = data[..., v].T.astype(np.float64) * (1.0 / unit)
        m2 = m * m
        want[0] += m2
        want[1] += m2 * m2
        if log:
            f, e = np.frexp(m)
            want[2] += np.log(np.where(m == 0.0, 1.0, f))
            want[3] += e
            want[4] += m == 0.0
    _, sums = identify._reduce(vol, select=False, moments=True, log=log, unit=unit)
    assert sums.flags.c_contiguous and sums.dtype == np.float64
    assert np.array_equal(sums, want)
    if log:
        assert want[4].any()


def tall_file(tmp_path, volumes):
    path = tmp_path / f"tall{volumes}.nii"
    data = phantom((4, 4, 2, volumes), 14).astype("<f4")
    path.write_bytes(craft_nifti(data.shape, 16, data.tobytes(order="F")))
    return path


def test_more_than_512_volumes_estimate(tmp_path, capsys):
    path = tall_file(tmp_path, 600)
    assert read_nifti(path).dims == (4, 4, 2, 600)
    assert main(["estimate", str(path), "--threads", "2",
                 "--out-report", str(tmp_path / "report.json")]) == EXIT_OK
    assert "volume median sigma_g" in capsys.readouterr().out


def test_estimate_memory_does_not_grow_with_volumes(tmp_path):
    # Measured on volumes already read: read_nifti keeps a sorted sample of
    # the stored values for the median, which holds all of them up to 2**17
    # values and 2**16 of them beyond, so it grows with V up to that size.
    peaks = []
    for volumes in (600, 1200):
        vol = read_nifti(tall_file(tmp_path, volumes))
        for config in (SearchConfig(), SearchConfig(estimator="mle")):
            estimates(vol, config)  # fills the bounds cache
            tracemalloc.start()
            try:
                result = estimates(vol, config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert all(e.error is None for e in result)
            peaks.append(peak)
    for small, large in zip(peaks[:2], peaks[2:]):
        assert abs(small - large) <= 0.1 * large, peaks


def rewrite_in_place(path):
    # Other values of the same size; the mtime is moved on explicitly, so
    # that the check does not depend on the file system's clock granularity.
    raw = bytearray(path.read_bytes())
    raw[-4:] = b"\x00\x00\x80\x3f"
    st = os.stat(path)
    path.write_bytes(bytes(raw))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


def replace_file(path):
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(path.read_bytes())
    os.replace(tmp, path)


def append_byte(path):
    with open(path, "ab") as f:
        f.write(b"\x00")


@pytest.mark.parametrize("change", [rewrite_in_place, replace_file, append_byte, os.unlink])
def test_file_changed_after_the_check_raises(tmp_path, change):
    path = tall_file(tmp_path, 40)
    vol = read_nifti(path)
    change(path)
    with pytest.raises(NiftiError, match="changed while being read|No such file"):
        estimate_volume(vol, SearchConfig())
    with pytest.raises(NiftiError):
        volume_fingerprint(vol)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_exits_2_when_the_input_changes(tmp_path, capsys, monkeypatch, threads):
    path = tall_file(tmp_path, 40)

    def read_then_rewrite(p):
        vol = read_nifti(p)
        rewrite_in_place(path)
        return vol

    monkeypatch.setattr(cli, "read_nifti", read_then_rewrite)
    assert main(["estimate", str(path), "--threads", threads,
                 "--out-report", str(tmp_path / "report.json")]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "changed while being read" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists()
