"""Golden outputs: the bytes ``chisigma estimate`` writes for a fixed phantom.

The digests were recorded with the two-pass estimate (median, then
moments) and hold any later change of how the volume is reduced to the
same stdout, report, CSV and mask, byte for byte. The phantom holds more
than 2**17 values, so the median is selected by a pass over the values
inside a bracket, not taken from the whole sample. It is written twice
with the same signal: as float32 ``.nii``, which stays on disk and is
read in passes, and as scaled int16 ``.nii.gz`` with a negative
scl_inter, which stays in memory and is clamped at zero.
"""

import gzip
import hashlib
import warnings

import numpy as np
import pytest
from test_io import craft_nifti

from chisigma.cli import EXIT_OK, main
from chisigma.io import read_nifti

SHAPE = (32, 32, 8, 20)
SLOPE, INTER = 0.25, -2.0
RUNS = {
    "moments": [],
    "mle": ["--estimator", "mle"],
    "fixed_n": ["--fixed-n", "4"],
    "axis_x": ["--axis", "x"],
}
OUTPUTS = ("stdout", "report", "csv", "mask")


def phantom_stored():
    """int16 values whose signal is N = 4 noise (sigma 20) around a bright block.

    The first two y rows store 0, which the negative intercept maps below
    zero: they are clamped to zero-filled padding.
    """
    rng = np.random.default_rng(2018)
    sigma = 20.0
    m2 = sigma * sigma * rng.chisquare(8, SHAPE)
    block = (slice(12, 24), slice(10, 26), slice(None))
    m2[block] = sigma * sigma * rng.noncentral_chisquare(8, 400.0, m2[block].shape)
    stored = np.rint((np.sqrt(m2) - INTER) / SLOPE).astype("<i2")
    stored[:, :2] = 0
    return stored


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    stored = phantom_stored()
    # Quarter steps below 2**12 are exact in float32.
    signal = np.maximum(stored * SLOPE + INTER, 0.0).astype("<f4")
    f32 = d / "f32.nii"
    f32.write_bytes(craft_nifti(SHAPE, 16, signal.tobytes(order="F")))
    i16 = d / "i16.nii.gz"
    i16.write_bytes(gzip.compress(craft_nifti(SHAPE, 4, stored.tobytes(order="F"),
                                              slope=SLOPE, inter=INTER), mtime=0))
    return {"f32": f32, "i16": i16}


def test_inputs_take_the_bracket_pass(inputs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the clamp
        vols = {name: read_nifti(path) for name, path in inputs.items()}
    assert vols["f32"]._stored is None and vols["i16"]._stored is not None
    assert vols["i16"]._clamp and not vols["f32"]._clamp
    for vol in vols.values():
        assert vol._sample.size < np.prod(SHAPE)
    assert np.prod(SHAPE) > 1 << 17


def digests(path, extra, out, capsys):
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["estimate", str(path), *extra,
                     "--out-report", str(out / "report.json"),
                     "--out-csv", str(out / "slices.csv"),
                     "--out-mask", str(out / "mask.nii")]) == EXIT_OK
    files = [capsys.readouterr().out.encode()] + [
        (out / name).read_bytes() for name in ("report.json", "slices.csv", "mask.nii")]
    return {k: hashlib.sha256(b).hexdigest() for k, b in zip(OUTPUTS, files)}


# sha256 of each output, recorded with the two-pass estimate.
GOLDEN = {
    ("f32", "moments"): {
        "stdout": "e99a4b2013a9ab7f902b5a4aba85fa8c313f46e9f06b34c683362ab2d152b6c9",
        "report": "441dc9576e4b8c5595838f046a50f94b4216eef8f3749e144fe189dda0cbda45",
        "csv": "716c26a49683e05e60e98019e20561e40f8c96ba25861f67a93c547eee5e3559",
        "mask": "9beda7c53528608f6dfb3bde5e22cc10dfa2e1296a1e9727085be37133e9acf4",
    },
    ("f32", "mle"): {
        "stdout": "dd37169cc9126c5d6b5b937504b8a33751750ecf07736afba250a170faed8546",
        "report": "4019b9d458f95b0504565ed02b1286cce6415628817b214cb92f0f8d6c2c7817",
        "csv": "14de59a549c0f92a3f5f643af99cb979580b0579111194c23f409f3c7ad014b0",
        "mask": "2873890159b24a70e76dae9b78d70c8ada8ed4e953c7b9b8c8d660aab7b5203e",
    },
    ("f32", "fixed_n"): {
        "stdout": "fcaa26bae622a20686bdc55b9b5d0470ec718d5690d61862e0cac8570959f9ac",
        "report": "8b9d06338b6a98bdce6af81cf29796c2626aaed01d492c3c796a52b61ae5781f",
        "csv": "4bc0fe20862aea621ff2d24ac81ccf09b6f5690f75d8b3220d9378108e54b116",
        "mask": "3a265b5144d8721305840dfec60c27c1a9ce41d190abb0c302089162129af0bd",
    },
    ("f32", "axis_x"): {
        "stdout": "388de83a661f66e7712cce37b82b96c243e44fbf8f5c73620da23088de195e65",
        "report": "549e21725f3d5ee49cefef94c9c3fbadf77be2f1b743fa6b48c6d5603026a1cd",
        "csv": "81d78a2772cf354162c51166edef53bc02ee6086a9000e8f40fea318acfba711",
        "mask": "23a2a3677675f6a41591daa96b8a3c80518924a167128d1f9be06efea9b3edd7",
    },
    ("i16", "moments"): {
        "stdout": "e99a4b2013a9ab7f902b5a4aba85fa8c313f46e9f06b34c683362ab2d152b6c9",
        "report": "e3e94ed726243e31bedda6e0b731b07df64fe4e39ce7b60a40d03cca557c0530",
        "csv": "716c26a49683e05e60e98019e20561e40f8c96ba25861f67a93c547eee5e3559",
        "mask": "9beda7c53528608f6dfb3bde5e22cc10dfa2e1296a1e9727085be37133e9acf4",
    },
    ("i16", "mle"): {
        "stdout": "dd37169cc9126c5d6b5b937504b8a33751750ecf07736afba250a170faed8546",
        "report": "0c57114183b420503b1457811a50a244f2f98c4d2c6290e1963e5987ccb7de23",
        "csv": "14de59a549c0f92a3f5f643af99cb979580b0579111194c23f409f3c7ad014b0",
        "mask": "2873890159b24a70e76dae9b78d70c8ada8ed4e953c7b9b8c8d660aab7b5203e",
    },
    ("i16", "fixed_n"): {
        "stdout": "fcaa26bae622a20686bdc55b9b5d0470ec718d5690d61862e0cac8570959f9ac",
        "report": "ff04de9d3c3d9195289a706c6655bfb52348acf66e5844c2fc31d48e494883bc",
        "csv": "4bc0fe20862aea621ff2d24ac81ccf09b6f5690f75d8b3220d9378108e54b116",
        "mask": "3a265b5144d8721305840dfec60c27c1a9ce41d190abb0c302089162129af0bd",
    },
    ("i16", "axis_x"): {
        "stdout": "388de83a661f66e7712cce37b82b96c243e44fbf8f5c73620da23088de195e65",
        "report": "d4bf7132fdd335a0afbb3418b8d48586bd5d9cf3d09892917574d2a84c6f10f8",
        "csv": "81d78a2772cf354162c51166edef53bc02ee6086a9000e8f40fea318acfba711",
        "mask": "23a2a3677675f6a41591daa96b8a3c80518924a167128d1f9be06efea9b3edd7",
    },
}


@pytest.mark.parametrize("run", list(RUNS))
@pytest.mark.parametrize("layout", ["f32", "i16"])
def test_outputs_match_the_recorded_digests(inputs, tmp_path, capsys, layout, run):
    assert digests(inputs[layout], RUNS[run], tmp_path, capsys) == GOLDEN[layout, run]
