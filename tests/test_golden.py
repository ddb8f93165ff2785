"""Golden outputs: the bytes ``chisigma estimate`` writes for a fixed phantom.

The digests were last recorded (commit 6206293) with the one-pass
estimate (the median and the moments from one pass over the values),
when a cycling search came to stop at its first repeated pass and the
first grid's bound came to be taken at n_min. The ``mle`` report and CSV
digests were re-recorded when the likelihood's log sums came to be taken
from each magnitude's exact mantissa and exponent: N moved by a few ulp,
and the stdout and mask digests stayed. They hold any later change
of how the volume is reduced to the same stdout, report, CSV and mask,
byte for byte. The phantom holds more
than 2**17 values, so the median is selected by a pass over the values
inside a bracket, not taken from the whole sample. It is written twice
with the same signal: as float32 ``.nii``, which stays on disk and is
read in passes, and as scaled int16 ``.nii.gz`` with a negative
scl_inter, which stays in memory and is clamped at zero.
"""

import gzip
import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from test_cli import _child_env
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
        "stdout": "dfbbec45cb9fb9262a44613f05d0a67256e90efdb866b578f71a15ed0c1030b9",
        "report": "645cfd4ce4a5ccd975b15fea21f2468bbc01993d381d7865c82cda9eb1e46a27",
        "csv": "ba0819e63dc4c236c3f1202c6a2f6f394697b69aba19fe796034b8d44b7bc1be",
        "mask": "e9e3615ace6789cfcc2218cc3683722de749b128c8f592651d5af1959aed76f7",
    },
    ("f32", "mle"): {
        "stdout": "c96de13e1c1215ee7d24decefa815b8834af1fb5d0d14745220d80043974296c",
        "report": "aab89c4d1aa01102543bdc1e43c5cc661e03026955abadf64f17623703f6d671",
        "csv": "baa1e9772549cd9f6b6ef92d028db7b10bff643bb426b5743905ca5997ef2120",
        "mask": "59b1fa21f008831c85eec00a0be22ad7299a302737cd09bd71219ff7ba31a505",
    },
    ("f32", "fixed_n"): {
        "stdout": "b888a898705a3b7a7d796429b7a6b5b9d1860a97b298415b80d29f772391efcc",
        "report": "ba140db00f3e662dfe8293083c7b2153a4b8b788886bef0a5eb5f06571d445d4",
        "csv": "d13588d8d91f1107fa17a6f748692c95ab7cfb7520f3431a6045e4a4c4ae49d2",
        "mask": "8b7efd26a797126e17b34f5d497de3bdf9f7847927051a9dc441f943d8b96135",
    },
    ("f32", "axis_x"): {
        "stdout": "c7cf9c7aff794071d633cd87114053ac62469bc3db326811dcffad33c1a46a93",
        "report": "1e034c9e9376f5be5c661c36d41d5192046b30a1ae8a1a505fd236c8355b83b6",
        "csv": "b038e792d2f236eed5de14d552d52e2357ce610edefb440f2cd9a756d1346ba7",
        "mask": "51990f7a80b0657defd6a24446028f24432de5d0be8e714ff187c374780e1891",
    },
    ("i16", "moments"): {
        "stdout": "dfbbec45cb9fb9262a44613f05d0a67256e90efdb866b578f71a15ed0c1030b9",
        "report": "950c4ce7ea75be38388573f30e892c048b12c3b2f9a34b91d0f6677c170b73fa",
        "csv": "ba0819e63dc4c236c3f1202c6a2f6f394697b69aba19fe796034b8d44b7bc1be",
        "mask": "e9e3615ace6789cfcc2218cc3683722de749b128c8f592651d5af1959aed76f7",
    },
    ("i16", "mle"): {
        "stdout": "c96de13e1c1215ee7d24decefa815b8834af1fb5d0d14745220d80043974296c",
        "report": "97d91410f69070d0cc1563df17bb06ff1a57343c17183e2b04c74b79ddbaf17f",
        "csv": "baa1e9772549cd9f6b6ef92d028db7b10bff643bb426b5743905ca5997ef2120",
        "mask": "59b1fa21f008831c85eec00a0be22ad7299a302737cd09bd71219ff7ba31a505",
    },
    ("i16", "fixed_n"): {
        "stdout": "b888a898705a3b7a7d796429b7a6b5b9d1860a97b298415b80d29f772391efcc",
        "report": "d82320fa441eac37f293d87121a1381c70761d07e544e0f3849d6baa4500a95b",
        "csv": "d13588d8d91f1107fa17a6f748692c95ab7cfb7520f3431a6045e4a4c4ae49d2",
        "mask": "8b7efd26a797126e17b34f5d497de3bdf9f7847927051a9dc441f943d8b96135",
    },
    ("i16", "axis_x"): {
        "stdout": "c7cf9c7aff794071d633cd87114053ac62469bc3db326811dcffad33c1a46a93",
        "report": "55f733cdd2e00caa8bcd3dc428280d6dab30ffc1acce83cedb8d8bf9d5d39725",
        "csv": "b038e792d2f236eed5de14d552d52e2357ce610edefb440f2cd9a756d1346ba7",
        "mask": "51990f7a80b0657defd6a24446028f24432de5d0be8e714ff187c374780e1891",
    },
}


@pytest.mark.parametrize("run", list(RUNS))
@pytest.mark.parametrize("layout", ["f32", "i16"])
def test_outputs_match_the_recorded_digests(inputs, tmp_path, capsys, layout, run):
    assert digests(inputs[layout], RUNS[run], tmp_path, capsys) == GOLDEN[layout, run]


def test_process_entry_point_matches_the_recorded_digests(inputs, tmp_path):
    # python -m chisigma.cli runs cli.run, which freezes the imports' heap
    # before the command: the bytes are those of an in-process main.
    outputs = [tmp_path / name for name in ("report.json", "slices.csv", "mask.nii")]
    child = subprocess.run(
        [sys.executable, "-m", "chisigma.cli", "estimate", str(inputs["f32"]),
         "--out-report", str(outputs[0]), "--out-csv", str(outputs[1]),
         "--out-mask", str(outputs[2])],
        capture_output=True, env=_child_env(), cwd=os.fspath(tmp_path), timeout=120)
    assert child.returncode == EXIT_OK, child.stderr
    files = [child.stdout] + [path.read_bytes() for path in outputs]
    assert ({k: hashlib.sha256(b).hexdigest() for k, b in zip(OUTPUTS, files)}
            == GOLDEN["f32", "moments"])
