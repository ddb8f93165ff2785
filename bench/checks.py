"""Output checks for the benchmark, written without ``chisigma.io``.

Each check raises :class:`CheckError` with a reason when an output is
missing, malformed or outside tolerance; the caller counts the
invocation as failed. The scoring convention matches ``chisigma
evaluate``: a slice's reference noise level is the mean of tau * sigma_g
over the slice's true background voxels.
"""

import csv
import json

import numpy as np

from fixtures import iter_volumes, radius, sphere_ramp

_SLICE_KEYS = ("slice_index", "sigma_g", "n_dof", "n_identified", "converged", "outer_iters")


class CheckError(Exception):
    pass


def parse_table(stdout: str) -> list:
    """Slice records from the table ``chisigma estimate`` prints."""
    lines = stdout.splitlines()
    if not lines or lines[0].split() != ["slice", "sigma_g", "n_dof", "identified",
                                         "iters", "converged"]:
        raise CheckError("estimate printed no slice table")
    records = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 6 or not parts[0].isdigit():
            continue
        try:
            records.append({
                "slice_index": int(parts[0]), "sigma_g": float(parts[1]),
                "n_dof": float(parts[2]), "n_identified": int(parts[3]),
                "outer_iters": int(parts[4]), "converged": parts[5] == "True",
            })
        except ValueError as exc:
            raise CheckError(f"malformed table row {line!r}") from exc
    return records


def read_report(path, dims) -> list:
    """Slice records of a JSON report, after checking its shape."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"report unreadable: {exc}") from exc
    if not str(doc.get("schema", "")).startswith("chisigma-report-"):
        raise CheckError(f"report schema {doc.get('schema')!r}")
    if list(doc.get("fingerprint", {}).get("dims", [])) != list(dims):
        raise CheckError(f"report dims {doc.get('fingerprint')} != {list(dims)}")
    slices = doc.get("slices")
    if not isinstance(slices, list) or any(
            not isinstance(r, dict) or any(k not in r for k in _SLICE_KEYS) for r in slices):
        raise CheckError("report slice records malformed")
    return slices


def check_csv(path, records) -> None:
    """The CSV holds the report's (slice_index, sigma_g, n_dof) exactly."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
    except OSError as exc:
        raise CheckError(f"csv unreadable: {exc}") from exc
    if not rows or rows[0] != ["slice_index", "sigma_g", "n_dof"]:
        raise CheckError("csv header malformed")
    want = [[str(r["slice_index"]), repr(float(r["sigma_g"])), repr(float(r["n_dof"]))]
            for r in records]
    try:
        got = [[str(int(a)), repr(float(b)), repr(float(c))] for a, b, c in rows[1:]]
    except ValueError as exc:
        raise CheckError("csv row malformed") from exc
    if got != want:
        raise CheckError("csv rows differ from the report")


def check_mask(path, dims, records) -> None:
    """The mask is a {0, 1} uint8 image of the slice grid holding every identified voxel."""
    try:
        (mdims, mdtype, mask), = list(iter_volumes(path))
    except (OSError, ValueError) as exc:
        raise CheckError(f"mask unreadable: {exc}") from exc
    if list(mdims) != list(dims[:3]) or mdtype != np.uint8:
        raise CheckError(f"mask is {mdtype} {mdims}, expected uint8 {list(dims[:3])}")
    if not np.isin(mask, (0, 1)).all():
        raise CheckError("mask holds values other than 0 and 1")
    if int(mask.sum()) != sum(int(r["n_identified"]) for r in records):
        raise CheckError("mask voxel count differs from the identified counts")


def score(records, truth) -> dict:
    """Accuracy of per-slice records against the fixture truth (z slices)."""
    n_slices = truth.background.shape[2]
    if [r["slice_index"] for r in records] != list(range(n_slices)):
        raise CheckError(f"expected slices 0..{n_slices - 1}, got {len(records)} records")
    sigma_err, n_err, failed = [], [], 0
    for r in records:
        if r["n_identified"] <= 0 or r["sigma_g"] <= 0.0:
            failed += 1
            continue
        k = r["slice_index"]
        ref = float(np.mean(truth.sigma_field[:, :, k][truth.background[:, :, k]]))
        sigma_err.append(100.0 * abs(r["sigma_g"] - ref) / ref)
        n_err.append(abs(r["n_dof"] - truth.n_true))
    return {
        "sigma_err_pct": float(np.median(sigma_err)) if sigma_err else float("inf"),
        "n_err": float(np.median(n_err)) if n_err else float("inf"),
        "failed_slice_frac": failed / n_slices,
    }


def check_accuracy(acc: dict, tol: dict) -> None:
    for key, limit in tol.items():
        if not acc[key] <= limit:
            raise CheckError(f"{key} = {acc[key]:.4g} exceeds tolerance {limit}")


def check_simulation(nii_path, truth_path, dims, n_true, tau_max, sigma_g) -> dict:
    """Header, truth record, and the background's mean of m^2 against 2N (tau sigma_g)^2.

    Returns ``bg_m2_err``, the relative distance of that mean from its
    expected value, for ``check_accuracy`` to hold against a tolerance.

    This is a check on the noise distribution, not on bytes, so any exact
    sampler of the same law passes. The background is taken as the
    voxels outside the grid's inscribed sphere, which hold no object for
    any centred phantom that fits in the grid.
    """
    try:
        with open(truth_path, encoding="utf-8") as f:
            truth = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"truth unreadable: {exc}") from exc
    if abs(float(truth.get("sigma_g", -1.0)) - sigma_g) > 1e-9 * sigma_g:
        raise CheckError(f"truth sigma_g {truth.get('sigma_g')} != {sigma_g}")
    shape = dims[:3]
    tau = sphere_ramp(shape, tau_max)
    corner = radius(shape) > min(shape) / 2.0
    inv_var = 1.0 / (tau[corner] * sigma_g) ** 2
    total, count = 0.0, 0
    try:
        for vdims, vdtype, vol in iter_volumes(nii_path):
            if list(vdims) != list(dims):
                raise CheckError(f"simulated dims {vdims} != {list(dims)}")
            if vdtype != np.float32:
                raise CheckError(f"simulated datatype {vdtype}, expected float32")
            if not (np.isfinite(vol).all() and (vol >= 0).all()):
                raise CheckError("simulated volume holds negative or non-finite values")
            m = vol[corner].astype(np.float64)
            total += float(np.sum(m * m * inv_var))
            count += m.size
    except (OSError, ValueError, EOFError) as exc:
        raise CheckError(f"simulated volume unreadable: {exc}") from exc
    if count != int(corner.sum()) * dims[3]:
        raise CheckError("simulated volume has the wrong number of volumes")
    return {"bg_m2_err": abs(total / count / (2.0 * n_true) - 1.0)}
