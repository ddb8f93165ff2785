"""Command-line behavior: subcommands, exit codes, file outputs."""

import gzip
import io as pyio
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from chisigma import identify, io, model
from chisigma.cli import EXIT_ALL_FAILED, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from chisigma.identify import SearchConfig, SliceEstimate
from chisigma.io import Volume4D, build_report, read_nifti, read_report, write_nifti
from chisigma.io import _file_chunks, _write_gzip
from chisigma.synth import PhantomSpec, evaluate_report, simulate, simulate_stream


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def sim_paths(tmp_path_factory):
    # One small simulated dataset shared by the round-trip tests.
    d = tmp_path_factory.mktemp("sim")
    out = d / "noisy.nii.gz"
    truth = d / "truth.json"
    code = run(["simulate", "--dims", "24,24,8", "--volumes", "33",
                "--ncoils", "4", "--seed", "77", "--out", str(out),
                "--truth", str(truth)])
    assert code == EXIT_OK
    return out, truth


@pytest.fixture(scope="module")
def sim_report(sim_paths, tmp_path_factory):
    # A valid report of the shared dataset, for the evaluate tests to edit.
    out, _ = sim_paths
    path = tmp_path_factory.mktemp("report") / "report.json"
    assert run(["estimate", str(out), "--out-report", str(path)]) == EXIT_OK
    return path


def slice_record(k, sigma_g):
    return SliceEstimate(slice_index=k, sigma_g=sigma_g, n_dof=2.0,
                         mask=np.ones((12, 12), dtype=bool), n_identified=10,
                         outer_iters=1, converged=True)


class TestExitCodes:
    def test_no_command(self, capsys):
        assert run([]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert run(["estimate", "x.nii", "--bogus"]) == EXIT_USAGE

    def test_nmin_above_nmax(self, tmp_path, capsys):
        vol = tmp_path / "v.nii"
        write_nifti(Volume4D(voxels=np.ones((4, 4, 4, 2))), vol)
        assert run(["estimate", str(vol), "--nmin", "5", "--nmax", "2"]) == EXIT_USAGE

    def test_missing_input_file(self, tmp_path, capsys):
        assert run(["estimate", str(tmp_path / "nope.nii")]) == EXIT_IO

    def test_malformed_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.nii"
        bad.write_bytes(b"\x00" * 64)
        assert run(["estimate", str(bad)]) == EXIT_IO

    def test_bad_vox_offset(self, tmp_path, capsys):
        # A header whose vox_offset is not a byte offset is a format error,
        # not a traceback.
        vol = tmp_path / "v.nii"
        write_nifti(Volume4D(voxels=np.ones((4, 4, 4, 2))), vol)
        raw = bytearray(vol.read_bytes())
        for offset in (float("nan"), float("inf"), 1e30):
            struct.pack_into("<f", raw, 108, offset)
            vol.write_bytes(bytes(raw))
            assert run(["estimate", str(vol)]) == EXIT_IO
            assert "vox_offset" in capsys.readouterr().err

    def test_all_slices_failed(self, tmp_path, capsys):
        # A constant volume identifies voxels but yields degenerate
        # samples on every slice.
        vol = tmp_path / "flat.nii"
        write_nifti(Volume4D(voxels=np.full((6, 6, 4, 5), 3.0)), vol)
        assert run(["estimate", str(vol)]) == EXIT_ALL_FAILED

    def test_fractional_ncoils(self, tmp_path, capsys):
        out = tmp_path / "o.nii"
        assert run(["simulate", "--ncoils", "2.5", "--out", str(out)]) == EXIT_USAGE

    @pytest.mark.parametrize("flags", [
        ["--ncoils", "inf"],
        ["--ncoils", "nan"],
        ["--snr", "inf"],
        ["--b0-mean", "inf"],
        ["--profile", "sphere", "--tau-max", "inf"],
        ["--profile", "sphere", "--tau-max", "nan"],
    ], ids=["ncoils_inf", "ncoils_nan", "snr_inf", "b0_mean_inf", "tau_max_inf",
            "tau_max_nan"])
    def test_non_finite_simulate_value(self, tmp_path, capsys, flags):
        # Rejected up front as a configuration error, before any file is written.
        out = tmp_path / "o.nii"
        assert run(["simulate", "--dims", "12,12,8", "--volumes", "2",
                    *flags, "--out", str(out)]) == EXIT_USAGE
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suffix", ["nii", "nii.gz"])
    def test_float32_overflow(self, tmp_path, capsys, suffix):
        # A reference intensity beyond the float32 range fails the write of
        # the first volume, and the partial file is removed.
        out = tmp_path / f"o.{suffix}"
        assert run(["simulate", "--dims", "12,12,8", "--volumes", "3",
                    "--b0-mean", "1e300", "--out", str(out)]) == EXIT_IO
        assert "float32" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_dims(self, tmp_path, capsys):
        out = tmp_path / "o.nii"
        assert run(["simulate", "--dims", "10,10", "--out", str(out)]) == EXIT_USAGE

    def test_bad_threads_value(self, tmp_path, capsys):
        vol = tmp_path / "v.nii"
        write_nifti(Volume4D(voxels=np.ones((4, 4, 4, 2))), vol)
        assert run(["estimate", str(vol), "--threads", "lots"]) == EXIT_USAGE

    def test_evaluate_missing_report(self, tmp_path, capsys):
        truth = tmp_path / "t.json"
        truth.write_text("{}")
        assert run(["evaluate", "--report", str(tmp_path / "r.json"),
                    "--truth", str(truth)]) == EXIT_IO


class TestSimulate:
    def test_writes_volume_and_truth(self, sim_paths):
        out, truth = sim_paths
        vol = read_nifti(out)
        assert vol.dims == (24, 24, 8, 33)
        doc = json.loads(truth.read_text())
        assert doc["spec"]["n_true"] == 4.0
        assert doc["sigma_g"] > 0.0

    def test_seed_reproducibility(self, tmp_path, capsys):
        p1, p2, p3 = (tmp_path / f"{i}.nii.gz" for i in range(3))
        base = ["simulate", "--dims", "12,12,8", "--volumes", "5", "--seed", "9"]
        assert run(base + ["--out", str(p1)]) == EXIT_OK
        assert run(base + ["--out", str(p2)]) == EXIT_OK
        assert run(["simulate", "--dims", "12,12,8", "--volumes", "5",
                    "--seed", "10", "--out", str(p3)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes() != p3.read_bytes()

    def test_sphere_profile_and_geometry(self, tmp_path, capsys):
        out = tmp_path / "s.nii"
        code = run(["simulate", "--dims", "16,16,8", "--volumes", "4",
                    "--profile", "sphere", "--geometry", "spheres",
                    "--out", str(out)])
        assert code == EXIT_OK
        assert read_nifti(out).dims == (16, 16, 8, 4)


    @pytest.mark.parametrize("flags,spec", [
        (["--dims", "12,12,8", "--volumes", "1", "--seed", "3"],
         PhantomSpec(dims=(12, 12, 8), n_volumes=1, seed=3)),
        (["--dims", "20,14,9", "--volumes", "6", "--ncoils", "2", "--geometry", "spheres",
          "--seed", "8"],
         PhantomSpec(dims=(20, 14, 9), n_volumes=6, n_true=2.0,
                     geometry="concentric_spheres", seed=8)),
        (["--dims", "16,22,10", "--volumes", "5", "--profile", "sphere", "--tau-max", "2.5",
          "--snr", "12", "--b0-mean", "900", "--seed", "21"],
         PhantomSpec(dims=(16, 22, 10), n_volumes=5, profile="sphere_ramp", tau_max=2.5,
                     snr=12.0, b0_intensity=900.0, seed=21)),
        (["--dims", "18,12,7", "--volumes", "4", "--ncoils", "1", "--geometry", "spheres",
          "--profile", "sphere", "--seed", "2"],
         PhantomSpec(dims=(18, 12, 7), n_volumes=4, n_true=1.0,
                     geometry="concentric_spheres", profile="sphere_ramp", seed=2)),
    ], ids=["one_volume", "spheres_uniform", "uniform_sphere", "spheres_sphere"])
    def test_stream_writes_the_simulated_volume(self, tmp_path, capsys, flags, spec):
        # The CLI streams volume by volume; its file and truth are those of
        # the in-memory simulation, and the .nii.gz holds the same bytes.
        plain, packed, truth = tmp_path / "s.nii", tmp_path / "s.nii.gz", tmp_path / "t.json"
        assert run(["simulate", *flags, "--out", str(plain), "--truth", str(truth)]) == EXIT_OK
        assert run(["simulate", *flags, "--out", str(packed)]) == EXIT_OK
        noisy, want_truth = simulate(spec)
        want = tmp_path / "want.nii"
        write_nifti(noisy, want)
        assert plain.read_bytes() == want.read_bytes()
        assert json.loads(truth.read_text()) == want_truth
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        assert f"dims {noisy.dims}" in capsys.readouterr().out

    def test_stream_gzip_does_not_depend_on_workers(self, tmp_path, capsys):
        spec = PhantomSpec(dims=(16, 12, 8), n_volumes=7, profile="sphere_ramp", seed=6)
        out = tmp_path / "s.nii.gz"
        assert run(["simulate", "--dims", "16,12,8", "--volumes", "7", "--profile", "sphere",
                    "--seed", "6", "--out", str(out)]) == EXIT_OK
        for workers in (1, 3):
            buf = pyio.BytesIO()
            stream, _ = simulate_stream(spec)
            _write_gzip(buf, _file_chunks(stream, None, out), workers)
            assert buf.getvalue() == out.read_bytes()

    def test_stream_peaks_below_one_float64_copy(self, tmp_path, capsys, monkeypatch):
        # In-flight chunks grow with the worker count, one per CPU; two
        # workers are what the figures below were measured with.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        dims = (48, 48, 24, 33)
        tracemalloc.start()
        try:
            code = run(["simulate", "--dims", "48,48,24", "--volumes", "33", "--profile",
                        "sphere", "--seed", "4", "--out", str(tmp_path / "s.nii.gz")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        # A phantom and a noisy volume in memory, as before streaming,
        # peaked at 32.3 MB: two float64 copies and the writer's buffers.
        assert peak < int(np.prod(dims)) * 8
        assert peak < 32.3e6 / 4


class TestEstimate:
    def test_end_to_end_outputs(self, sim_paths, tmp_path, capsys):
        out, truth = sim_paths
        report_path = tmp_path / "report.json"
        mask_path = tmp_path / "mask.nii"
        csv_path = tmp_path / "slices.csv"
        code = run(["estimate", str(out), "--out-report", str(report_path),
                    "--out-mask", str(mask_path), "--out-csv", str(csv_path)])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "volume median sigma_g" in captured.out

        report = read_report(report_path)
        assert len(report.slices) == 8
        truth_doc = json.loads(truth.read_text())
        for rec in report.slices:
            err = abs(rec["sigma_g"] - truth_doc["sigma_g"]) / truth_doc["sigma_g"]
            assert err < 0.05
            assert round(rec["n_dof"]) == 4

        mask = read_nifti(mask_path)
        assert mask.dims == (24, 24, 8, 1)
        assert set(np.unique(mask.voxels)) <= {0.0, 1.0}

        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 9

    def test_fixed_n_mode(self, tmp_path, capsys):
        code = run(["simulate", "--dims", "20,20,8", "--volumes", "33",
                    "--ncoils", "1", "--seed", "3",
                    "--out", str(tmp_path / "r.nii")])
        assert code == EXIT_OK
        report_path = tmp_path / "rep.json"
        code = run(["estimate", str(tmp_path / "r.nii"), "--fixed-n", "1",
                    "--out-report", str(report_path)])
        assert code == EXIT_OK
        report = read_report(report_path)
        assert all(rec["n_dof"] == 1.0 for rec in report.slices)

    def test_mask_keeps_input_spacing(self, sim_paths, tmp_path, capsys):
        out, _ = sim_paths
        vol = tmp_path / "spaced.nii"
        write_nifti(Volume4D(voxels=read_nifti(out).voxels, spacing=(2.0, 2.0, 3.0)), vol)
        mask_path = tmp_path / "mask.nii"
        assert run(["estimate", str(vol), "--out-mask", str(mask_path)]) == EXIT_OK
        assert read_nifti(mask_path).spacing == (2.0, 2.0, 3.0)

    def test_checks_each_input_once(self, sim_paths, tmp_path, capsys, monkeypatch):
        # The reader checks each volume as it reads it and hands over a
        # trusted volume: nothing is checked again, neither the whole volume
        # nor any slice on its way through the search.
        out, _ = sim_paths
        shapes = []
        real = model.check_magnitudes

        def spy(arr):
            shapes.append(arr.shape)
            real(arr)

        for module in (model, identify, io):
            if hasattr(module, "check_magnitudes"):
                monkeypatch.setattr(module, "check_magnitudes", spy)
        assert run(["estimate", str(out), "--threads", "2",
                    "--out-mask", str(tmp_path / "mask.nii")]) == EXIT_OK
        assert shapes == []


class TestEvaluate:
    def test_round_trip(self, sim_paths, tmp_path, capsys):
        out, truth = sim_paths
        report_path = tmp_path / "report.json"
        assert run(["estimate", str(out),
                    "--out-report", str(report_path)]) == EXIT_OK
        csv_path = tmp_path / "eval.csv"
        code = run(["evaluate", "--report", str(report_path),
                    "--truth", str(truth), "--out", str(csv_path)])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "percentage error" in captured.out

        lines = csv_path.read_text().strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == "slice_index,pct_error_sigma,n_est,n_true"
        assert len(lines) == 10
        for line in lines[2:]:
            frags = line.split(",")
            assert abs(float(frags[1])) < 5.0
            assert float(frags[3]) == 4.0

    def test_v1_report_accepted(self, sim_paths, sim_report, tmp_path, capsys):
        # A report written before the v2 fingerprint still evaluates, alike.
        _, truth = sim_paths
        assert run(["evaluate", "--report", str(sim_report), "--truth", str(truth)]) == EXIT_OK
        v2_out = capsys.readouterr().out
        doc = json.loads(sim_report.read_text())
        assert doc["schema"] == "chisigma-report-v2"
        doc["schema"] = "chisigma-report-v1"
        doc["fingerprint"] = {"dims": doc["fingerprint"]["dims"], "sha256": "0" * 64}
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(doc))
        assert run(["evaluate", "--report", str(v1), "--truth", str(truth)]) == EXIT_OK
        assert capsys.readouterr().out == v2_out

    def test_non_finite_truth_spec(self, sim_paths, sim_report, tmp_path, capsys):
        # JSON allows Infinity; a truth record holding it is malformed, not a crash.
        _, truth = sim_paths
        doc = json.loads(truth.read_text())
        doc["spec"]["n_volumes"] = float("inf")
        bad = tmp_path / "truth.json"
        bad.write_text(json.dumps(doc))
        assert run(["evaluate", "--report", str(sim_report), "--truth", str(bad)]) == EXIT_IO

    def test_mismatched_truth(self, sim_paths, tmp_path, capsys):
        out, truth = sim_paths
        report_path = tmp_path / "report.json"
        assert run(["estimate", str(out),
                    "--out-report", str(report_path)]) == EXIT_OK
        doc = json.loads(truth.read_text())
        doc["spec"]["dims"] = [10, 10, 10]
        other = tmp_path / "other_truth.json"
        other.write_text(json.dumps(doc))
        assert run(["evaluate", "--report", str(report_path),
                    "--truth", str(other)]) == EXIT_IO

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["config"].update(slice_axis="w"),
        lambda doc: doc["config"].update(slice_axis=["z"]),
        lambda doc: doc["slices"][3].update(slice_index=99),
        lambda doc: doc["slices"][3].update(slice_index=-1),
        lambda doc: doc["slices"][3].update(sigma_g="abc"),
        lambda doc: doc["fingerprint"].update(dims=5),
        lambda doc: doc["slices"].extend([dict(doc["slices"][0])] * 5),
        lambda doc: doc.update(schema="chisigma-report-v3"),
    ], ids=["unknown_axis", "axis_not_a_string", "slice_index_out_of_range",
            "slice_index_negative", "sigma_g_not_a_number", "dims_not_a_list",
            "slice_index_repeated", "unknown_schema"])
    def test_malformed_report(self, sim_paths, sim_report, tmp_path, capsys, edit):
        _, truth = sim_paths
        doc = json.loads(sim_report.read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["evaluate", "--report", str(bad),
                    "--truth", str(truth)]) == EXIT_IO

    def test_perfect_estimates_zero_error(self, tmp_path, capsys):
        # Hand-build a report that matches the truth exactly.
        spec = PhantomSpec(dims=(12, 12, 8), n_volumes=3, n_true=2.0, seed=1)
        noisy, truth = simulate(spec)
        recs = [slice_record(k, truth["sigma_g"]) for k in range(8)]
        report = build_report(recs, SearchConfig(), noisy)
        ev = evaluate_report(report, truth)
        assert ev.mean_pct_error == 0.0
        assert ev.std_pct_error == 0.0
        assert all(r["pct_error_sigma"] == 0.0 for r in ev.per_slice)

    def test_constant_inflation_is_exact(self, tmp_path, capsys):
        spec = PhantomSpec(dims=(12, 12, 8), n_volumes=3, n_true=2.0, seed=2)
        noisy, truth = simulate(spec)
        recs = [slice_record(k, 1.1 * truth["sigma_g"]) for k in range(8)]
        report = build_report(recs, SearchConfig(), noisy)
        ev = evaluate_report(report, truth)
        for r in ev.per_slice:
            assert r["pct_error_sigma"] == pytest.approx(10.0, abs=1e-9)
