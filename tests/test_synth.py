"""Synthetic phantom construction and the noise-corruption model.

Distributional oracles: Kolmogorov-Smirnov against the exact
Exponential(1) cdf for transformed Rician background, closed-form chi
moments for second-moment checks, and the Rayleigh median identity.
"""

import hashlib
import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from chisigma.errors import ConfigError, DegenerateDataError, DomainError
from chisigma.io import EstimateReport, Volume4D, _file_chunks, _write_gzip, write_nifti
from chisigma.synth import (
    PhantomSpec,
    _radius_grid,
    _truth_spec,
    build_phantom,
    build_tau,
    corrupt,
    evaluate_report,
    object_mask,
    sigma_from_snr,
    simulate,
    simulate_stream,
)


def small_spec(**kw):
    base = dict(dims=(16, 16, 8), n_volumes=4, n_true=1.0, seed=5)
    base.update(kw)
    return PhantomSpec(**base)


class TestPhantomSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PhantomSpec(dims=(0, 4, 4))
        with pytest.raises(ConfigError):
            PhantomSpec(snr=0.0)
        with pytest.raises(ConfigError):
            PhantomSpec(n_true=-1.0)
        with pytest.raises(ConfigError):
            PhantomSpec(geometry="cube")
        with pytest.raises(ConfigError):
            PhantomSpec(profile="checker")
        with pytest.raises(ConfigError):
            PhantomSpec(tau_max=0.5)
        with pytest.raises(ConfigError):
            PhantomSpec(seed=-1)

    @pytest.mark.parametrize("field", ["snr", "n_true", "tau_max", "b0_intensity",
                                       "n_volumes", "seed", "dims"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            PhantomSpec(**{field: (value, 16, 8) if field == "dims" else value})

    def test_whole_floats_are_stored_as_int(self):
        spec = small_spec(dims=(16.0, 16, 8), n_volumes=4.0, seed=5.0)
        assert spec == small_spec()
        assert all(type(d) is int for d in spec.dims)
        noisy, truth = simulate(spec)
        want, want_truth = simulate(small_spec())
        assert np.array_equal(noisy.stored, want.stored)
        assert repr(truth) == repr(want_truth)

    def test_too_small_for_object(self):
        with pytest.raises(ConfigError):
            build_phantom(PhantomSpec(dims=(4, 4, 4)))


class TestBuildPhantom:
    def test_uniform_object_values(self):
        spec = small_spec(b0_intensity=600.0)
        vol = build_phantom(spec)
        b0 = vol.voxels[..., 0]
        obj = object_mask(spec)
        assert np.all(b0[obj] == 600.0)
        assert np.all(b0[~obj] == 0.0)
        assert float(np.mean(b0[obj])) == 600.0

    def test_concentric_spheres_mean(self):
        spec = small_spec(geometry="concentric_spheres", b0_intensity=600.0,
                          dims=(24, 24, 24))
        vol = build_phantom(spec)
        b0 = vol.voxels[..., 0]
        obj = object_mask(spec)
        assert float(np.mean(b0[obj])) == pytest.approx(600.0, rel=1e-12)
        assert len(np.unique(b0[obj])) == 3
        assert np.all(b0[~obj] == 0.0)

    def test_background_exactly_zero(self):
        vol = build_phantom(small_spec())
        obj = object_mask(small_spec())
        assert np.all(vol.voxels[~obj, :] == 0.0)

    def test_deterministic(self):
        a = build_phantom(small_spec())
        b = build_phantom(small_spec())
        assert np.array_equal(a.voxels, b.voxels)


class TestSigmaFromSnr:
    def test_arithmetic(self):
        b0 = np.zeros((8, 8, 8))
        b0[2:6, 2:6, 2:6] = 600.0
        assert sigma_from_snr(b0, 30.0) == 20.0

    def test_reference_pairing(self):
        # The default object intensity pairs with snr 30 to give 171.
        spec = small_spec()
        vol = build_phantom(spec)
        assert sigma_from_snr(vol.voxels[..., 0], 30.0) == pytest.approx(171.0, rel=1e-12)

    def test_limit(self):
        b0 = np.zeros((4, 4, 4))
        b0[1, 1, 1] = 100.0
        assert sigma_from_snr(b0, 1e12) == pytest.approx(0.0, abs=1e-9)

    def test_degenerate(self):
        with pytest.raises(DegenerateDataError):
            sigma_from_snr(np.zeros((4, 4, 4)), 30.0)
        with pytest.raises(DomainError):
            sigma_from_snr(np.ones((4, 4, 4)), 0.0)


class TestBuildTau:
    def test_uniform(self):
        tau = build_tau((6, 6, 6), "uniform", 1.75)
        assert np.all(tau == 1.0)

    def test_center_and_corner(self):
        tau = build_tau((9, 9, 9), "sphere_ramp", 1.75)
        assert tau[4, 4, 4] == 1.0
        assert tau[0, 0, 0] == 1.75
        assert tau[8, 8, 8] == 1.75

    def test_radially_monotone(self):
        tau = build_tau((11, 11, 11), "sphere_ramp", 1.5)
        center = tau[5, 5, 5]
        along_axis = tau[5, 5, 5:]
        assert np.all(np.diff(along_axis) > 0)
        assert center == 1.0
        assert np.all(tau >= 1.0)

    @pytest.mark.parametrize("dims", [(9, 9, 9), (8, 8, 8), (7, 12, 5)])
    def test_radius_grid_equals_the_full_meshgrid(self, dims):
        # build_tau, object_mask and evaluate_report read this grid.
        axes = [np.arange(d, dtype=np.float64) - (d - 1) / 2.0 for d in dims]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        want = np.sqrt(gx * gx + gy * gy + gz * gz)
        got = _radius_grid(dims)
        assert got.shape == dims and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_validation(self):
        with pytest.raises(ConfigError):
            build_tau((4, 4, 4), "ramp", 1.75)
        with pytest.raises(ConfigError):
            build_tau((4, 4, 4), "sphere_ramp", 0.9)


class TestCorrupt:
    def test_zero_sigma_is_identity(self):
        spec = small_spec()
        vol = build_phantom(spec)
        out = corrupt(vol, np.zeros(spec.dims), 1, seed=3)
        assert np.array_equal(out.voxels, vol.voxels)
        assert out.voxels is not vol.voxels

    def test_non_integer_n_rejected(self):
        spec = small_spec()
        vol = build_phantom(spec)
        scale = np.ones(spec.dims)
        with pytest.raises(DomainError):
            corrupt(vol, scale, 2.5, seed=0)
        with pytest.raises(DomainError):
            corrupt(vol, scale, 0, seed=0)
        with pytest.raises(DomainError):
            corrupt(vol, scale, math.inf, seed=0)

    def test_rician_background_is_exponential_after_transform(self):
        # N=1, tau=1: t = m^2/(2 sigma^2) over background is Exp(1).
        sigma = 20.0
        dims = (100, 100, 1)
        vol = np.zeros(dims + (1,))
        noisy = corrupt(vol, np.full(dims, sigma), 1, seed=8)
        t = (noisy.voxels.ravel() ** 2) / (2.0 * sigma * sigma)
        ks = stats.kstest(t, lambda x: 1.0 - np.exp(-x)).statistic
        assert ks < 1.63 / math.sqrt(t.size)  # 1% critical value

    def test_background_second_moment(self):
        # E[m^2] = 2 N (tau sigma)^2 over background voxels.
        sigma, n = 10.0, 3
        dims = (50, 50, 1)
        vol = np.zeros(dims + (40,))
        noisy = corrupt(vol, np.full(dims, 1.3 * sigma), n, seed=9)
        m2 = noisy.voxels ** 2
        expected = 2.0 * n * (1.3 * sigma) ** 2
        se = float(np.std(m2)) / math.sqrt(m2.size)
        assert abs(float(np.mean(m2)) - expected) <= 3.0 * se

    def test_rayleigh_median(self):
        sigma = 7.0
        dims = (64, 64, 8)
        vol = np.zeros(dims + (4,))
        noisy = corrupt(vol, np.full(dims, sigma), 1, seed=10)
        med = float(np.median(noisy.voxels))
        ref = sigma * math.sqrt(2.0 * math.log(2.0))
        assert med == pytest.approx(ref, rel=0.01)

    def test_summed_transform_fits_pooled_gamma(self):
        # Sums over V volumes of t fit a gamma with shape V*N.
        sigma, n, v = 5.0, 2, 16
        dims = (40, 40, 4)
        vol = np.zeros(dims + (v,))
        noisy = corrupt(vol, np.full(dims, sigma), n, seed=11)
        s = np.sum(noisy.voxels ** 2 / (2.0 * sigma * sigma), axis=-1).ravel()
        tol = 3.0 * float(np.std(s)) / math.sqrt(s.size)
        assert abs(float(np.mean(s)) - v * n) <= tol

    def test_object_second_moment_is_noncentral(self):
        # m^2/s^2 is noncentral chi-square(2N, (I/s)^2), with mean 2N + (I/s)^2,
        # here over object voxels of spatially varying s.
        n, sigma = 4, 171.0
        spec = small_spec(dims=(24, 24, 16), n_volumes=12, profile="sphere_ramp")
        vol = build_phantom(spec)
        s = build_tau(spec.dims, spec.profile, spec.tau_max)[..., np.newaxis] * sigma
        noisy = corrupt(vol, s[..., 0], n, seed=13)
        obj = np.broadcast_to(object_mask(spec)[..., np.newaxis], vol.dims)
        x = (noisy.voxels / s)[obj] ** 2
        lam = (vol.voxels / s)[obj] ** 2
        se = float(np.std(x - lam)) / math.sqrt(x.size)
        assert abs(float(np.mean(x)) - float(np.mean(2 * n + lam))) <= 3.0 * se

    def test_seed_determinism(self):
        spec = small_spec()
        vol = build_phantom(spec)
        scale = np.full(spec.dims, 5.0)
        a = corrupt(vol, scale, 2, seed=42)
        b = corrupt(vol, scale, 2, seed=42)
        c = corrupt(vol, scale, 2, seed=43)
        assert np.array_equal(a.voxels, b.voxels)
        assert not np.array_equal(a.voxels, c.voxels)

    def test_signal_voxels_noncentral(self):
        # Object voxels keep roughly their noiseless intensity at high snr.
        spec = small_spec(b0_intensity=10000.0)
        vol = build_phantom(spec)
        noisy = corrupt(vol, np.full(spec.dims, 10.0), 4, seed=12)
        obj = object_mask(spec)
        b0 = noisy.voxels[..., 0][obj]
        assert float(np.mean(b0)) == pytest.approx(10000.0, rel=0.01)

    def test_tau_shape_mismatch(self):
        spec = small_spec()
        vol = build_phantom(spec)
        with pytest.raises(DomainError):
            corrupt(vol, np.ones((4, 4, 4)), 1, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, 0.0],
                             ids=["nan", "inf", "-inf", "negative", "some_zeros"])
    def test_scale_map_must_be_positive_and_finite(self, bad):
        # One bad voxel in a map of ones: zeros are taken only everywhere.
        spec = small_spec()
        vol = build_phantom(spec)
        scale = np.ones(spec.dims)
        scale[3, 5, 2] = bad
        with pytest.raises(DomainError, match="noise-level map"):
            corrupt(vol, scale, 1, seed=0)

    def test_zero_map_gives_a_float64_copy(self):
        values = np.arange(2 * 3 * 4 * 2, dtype=np.int16).reshape(2, 3, 4, 2)
        vol = Volume4D(voxels=values)
        out = corrupt(vol, np.zeros((2, 3, 4)), 1, seed=0)
        assert vol.dtype == np.int16 and out.dtype == np.float64
        assert np.array_equal(out.voxels, values)
        assert not np.shares_memory(out.stored, vol.stored)


class TestSimulate:
    def test_truth_record(self):
        noisy, truth = simulate(small_spec())
        assert truth["schema"] == "chisigma-truth-v1"
        assert truth["generator"] == "ncchisq-philox-v1"
        assert truth["sigma_g"] == pytest.approx(171.0, rel=1e-12)
        assert truth["spec"]["n_true"] == 1.0
        assert truth["spec"]["dims"] == [16, 16, 8]
        assert noisy.dims == (16, 16, 8, 4)

    def test_truth_read_with_or_without_generator(self):
        spec = small_spec()
        _, truth = simulate(spec)
        bare = {k: v for k, v in truth.items() if k != "generator"}
        assert _truth_spec(truth) == _truth_spec(bare) == spec
        report = EstimateReport(
            slices=[{"slice_index": k, "sigma_g": 171.0 + k, "n_dof": 1.0,
                     "n_identified": 10, "converged": True, "outer_iters": 1}
                    for k in range(spec.dims[2])],
            config={"slice_axis": "z"},
            fingerprint={"dims": list(spec.dims) + [spec.n_volumes], "sha256": ""},
        )
        with_key, without = evaluate_report(report, truth), evaluate_report(report, bare)
        assert len(with_key.per_slice) == spec.dims[2]
        assert with_key == without

    def test_deterministic(self):
        a, _ = simulate(small_spec())
        b, _ = simulate(small_spec())
        assert np.array_equal(a.voxels, b.voxels)

    @pytest.mark.parametrize("kw", [
        {}, {"n_volumes": 1}, {"geometry": "concentric_spheres", "profile": "sphere_ramp"},
        {"dims": (18, 13, 9), "n_true": 3.0},
    ], ids=["default", "one_volume", "spheres_sphere", "non_cubic"])
    def test_stream_holds_the_simulated_volumes(self, kw):
        spec = small_spec(**kw)
        noisy, truth = simulate(spec)
        stream, stream_truth = simulate_stream(spec)
        assert stream_truth == truth
        assert stream.dims == noisy.dims and stream.spacing == noisy.spacing
        vols = [make(out=np.empty(stream.dims[2::-1])) for make in stream.makers()]
        assert len(vols) == spec.n_volumes
        for got, want in zip(vols, noisy.stored):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert np.array_equal(got, want)

    def test_stream_equals_corrupt_of_the_phantom(self):
        spec = small_spec(profile="sphere_ramp", n_true=2.0)
        phantom = build_phantom(spec)
        sigma_g = sigma_from_snr(phantom.voxels[..., 0], spec.snr)
        scale = build_tau(spec.dims, spec.profile, spec.tau_max) * sigma_g
        want = corrupt(phantom, scale, spec.n_true, spec.seed)
        stream, truth = simulate_stream(spec)
        assert truth["sigma_g"] == sigma_g
        vols = [make(out=np.empty(stream.dims[2::-1])) for make in stream.makers()]
        assert np.array_equal(np.stack(vols), want.stored)

    # sha256 of simulate()'s stored bytes and of the .nii.gz written from
    # simulate_stream, recorded when the draw loop was last rewritten: the
    # ncchisq-philox-v1 values of a seed must not change.
    @pytest.mark.parametrize("spec, stored, gz", [
        (PhantomSpec(dims=(16, 16, 8), n_volumes=5, n_true=4.0, seed=11),
         "02a1b2b9f220795911a422edc969d26d89162ba050fc7d09b445961add76c3c2",
         "d592a82362f56c830df89abf652b4feb4e5620424f2bf242c1bb0fc796ac2973"),
        (PhantomSpec(dims=(15, 18, 9), n_volumes=3, n_true=8.0, seed=3,
                     geometry="concentric_spheres", profile="sphere_ramp"),
         "1311b9f4a797ebe1e3b5aa1175ff11149f2106eaa4403f684220436b6d5591bd",
         "90bd1ff36b98f19f49eebf1f1b6b4c1cf0701113c9e7136b3584a7fd6e9e70df"),
    ], ids=["uniform_n4", "spheres_ramp_n8"])
    def test_golden_digests(self, tmp_path, spec, stored, gz):
        noisy, _ = simulate(spec)
        assert hashlib.sha256(noisy.stored.tobytes()).hexdigest() == stored
        path = tmp_path / "sim.nii.gz"
        write_nifti(simulate_stream(spec)[0], path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == gz

    # sha256 of the .nii.gz of one phantom at 1, 2 and 7 volumes, recorded
    # when every volume was drawn on the calling thread: neither the worker
    # count nor a volume count below, at or above it changes a byte.
    @pytest.mark.parametrize("n_volumes, gz", [
        (1, "a69d79ed6f405ba4379b24bf3481c114e53e372d9857c1a027a51430786f6e94"),
        (2, "d703c809210f71251900733c62e352880464c91ee25ade0f2586cc673b140729"),
        (7, "3e01a34ad4f3d2bc4a45de47d04237a6ddf800a88f0000ce4eff05999fa0d8aa"),
    ])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_gzip_bytes_for_any_worker_count(self, tmp_path, n_volumes, gz, workers):
        spec = PhantomSpec(dims=(16, 12, 8), n_volumes=n_volumes, n_true=2.0,
                           profile="sphere_ramp", seed=6)
        buf = io.BytesIO()
        _write_gzip(buf, _file_chunks(simulate_stream(spec)[0], None, tmp_path / "s.nii.gz"),
                    workers)
        assert hashlib.sha256(buf.getvalue()).hexdigest() == gz

    @pytest.mark.parametrize("cpus", [2, 16])
    def test_streamed_write_holds_a_few_volumes(self, tmp_path, monkeypatch, cpus):
        # The draws hold the scale, the noncentrality map and the volume
        # drawn; the writer its float32 cast and at most workers + 1
        # deflates. So the peak does not grow with the volume count.
        spec = PhantomSpec(dims=(64, 64, 40), n_volumes=9, profile="sphere_ramp", seed=3)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        tracemalloc.start()
        try:
            write_nifti(simulate_stream(spec)[0], tmp_path / "sim.nii.gz")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        volume = int(np.prod(spec.dims)) * 8
        assert peak < 8.5 * volume, peak / volume

    def test_stream_rejects_fractional_n_up_front(self):
        with pytest.raises(DomainError, match="positive integer N"):
            simulate_stream(small_spec(n_true=2.5))
