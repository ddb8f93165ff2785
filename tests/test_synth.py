"""Synthetic phantom construction and the noise-corruption model.

Distributional oracles: Kolmogorov-Smirnov against the exact
Exponential(1) cdf for transformed Rician background, closed-form chi
moments for second-moment checks, and the Rayleigh median identity.
"""

import math

import numpy as np
import pytest
from scipy import stats

from chisigma.errors import ConfigError, DegenerateDataError, DomainError
from chisigma.io import EstimateReport
from chisigma.synth import (
    NoiseField,
    PhantomSpec,
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

    def test_validation(self):
        with pytest.raises(ConfigError):
            build_tau((4, 4, 4), "ramp", 1.75)
        with pytest.raises(ConfigError):
            build_tau((4, 4, 4), "sphere_ramp", 0.9)


class TestCorrupt:
    def test_zero_sigma_is_identity(self):
        spec = small_spec()
        vol = build_phantom(spec)
        field = NoiseField(tau=np.ones(spec.dims), sigma_g=0.0)
        out = corrupt(vol, field, 1, seed=3)
        assert np.array_equal(out.voxels, vol.voxels)
        assert out.voxels is not vol.voxels

    def test_non_integer_n_rejected(self):
        spec = small_spec()
        vol = build_phantom(spec)
        field = NoiseField(tau=np.ones(spec.dims), sigma_g=1.0)
        with pytest.raises(DomainError):
            corrupt(vol, field, 2.5, seed=0)
        with pytest.raises(DomainError):
            corrupt(vol, field, 0, seed=0)
        with pytest.raises(DomainError):
            corrupt(vol, field, math.inf, seed=0)

    def test_rician_background_is_exponential_after_transform(self):
        # N=1, tau=1: t = m^2/(2 sigma^2) over background is Exp(1).
        sigma = 20.0
        dims = (100, 100, 1)
        vol = np.zeros(dims + (1,))
        field = NoiseField(tau=np.ones(dims), sigma_g=sigma)
        noisy = corrupt(vol, field, 1, seed=8)
        t = (noisy.voxels.ravel() ** 2) / (2.0 * sigma * sigma)
        ks = stats.kstest(t, lambda x: 1.0 - np.exp(-x)).statistic
        assert ks < 1.63 / math.sqrt(t.size)  # 1% critical value

    def test_background_second_moment(self):
        # E[m^2] = 2 N (tau sigma)^2 over background voxels.
        sigma, n = 10.0, 3
        dims = (50, 50, 1)
        vol = np.zeros(dims + (40,))
        tau = np.full(dims, 1.3)
        noisy = corrupt(vol, NoiseField(tau=tau, sigma_g=sigma), n, seed=9)
        m2 = noisy.voxels ** 2
        expected = 2.0 * n * (1.3 * sigma) ** 2
        se = float(np.std(m2)) / math.sqrt(m2.size)
        assert abs(float(np.mean(m2)) - expected) <= 3.0 * se

    def test_rayleigh_median(self):
        sigma = 7.0
        dims = (64, 64, 8)
        vol = np.zeros(dims + (4,))
        noisy = corrupt(vol, NoiseField(tau=np.ones(dims), sigma_g=sigma), 1, seed=10)
        med = float(np.median(noisy.voxels))
        ref = sigma * math.sqrt(2.0 * math.log(2.0))
        assert med == pytest.approx(ref, rel=0.01)

    def test_summed_transform_fits_pooled_gamma(self):
        # Sums over V volumes of t fit a gamma with shape V*N.
        sigma, n, v = 5.0, 2, 16
        dims = (40, 40, 4)
        vol = np.zeros(dims + (v,))
        noisy = corrupt(vol, NoiseField(tau=np.ones(dims), sigma_g=sigma), n, seed=11)
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
        noisy = corrupt(vol, NoiseField(tau=s[..., 0] / sigma, sigma_g=sigma), n, seed=13)
        obj = np.broadcast_to(object_mask(spec)[..., np.newaxis], vol.dims)
        x = (noisy.voxels / s)[obj] ** 2
        lam = (vol.voxels / s)[obj] ** 2
        se = float(np.std(x - lam)) / math.sqrt(x.size)
        assert abs(float(np.mean(x)) - float(np.mean(2 * n + lam))) <= 3.0 * se

    def test_seed_determinism(self):
        spec = small_spec()
        vol = build_phantom(spec)
        field = NoiseField(tau=np.ones(spec.dims), sigma_g=5.0)
        a = corrupt(vol, field, 2, seed=42)
        b = corrupt(vol, field, 2, seed=42)
        c = corrupt(vol, field, 2, seed=43)
        assert np.array_equal(a.voxels, b.voxels)
        assert not np.array_equal(a.voxels, c.voxels)

    def test_signal_voxels_noncentral(self):
        # Object voxels keep roughly their noiseless intensity at high snr.
        spec = small_spec(b0_intensity=10000.0)
        vol = build_phantom(spec)
        field = NoiseField(tau=np.ones(spec.dims), sigma_g=10.0)
        noisy = corrupt(vol, field, 4, seed=12)
        obj = object_mask(spec)
        b0 = noisy.voxels[..., 0][obj]
        assert float(np.mean(b0)) == pytest.approx(10000.0, rel=0.01)

    def test_tau_shape_mismatch(self):
        spec = small_spec()
        vol = build_phantom(spec)
        with pytest.raises(DomainError):
            corrupt(vol, NoiseField(tau=np.ones((4, 4, 4)), sigma_g=1.0), 1, seed=0)


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
        vols = list(stream)
        assert len(vols) == spec.n_volumes
        for got, want in zip(vols, noisy.stored):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert np.array_equal(got, want)

    def test_stream_equals_corrupt_of_the_phantom(self):
        spec = small_spec(profile="sphere_ramp", n_true=2.0)
        phantom = build_phantom(spec)
        sigma_g = sigma_from_snr(phantom.voxels[..., 0], spec.snr)
        field = NoiseField(tau=build_tau(spec.dims, spec.profile, spec.tau_max), sigma_g=sigma_g)
        want = corrupt(phantom, field, spec.n_true, spec.seed)
        stream, truth = simulate_stream(spec)
        assert truth["sigma_g"] == sigma_g
        assert np.array_equal(np.stack(list(stream)), want.stored)

    def test_stream_rejects_fractional_n_up_front(self):
        with pytest.raises(DomainError, match="positive integer N"):
            simulate_stream(small_spec(n_true=2.5))
