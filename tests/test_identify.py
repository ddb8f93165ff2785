"""Identification algorithm: bounds, grids, counting and slice estimation.

Monte Carlo oracles draw central chi data with known parameters; gamma
quantile references come from bisection on mpmath's regularized
incomplete gamma.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chisigma.errors import ChiSigmaError, ConfigError, DomainError, NoNoiseVoxelsError
from chisigma.identify import (
    RejectionBounds,
    SearchConfig,
    SliceEstimate,
    _best_candidate,
    _bounds_for,
    _median,
    count_in_bounds,
    estimate_slice,
    estimate_volume,
    initial_grid,
    refine_grid,
    sigma_upper_bound,
)
from chisigma.io import Volume4D
from chisigma.model import estimate_n_mle, estimate_n_moments, estimate_sigma
from chisigma.specfun import inv_gamma_p
from chisigma.synth import PhantomSpec, simulate

mp.mp.dps = 30


def gamma_quantile_oracle(a, p, lo=1e-12, hi=None):
    if hi is None:
        hi = 10.0 * a + 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(mp.gammainc(a, 0, mid, regularized=True)) <= p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chi_slice(rng, sigma, n, shape, volumes):
    g = rng.standard_normal(shape + (volumes, 2 * n))
    return sigma * np.sqrt(np.sum(g * g, axis=-1))


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.p == 0.05
        assert cfg.grid_size == 50
        assert (cfg.n_min, cfg.n_max) == (1.0, 12.0)
        assert cfg.estimator == "moments"
        assert cfg.fixed_n is None
        assert cfg.slice_axis == "z"

    def test_validation(self):
        with pytest.raises(ConfigError):
            SearchConfig(n_min=5.0, n_max=2.0)
        with pytest.raises(DomainError):
            SearchConfig(p=1.5)
        with pytest.raises(ConfigError):
            SearchConfig(grid_size=1)
        with pytest.raises(ConfigError):
            SearchConfig(estimator="median")
        with pytest.raises(ConfigError):
            SearchConfig(slice_axis="t")
        with pytest.raises(ConfigError):
            SearchConfig(fixed_n=0.0)

    def test_fixed_n_collapses_bracket(self):
        assert SearchConfig(fixed_n=1.0).effective_n_bracket() == (1.0, 1.0)
        assert SearchConfig().effective_n_bracket() == (1.0, 12.0)


class TestRejectionBounds:
    def test_orders(self):
        RejectionBounds(1.0, 2.0)
        with pytest.raises(DomainError):
            RejectionBounds(2.0, 1.0)
        with pytest.raises(DomainError):
            RejectionBounds(-1.0, 1.0)


class TestSigmaUpperBound:
    def test_all_ones_n1(self):
        data = np.ones((4, 4, 4, 2))
        ref = 1.0 / math.sqrt(2.0 * math.log(2.0))
        assert sigma_upper_bound(data, 1.0) == pytest.approx(ref, rel=1e-12)

    def test_all_ones_n12_vs_oracle(self):
        data = np.ones((3, 3, 3, 2))
        x12 = gamma_quantile_oracle(12.0, 0.5)
        assert sigma_upper_bound(data, 12.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * x12), rel=1e-10)

    def test_scales_with_data(self):
        rng = np.random.default_rng(30)
        data = rng.uniform(0.5, 2.0, (5, 5, 5, 3))
        base = sigma_upper_bound(data, 4.0)
        assert sigma_upper_bound(7.5 * data, 4.0) == pytest.approx(7.5 * base, rel=1e-12)

    def test_degenerate(self):
        from chisigma.errors import DegenerateDataError
        with pytest.raises(DegenerateDataError):
            sigma_upper_bound(np.zeros((4, 4, 4, 2)), 4.0)


class TestGrids:
    def test_initial_examples(self):
        np.testing.assert_allclose(initial_grid(10.0, 5), [2.0, 4.0, 6.0, 8.0, 10.0])
        np.testing.assert_allclose(initial_grid(1.0, 1), [1.0])

    def test_initial_structure(self):
        g = initial_grid(3.7, 50)
        assert len(g) == 50
        assert g[0] == pytest.approx(3.7 / 50.0, rel=1e-15)
        assert g[-1] == 3.7
        assert np.all(np.diff(g) > 0)

    def test_refine_examples(self):
        g = refine_grid(100.0)
        np.testing.assert_allclose(g, np.arange(95.0, 106.0), rtol=1e-12)
        assert len(g) == 11
        assert g[5] == 100.0

    def test_refine_centers_exactly(self):
        for sigma in (0.017, 1.0, 171.0, 5130.0):
            assert refine_grid(sigma)[5] == sigma

    def test_domain(self):
        with pytest.raises(DomainError):
            initial_grid(0.0, 5)
        with pytest.raises(DomainError):
            refine_grid(-1.0)


class TestCountInBounds:
    def test_all_zero_slice(self):
        bounds = RejectionBounds(0.0, 1e9)
        count, mask = count_in_bounds(np.zeros((8, 8, 5)), 1.0, bounds)
        assert count == 0
        assert not mask.any()

    def test_boundary_inclusion(self):
        # A voxel whose statistic lands exactly on a bound is kept. All
        # quantities are powers of two so s = m^2/(2 sigma^2) = 2 exactly.
        sigma = 2.0
        data = np.array([[[4.0]]])
        count, _ = count_in_bounds(data, sigma, RejectionBounds(2.0, 8.0))
        assert count == 1
        count, _ = count_in_bounds(data, sigma, RejectionBounds(0.5, 2.0))
        assert count == 1
        count, _ = count_in_bounds(data, sigma, RejectionBounds(2.5, 8.0))
        assert count == 0

    def test_calibration(self):
        # Pure gamma noise with exact quantile bounds keeps ~95%.
        rng = np.random.default_rng(31)
        sigma, n, v = 171.0, 4, 65
        data = chi_slice(rng, sigma, n, (100, 100), v)
        bounds = RejectionBounds(inv_gamma_p(v * n, 0.025), inv_gamma_p(v * n, 0.975))
        count, _ = count_in_bounds(data, sigma, bounds)
        assert count / 10000.0 == pytest.approx(0.95, abs=0.02)

    def test_rejects_flat_input(self):
        with pytest.raises(DomainError):
            count_in_bounds(np.ones(5), 1.0, RejectionBounds(0.0, 1.0))


class TestEstimateSlice:
    def test_pure_noise_recovery(self):
        rng = np.random.default_rng(32)
        sigma, n = 171.0, 4
        data = chi_slice(rng, sigma, n, (64, 64), 65)
        est = estimate_slice(data, SearchConfig())
        assert est.sigma_g == pytest.approx(sigma, rel=0.02)
        assert est.n_dof == pytest.approx(n, abs=0.25)
        assert est.n_identified == int(est.mask.sum())
        assert est.mask.shape == (64, 64)

    def test_all_object_slice_fails(self):
        # Every statistic far above the acceptance band: constant bright
        # signal with negligible spread identifies nothing.
        rng = np.random.default_rng(33)
        data = 1e4 + rng.uniform(0.0, 1.0, (16, 16, 65))
        with pytest.raises(NoNoiseVoxelsError):
            estimate_slice(data, SearchConfig(), sigma_max=1.0)

    def test_fixed_n_rician(self):
        rng = np.random.default_rng(34)
        sigma = 50.0
        data = chi_slice(rng, sigma, 1, (64, 64), 65)
        est = estimate_slice(data, SearchConfig(fixed_n=1.0))
        assert est.sigma_g == pytest.approx(sigma, rel=0.02)
        assert est.n_dof == 1.0

    def test_mle_estimator_close_to_moments(self):
        rng = np.random.default_rng(35)
        data = chi_slice(rng, 10.0, 4, (48, 48), 33)
        mom = estimate_slice(data, SearchConfig(estimator="moments"))
        mle = estimate_slice(data, SearchConfig(estimator="mle"))
        assert abs(mom.n_dof - mle.n_dof) <= 0.2
        assert mle.sigma_g == pytest.approx(mom.sigma_g, rel=0.01)

    def test_records_slice_index(self):
        rng = np.random.default_rng(36)
        data = chi_slice(rng, 1.0, 1, (24, 24), 17)
        est = estimate_slice(data, SearchConfig(), slice_index=7)
        assert est.slice_index == 7


class TestEstimateVolume:
    def test_mixed_good_and_empty_slices(self):
        rng = np.random.default_rng(37)
        vol = np.zeros((24, 24, 4, 33))
        vol[:, :, :3, :] = chi_slice(rng, 20.0, 2, (24, 24, 3), 33)
        # slice 3 stays all zero: reported as failed, not raised
        ests = estimate_volume(vol, SearchConfig())
        assert len(ests) == 4
        assert all(isinstance(e, SliceEstimate) for e in ests)
        for e in ests[:3]:
            assert e.error is None
            assert e.sigma_g == pytest.approx(20.0, rel=0.05)
        failed = ests[3]
        assert failed.error is not None
        assert failed.sigma_g == 0.0 and failed.n_dof == 0.0
        assert failed.n_identified == 0 and not failed.converged

    def test_slice_axes(self):
        rng = np.random.default_rng(38)
        vol = chi_slice(rng, 5.0, 1, (10, 12, 14), 21)
        for axis, n_slices, shape in (("x", 10, (12, 14)),
                                      ("y", 12, (10, 14)),
                                      ("z", 14, (10, 12))):
            ests = estimate_volume(vol, SearchConfig(slice_axis=axis))
            assert len(ests) == n_slices
            assert ests[0].mask.shape == shape
            assert [e.slice_index for e in ests] == list(range(n_slices))

    def test_rejects_non_4d(self):
        with pytest.raises(DomainError):
            estimate_volume(np.ones((4, 4, 4)), SearchConfig())

    def test_rejects_bad_threads(self):
        with pytest.raises(ConfigError):
            estimate_volume(np.ones((4, 4, 4, 2)), SearchConfig(), threads=0)

    def test_threads_produce_identical_results(self):
        rng = np.random.default_rng(39)
        vol = chi_slice(rng, 9.0, 2, (16, 16, 6), 33)
        base = estimate_volume(vol, SearchConfig(), threads=1)
        multi = estimate_volume(vol, SearchConfig(), threads=4)
        for a, b in zip(base, multi):
            assert a.sigma_g == b.sigma_g
            assert a.n_dof == b.n_dof
            assert np.array_equal(a.mask, b.mask)

    def test_determinism(self):
        rng = np.random.default_rng(40)
        vol = chi_slice(rng, 3.0, 4, (16, 16, 4), 17)
        a = estimate_volume(vol, SearchConfig())
        b = estimate_volume(vol, SearchConfig())
        for e1, e2 in zip(a, b):
            assert e1.sigma_g == e2.sigma_g
            assert e1.n_dof == e2.n_dof
            assert np.array_equal(e1.mask, e2.mask)

    def test_widening_bracket_never_shrinks_first_count(self):
        rng = np.random.default_rng(41)
        data = chi_slice(rng, 10.0, 4, (32, 32), 33)
        sigma = 10.0
        counts = []
        for n_min, n_max in ((2.0, 8.0), (1.5, 10.0), (1.0, 12.0)):
            bounds = _bounds_for(n_min, n_max, 33, 0.05)
            count, _ = count_in_bounds(data, sigma, bounds)
            counts.append(count)
        assert counts[0] <= counts[1] <= counts[2]


def loop_best_candidate(grid, sum_m2, nonpadding, bounds):
    # One candidate at a time, ascending, strict comparison: the smallest
    # candidate wins ties.
    best_count, best_sigma, best_mask = 0, None, None
    for cand in grid:
        s = sum_m2 / (2.0 * cand * cand)
        mask = (s >= bounds.lambda_minus) & (s <= bounds.lambda_plus) & nonpadding
        count = int(np.count_nonzero(mask))
        if count > best_count:
            best_count, best_sigma, best_mask = count, float(cand), mask
    return best_count, best_sigma, best_mask


def sample_path_slice(arr, config, sigma_max):
    # Reference search that re-gathers the identified samples on every pass
    # and fits them with the sample-array estimators.
    n_volumes = arr.shape[-1]
    sum_m2 = np.sum(arr ** 2, axis=-1)
    nonpadding = sum_m2 > 0.0
    if not np.any(nonpadding):
        raise NoNoiseVoxelsError("no nonzero voxels")
    n_low, n_high = config.effective_n_bracket()
    bounds = _bounds_for(n_low, n_high, n_volumes, config.p)
    grid = initial_grid(sigma_max, config.grid_size)
    sigma_prev = n_prev = None
    for iters in range(1, config.max_outer_iters + 1):
        count, _, mask = loop_best_candidate(grid, sum_m2, nonpadding, bounds)
        if count == 0:
            raise NoNoiseVoxelsError("no candidate identified any voxels")
        samples = arr[mask].ravel()
        sigma = estimate_sigma(samples)
        if config.fixed_n is not None:
            n_dof = config.fixed_n
        elif config.estimator == "mle":
            n_dof = estimate_n_mle(samples, sigma)
        else:
            n_dof = estimate_n_moments(samples, sigma)
        if sigma_prev is not None:
            if (abs(sigma - sigma_prev) / sigma_prev < config.rel_tol
                    and abs(n_dof - n_prev) / n_prev < config.rel_tol):
                return sigma, n_dof, mask, iters, True
        sigma_prev, n_prev = sigma, n_dof
        grid = refine_grid(sigma)
        bounds = _bounds_for(n_dof, n_dof, n_volumes, config.p)
    return sigma, n_dof, mask, iters, False


def run_recording(fn):
    # (result or exception, warning messages) of fn().
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn()
        except ChiSigmaError as exc:
            out = exc
    return out, [str(w.message) for w in caught]


class TestMomentsPathMatchesSamplePath:
    @given(seed=st.integers(0, 2**32 - 1),
           volumes=st.sampled_from([1, 2, 5, 17]),
           n_true=st.integers(1, 4),
           sigma=st.floats(0.5, 200.0),
           zero_frac=st.sampled_from([0.0, 0.02, 0.3]),
           padding=st.booleans(),
           estimator=st.sampled_from(["moments", "mle"]),
           fixed=st.booleans())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_property(self, seed, volumes, n_true, sigma, zero_frac, padding,
                      estimator, fixed):
        rng = np.random.default_rng(seed)
        arr = chi_slice(rng, sigma, n_true, (12, 10), volumes)
        # Zero-filled volumes in part of the slice, and optionally
        # all-zero padding voxels.
        arr[rng.random(arr.shape) < zero_frac] = 0.0
        if padding:
            arr[:3] = 0.0
        config = SearchConfig(estimator=estimator, fixed_n=float(n_true) if fixed else None,
                              max_outer_iters=30)
        sigma_max = 2.0 * sigma
        ref, ref_warn = run_recording(lambda: sample_path_slice(arr, config, sigma_max))
        got, got_warn = run_recording(lambda: estimate_slice(arr, config, sigma_max=sigma_max))
        assert got_warn == ref_warn
        if isinstance(ref, ChiSigmaError):
            assert type(got) is type(ref)
            return
        assert not isinstance(got, ChiSigmaError), got
        r_sigma, r_n, r_mask, r_iters, r_conv = ref
        assert np.array_equal(got.mask, r_mask)
        assert (got.outer_iters, got.converged) == (r_iters, r_conv)
        assert got.sigma_g == pytest.approx(r_sigma, rel=1e-12)
        assert got.n_dof == pytest.approx(r_n, rel=1e-12)

    def test_mle_few_zeros_warn(self):
        rng = np.random.default_rng(42)
        arr = chi_slice(rng, 10.0, 2, (24, 24), 9)
        arr[rng.random(arr.shape) < 0.01] = 0.0
        with pytest.warns(RuntimeWarning, match="zero-valued samples"):
            est = estimate_slice(arr, SearchConfig(estimator="mle"))
        assert est.sigma_g == pytest.approx(10.0, rel=0.1)

    def test_mle_many_zeros_fail_the_slice(self):
        rng = np.random.default_rng(43)
        vol = chi_slice(rng, 10.0, 2, (16, 16, 2), 9)
        vol[:, :, 1][rng.random((16, 16, 9)) < 0.3] = 0.0
        ests = estimate_volume(vol, SearchConfig(estimator="mle"))
        assert ests[0].error is None
        assert ests[1].error is not None and "too many for a log-likelihood fit" in ests[1].error

    def test_rejects_negative_and_non_finite(self):
        arr = np.ones((4, 4, 3))
        arr[0, 0, 0] = -1.0
        with pytest.raises(DomainError, match="nonnegative"):
            estimate_slice(arr, SearchConfig(), sigma_max=1.0)
        arr[0, 0, 0] = np.nan
        with pytest.raises(DomainError, match="finite"):
            estimate_slice(arr, SearchConfig(), sigma_max=1.0)


class TestMleInvariances:
    # Criterion 7 checks the moments estimator; the likelihood estimator
    # keeps the same invariances.
    def test_scaling_and_permutation(self):
        spec = PhantomSpec(dims=(32, 32, 8), n_volumes=17, n_true=4.0, seed=7100)
        noisy, _ = simulate(spec)
        config = SearchConfig(estimator="mle")
        base = estimate_volume(noisy, config)
        assert all(b.error is None for b in base)
        for c in (4.0, 0.125):
            scaled = estimate_volume(Volume4D(voxels=c * noisy.voxels), config)
            for b, s in zip(base, scaled):
                assert s.sigma_g == c * b.sigma_g and s.n_dof == b.n_dof
                assert np.array_equal(s.mask, b.mask)
        perm = np.random.default_rng(7101).permutation(noisy.voxels.shape[-1])
        permuted = estimate_volume(Volume4D(voxels=noisy.voxels[..., perm]), config)
        for b, p in zip(base, permuted):
            assert abs(p.sigma_g - b.sigma_g) <= 1e-12 * b.sigma_g
            assert abs(p.n_dof - b.n_dof) <= 1e-12 * b.n_dof
            assert np.array_equal(p.mask, b.mask)
        threaded = estimate_volume(noisy, config, threads=3)
        for b, t in zip(base, threaded):
            assert (t.sigma_g, t.n_dof) == (b.sigma_g, b.n_dof)
            assert np.array_equal(t.mask, b.mask)


def assert_median_matches(arr):
    before = arr.copy()
    got = _median(arr)
    want = float(np.median(arr))
    assert got == want or (math.isnan(got) and math.isnan(want))
    np.testing.assert_array_equal(arr, before)


class TestMedian:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 65535, 65536, 200001, 200002])
    def test_odd_and_even_sizes(self, n):
        rng = np.random.default_rng(n)
        assert_median_matches(rng.uniform(0.0, 1.0, n))

    def test_heavy_ties_and_constant(self):
        rng = np.random.default_rng(60)
        assert_median_matches(rng.integers(0, 3, 300000).astype(np.float64))
        assert_median_matches(rng.integers(0, 2, 300001).astype(np.float64))
        assert_median_matches(np.full(250000, 7.5))
        assert_median_matches(np.zeros((40, 40, 40, 3)))

    def test_non_contiguous_views(self):
        rng = np.random.default_rng(61)
        vol = rng.gamma(4.0, 1.0, (30, 40, 50, 6))
        assert_median_matches(vol[:, :, ::2, :])
        assert_median_matches(vol.transpose(3, 1, 0, 2))
        assert_median_matches(vol[..., 1])
        assert_median_matches(np.asfortranarray(vol))

    def test_misleading_sample_falls_back(self):
        # The strided sample sees only the large values.
        n = 1 << 18
        arr = np.random.default_rng(62).uniform(0.0, 1.0, n)
        arr[:: n >> 16] += 100.0
        assert_median_matches(arr)

    def test_nan_propagates(self):
        arr = np.random.default_rng(63).uniform(0.0, 1.0, 300000)
        arr[1234] = np.nan
        assert_median_matches(arr)

    def test_upper_bound_unchanged(self):
        rng = np.random.default_rng(64)
        vol = chi_slice(rng, 3.0, 4, (20, 20, 10), 33)
        ref = float(np.median(vol)) / math.sqrt(2.0 * inv_gamma_p(12.0, 0.5))
        assert sigma_upper_bound(vol, 12.0) == ref


class TestBestCandidate:
    def test_matches_loop_with_ties(self):
        # Integer sums and a fine grid make many candidates tie.
        rng = np.random.default_rng(65)
        sum_m2 = rng.integers(0, 40, (9, 7)).astype(np.float64)
        nonpadding = sum_m2 > 0.0
        bounds = RejectionBounds(0.5, 2.0)
        for grid in (np.linspace(0.5, 6.0, 200), np.full(5, 2.0), refine_grid(3.0)):
            got = _best_candidate(grid, sum_m2, nonpadding, bounds)
            want = loop_best_candidate(grid, sum_m2, nonpadding, bounds)
            assert got[:2] == want[:2]
            assert np.array_equal(got[2], want[2])

    def test_no_voxel_identified(self):
        sum_m2 = np.full((3, 3), 1e6)
        got = _best_candidate(initial_grid(1.0, 10), sum_m2, sum_m2 > 0.0,
                              RejectionBounds(0.5, 2.0))
        assert got == (0, None, None)
