"""Identification algorithm: bounds, grids, counting and slice estimation.

Monte Carlo oracles draw central chi data with known parameters; gamma
quantile references come from bisection on mpmath's regularized
incomplete gamma.
"""

import math
import re
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chisigma import identify, model
from chisigma.errors import (
    ChiSigmaError,
    ConfigError,
    DegenerateDataError,
    DomainError,
    NoNoiseVoxelsError,
)
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
from chisigma.model import n_from_log_moments, n_from_moments, sigma_from_moments
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
        with pytest.raises(ConfigError):
            SearchConfig(p=1.5)
        with pytest.raises(ConfigError):
            SearchConfig(grid_size=1)
        with pytest.raises(ConfigError):
            SearchConfig(estimator="median")
        with pytest.raises(ConfigError):
            SearchConfig(slice_axis="t")
        with pytest.raises(ConfigError):
            SearchConfig(fixed_n=0.0)

    @pytest.mark.parametrize("field", ["n_min", "n_max", "fixed_n"])
    def test_rejects_infinite_n(self, field):
        # Named up front, not left to fail in inv_gamma_p at a=inf.
        with pytest.raises(ConfigError, match=f"{field} must be positive and finite"):
            SearchConfig(**{field: math.inf})

    @pytest.mark.parametrize("field,value", [
        ("max_outer_iters", 2.5), ("max_outer_iters", math.nan),
        ("grid_size", math.nan), ("grid_size", math.inf),
    ])
    def test_rejects_non_whole_counts(self, field, value):
        # Rejected up front, not by a TypeError or ValueError mid-search.
        with pytest.raises(ConfigError, match=field):
            SearchConfig(**{field: value})

    def test_grid_size_limit(self):
        # Checked once here: a pass scores its whole grid in one call.
        assert identify.MAX_GRID_SIZE == 2**15
        assert SearchConfig(grid_size=2**15).grid_size == 2**15
        with pytest.raises(ConfigError, match=r"grid_size must be an integer from 2 to 32768, "
                                              r"got 32769"):
            SearchConfig(grid_size=2**15 + 1)
        with pytest.raises(ConfigError, match="grid_size"):
            SearchConfig(grid_size=10**7)

    def test_whole_float_counts_are_stored_as_int(self):
        cfg = SearchConfig(grid_size=20.0, max_outer_iters=3.0)
        assert type(cfg.grid_size) is int and type(cfg.max_outer_iters) is int
        data = chi_slice(np.random.default_rng(33), 2.0, 2, (16, 16), 9)
        got = estimate_slice(data, cfg)
        want = estimate_slice(data, SearchConfig(grid_size=20, max_outer_iters=3))
        assert (got.sigma_g, got.n_dof, got.outer_iters) == (
            want.sigma_g, want.n_dof, want.outer_iters)
        assert np.array_equal(got.mask, want.mask)

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
        with pytest.raises(DegenerateDataError):
            sigma_upper_bound(np.zeros((4, 4, 4, 2)), 4.0)
        with pytest.raises(DegenerateDataError, match="empty"):
            sigma_upper_bound(np.zeros((4, 0, 3)), 4.0)

    def test_nan_rejected(self):
        data = np.random.default_rng(31).uniform(0.5, 2.0, (24, 24, 12, 3))
        data[5, 7, 3, 1] = np.nan
        with pytest.raises(DomainError, match="sample values must be finite"):
            sigma_upper_bound(data, 12.0)

    @pytest.mark.parametrize("bad, message", [(-1.0, "nonnegative"), (math.inf, "finite"),
                                              (-math.inf, "finite")],
                             ids=["negative", "inf", "-inf"])
    def test_array_is_checked_as_a_volume(self, bad, message):
        # One bad value among 300000 sits far from the median, so only the
        # check finds it.
        data = np.random.default_rng(32).uniform(0.5, 2.0, 300000)
        data[1234] = bad
        with pytest.raises(DomainError, match=message):
            sigma_upper_bound(data, 12.0)


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

    @pytest.mark.parametrize("size", [math.nan, math.inf])
    def test_initial_rejects_non_whole_size(self, size):
        with pytest.raises(DomainError, match="grid size"):
            initial_grid(1.0, size)

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

    def test_matches_the_quotient_window(self):
        # Integer magnitudes put many sums on the bounds' edges, and zeros
        # make padding: the count and mask are those of the quotients.
        data = np.random.default_rng(34).integers(0, 9, (12, 10, 2)).astype(np.float64)
        s2 = np.square(data[..., 0]) + np.square(data[..., 1])
        for sigma in (1.0, 0.75, 3.1):
            for bounds in (RejectionBounds(2.5, 8.0), RejectionBounds(0.0, 4.0),
                           RejectionBounds(1.0 / 3.0, 7.1), RejectionBounds(500.0, 600.0)):
                count, mask = count_in_bounds(data, sigma, bounds)
                want = quotient_mask(s2, s2 > 0.0, sigma, bounds)
                assert count == np.count_nonzero(want) and np.array_equal(mask, want)

    def test_rejects_flat_input(self):
        with pytest.raises(DomainError):
            count_in_bounds(np.ones(5), 1.0, RejectionBounds(0.0, 1.0))

    @pytest.mark.parametrize("bad, message", [(-1.0, "nonnegative"), (math.nan, "finite"),
                                              (math.inf, "finite"), (-math.inf, "finite")],
                             ids=["negative", "nan", "inf", "-inf"])
    def test_slice_is_checked(self, bad, message):
        # Checked as estimate_slice checks its slice, not counted around.
        data = np.full((4, 4, 3), 2.0)
        data[1, 2, 0] = bad
        with pytest.raises(DomainError, match=message):
            count_in_bounds(data, 1.0, RejectionBounds(0.5, 20.0))

    def test_rejects_empty_slice(self):
        with pytest.raises(DegenerateDataError, match="empty"):
            count_in_bounds(np.zeros((4, 0, 3)), 1.0, RejectionBounds(0.5, 20.0))


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

    def test_negative_fails_the_volume(self):
        # An ndarray is checked once, as a whole: a negative value fails the
        # call, as a NaN does, rather than one slice's record.
        rng = np.random.default_rng(45)
        vol = chi_slice(rng, 10.0, 2, (24, 24, 12), 5)
        vol[3, 4, 5, 2] = -1.0
        with pytest.raises(DomainError, match="nonnegative"):
            estimate_volume(vol, SearchConfig())

    def test_checks_once(self, monkeypatch):
        # A Volume4D was checked when built; an ndarray is checked once whole.
        rng = np.random.default_rng(46)
        arr = chi_slice(rng, 10.0, 2, (16, 16, 4), 5)
        vol = Volume4D(voxels=arr)
        shapes = []
        real = model.check_magnitudes

        def spy(a):
            shapes.append(a.shape)
            real(a)

        monkeypatch.setattr(model, "check_magnitudes", spy)
        base = estimate_volume(vol, SearchConfig(), threads=2)
        assert shapes == []
        wrapped = estimate_volume(arr, SearchConfig())
        assert shapes == [(16, 16, 4, 5)]
        assert [(e.sigma_g, e.n_dof) for e in wrapped] == [(e.sigma_g, e.n_dof) for e in base]
        # estimate_slice checks its slice once, as the one-row volume that its
        # median and its moments read.
        estimate_slice(arr[:, :, 0], SearchConfig())
        assert shapes == [(16, 16, 4, 5), (1, 1, 16 * 16, 5)]

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


@pytest.fixture(scope="module")
def padded_phantom():
    # An object phantom whose first two y rows are zero-filled padding.
    noisy, _ = simulate(PhantomSpec(dims=(14, 12, 10), n_volumes=7, n_true=2, seed=5))
    arr = np.array(noisy.voxels)
    arr[:, :2] = 0.0
    return arr


class TestSearchWarnings:
    def test_dropped_zeros_warning_names_the_caller(self):
        # The search runs with numpy's overflow warnings off; the likelihood
        # fit's own warning about zero samples still points at this package's
        # call of the search, not at numpy's.
        rng = np.random.default_rng(70)
        data = 10.0 * np.sqrt(rng.chisquare(2, (32, 32, 2, 5)))
        data[3:6, 4, :, 1] = 0.0
        config = SearchConfig(estimator="mle")
        with pytest.warns(RuntimeWarning, match="dropped") as record:
            estimate_volume(data, config)
            estimate_slice(data[:, :, 0], config)
        assert {w.filename for w in record} == {identify.__file__}


class TestSliceMatchesVolume:
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("estimator", ["moments", "mle"])
    @pytest.mark.parametrize("fixed_n", [None, 2.0], ids=["free_n", "fixed_n"])
    def test_bit_for_bit(self, padded_phantom, axis, estimator, fixed_n):
        # A slice cut from the volume and searched on its own under the
        # volume's bound gives the volume's record for it, bit for bit.
        arr = padded_phantom
        config = SearchConfig(estimator=estimator, fixed_n=fixed_n, slice_axis=axis)
        vol = Volume4D(voxels=arr)
        sigma_max = sigma_upper_bound(vol, config.effective_n_bracket()[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for want in estimate_volume(vol, config):
                k = want.slice_index
                part = np.take(arr, k, axis=identify.AXIS_INDEX[axis])
                if want.error is not None:
                    with pytest.raises(ChiSigmaError, match=re.escape(want.error)):
                        estimate_slice(part, config, sigma_max=sigma_max, slice_index=k)
                    continue
                got = estimate_slice(part, config, sigma_max=sigma_max, slice_index=k)
                assert (got.sigma_g, got.n_dof, got.outer_iters, got.converged) == (
                    want.sigma_g, want.n_dof, want.outer_iters, want.converged), k
                assert np.array_equal(got.mask, want.mask), k


def quotient_mask(sum_m2, nonpadding, sigma, bounds):
    # The window on the quotients s = sum_m2 / (2 sigma^2), taken voxel by voxel.
    s = sum_m2 / (2.0 * sigma * sigma)
    return (s >= bounds.lambda_minus) & (s <= bounds.lambda_plus) & nonpadding


def loop_best_candidate(grid, sum_m2, nonpadding, bounds):
    # One candidate at a time, ascending, strict comparison: the smallest
    # candidate wins ties.
    best_count, best_sigma, best_mask = 0, None, None
    for cand in grid:
        mask = quotient_mask(sum_m2, nonpadding, cand, bounds)
        count = int(np.count_nonzero(mask))
        if count > best_count:
            best_count, best_sigma, best_mask = count, float(cand), mask
    return best_count, best_sigma, best_mask


# Reference sample-array estimators, independent of the moment pass under
# test: they square the raw samples and sum them with np.sum, the log sum
# over the positive samples only.
def ref_sigma(m):
    m2 = m * m
    return sigma_from_moments(float(np.sum(m2)), float(np.sum(m2 * m2)), m.size)


def ref_n_moments(m, sigma):
    return n_from_moments(float(np.sum(m * m)), m.size, sigma)


def ref_n_mle(m, sigma):
    pos = m[m > 0.0]
    ref = 2.0 * sigma * sigma
    return n_from_log_moments(float(np.sum(np.log(pos * pos / ref))), m.size,
                              m.size - pos.size, sigma, ref)


def sample_path_slice(arr, config, sigma_max):
    # Reference search that re-gathers the identified samples on every pass
    # and fits them with the reference estimators above. It stops at the cap,
    # on convergence, or at the first pass that repeats an earlier pass's
    # (sigma, N).
    n_volumes = arr.shape[-1]
    sum_m2 = np.sum(arr ** 2, axis=-1)
    nonpadding = sum_m2 > 0.0
    if not np.any(nonpadding):
        raise NoNoiseVoxelsError("no nonzero voxels")
    n_low, n_high = config.effective_n_bracket()
    bounds = _bounds_for(n_low, n_high, n_volumes, config.p)
    grid = initial_grid(sigma_max, config.grid_size)
    sigma_prev = n_prev = None
    seen = set()
    for iters in range(1, config.max_outer_iters + 1):
        count, _, mask = loop_best_candidate(grid, sum_m2, nonpadding, bounds)
        if count == 0:
            raise NoNoiseVoxelsError("no candidate identified any voxels")
        samples = arr[mask].ravel()
        sigma = ref_sigma(samples)
        if config.fixed_n is not None:
            n_dof = config.fixed_n
        elif config.estimator == "mle":
            n_dof = ref_n_mle(samples, sigma)
        else:
            n_dof = ref_n_moments(samples, sigma)
        if sigma_prev is not None:
            if (abs(sigma - sigma_prev) / sigma_prev < config.rel_tol
                    and abs(n_dof - n_prev) / n_prev < config.rel_tol):
                return sigma, n_dof, mask, iters, True
        if (sigma, n_dof) in seen:
            break
        seen.add((sigma, n_dof))
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
        got, got_warn = run_recording(lambda: estimate_slice(arr, config, sigma_max=sigma_max))
        if volumes == 1:
            # Refused before any search, with no warning.
            assert type(got) is DegenerateDataError and "single volume" in str(got)
            assert got_warn == []
            return
        ref, ref_warn = run_recording(lambda: sample_path_slice(arr, config, sigma_max))
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

    def test_nan_fails_the_volume_not_every_slice(self):
        # A NaN leaves no median to bound the search by; the volume call
        # raises instead of failing all slices with a misleading message.
        rng = np.random.default_rng(44)
        vol = chi_slice(rng, 10.0, 2, (24, 24, 12), 5)
        vol[3, 4, 5, 2] = np.nan
        with pytest.raises(DomainError, match="sample values must be finite"):
            estimate_volume(vol, SearchConfig())

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


def misleading_values(n, seed):
    """n values in [0, 1), plus 100 at each position the median's sample takes.

    The sample then holds only large values, so the bracket drawn from it
    lies above the median and misses it.
    """
    arr = np.random.default_rng(seed).uniform(0.0, 1.0, n)
    arr[identify._median_sample([np.arange(n)], n)] += 100.0
    return arr


def assert_median_matches(arr):
    # The median of a volume over arr's values; a 1D array is one row of voxels.
    before = arr.copy()
    vol = Volume4D(voxels=arr if arr.ndim in (3, 4) else arr.reshape(-1, 1, 1))
    assert _median(vol) == float(np.median(arr))
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

    def test_misleading_sample_falls_back(self, monkeypatch):
        arr = misleading_values(1 << 18, 62)
        passes = []
        real = Volume4D._groups
        monkeypatch.setattr(Volume4D, "_groups", lambda vol: passes.append(1) or real(vol))
        assert_median_matches(arr)
        # The sample, the bracket's pass, and the whole copied for the fallback.
        assert len(passes) == 3

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
            got = _best_candidate(grid, sum_m2, np.sort(sum_m2[nonpadding]), bounds)
            want = loop_best_candidate(grid, sum_m2, nonpadding, bounds)
            assert got[:2] == want[:2]
            assert np.array_equal(got[2], want[2])

    def test_no_voxel_identified(self):
        sum_m2 = np.full((3, 3), 1e6)
        got = _best_candidate(initial_grid(1.0, 10), sum_m2, np.sort(sum_m2, axis=None),
                              RejectionBounds(0.5, 2.0))
        assert got == (0, None, None)

    def test_large_grid_memory_is_bounded(self):
        # 20,000 candidates on a 24x24 slice. One broadcast would hold at
        # least its float64 (20000, 24, 24) statistic, 92 MB; scored on the
        # sorted sums, the search stays under a quarter of that.
        rng = np.random.default_rng(67)
        sum_m2 = np.sum(rng.rayleigh(1.0, (24, 24, 5)) ** 2, axis=-1)
        grid = initial_grid(4.0, 20_000)
        bounds = _bounds_for(1.0, 1.0, 5, 0.05)
        tracemalloc.start()
        try:
            got = _best_candidate(grid, sum_m2, np.sort(sum_m2, axis=None), bounds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.size * sum_m2.size * 8 / 4
        want = loop_best_candidate(grid[::97], sum_m2, sum_m2 > 0.0, bounds)
        assert got[0] >= want[0] > 0

    @given(seed=st.integers(0, 2**32 - 1), integer=st.booleans(),
           scale=st.sampled_from([-300, 0, 300]), padding=st.sampled_from([0.0, 0.3, 1.0]),
           lam_minus=st.floats(0.0, 8.0), width=st.floats(0.01, 20.0),
           n_grid=st.integers(1, 40), edges=st.integers(0, 12))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_property_matches_references(self, seed, integer, scale, padding, lam_minus,
                                         width, n_grid, edges):
        # Sums on lambda * 2 sigma^2 of some candidate and one ulp either
        # side, heavy ties (integer sums, with quarter-step bounds and
        # half-step candidates that put the edges on integers), zero
        # padding and a power-of-two scale that changes no quotient.
        rng = np.random.default_rng(seed)
        if integer:
            sum_m2 = rng.integers(0, 60, (9, 8)).astype(np.float64)
            grid = 0.5 * rng.integers(1, 9, n_grid)
            lam_minus = round(4.0 * lam_minus) / 4.0
            width = max(0.25, round(4.0 * width) / 4.0)
        else:
            sum_m2 = rng.uniform(0.0, 60.0, (9, 8))
            grid = rng.uniform(0.5, 4.0, n_grid)
        bounds = RejectionBounds(lam_minus, lam_minus + width)
        flat = sum_m2.reshape(-1)
        for j in range(edges):
            cand = grid[rng.integers(n_grid)]
            edge = (bounds.lambda_minus, bounds.lambda_plus)[j % 2] * (2.0 * cand * cand)
            for value in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)):
                flat[rng.integers(flat.size, size=rng.integers(1, 4))] = value
        flat[rng.random(flat.size) < padding] = 0.0
        sum_m2 *= 2.0 ** scale
        grid = grid * 2.0 ** (scale // 2)
        nonpadding = sum_m2 > 0.0
        got = _best_candidate(grid, sum_m2, np.sort(sum_m2[nonpadding]), bounds)
        for ref in (loop_best_candidate, broadcast_best_candidate):
            want = ref(grid, sum_m2, nonpadding, bounds)
            assert got[:2] == want[:2]
            assert (got[2] is None and want[2] is None) or np.array_equal(got[2], want[2])

    @given(seed=st.integers(0, 2**32 - 1), ties=st.booleans(), n_inf=st.integers(0, 3),
           zero_minus=st.booleans(), huge=st.booleans(), n_grid=st.integers(1, 40))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_property_run_ends_and_one_count_call(self, seed, ties, n_inf, zero_minus, huge,
                                                  n_grid):
        # Tied sums (integers, with zero padding), lambda- = 0, infinite sums
        # and a candidate whose 2 sigma^2 overflows, so that inf / inf is NaN.
        # The winner's mask from the ends of its run is the mask of its
        # quotients, and one count call for both bounds gives the counts of
        # s <= lambda+ and of s < lambda-.
        rng = np.random.default_rng(seed)
        if ties:
            sum_m2 = rng.integers(0, 30, (8, 9)).astype(np.float64)
        else:
            sum_m2 = rng.uniform(0.0, 60.0, (8, 9))
        sum_m2.reshape(-1)[rng.integers(sum_m2.size, size=n_inf)] = np.inf
        grid = rng.uniform(0.5, 4.0, n_grid)
        if huge:
            grid[rng.integers(n_grid)] = 1e200
        lam_minus = 0.0 if zero_minus else rng.uniform(0.0, 5.0)
        bounds = RejectionBounds(lam_minus, lam_minus + rng.uniform(0.25, 20.0))
        nonpadding = sum_m2 > 0.0
        ranked = np.sort(sum_m2[nonpadding])
        lams = np.array([[bounds.lambda_plus], [np.nextafter(bounds.lambda_minus, -np.inf)]])
        with np.errstate(over="ignore", invalid="ignore"):
            d = 2.0 * grid * grid
            tops, bottoms = identify._count_leading(ranked, d, lams)
            s = ranked / d[:, None]
            count, sigma, mask = _best_candidate(grid, sum_m2, ranked, bounds)
            want = quotient_mask(sum_m2, nonpadding, sigma, bounds) if count else None
        assert np.array_equal(tops, np.count_nonzero(s <= bounds.lambda_plus, axis=1))
        assert np.array_equal(bottoms, np.count_nonzero(s < bounds.lambda_minus, axis=1))
        assert count == int(np.max(tops - bottoms))
        if count:
            assert np.array_equal(mask, want) and np.count_nonzero(mask) == count
        else:
            assert mask is None

    def test_rounded_threshold_misses_are_settled(self):
        # A sum one ulp below the rounded lambda- * 2 sigma^2 that the
        # exact test still counts, and one at the rounded lambda+ * 2 sigma^2
        # that it rejects, each tied across many voxels: the count taken from
        # the rounded product alone is off by the size of the tie.
        rng = np.random.default_rng(69)
        cases = {"minus": None, "plus": None}
        while None in cases.values():
            cand, lam = rng.uniform(0.5, 4.0), rng.uniform(0.1, 8.0)
            d = 2.0 * cand * cand
            below = np.nextafter(lam * d, 0.0)
            if cases["minus"] is None and below / d >= lam:
                cases["minus"] = cand, RejectionBounds(lam, 3.0 * lam), below
            if cases["plus"] is None and (lam * d) / d > lam:
                cases["plus"] = cand, RejectionBounds(lam / 3.0, lam), lam * d
        for cand, bounds, tied in cases.values():
            sum_m2 = np.full((6, 5), tied)
            sum_m2[0] = rng.uniform(0.0, 2.0 * tied, 5)
            nonpadding = sum_m2 > 0.0
            ranked = np.sort(sum_m2[nonpadding])
            grid = np.array([cand])
            got = _best_candidate(grid, sum_m2, ranked, bounds)
            want = loop_best_candidate(grid, sum_m2, nonpadding, bounds)
            assert got[:2] == want[:2]
            assert np.array_equal(got[2], want[2])
            d = 2.0 * cand * cand
            rounded = (np.searchsorted(ranked, bounds.lambda_plus * d, "right")
                       - np.searchsorted(ranked, bounds.lambda_minus * d, "left"))
            assert abs(rounded - got[0]) >= 24


def broadcast_best_candidate(grid, sum_m2, nonpadding, bounds):
    # Every candidate in one broadcast along a new leading axis.
    g = grid.reshape((-1,) + (1,) * sum_m2.ndim)
    masks = quotient_mask(sum_m2, nonpadding, g, bounds)
    counts = np.count_nonzero(masks.reshape(grid.size, -1), axis=1)
    best = int(np.argmax(counts))
    if counts[best] == 0:
        return 0, None, None
    return int(counts[best]), float(grid[best]), masks[best]


def plain_passes(sums, n_volumes, config, sigma_max):
    # Reference for _search_slice: the search loop, yielding (sigma, N, mask,
    # converged) after every pass up to the cap, the converged pass or the
    # first pass that repeats an earlier pass's (sigma, N), whichever comes
    # first. Its first c passes are the whole run at a cap of c.
    nonpadding = sums[0] > 0.0
    n_low, n_high = config.effective_n_bracket()
    ref = identify._log_ref(config, sigma_max)
    bounds = _bounds_for(n_low, n_high, n_volumes, config.p)
    grid = initial_grid(sigma_max, config.grid_size)
    sigma_prev = n_prev = None
    seen = set()
    for _ in range(config.max_outer_iters):
        count, _, mask = _best_candidate(grid, sums[0], np.sort(sums[0][nonpadding]), bounds)
        k = count * n_volumes
        s2 = float(np.sum(sums[0][mask]))
        sigma = model.sigma_from_moments(s2, float(np.sum(sums[1][mask])), k)
        if config.fixed_n is not None:
            n_dof = config.fixed_n
        elif ref is not None:
            n_dof = model.n_from_log_moments(float(np.sum(sums[2][mask])), k,
                                             int(np.sum(sums[3][mask])), sigma, ref)
        else:
            n_dof = model.n_from_moments(s2, k, sigma)
        if sigma_prev is not None:
            if (abs(sigma - sigma_prev) / sigma_prev < config.rel_tol
                    and abs(n_dof - n_prev) / n_prev < config.rel_tol):
                yield sigma, n_dof, mask, True
                return
        yield sigma, n_dof, mask, False
        if (sigma, n_dof) in seen:
            return
        seen.add((sigma, n_dof))
        sigma_prev, n_prev = sigma, n_dof
        grid = refine_grid(sigma)
        bounds = _bounds_for(n_dof, n_dof, n_volumes, config.p)


@pytest.fixture(scope="module")
def cycling_phantom():
    # N = 1 on five volumes: several slices oscillate to the pass cap.
    noisy, _ = simulate(PhantomSpec(dims=(32, 32, 12), n_volumes=5, n_true=1,
                                    profile="sphere_ramp", seed=3))
    return noisy


def slice_searches(vol, config):
    # The per-slice arguments of _search_slice but the config, as
    # estimate_volume builds them.
    sums, sigma_max, bounds, _ = identify._search_setup(vol, config, None)
    for k in range(vol.dims[2]):
        part = np.ascontiguousarray(sums[:, k].transpose(0, 2, 1))
        yield part, vol.dims[3], sigma_max, bounds, k


class TestCycleSkip:
    @pytest.mark.parametrize("kwargs", [{"estimator": "moments"}, {"estimator": "mle"},
                                        {"fixed_n": 1.0}], ids=["moments", "mle", "fixed_n"])
    def test_matches_plain_loop_at_every_cap(self, cycling_phantom, kwargs):
        capped = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for part, n_vol, sigma_max, bounds, k in slice_searches(cycling_phantom,
                                                                    SearchConfig(**kwargs)):
                passes = list(plain_passes(part, n_vol, SearchConfig(max_outer_iters=40,
                                                                     **kwargs), sigma_max))
                for cap in range(1, 41):
                    config = SearchConfig(max_outer_iters=cap, **kwargs)
                    got = identify._search_slice(part, n_vol, config, sigma_max, bounds, k)
                    iters = min(cap, len(passes))
                    sigma, n_dof, mask, converged = passes[iters - 1]
                    assert (got.sigma_g, got.n_dof, got.outer_iters, got.converged) == (
                        sigma, n_dof, iters, converged), (k, cap)
                    assert np.array_equal(got.mask, mask), (k, cap)
                    assert got.n_identified == np.count_nonzero(mask)
                capped += not converged
        assert capped >= 3

    @pytest.mark.parametrize("kwargs", [{"estimator": "moments"}, {"estimator": "mle"},
                                        {"fixed_n": 1.0}], ids=["moments", "mle", "fixed_n"])
    def test_record_does_not_depend_on_the_cap(self, cycling_phantom, kwargs):
        # A slice that stops by pass 40, converged or cycling, reports the
        # same record under any larger cap.
        def records(cap):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                return estimate_volume(cycling_phantom,
                                       SearchConfig(max_outer_iters=cap, **kwargs))

        short = records(40)
        stopped = [e for e in short if e.error is None and e.outer_iters < 40]
        assert sum(not e.converged for e in stopped) >= 3
        for cap in (100, 103):
            long = records(cap)
            for e in stopped:
                got = long[e.slice_index]
                assert (got.sigma_g, got.n_dof, got.outer_iters, got.converged,
                        got.n_identified) == (e.sigma_g, e.n_dof, e.outer_iters, e.converged,
                                              e.n_identified), (e.slice_index, cap)
                assert np.array_equal(got.mask, e.mask), (e.slice_index, cap)

    def test_cycling_slice_runs_fewer_passes(self, cycling_phantom, monkeypatch):
        config = SearchConfig(fixed_n=1.0)
        passes = []
        real = identify._best_candidate

        def spy(*args):
            passes[-1] += 1
            return real(*args)

        monkeypatch.setattr(identify, "_best_candidate", spy)
        results = []
        for part, n_vol, sigma_max, bounds, k in slice_searches(cycling_phantom, config):
            passes.append(0)
            results.append(identify._search_slice(part, n_vol, config, sigma_max, bounds, k))
        capped = [(r, n) for r, n in zip(results, passes) if not r.converged]
        assert len(capped) >= 3
        for r, n in capped:
            assert n < config.max_outer_iters // 4
        for r, n in zip(results, passes):
            assert n == r.outer_iters


class TestBoundsCalls:
    @pytest.mark.parametrize("kwargs", [{"estimator": "moments"}, {"estimator": "mle"},
                                        {"fixed_n": 1.0}], ids=["moments", "mle", "fixed_n"])
    def test_each_pass_computes_its_own_bounds_once(self, cycling_phantom, monkeypatch, kwargs):
        # One quantile for sigma_max and two for the first-pass bounds, shared
        # by every slice; then two per later pass when N is estimated, and none
        # under fixed_n, whose first-pass bounds are every pass's.
        calls = []
        real = identify.inv_gamma_p

        def spy(a, p):
            calls.append((a, p))
            return real(a, p)

        monkeypatch.setattr(identify, "inv_gamma_p", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            estimates = estimate_volume(cycling_phantom, SearchConfig(**kwargs))
        assert all(e.error is None for e in estimates)
        later = 0 if "fixed_n" in kwargs else sum(e.outer_iters - 1 for e in estimates)
        assert len(calls) == 3 + 2 * later


class TestPostCapWork:
    def test_last_pass_prepares_no_next_pass(self, cycling_phantom, monkeypatch):
        # The pass a search returns builds no grid or bounds for a pass
        # that never runs.
        config = SearchConfig(max_outer_iters=1)
        part, n_vol, sigma_max, bounds, k = next(slice_searches(cycling_phantom, config))
        bounds_calls, grid_calls = [], []
        real_bounds, real_grid = identify._bounds_for, identify.refine_grid
        monkeypatch.setattr(identify, "_bounds_for",
                            lambda *a: bounds_calls.append(a) or real_bounds(*a))
        monkeypatch.setattr(identify, "refine_grid",
                            lambda s: grid_calls.append(s) or real_grid(s))
        got = identify._search_slice(part, n_vol, config, sigma_max, bounds, k)
        assert (got.outer_iters, got.converged) == (1, False)
        assert bounds_calls == [] and grid_calls == []

    def test_capped_pass_is_reported_when_next_bounds_would_fail(self, cycling_phantom,
                                                                 monkeypatch):
        # Bounds for a pass past the cap are never computed, so they cannot
        # fail the slice: it reports its last pass.
        config = SearchConfig(max_outer_iters=3)
        part, n_vol, sigma_max, bounds, k = next(slice_searches(cycling_phantom, config))
        expected = list(plain_passes(part, n_vol, config, sigma_max))
        assert len(expected) == 3 and not expected[-1][3]
        real_bounds, calls = identify._bounds_for, []

        def bounds_failing_after_cap(*args):
            calls.append(args)
            if len(calls) > 2:
                raise DomainError("no usable bounds")
            return real_bounds(*args)

        monkeypatch.setattr(identify, "_bounds_for", bounds_failing_after_cap)
        got = identify._search_slice(part, n_vol, config, sigma_max, bounds, k)
        sigma, n_dof, mask, _ = expected[-1]
        assert (got.sigma_g, got.n_dof, got.outer_iters) == (sigma, n_dof, 3)
        assert np.array_equal(got.mask, mask)


@pytest.mark.parametrize("rows", [2, 4])
def test_stacked_fit_sums_each_row_as_np_sum(rows):
    # Each pass fits from np.add.reduce over one take of every row of the
    # moments. That must give each row's np.sum of its own take bit for bit,
    # at every index-set size from 1 to 2,000, across the sizes where
    # numpy's pairwise summation changes blocks (7, 8, 9 and 127, 128, 129).
    rng = np.random.default_rng(70 + rows)
    flat = rng.standard_normal((rows, 4096)) * np.exp(rng.uniform(-30.0, 30.0, (rows, 4096)))
    for size in range(1, 2001):
        idx = np.sort(rng.choice(4096, size, replace=False))
        got = np.add.reduce(flat.take(idx, axis=1), axis=1)
        want = np.array([np.sum(row.take(idx)) for row in flat])
        assert np.array_equal(got, want), size
