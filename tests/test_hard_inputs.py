"""Hard inputs: artifacts and edge cases run through ``estimate_volume``.

Each case either gives estimates within criterion 2's 12% of the truth
on every slice, fails every slice with a record that names the cause,
or is marked as a known failure (``xfail``, strict, so that a fix shows
up) whose cause is recorded in CHANGES.md. The seeds are fixed and no
case is tuned until it passes.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from chisigma import identify
from chisigma.errors import DegenerateDataError
from chisigma.identify import SearchConfig, estimate_slice, estimate_volume
from chisigma.synth import PhantomSpec, simulate

SIGMA, N = 10.0, 4
TOLERANCE = 0.12


def phantom(shape, seed, intensity=200.0, ghost=0.0):
    """Chi magnitudes (N = 4, sigma = 10) around a bright disc in every z-plane.

    ``ghost`` adds a copy of the disc at that fraction of its intensity,
    shifted half the field of view along y, as an EPI Nyquist ghost is.
    """
    rng = np.random.default_rng(seed)
    x, y = np.ogrid[:shape[0], :shape[1]]
    disc = (x - shape[0] / 2) ** 2 + (y - shape[1] / 2) ** 2 < (shape[0] / 4) ** 2
    signal = intensity * (disc + ghost * np.roll(disc, shape[1] // 2, axis=1))
    nc = ((signal / SIGMA) ** 2)[:, :, None, None]
    return SIGMA * np.sqrt(rng.noncentral_chisquare(2 * N, np.broadcast_to(nc, shape)))


def assert_within_tolerance(estimates):
    for e in estimates:
        assert e.error is None, e.error
        assert abs(e.sigma_g / SIGMA - 1.0) <= TOLERANCE, (e.slice_index, e.sigma_g)
        assert abs(e.n_dof / N - 1.0) <= TOLERANCE, (e.slice_index, e.n_dof)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_zero_filled_background_rows(seed):
    # Scanner padding: whole rows of exact zeros outside the object.
    data = phantom((48, 48, 6, 9), seed)
    data[:, :8] = 0.0
    assert_within_tolerance(estimate_volume(data, SearchConfig()))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_attenuated_ghost(seed):
    # A ghost of the object at 10% of its intensity (twice sigma), half the
    # field of view away along y, where the background would be.
    assert_within_tolerance(estimate_volume(phantom((48, 48, 6, 9), seed, ghost=0.1),
                                            SearchConfig()))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_int16_rounding(seed):
    # Magnitudes stored as rounded int16, as most scanners write them.
    data = np.rint(phantom((48, 48, 6, 9), seed)).astype(np.int16)
    assert_within_tolerance(estimate_volume(data, SearchConfig()))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a baseline subtracted before the clamp shifts the noise off the "
                          "chi law: N comes out near 1.85 on every slice, with no record")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_int16_baseline_clamped_at_zero(seed):
    # A scanner baseline of 10 (one sigma) subtracted and clamped at zero.
    data = np.maximum(np.rint(phantom((48, 48, 6, 9), seed)) - 10, 0).astype(np.int16)
    assert_within_tolerance(estimate_volume(data, SearchConfig()))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_more_than_512_volumes(seed):
    assert_within_tolerance(estimate_volume(phantom((24, 24, 2, 600), seed), SearchConfig()))


@pytest.mark.parametrize("config", [SearchConfig(), SearchConfig(fixed_n=N)],
                         ids=["free_n", "fixed_n"])
def test_single_volume(config):
    # One draw per voxel cannot tell noise from faint object: every slice
    # fails with one record that says so, and estimate_slice raises it.
    data = phantom((48, 48, 6, 1), 1)
    estimates = estimate_volume(data, config)
    assert len(estimates) == 6
    assert all(e.error == estimates[0].error for e in estimates)
    assert "single volume" in estimates[0].error
    assert all(e.n_identified == 0 and not e.converged and e.sigma_g == 0.0
               for e in estimates)
    with pytest.raises(DegenerateDataError) as caught:
        estimate_slice(data[:, :, 0], config)
    assert str(caught.value) == estimates[0].error


@pytest.fixture(scope="module")
def criterion_1_at_n8():
    # The criterion-1 uniform phantom of tests/test_acceptance.py at N = 8
    # (64x64x50, 65 volumes, seed 1000 + 2), simulated once.
    spec = PhantomSpec(dims=(64, 64, 50), n_volumes=65, n_true=8.0, profile="uniform",
                       seed=1002)
    return simulate(spec)[0]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the first pass's window, taken at n_min, lets a candidate far "
                          "above sigma take the object with part of the background: 16 "
                          "(moments) and 20 (mle) of 50 slices fail")
@pytest.mark.parametrize("estimator", ["moments", "mle"])
def test_every_slice_of_the_criterion_1_phantom_estimates(criterion_1_at_n8, estimator):
    # Criterion 1 averages the slices that estimate and lists the others as
    # skipped, so it passes with these failures; here every slice counts.
    estimates = estimate_volume(criterion_1_at_n8, SearchConfig(estimator=estimator))
    assert [e.slice_index for e in estimates if e.error is not None] == []


def test_noise_only_with_many_volumes():
    # Pure noise: the median voxel is noise, so only a bound taken at n_min
    # reaches sigma, and at 1200 volumes the first-pass bounds are narrow.
    rng = np.random.default_rng(7)
    noise = (SIGMA * np.sqrt(rng.chisquare(2 * N, (16, 16, 4, 1200)))).astype(np.float32)
    assert_within_tolerance(estimate_volume(noise, SearchConfig()))


ESTIMATORS = pytest.mark.parametrize(
    "config", [SearchConfig(), SearchConfig(estimator="mle"), SearchConfig(fixed_n=N)],
    ids=["moments", "mle", "fixed_n"])


def records(estimates, scale=1.0):
    # Every field of each slice's estimate, sigma_g times ``scale``.
    return [(e.slice_index, e.sigma_g * scale, e.n_dof, e.mask.tobytes(), e.n_identified,
             e.outer_iters, e.converged, e.error) for e in estimates]


@pytest.mark.parametrize("k", [-900, -600, -300, -129, -100, 100, 129, 300, 600, 900])
@ESTIMATORS
def test_power_of_two_scaling_is_bit_exact(k, config):
    # The moment pass divides the magnitudes by a power of two near their
    # median before it squares them, so data times 2^k give the records of
    # the data with sigma_g times 2^k, bit for bit, far beyond the range
    # where m^2 or m^4 of the scaled values would leave float64, and numpy
    # warns of nothing.
    data = np.sqrt(np.random.default_rng(4).chisquare(2 * N, (16, 16, 4, 6)))
    scaled = data * 2.0 ** k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = estimate_volume(data, config) + [estimate_slice(data[:, :, 1], config)]
        got = estimate_volume(scaled, config) + [estimate_slice(scaled[:, :, 1], config)]
    assert all(e.error is None for e in want)
    assert records(got) == records(want, 2.0 ** k)


def lone_spike(scale):
    # A 64x64x5x8 phantom times ``scale`` whose plane 4 is zero, and the same
    # volume with one value 1e160 times ``scale`` in that plane. The volume
    # holds more than 2^17 values, so the median's sample is a subset, and
    # the spike sits outside it.
    shape = (64, 64, 5, 8)
    n = int(np.prod(shape))
    data = scale * phantom(shape, 1)
    data[:, :, 4] = 0.0
    # Stored order is (V, Z, Y, X): the first value of volume 3 in plane 4
    # that the sample does not take.
    sampled = set(identify._median_sample([np.arange(n)], n).tolist())
    x = next(x for x in range(shape[0]) if ((3 * 5 + 4) * 64 + 5) * 64 + x not in sampled)
    spiked = data.copy()
    spiked[x, 5, 4, 3] = 1e160 * scale
    return data, spiked


def spike_named(data, spiked, config):
    # The estimates of data and of spiked, after checking that the spike's
    # slice fails with a record that names the overflow and that the other
    # slices of data pass.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = estimate_volume(data, config)
        got = estimate_volume(spiked, config)
    assert "overflow float64" in got[4].error
    assert got[4].n_identified == 0 and not got[4].converged
    assert all(e.error is None for e in want[:4])
    return want, got


@ESTIMATORS
def test_overflow_of_a_lone_spike_is_named(config):
    # The overflow left: a slice whose only nonzero value is a spike whose
    # square overflows float64 in the moment pass's unit (1 here, the data
    # reaching about 240). The other slices keep the records of the data
    # without the spike, bit for bit.
    want, got = spike_named(*lone_spike(1.0), config)
    assert records(got[:4]) == records(want[:4])


@pytest.mark.parametrize("scale", [1e76, 1e78])
@ESTIMATORS
def test_huge_magnitudes_name_the_overflow(scale, config):
    # From about 1.2e77 a raw m^4 overflows float64, and a slice's sum of
    # it does so about tenfold sooner. Data at these scales are estimated in
    # a unit near their median, and what overflows is named by how far it
    # lies above that unit, not by its raw size: the lone spike, 1e160 times
    # the rest, fails its slice as it does at scale 1. The spike moves the
    # median one rank, and with it the likelihood's reference, which here
    # moves N by an ulp; the rest of each record keeps its bits.
    want, got = spike_named(*lone_spike(scale), config)
    for w, g in zip(want[:4], got[:4]):
        assert abs(g.sigma_g / scale / SIGMA - 1.0) <= TOLERANCE, (g.slice_index, g.sigma_g)
        assert g.n_dof == pytest.approx(w.n_dof, rel=1e-14)
    same_n = [replace(g, n_dof=w.n_dof) for w, g in zip(want[:4], got[:4])]
    assert records(same_n) == records(want[:4])


def test_spike_in_the_sample_leaves_the_other_slices_alone():
    # Up to 2^17 values the median's sample is every value, spike and all.
    # The unit comes from the sample's middle value, not its largest, so the
    # spike (1e100, whose m^2 and m^4 overflow) pushes no other value into
    # subnormals: its own slice still passes, without that voxel, and the
    # other slices keep their records bit for bit.
    data = phantom((48, 48, 6, 9), 1)
    spiked = data.copy()
    spiked[3, 3, 2, 4] = 1e100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = estimate_volume(data, SearchConfig())
        got = estimate_volume(spiked, SearchConfig())
    assert_within_tolerance(got)
    assert records(got[:2] + got[3:]) == records(want[:2] + want[3:])
    assert not got[2].mask[3, 3]
