"""Hard inputs: artifacts and edge cases run through ``estimate_volume``.

Each case either gives estimates within criterion 2's 12% of the truth
on every slice, fails every slice with a record that names the cause,
or is marked as a known failure (``xfail``, strict, so that a fix shows
up) whose cause is recorded in CHANGES.md. The seeds are fixed and no
case is tuned until it passes.
"""

import warnings

import numpy as np
import pytest

from chisigma.errors import DegenerateDataError, DomainError
from chisigma.identify import SearchConfig, estimate_slice, estimate_volume

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


def test_noise_only_with_many_volumes():
    # Pure noise: the median voxel is noise, so only a bound taken at n_min
    # reaches sigma, and at 1200 volumes the first-pass bounds are narrow.
    rng = np.random.default_rng(7)
    noise = (SIGMA * np.sqrt(rng.chisquare(2 * N, (16, 16, 4, 1200)))).astype(np.float32)
    assert_within_tolerance(estimate_volume(noise, SearchConfig()))


@pytest.mark.parametrize("scale", [1e76, 1e78, 1e153, 1e160])
@pytest.mark.parametrize("config", [SearchConfig(), SearchConfig(estimator="mle"),
                                    SearchConfig(fixed_n=N)], ids=["moments", "mle", "fixed_n"])
def test_huge_magnitudes_name_the_overflow(scale, config):
    # Beyond about 1.2e77 a voxel's m^4, and beyond 1.3e154 its m^2, overflow
    # float64, and a slice's sum of them does so about tenfold sooner: every
    # slice fails with a record that says so, and numpy warns of nothing.
    data = scale * np.sqrt(np.random.default_rng(4).chisquare(2 * N, (16, 16, 4, 6)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimates = estimate_volume(data, config)
        with pytest.raises(DomainError, match="overflow float64"):
            estimate_slice(data[:, :, 0], config)
    assert [e.error for e in estimates] == [estimates[0].error] * 4
    assert "overflow float64" in estimates[0].error
    assert all(e.n_identified == 0 and not e.converged for e in estimates)
