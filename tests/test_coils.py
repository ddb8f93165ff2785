"""Parallel-imaging noise: correlated coils of unequal gain.

The abstract claims estimates without coil sensitivity maps. With a coil
covariance Sigma, the background m^2 of a root sum of squares is a
weighted sum of chi^2_2 variables, which the gamma law matches on two
moments with N_eff = (tr Sigma)^2 / tr(Sigma^2) and
sigma_eff^2 = tr(Sigma^2) / tr Sigma (Aja-Fernandez, Tristan-Vega and
Hoge, MRM 2011). The search should land there. The bounds below were
taken from a recorded run at this size, seeds 1, 2, 3 and 7, under both
estimators: no slice failed, the mean N error was +0.45 to +2.44% (worst
slice +3.75%), and the mean sigma error -0.24 to -0.83% (worst slice
-1.86%).

SENSE-like noise (Pruessmann et al., MRM 1999) is one channel, N = 1,
whose noise level is sigma times a smooth in-plane g-factor map; the
truth for a slice is the mean of g * sigma over its background.
"""

import numpy as np
import pytest

from chisigma.identify import SearchConfig, estimate_volume
from chisigma.synth import corrupt

SIGMA = 10.0
SHAPE = (48, 48, 8, 33)


def disc_mask(shape):
    # The (X, Y) disc of the object: radius a quarter of X, centred.
    x, y = np.ogrid[:shape[0], :shape[1]]
    return (x - shape[0] / 2) ** 2 + (y - shape[1] / 2) ** 2 < (shape[0] / 4) ** 2


def coil_phantom(shape, n_coils, rho, seed, intensity=300.0):
    """Root sum of squares of ``n_coils`` complex channels, and (N_eff, sigma_eff).

    Channel noise has covariance g_i g_j rho^|i - j| SIGMA^2 in its real and
    in its imaginary part, with gains g from 0.8 to 1.2. A disc of
    ``intensity`` times each channel's gain, in its real part, is the object.
    """
    rng = np.random.default_rng(seed)
    gains = np.linspace(0.8, 1.2, n_coils)
    i = np.arange(n_coils)
    cov = np.outer(gains, gains) * rho ** np.abs(i[:, None] - i[None, :]) * SIGMA ** 2
    chol = np.linalg.cholesky(cov)
    disc = disc_mask(shape)
    power = np.zeros(shape)
    for signal in (intensity * disc[:, :, None, None, None] * gains, 0.0):
        channels = rng.standard_normal(shape + (n_coils,)) @ chol.T + signal
        power += np.einsum("...c,...c->...", channels, channels)
    tr, tr2 = np.trace(cov), np.trace(cov @ cov)
    return np.sqrt(power), tr * tr / tr2, np.sqrt(tr2 / tr)


@pytest.fixture(scope="module", params=[(4, 0.0), (4, 0.3), (8, 0.6), (12, 0.3)],
                ids=lambda c: f"c{c[0]}_rho{c[1]}")
def coils(request):
    # Drawn once for both estimators.
    return coil_phantom(SHAPE, *request.param, seed=7)


@pytest.mark.parametrize("estimator", ["moments", "mle"])
def test_correlated_unequal_coils(coils, estimator):
    data, n_eff, sigma_eff = coils
    estimates = estimate_volume(data, SearchConfig(estimator=estimator))
    assert [e.error for e in estimates] == [None] * SHAPE[2]
    n_err = np.array([e.n_dof / n_eff - 1.0 for e in estimates]) * 100.0
    sigma_err = np.array([e.sigma_g / sigma_eff - 1.0 for e in estimates]) * 100.0
    assert abs(n_err.mean()) < 3.5 and np.abs(n_err).max() < 5.0, n_err
    assert abs(sigma_err.mean()) < 1.5 and np.abs(sigma_err).max() < 2.5, sigma_err


def g_factor_map(kind):
    # A smooth (X, Y) g-factor map on the 48x48 plane, x and y from -1 to 1.
    x = np.linspace(-1.0, 1.0, SHAPE[0])[:, None]
    y = np.linspace(-1.0, 1.0, SHAPE[1])[None, :]
    r2 = x * x + y * y
    if kind == "bump":  # 1.6 at the centre, 1 at the edges
        return 1.0 + 0.6 * np.exp(-r2 / 0.5)
    if kind == "ramp":  # 1 on the left, 1.5 on the right
        return np.broadcast_to(1.0 + 0.25 * (x + 1.0), r2.shape)
    return 1.0 + 0.8 * np.minimum(r2, 1.0)  # "edge": 1 at the centre, 1.8 from r = 1 out


# Bounds in percent on |mean sigma error|, |worst-slice sigma error| and
# |worst-slice N error|, from a recorded run at this size, seeds 1, 2, 3 and
# 7, under both estimators, where no slice failed. Per seed, the mean sigma
# error and the worst slice's sigma and N errors read:
# bump -0.36 to -0.82, -2.28, +2.34; ramp +0.33 to +1.52, +3.41, -3.56;
# edge +2.43 to +3.80, +6.16, -3.15.
SENSE_BOUNDS = {"bump": (1.5, 3.5, 4.0), "ramp": (2.5, 5.0, 5.0), "edge": (5.0, 8.0, 5.0)}


@pytest.fixture(scope="module", params=sorted(SENSE_BOUNDS))
def sense(request):
    # A disc of 300 under N = 1 noise of level SIGMA * g, seed 7, drawn once
    # for both estimators; and the truth of each slice.
    disc = disc_mask(SHAPE)
    scale = SIGMA * g_factor_map(request.param)
    noiseless = np.broadcast_to((300.0 * disc)[:, :, None, None], SHAPE)
    data = corrupt(noiseless, np.broadcast_to(scale[:, :, None], SHAPE[:3]), 1, seed=7)
    return request.param, data, float(scale[~disc].mean())


@pytest.mark.parametrize("estimator", ["moments", "mle"])
def test_sense_like_g_factor_noise(sense, estimator):
    kind, data, truth = sense
    estimates = estimate_volume(data, SearchConfig(estimator=estimator))
    assert [e.error for e in estimates] == [None] * SHAPE[2]
    sigma_err = np.array([e.sigma_g / truth - 1.0 for e in estimates]) * 100.0
    n_err = np.array([e.n_dof - 1.0 for e in estimates]) * 100.0
    mean_bound, worst_bound, n_bound = SENSE_BOUNDS[kind]
    assert abs(sigma_err.mean()) < mean_bound and np.abs(sigma_err).max() < worst_bound, sigma_err
    assert np.abs(n_err).max() < n_bound, n_err
