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
"""

import numpy as np
import pytest

from chisigma.identify import SearchConfig, estimate_volume

SIGMA = 10.0
SHAPE = (48, 48, 8, 33)


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
    x, y = np.ogrid[:shape[0], :shape[1]]
    disc = (x - shape[0] / 2) ** 2 + (y - shape[1] / 2) ** 2 < (shape[0] / 4) ** 2
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
