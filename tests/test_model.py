"""Estimator correctness on known distributions.

Monte Carlo oracles: chi samples with given (sigma, N) are generated as
the root sum of squares of 2N independent Normal(0, sigma^2) draws, so
the estimators can be scored against the generating parameters.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chisigma.errors import DegenerateDataError, DomainError
from chisigma.model import (
    ChiParams,
    GammaParams,
    NoiseSampleSet,
    chi_pdf,
    estimate_n_mle,
    estimate_n_moments,
    estimate_sigma,
    n_from_log_moments,
    n_from_moments,
    sigma_from_moments,
    transform,
)
from chisigma.specfun import inv_digamma


def chi_draws(rng, sigma, n, size):
    # Oracle sampler: magnitude of n complex Gaussian channels.
    g = rng.standard_normal((size, 2 * n))
    return sigma * np.sqrt(np.sum(g * g, axis=1))


class TestTypes:
    def test_sample_set_validates(self):
        s = NoiseSampleSet([1.0, 2.0, 3.0])
        assert s.count == 3
        assert len(s) == 3
        with pytest.raises(DegenerateDataError):
            NoiseSampleSet([])
        with pytest.raises(DegenerateDataError):
            NoiseSampleSet([0.0, 0.0])
        with pytest.raises(DomainError):
            NoiseSampleSet([1.0, -2.0])
        with pytest.raises(DomainError):
            NoiseSampleSet([1.0, float("nan")])

    def test_gamma_params_moments(self):
        g = GammaParams(alpha=4.0, beta=2.0)
        assert g.mean == 8.0
        assert g.variance == 16.0
        with pytest.raises(DomainError):
            GammaParams(alpha=0.0, beta=1.0)
        with pytest.raises(DomainError):
            GammaParams(alpha=1.0, beta=-1.0)

    def test_chi_params_validates(self):
        ChiParams(sigma_g=1.0, n_dof=0.47)
        with pytest.raises(DomainError):
            ChiParams(sigma_g=0.0, n_dof=1.0)
        with pytest.raises(DomainError):
            ChiParams(sigma_g=1.0, n_dof=0.0)
        with pytest.raises(DomainError):
            ChiParams(sigma_g=1.0, n_dof=1.0, eta=-1.0)


class TestChiPdf:
    def test_rayleigh_value(self):
        # N=1, sigma=1 reduces to the Rayleigh density m*exp(-m^2/2).
        p = chi_pdf(1.0, ChiParams(sigma_g=1.0, n_dof=1.0))
        assert p == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_zero_magnitude(self):
        assert chi_pdf(0.0, ChiParams(sigma_g=2.0, n_dof=1.0)) == 0.0
        assert chi_pdf(0.0, ChiParams(sigma_g=3.0, n_dof=4.0)) == 0.0

    def test_half_gaussian_mass(self):
        # N = 1/2 is a half Gaussian; quadrature oracle for total mass.
        params = ChiParams(sigma_g=1.0, n_dof=0.5)
        m = np.linspace(0.0, 12.0, 20001)
        mass = np.trapezoid(chi_pdf(m, params), m)
        assert mass == pytest.approx(1.0, abs=1e-6)
        expected_at_0 = math.sqrt(2.0 / math.pi)
        assert chi_pdf(0.0, params) == pytest.approx(expected_at_0, rel=1e-12)

    def test_integrates_to_one(self):
        for n in (0.5, 1.0, 4.0, 12.0):
            for sigma in (0.5, 1.0, 171.0):
                params = ChiParams(sigma_g=sigma, n_dof=n)
                hi = sigma * (math.sqrt(2.0 * n) + 10.0)
                m = np.linspace(0.0, hi, 40001)
                mass = np.trapezoid(chi_pdf(m, params), m)
                assert mass == pytest.approx(1.0, abs=1e-6)

    def test_rejects_signal_and_negative_magnitude(self):
        with pytest.raises(DomainError):
            chi_pdf(1.0, ChiParams(sigma_g=1.0, n_dof=1.0, eta=5.0))
        with pytest.raises(DomainError):
            chi_pdf(-1.0, ChiParams(sigma_g=1.0, n_dof=1.0))


class TestTransform:
    def test_examples(self):
        assert transform([0.0, 1.0], 1.0).t_values.tolist() == [0.0, 0.5]
        assert transform([2.0], 1.0).t_values.tolist() == [2.0]
        got = transform([3.0, 4.0], math.sqrt(2.0)).t_values
        np.testing.assert_allclose(got, [2.25, 4.0], rtol=1e-15)

    def test_preserves_count(self):
        assert transform(np.ones(17), 2.0).count == 17

    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            transform([1.0], 0.0)


class TestEstimateSigma:
    def test_identical_samples_degenerate(self):
        with pytest.raises(DegenerateDataError):
            estimate_sigma(np.full(100, 3.0))

    def test_needs_two_samples(self):
        with pytest.raises(DegenerateDataError):
            estimate_sigma([1.5])

    def test_recovers_chi_sigma(self):
        rng = np.random.default_rng(10)
        m = chi_draws(rng, sigma=1.0, n=4, size=100000)
        assert estimate_sigma(m) == pytest.approx(1.0, abs=0.01)

    def test_recovers_rayleigh_sigma(self):
        rng = np.random.default_rng(11)
        m = chi_draws(rng, sigma=171.0, n=1, size=100000)
        assert estimate_sigma(m) == pytest.approx(171.0, abs=2.0)

    def test_matches_unsimplified_form(self):
        # The one-pass formula must agree with its pre-simplification
        # algebraic form sqrt((K*S4 - S2^2)/S2) / sqrt(2K).
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = chi_draws(rng, sigma=float(rng.uniform(0.1, 300.0)),
                          n=int(rng.integers(1, 13)), size=5000)
            m2 = m * m
            s2, s4 = float(np.sum(m2)), float(np.sum(m2 * m2))
            k = m.size
            ref = math.sqrt((k * s4 - s2 * s2) / s2) / math.sqrt(2.0 * k)
            assert estimate_sigma(m) == pytest.approx(ref, rel=1e-10)

    @given(st.floats(0.01, 1000.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_equivariance(self, c):
        rng = np.random.default_rng(13)
        m = chi_draws(rng, sigma=1.0, n=2, size=512)
        base = estimate_sigma(m)
        assert estimate_sigma(c * m) == pytest.approx(c * base, rel=1e-12)

    def test_accepts_sample_set(self):
        rng = np.random.default_rng(14)
        m = chi_draws(rng, sigma=2.0, n=1, size=4096)
        assert estimate_sigma(NoiseSampleSet(m)) == estimate_sigma(m)


class TestEstimateN:
    def test_moments_exact_on_constant_t(self):
        sigma = 3.0
        m = np.full(50, math.sqrt(2.0) * sigma)
        assert estimate_n_moments(m, sigma) == pytest.approx(1.0, rel=1e-14)

    def test_moments_recovers_n(self):
        rng = np.random.default_rng(15)
        m = chi_draws(rng, sigma=2.0, n=8, size=100000)
        assert estimate_n_moments(m, 2.0) == pytest.approx(8.0, abs=0.1)

    def test_moments_equals_mean_of_transform(self):
        rng = np.random.default_rng(16)
        m = chi_draws(rng, sigma=5.0, n=3, size=1000)
        t = transform(m, 5.0).t_values
        assert estimate_n_moments(m, 5.0) == pytest.approx(float(np.mean(t)), rel=1e-13)

    def test_moments_scale_equivariance(self):
        rng = np.random.default_rng(17)
        m = chi_draws(rng, sigma=1.0, n=4, size=2048)
        base = estimate_n_moments(m, 1.0)
        for c in (0.25, 4.0, 171.0):
            assert estimate_n_moments(c * m, c * 1.0) == pytest.approx(base, rel=1e-12)

    def test_mle_recovers_n(self):
        rng = np.random.default_rng(18)
        m = chi_draws(rng, sigma=1.5, n=4, size=100000)
        assert estimate_n_mle(m, 1.5) == pytest.approx(4.0, abs=0.1)

    def test_single_sample_mle(self):
        sigma = 2.0
        m = [math.sqrt(2.0) * sigma]  # t = 1, log t = 0
        assert estimate_n_mle(m, sigma) == pytest.approx(1.4616321, abs=1e-6)

    def test_estimators_agree(self):
        rng = np.random.default_rng(19)
        for n in (1, 4, 8, 12):
            m = chi_draws(rng, sigma=1.0, n=n, size=10000)
            sigma = estimate_sigma(m)
            assert abs(estimate_n_moments(m, sigma) - estimate_n_mle(m, sigma)) <= 0.2

    def test_mle_drops_few_zeros_with_warning(self):
        rng = np.random.default_rng(20)
        m = chi_draws(rng, sigma=1.0, n=2, size=1000)
        m[:5] = 0.0
        with pytest.warns(RuntimeWarning, match="5 zero-valued"):
            n = estimate_n_mle(m, 1.0)
        assert 1.0 < n < 3.0

    def test_mle_rejects_many_zeros(self):
        rng = np.random.default_rng(21)
        m = chi_draws(rng, sigma=1.0, n=2, size=1000)
        m[:200] = 0.0
        with pytest.raises(DomainError):
            estimate_n_mle(m, 1.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            estimate_n_moments([1.0, 2.0], -1.0)
        with pytest.raises(DomainError):
            estimate_n_mle([1.0, 2.0], 0.0)


class TestGammaIdentities:
    def test_mean_equals_variance(self):
        # Gamma(N, 1) has mean = variance = N.
        rng = np.random.default_rng(22)
        for n in (1.0, 4.0, 12.0):
            k = 200000
            t = rng.gamma(n, 1.0, k)
            tol = 3.0 * math.sqrt(float(np.var(t)) / k)
            assert abs(float(np.mean(t)) - n) <= tol
            # var of the sample variance ~ (mu4 - var^2)/k; bound loosely
            assert abs(float(np.var(t)) - n) <= 6.0 * math.sqrt((3.0 * n * n + 6.0 * n) / k)

    def test_sum_of_gammas(self):
        # Sums of V unit-scale gamma draws with shape N fit shape V*N.
        rng = np.random.default_rng(23)
        n, v, k = 4.0, 16, 20000
        sums = np.sum(rng.gamma(n, 1.0, (k, v)), axis=1)
        tol = 3.0 * math.sqrt(float(np.var(sums)) / k)
        assert abs(float(np.mean(sums)) - v * n) <= tol

    def test_transformed_chi_is_gamma(self):
        # t = m^2/(2 sigma^2) of chi draws has gamma moments.
        rng = np.random.default_rng(24)
        sigma, n, k = 3.0, 4, 100000
        t = transform(chi_draws(rng, sigma, n, k), sigma).t_values
        assert float(np.mean(t)) == pytest.approx(n, abs=3.0 * math.sqrt(n / k) * 1.5)
        assert float(np.var(t)) == pytest.approx(n, rel=0.05)


class TestMomentForms:
    """The formulas of sample sums that the slice search and wrappers share."""

    def test_sigma_wrapper_is_moment_form(self):
        rng = np.random.default_rng(25)
        m = chi_draws(rng, sigma=3.0, n=2, size=4000)
        m2 = m * m
        assert estimate_sigma(m) == sigma_from_moments(
            float(np.sum(m2)), float(np.sum(m2 * m2)), m.size)

    def test_sigma_degenerate_rules(self):
        with pytest.raises(DegenerateDataError, match="at least 2 samples"):
            sigma_from_moments(1.0, 1.0, 1)
        with pytest.raises(DegenerateDataError, match="all samples are zero"):
            sigma_from_moments(0.0, 0.0, 10)
        with pytest.raises(DegenerateDataError, match="degenerate"):
            sigma_from_moments(90.0, 810.0, 10)  # ten samples of m = 3

    def test_n_moments_form(self):
        rng = np.random.default_rng(26)
        m = chi_draws(rng, sigma=2.0, n=3, size=1000)
        assert estimate_n_moments(m, 2.0) == n_from_moments(float(np.sum(m * m)), m.size, 2.0)
        with pytest.raises(DomainError):
            n_from_moments(1.0, 1, 0.0)

    def test_mle_wrapper_keeps_sample_formula(self):
        rng = np.random.default_rng(27)
        m = chi_draws(rng, sigma=1.5, n=4, size=5000)
        ref = inv_digamma(float(np.mean(np.log(m * m / (2.0 * 1.5 * 1.5)))))
        assert estimate_n_mle(m, 1.5) == ref

    def test_mle_reference_level_is_roundoff_only(self):
        rng = np.random.default_rng(28)
        sigma = 7.0
        m = chi_draws(rng, sigma=sigma, n=3, size=5000)
        base = estimate_n_mle(m, sigma)
        for ref in (1.0, 2.0 * 40.0 ** 2, 1e-3):
            sum_log = float(np.sum(np.log(m * m / ref)))
            assert n_from_log_moments(sum_log, m.size, 0, sigma, ref) == pytest.approx(
                base, rel=1e-12)

    def test_mle_zero_policy(self):
        # 5 zeros in 100 samples are dropped with a warning, 11 are too many.
        sum_log = 95 * math.log(2.0)
        with pytest.warns(RuntimeWarning, match="dropped 5 zero-valued"):
            n = n_from_log_moments(sum_log, 100, 5, 1.0, 4.0)
        assert n == pytest.approx(n_from_log_moments(95 * math.log(2.0), 95, 0, 1.0, 4.0),
                                  rel=1e-15)
        with pytest.raises(DomainError, match="11 of 100 samples are zero"):
            n_from_log_moments(sum_log, 100, 11, 1.0, 4.0)
        with pytest.raises(DomainError):
            n_from_log_moments(sum_log, 100, 0, 0.0, 4.0)
