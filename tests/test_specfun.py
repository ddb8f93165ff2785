"""Special-function accuracy against independent high-precision oracles.

mpmath (30 significant digits) provides reference values; bisection on
the oracle provides independent inverses. Error is measured as
|got - ref| / max(1, |ref|), which is the relative error away from the
functions' zero crossings and the absolute error next to them.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chisigma import specfun
from chisigma.errors import ChiSigmaError, ConvergenceError, DomainError
from chisigma.specfun import (
    EULER_GAMMA,
    check_prob_level,
    digamma,
    gamma_p,
    inv_digamma,
    inv_gamma_p,
    ln_gamma,
    trigamma,
)

mp.mp.dps = 30


def mixed_err(got, ref):
    return abs(got - ref) / max(1.0, abs(ref))


def bisect_root(f, lo, hi, iters=200):
    # Oracle-side root finder: f(lo) <= 0 < f(hi), plain bisection.
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log_grid(lo, hi, n, seed):
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


class TestLnGamma:
    def test_known_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_oracle_grid(self):
        xs = log_grid(1e-3, 1e6, 1000, seed=1)
        worst = max(mixed_err(ln_gamma(x), float(mp.loggamma(x))) for x in xs)
        assert worst <= 1e-12

    def test_domain(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(DomainError):
                ln_gamma(bad)

    def test_overflow_is_inf(self):
        # Past x = 2.56e305 ln Gamma(x) exceeds the float range.
        assert ln_gamma(1e305) == pytest.approx(float(mp.loggamma(1e305)), rel=1e-14)
        assert ln_gamma(1e306) == ln_gamma(math.inf) == math.inf


class TestDigamma:
    def test_known_values(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-13)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-13)

    def test_at_10_5_against_independent_series(self):
        # Independent oracle: shift x up by the recurrence, then a long
        # asymptotic expansion evaluated in extended precision.
        ref = float(mp.digamma(mp.mpf("10.5")))
        assert mixed_err(digamma(10.5), ref) <= 1e-13

    def test_oracle_grid(self):
        xs = log_grid(1e-3, 1e6, 1000, seed=2)
        worst = max(mixed_err(digamma(x), float(mp.digamma(x))) for x in xs)
        assert worst <= 1e-10

    def test_recurrence(self):
        xs = log_grid(0.01, 1e4, 300, seed=3)
        for x in xs:
            assert mixed_err(digamma(x + 1.0) - digamma(x), 1.0 / x) <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-3.0)


class TestTrigamma:
    def test_known_values(self):
        assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-12)
        assert trigamma(2.0) == pytest.approx(math.pi ** 2 / 6.0 - 1.0, rel=1e-12)

    def test_oracle_grid(self):
        xs = log_grid(1e-3, 1e6, 1000, seed=4)
        worst = max(mixed_err(trigamma(x), float(mp.polygamma(1, x))) for x in xs)
        assert worst <= 1e-8

    def test_matches_finite_difference_of_digamma(self):
        h = 1e-5
        for x in (0.5, 0.73, 1.0, 7.3, 20.0, 100.0):
            fd = (digamma(x + h) - digamma(x - h)) / (2.0 * h)
            assert abs(trigamma(x) - fd) <= 1e-5

    def test_positive(self):
        for x in log_grid(1e-3, 1e5, 100, seed=5):
            assert trigamma(x) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            trigamma(-1.0)


class TestGammaP:
    def test_exponential_special_case(self):
        for x in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert gamma_p(1.0, x) == pytest.approx(1.0 - math.exp(-x), abs=1e-14)

    def test_zero(self):
        assert gamma_p(3.7, 0.0) == 0.0

    def test_erlang_closed_form(self):
        # For integer shape, P(a, x) = 1 - e^-x * sum_{k<a} x^k/k!.
        ref = 1.0 - math.exp(-4.0) * (1.0 + 4.0 + 8.0 + 32.0 / 3.0)
        assert gamma_p(4.0, 4.0) == pytest.approx(ref, abs=1e-14)

    def test_oracle_grid(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1000):
            a = float(np.exp(rng.uniform(math.log(0.3), math.log(2000.0))))
            x = a * float(rng.uniform(0.0, 3.0))
            ref = float(mp.gammainc(a, 0, x, regularized=True))
            worst = max(worst, abs(gamma_p(a, x) - ref))
        assert worst <= 1e-12

    @given(st.floats(0.1, 50.0), st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_x(self, a, x1, x2):
        lo, hi = sorted((x1, x2))
        assert gamma_p(a, lo) <= gamma_p(a, hi)

    def test_range(self):
        for a in (0.5, 3.0, 100.0):
            for x in (0.0, 0.5 * a, a, 5.0 * a):
                assert 0.0 <= gamma_p(a, x) <= 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_p(0.0, 1.0)
        with pytest.raises(DomainError):
            gamma_p(1.0, -0.1)


class TestInvGammaP:
    def test_exponential_median(self):
        assert inv_gamma_p(1.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_shape_12_median_against_bisection_oracle(self):
        ref = bisect_root(lambda x: float(mp.gammainc(12, 0, x, regularized=True)) - 0.5,
                          1.0, 30.0)
        assert inv_gamma_p(12.0, 0.5) == pytest.approx(ref, rel=1e-12)

    def test_roundtrip_grid(self):
        worst = 0.0
        for a in (0.5, 1.0, 2.0, 5.0, 12.0, 65.0, 130.0, 780.0, 996.0):
            for p in (1e-8, 1e-4, 0.025, 0.05, 0.5, 0.95, 0.975, 1.0 - 1e-4, 1.0 - 1e-8):
                x = inv_gamma_p(a, p)
                worst = max(worst, abs(gamma_p(a, x) - p))
        assert worst <= 1e-10

    def test_strictly_increasing_in_p(self):
        for a in (0.7, 4.0, 65.0):
            ps = np.linspace(0.01, 0.99, 25)
            xs = [inv_gamma_p(a, p) for p in ps]
            assert all(x1 < x2 for x1, x2 in zip(xs, xs[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            inv_gamma_p(-1.0, 0.5)
        for bad_p in (0.0, 1.0, -0.2, 1.5, float("nan")):
            with pytest.raises(DomainError):
                inv_gamma_p(2.0, bad_p)

    def test_evaluates_gamma_p_once_per_point(self, monkeypatch):
        # The starting point's value serves both the bracket and the first
        # Newton step.
        points = []

        def spy(a, x):
            points.append(x)
            return gamma_p(a, x)

        monkeypatch.setattr(specfun, "gamma_p", spy)
        for a in (0.3, 1.0, 5.0, 60.0, 780.0):
            for p in (1e-6, 0.025, 0.5, 0.975):
                points.clear()
                x = inv_gamma_p(a, p)
                assert len(points) == len(set(points)), (a, p, points)
                assert abs(gamma_p(a, x) - p) <= 1e-10

    @pytest.mark.parametrize("a", [1e16, 1.7e17, 1e20, 1e300])
    def test_huge_shape_is_a_typed_error(self, a):
        # x + 1 == x at this size, so the continued fraction starts at b = 0;
        # and at a = 1.7e17, p = 0.975 the roundoff of the density's exponent
        # passed exp's range in a Newton step.
        for p in (0.025, 0.5, 0.975):
            with pytest.raises(ChiSigmaError):
                inv_gamma_p(a, p)


class TestInvDigamma:
    def test_roundtrips(self):
        assert inv_digamma(digamma(5.0)) == pytest.approx(5.0, abs=1e-8)
        # psi(0.25) is about -4.23, exercising the small-x start branch.
        assert inv_digamma(digamma(0.25)) == pytest.approx(0.25, abs=1e-8)

    def test_positive_root_of_digamma(self):
        ref = bisect_root(lambda x: float(mp.digamma(x)), 1.0, 2.0)
        assert inv_digamma(0.0) == pytest.approx(ref, rel=1e-10)
        assert ref == pytest.approx(1.4616321, abs=1e-6)

    def test_roundtrip_in_y(self):
        for y in np.linspace(-20.0, 20.0, 81):
            x = inv_digamma(float(y))
            assert x > 0.0
            assert abs(digamma(x) - y) <= 1e-10

    def test_domain(self):
        for bad in (float("nan"), float("inf"), -float("inf"), 1e30):
            with pytest.raises((DomainError, ConvergenceError)):
                inv_digamma(bad)


class TestProbLevel:
    def test_accepts_interior(self):
        assert check_prob_level(0.05) == 0.05

    def test_rejects_boundary_and_outside(self):
        for bad in (0.0, 1.0, -0.1, 2.0, float("nan")):
            with pytest.raises(DomainError):
                check_prob_level(bad)
