"""Scalar special functions backing the noise estimators.

The gamma-family functions the estimation pipeline needs, in double
precision: log-gamma, digamma, trigamma, the regularized lower
incomplete gamma function P(a, x), its inverse in the second argument,
and the inverse of the digamma function. Log-gamma is ``math.lgamma``
and the inverse's Wilson-Hilferty seed takes its normal quantile from
``statistics.NormalDist``; the standard library has no equivalent of
the others, which are implemented here.

All functions are pure, deterministic and hold no global state, so they
are safe to call from any number of threads.
"""

import math
from statistics import NormalDist

from .errors import ConvergenceError, DomainError

__all__ = [
    "EULER_GAMMA",
    "ln_gamma",
    "digamma",
    "trigamma",
    "gamma_p",
    "inv_gamma_p",
    "inv_digamma",
    "check_prob_level",
]

EULER_GAMMA = 0.5772156649015328606

_MAX_NEWTON_ITERS = 100


def check_prob_level(p: float) -> float:
    """Validate that ``p`` is a usable probability level, strictly in (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0 or math.isnan(p):
        raise DomainError(f"probability level must lie strictly in (0, 1), got {p}")
    return p


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:  # ln Gamma(x) exceeds the float range past x = 2.56e305
        return math.inf


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function for x > 0."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    value = 0.0
    # Shift into the asymptotic range with psi(x) = psi(x + 1) - 1/x.
    while x < 10.0:
        value -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    # Asymptotic series in 1/x^2 with Bernoulli-number coefficients;
    # truncation error is far below 1e-15 once x >= 10.
    series = inv2 * (
        1.0 / 12.0
        - inv2 * (
            1.0 / 120.0
            - inv2 * (
                1.0 / 252.0
                - inv2 * (
                    1.0 / 240.0
                    - inv2 * (
                        1.0 / 132.0
                        - inv2 * (691.0 / 32760.0 - inv2 * (1.0 / 12.0))
                    )
                )
            )
        )
    )
    return value + math.log(x) - 0.5 / x - series


def trigamma(x: float) -> float:
    """First derivative of the digamma function for x > 0."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"trigamma requires x > 0, got {x}")
    value = 0.0
    while x < 10.0:
        value += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = inv * (
        1.0
        + inv * (
            0.5
            + inv * (
                1.0 / 6.0
                - inv2 * (
                    1.0 / 30.0
                    - inv2 * (
                        1.0 / 42.0
                        - inv2 * (
                            1.0 / 30.0
                            - inv2 * (
                                5.0 / 66.0
                                - inv2 * (691.0 / 2730.0 - inv2 * (7.0 / 6.0))
                            )
                        )
                    )
                )
            )
        )
    )
    return value + series


def _stirling_correction(a: float) -> float:
    """Series term delta(a) in ln Gamma(a + 1) = ln sqrt(2 pi a) + a ln a - a + delta(a)."""
    inv = 1.0 / a
    inv2 = inv * inv
    return inv * (
        1.0 / 12.0
        - inv2 * (
            1.0 / 360.0
            - inv2 * (1.0 / 1260.0 - inv2 * (1.0 / 1680.0 - inv2 / 1188.0))
        )
    )


def _ln_regularized_prefix(a: float, x: float) -> float:
    """ln( x^a e^-x / Gamma(a + 1) ), stable against cancellation for large a."""
    if a < 30.0:
        return a * math.log(x) - x - ln_gamma(a + 1.0)
    # Rewrite around the Stirling form so the large, nearly cancelling
    # terms a*ln(x), x and ln Gamma(a + 1) never meet head on.
    u = x / a
    d = u - 1.0
    if abs(d) < 0.5:
        phi = d - math.log1p(d)
    elif u > 0.0:
        phi = u - 1.0 - math.log(u)
    else:
        # x so small that x / a underflows; the prefix itself underflows.
        phi = math.inf
    return -0.5 * math.log(2.0 * math.pi * a) - _stirling_correction(a) - a * phi


def _gamma_p_series(a: float, x: float) -> float:
    # Power series for P(a, x), effective when x < a + 1.
    term = 1.0
    total = 1.0
    n = 0
    while True:
        n += 1
        term *= x / (a + n)
        total += term
        if term < total * 1e-17:
            break
        if n > 100000:
            raise ConvergenceError(
                f"incomplete gamma series failed to converge for a={a}, x={x}"
            )
    return math.exp(_ln_regularized_prefix(a, x)) * total


def _gamma_q_cont_fraction(a: float, x: float) -> float:
    # Modified Lentz evaluation of the continued fraction for Q(a, x),
    # effective when x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    # x + 1 == x for huge x, so b can start at zero.
    d = 1.0 / (b if abs(b) >= tiny else tiny)
    h = d
    for i in range(1, 100000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            # Q normalizes with Gamma(a); the prefix uses Gamma(a + 1) = a Gamma(a).
            return math.exp(_ln_regularized_prefix(a, x)) * a * h
    raise ConvergenceError(
        f"incomplete gamma continued fraction failed to converge for a={a}, x={x}"
    )


def gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x) for a > 0, x >= 0."""
    a = float(a)
    x = float(x)
    if not a > 0.0:
        raise DomainError(f"gamma_p requires a > 0, got a={a}")
    if not x >= 0.0:
        raise DomainError(f"gamma_p requires x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        p = _gamma_p_series(a, x)
    else:
        p = 1.0 - _gamma_q_cont_fraction(a, x)
    # Clamp roundoff spill outside [0, 1].
    return min(max(p, 0.0), 1.0)


def inv_gamma_p(a: float, p: float) -> float:
    """Inverse of ``gamma_p`` in its second argument: x with P(a, x) = p.

    Newton iteration in probability space, seeded by the Wilson-Hilferty
    normal approximation and safeguarded by bisection on a maintained
    bracket. Raises :class:`ConvergenceError` after 100 iterations.
    """
    a = float(a)
    if not a > 0.0:
        raise DomainError(f"inv_gamma_p requires a > 0, got a={a}")
    p = check_prob_level(p)

    # Wilson-Hilferty initial guess; falls back to the small-x power law
    # P(a, x) ~ x^a / Gamma(a + 1) when the cube comes out nonpositive.
    z = NormalDist().inv_cdf(p)
    wh = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))
    if wh > 0.0:
        x = a * wh ** 3
    else:
        x = math.exp((math.log(p) + ln_gamma(a + 1.0)) / a)
    x = max(x, 1e-300)

    lo, f_lo = 0.0, -p  # P(a, 0) - p
    hi = None
    f = gamma_p(a, x) - p
    if f >= 0.0:
        hi = x
    else:
        lo, f_lo = x, f
        hi = max(x, 1.0)
        for _ in range(300):
            hi *= 2.0
            if gamma_p(a, hi) >= p:
                break
        else:
            raise ConvergenceError(f"could not bracket inv_gamma_p(a={a}, p={p})")

    # f already holds P(a, x) - p at the starting x.
    for i in range(_MAX_NEWTON_ITERS):
        if i:
            f = gamma_p(a, x) - p
        if abs(f) <= 1e-12:
            return x
        if f > 0.0:
            hi = x
        else:
            lo = x
        # d/dx P(a, x) = x^(a-1) e^-x / Gamma(a), with x > lo >= 0. Beyond about
        # a = 1e16 roundoff alone can take its exponent past exp's range: bisect.
        log_deriv = (a - 1.0) * math.log(x) - x - ln_gamma(a)
        deriv = math.exp(log_deriv) if log_deriv < 709.0 else 0.0
        if deriv > 0.0:
            x_new = x - f / deriv
        else:
            x_new = lo + 0.5 * (hi - lo)
        if not lo < x_new < hi:
            x_new = lo + 0.5 * (hi - lo)
        if x_new == x or hi - lo <= 4.0 * math.ulp(x):
            # Bracket has collapsed to machine resolution.
            if abs(f) <= 1e-10:
                return x
            raise ConvergenceError(
                f"inv_gamma_p stalled at machine resolution for a={a}, p={p}"
            )
        x = x_new
    raise ConvergenceError(
        f"inv_gamma_p did not converge within {_MAX_NEWTON_ITERS} iterations "
        f"for a={a}, p={p}"
    )


def inv_digamma(y: float) -> float:
    """Inverse of the digamma function: the x > 0 with psi(x) = y.

    Starts from exp(y) + 1/2 for y >= -2.22 and -1 / (y + psi(1)) below,
    then applies Newton steps x <- x - (psi(x) - y) / psi'(x). Raises
    :class:`ConvergenceError` after 100 iterations.
    """
    y = float(y)
    if not math.isfinite(y):
        raise DomainError(f"inv_digamma requires finite y, got {y}")
    if y > 709.0:
        raise DomainError(f"inv_digamma result would overflow for y={y}")

    if y >= -2.22:
        x = math.exp(y) + 0.5
    else:
        x = -1.0 / (y + digamma(1.0))

    for _ in range(_MAX_NEWTON_ITERS):
        f = digamma(x) - y
        if abs(f) <= 1e-12:
            return x
        x_new = x - f / trigamma(x)
        if x_new <= 0.0:
            # The digamma function is concave, so overshoots can only land
            # on the left; halving keeps the iterate in the domain.
            x_new = 0.5 * x
        if x_new == x:
            if abs(f) <= 1e-10:
                return x
            raise ConvergenceError(f"inv_digamma stalled for y={y}")
        x = x_new
    raise ConvergenceError(
        f"inv_digamma did not converge within {_MAX_NEWTON_ITERS} iterations for y={y}"
    )
