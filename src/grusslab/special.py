"""Scalar special functions behind the oscillation coefficients.

Sum-of-squared-weights functions for each family (phi, sigma, theta, psi,
tau, the e2-reproducing variant), Legendre polynomials, the exponentially
scaled Bessel I0 and scaled central binomials; ``second_moment`` reads the
closed-form second moments off the family records.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import (FAMILY, _binomial_weights, _check_degree, _sdelta_cell,
                        r_star)

__all__ = [
    "phi_bernstein",
    "legendre_P",
    "phi_via_legendre",
    "central_binom_scaled",
    "scaled_bessel_i0",
    "sigma_szasz",
    "theta_baskakov",
    "psi_bbh",
    "tau_hat",
    "king_sumsq",
    "second_moment",
]

#: functions may not be evaluated closer than this to the substitution pole at 1/2
LEGENDRE_EXCLUSION = 1e-3


def phi_bernstein(n: int, x: float) -> float:
    """Sum of squared Bernstein basis values at x; lies in [1/(n+1), 1]."""
    _check_degree(n)
    w = _binomial_weights(n, _check_unit(x))
    return float(np.dot(w, w))


def legendre_P(n: int, y: float) -> float:
    """Legendre polynomial by the three-term (Bonnet) recurrence."""
    if int(n) != n or n < 0:
        raise ValueError("legendre_P needs an integer order n >= 0")
    if n == 0:
        return 1.0
    p_prev, p = 1.0, float(y)
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * y * p - k * p_prev) / (k + 1)
    return p


def phi_via_legendre(n: int, x: float, delta: float = LEGENDRE_EXCLUSION) -> float:
    """phi_n through the substitution y = (1 - 2x + 2x^2)/(1 - 2x).

    Valid for x in [0, 1/2 - delta]; the substitution is singular at x = 1/2,
    so arguments inside the exclusion radius are rejected.
    """
    _check_degree(n)
    if not 0.0 <= x <= 0.5 - delta:
        raise ValueError(
            f"phi_via_legendre needs x in [0, {0.5 - delta}]; the substitution "
            "blows up at x = 1/2"
        )
    one_minus_2x = 1.0 - 2.0 * x
    y = (1.0 - 2.0 * x + 2.0 * x * x) / one_minus_2x
    # y - 1 = 2x^2/(1-2x) exactly; use it to avoid cancellation in sqrt(y^2-1)
    ym1 = 2.0 * x * x / one_minus_2x
    s = y - math.sqrt(ym1 * (y + 1.0))
    p = legendre_P(n, y)
    if not math.isfinite(p):
        raise ArithmeticError(
            f"Legendre value overflows at n={n}, y={y:.3g}; use the direct sum"
        )
    return s ** n * p


def central_binom_scaled(n: int) -> float:
    """4^-n * C(2n, n) as the product of (2i-1)/(2i); strictly decreasing."""
    _check_degree(n)
    i = np.arange(1.0, n + 1)
    return float(np.prod((2.0 * i - 1.0) / (2.0 * i)))


def scaled_bessel_i0(z: float) -> float:
    """exp(-z) I0(z) for z >= 0.

    Series with the prefactored term recurrence t_{k+1} = t_k (z/2)^2/(k+1)^2
    up to z = 30; beyond that, Gauss-Chebyshev quadrature of the integral
    representation (1/pi) int_-1^1 exp(-z(1+t))/sqrt(1-t^2) dt, which handles
    large z without overflow or cancellation.
    """
    if _check_ray(z) <= 30.0:
        term = math.exp(-z)
        acc = term
        r = 0.25 * z * z
        k = 0
        while True:
            term *= r / ((k + 1.0) * (k + 1.0))
            acc += term
            k += 1
            if term < 1e-18 * acc and k > 0.5 * z:
                return acc
    m = 64 + int(6.0 * math.sqrt(z))
    theta = (2.0 * np.arange(1, m + 1) - 1.0) * (math.pi / (2.0 * m))
    return float(np.mean(np.exp(-z * (1.0 + np.cos(theta)))))


def sigma_szasz(n: int, x: float) -> float:
    """exp(-2nx) * sum (nx)^(2k) / (k!)^2, summed from the peak term outward."""
    _check_degree(n)
    z = 2.0 * n * _check_ray(x)
    if z == 0.0:
        return 1.0
    half = 0.5 * z
    mode = max(int(half), 0)
    log_tm = -z + 2.0 * mode * math.log(half) - 2.0 * math.lgamma(mode + 1)
    tm = math.exp(log_tm)
    acc = tm
    term = tm
    k = mode
    while True:  # upward
        term *= (half / (k + 1.0)) ** 2
        acc += term
        k += 1
        if term < 1e-18 * acc:
            break
    term = tm
    k = mode
    while k > 0:  # downward
        term *= (k / half) ** 2
        acc += term
        k -= 1
        if term < 1e-18 * acc:
            break
    return acc


def _log_products(ratios: np.ndarray) -> np.ndarray:
    """log of the running products 1, r_1, r_1 r_2, ... of the ratios, as
    running sums of their logs; a prefix of a longer array of ratios gives a
    prefix of the result bit for bit."""
    return np.concatenate(([0.0], np.cumsum(np.log(ratios))))


def theta_baskakov(n: int, x):
    """Sum of the squared Baskakov (negative-binomial) masses at x, a point or
    each point of an array x: theta_n(x) = phi_{n-1}(x/(1+2x)) / (1+2x).

    theta_n(x) = sum_k C(n+k-1, k)^2 q^(2k) (1-q)^(2n), q = x/(1+x), is
    (1-q)^(2n) 2F1(n, n; 1; q^2).  Euler's transformation 2F1(a, b; c; z) =
    (1-z)^(c-a-b) 2F1(c-a, c-b; c; z) makes it (1-q)/(1+q) (1+q)^(2-2n)
    2F1(1-n, 1-n; 1; q^2), and 2F1(1-n, 1-n; 1; z) = sum_k C(n-1, k)^2 z^k.
    With t = x/(1+2x), t/(1-t) = q and 1-t = 1/(1+q), so the last two
    factors are phi_{n-1}(t), phi_m the sum of the squared Bernstein masses of
    degree m (phi_0 = 1), and (1-q)/(1+q) = 1/(1+2x): the Baskakov twin of
    psi_bbh(n, t) = phi_n(t/(1+t)).
    The n masses at t < 1/2 come from the binomial recurrence, so the value
    costs O(n) at any x; at n = 64, x = 50 it is within 2.6e-15 relative of a
    40-digit evaluation.  Scalar and array calls share one body, so each
    point gets its scalar value bit for bit.
    """
    _check_degree(n)
    xs = np.asarray(_check_ray(x), dtype=float)
    pts = xs.reshape(-1)
    s = 1.0 + 2.0 * pts
    w = _binomial_weights(n - 1, pts / s)
    out = np.sum(w * w, axis=1) / s
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def psi_bbh(n: int, t: float) -> float:
    """sum C(n,k)^2 t^(2k) / (1+t)^(2n); equals phi_n at x = t/(1+t)."""
    _check_degree(n)
    if _check_ray(t) == 0.0:
        return 1.0
    ks = np.arange(n + 1.0)
    logc = _log_products((n + 1.0 - ks[1:]) / ks[1:])    # log C(n, k)
    logs = 2.0 * logc + 2.0 * ks * math.log(t) - 2.0 * n * math.log1p(t)
    return float(np.sum(np.exp(logs)))


def tau_hat(n: int, x: float) -> float:
    """Sum of squared hat-function values; 1 at knots, minimum 1/2 at midpoints."""
    _check_degree(n)
    _check_unit(x)
    _, u = _sdelta_cell(n, x)
    return (1.0 - u) ** 2 + u ** 2


def king_sumsq(n: int, x: float) -> float:
    """Sum of squared weights of the e2-reproducing family: phi_n at r_star."""
    return phi_bernstein(n, r_star(n, x))


def second_moment(family: str, n: int, x: float) -> float:
    """Closed-form H((e1 - x)^2; x) for the families with a stated one, read
    from the family's record."""
    _check_degree(n)
    fam = FAMILY.get(family)
    if fam is None or fam.second_moment is None:
        raise ValueError(f"no closed-form second moment for family {family!r}")
    fam.check_point(family, x)
    return fam.second_moment(n, x)


def _check_unit(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError("argument must lie in [0, 1]")
    return x


def _check_ray(x):
    if not np.all(np.less_equal(0.0, x) & np.less(x, math.inf)):
        raise ValueError("argument must lie in [0, inf)")
    return x
