"""Validated special-function kernels.

Bessel functions of the first kind, the factorial prefactor F and the
recurrence coefficients A_j used in the Bessel-series representation of
oscillator matrix elements.  All operations are pure functions.

`bessel_j_grid` is the one Bessel kernel, for one order or an integer
array of orders that broadcasts against the arguments.  It evaluates
J_n(x) = (1/2pi) int_0^2pi cos(x sin t - n t) dt by the M-point
trapezoidal rule.  The integrand is periodic and entire, so by
Jacobi-Anger (DLMF 10.12.1) the rule returns, in exact arithmetic, the
sum of J_{n+lM}(x) over all integers l: its only error is the aliased
orders l != 0, and it converges exponentially in M (Trefethen and
Weideman, SIAM Review 56, 2014).  M is sized by DLMF 10.14.4,
|J_nu(x)| <= (x/2)^nu / nu!, so that the aliases sum to at most 4 * 2^-60.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bessel_j_grid",
    "f_factor",
    "a_coefficients",
]

# Largest Bessel order, and largest argument, supported by the quadrature
# path: the rule has more than max(x) points, so the cap bounds it too.
BESSEL_ORDER_MAX = 10**6
# log of 2^-60, the bound on each aliased |J_nu(x)|; together <= 4 * 2^-60
_ALIAS_LOG_BOUND = -60.0 * math.log(2.0)
_TWO_PI_EXT = 2 * np.arccos(np.longdouble(-1))


def _alias_order(x: float) -> int:
    """The smallest integer nu >= x with (x/2)^nu / nu! <= 2^-60.

    (x/2)^nu / nu! bounds |J_nu(x)| (DLMF 10.14.4), so every order from nu
    up is below 2^-60 at every argument in [0, x], and from nu >= x on the
    bound at least halves with each further order.
    """
    if x <= 2.0**-59:          # nu = 1 already gives x/2 <= 2^-60
        return 1
    nu = math.ceil(x)
    log_half = math.log(0.5 * x)
    while nu * log_half - math.lgamma(nu + 1) > _ALIAS_LOG_BOUND:
        nu += 1
    return nu


def bessel_j_grid(n, xs) -> np.ndarray:
    """J_n(x) for integer orders n >= 0 and arguments x >= 0.

    `n` is an integer or an integer array and broadcasts against `xs`; the
    result has the broadcast shape.  All values share one trapezoidal rule
    of M points on [0, 2pi], folded by the symmetry t -> 2pi - t onto its
    M/2 + 1 nodes in [0, pi].  M is the smallest even number with
    M - max(n) >= `_alias_order(max(x))`, so every aliased order
    |n + lM|, l != 0, is at least that order and, summed over l, the
    aliases stay below 4 * 2^-60 at every point; only rounding is left.
    J_n(0) is exact.  Orders and arguments past BESSEL_ORDER_MAX are
    refused before the rule is sized.
    """
    orders = np.asarray(n)
    if np.any(orders < 0):
        raise ValueError("order must be nonnegative")
    if np.any(orders > BESSEL_ORDER_MAX):
        raise ValueError(f"order {np.max(orders)} beyond supported range "
                         f"{BESSEL_ORDER_MAX}")
    if orders.dtype.kind not in "iu":
        raise ValueError("order must be an integer")
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs >= 0) & (xs < math.inf)):
        raise ValueError("arguments must be finite and nonnegative")
    if np.any(xs > BESSEL_ORDER_MAX):
        raise ValueError(f"argument {float(np.max(xs))!r} beyond supported "
                         f"range {BESSEL_ORDER_MAX}")
    M = (int(np.max(orders, initial=0))
         + _alias_order(float(np.max(xs, initial=0.0))))
    M += M % 2
    j = np.arange(M // 2 + 1)
    weights = np.full(j.size, 2.0 / M)
    weights[[0, -1]] = 1.0 / M
    # The phase in turns, x sin(t_j) / 2pi - (n j mod M) / M, with n t_j
    # reduced in integers and the rest formed and reduced modulo one turn in
    # extended precision, so that its rounding does not grow with x (where
    # long double is no wider than double, it grows as eps * x again).
    turns = (xs.astype(np.longdouble)[..., None]
             * (np.sin((_TWO_PI_EXT / M) * j) / _TWO_PI_EXT)
             - ((orders.astype(np.int64)[..., None] * j) % M) / np.longdouble(M))
    turns -= np.rint(turns)
    vals = np.cos((2.0 * math.pi) * turns.astype(float)) @ weights
    return np.where(xs == 0, (orders == 0).astype(float), vals)


def f_factor(k: int, k_prime: int) -> float:
    """The prefactor F_{k',k} = (k'!/k!) * (2/(k'+k+1))^(k'-k), in (0, 1].

    Assembled in log space so it never overflows for large indices.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > k_prime:
        raise ValueError("requires k <= k'")
    m = k_prime - k
    if m == 0:
        return 1.0
    log_f = sum(math.log(j) for j in range(k + 1, k_prime + 1)) if m <= 512 else (
        math.lgamma(k_prime + 1) - math.lgamma(k + 1)
    )
    log_f += m * math.log(2.0 / (k_prime + k + 1))
    return math.exp(log_f)


def a_coefficients(k: int, k_prime: int, jmax: int) -> tuple[float, ...]:
    """Coefficients A_0..A_jmax of the Bessel-series expansion for the pair
    (k, k'), by the exact recurrence A_0 = 1, A_1 = 0, A_2 = (k'-k+1)/2
    and, for j >= 2, (j+1) A_{j+1} = (j + k'-k) A_{j-1} - (k'+k+1) A_{j-2}.
    """
    if k < 0 or jmax < 0:
        raise ValueError("k and jmax must be nonnegative")
    if k > k_prime:
        raise ValueError("requires k <= k'")
    m = k_prime - k
    s = k_prime + k + 1
    a = [1.0, 0.0, 0.5 * (m + 1)]
    for j in range(2, jmax):
        a.append(((j + m) * a[j - 1] - s * a[j - 2]) / (j + 1))
    return tuple(a[: jmax + 1])
