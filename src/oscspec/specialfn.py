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
Weideman, SIAM Review 56, 2014).  M is sized by the smaller of two
rigorous bounds on |J_nu(x)|, DLMF 10.14.4 and Kapteyn's inequality
DLMF 10.14.5, so that the aliases sum to at most 4 * 2^-60.

The rule is folded twice, by t -> 2pi - t and by t -> pi - t, onto the
M/4 + 1 nodes of a quarter period.  There the cosine splits into a
product form: cos(x sin t) cos(n t) for even n and sin(x sin t) sin(n t)
for odd n.  So the argument's trigonometry runs once per (argument,
node), the order's once per (order, node), and a matrix product combines
them.  The phase x sin(t) / 2pi is formed in double without rounding that
grows with x: the node table is built in extended precision and split by
Dekker's method (Numer. Math. 18, 1971), so that the leading product is
exact and is reduced modulo one turn exactly.
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
# Bytes one call may plan, sized for a 7 GB host with room left for the
# interpreter and another process.  Each dense entry point (here and in
# matelem, spectral and resolvent) plans its own measured peak bytes.
DENSE_BYTE_BUDGET = 4 * 2**30
# Planned bytes of the rule per node, for each argument and each order
# (measured peak: 3 doubles for one parity, 5 for mixed parities), and
# per element of the result (the product and the J_n(0) fix-up).
_RULE_BYTES_PER_NODE = 48
_RULE_BYTES_PER_VALUE = 32
# log of 2^-60, the bound on each aliased |J_nu(x)|; together <= 4 * 2^-60
_ALIAS_LOG_BOUND = -60.0 * math.log(2.0)
_TWO_PI_EXT = 2 * np.arccos(np.longdouble(-1))
# Dekker's splitting factor 2^27 + 1: hi keeps at most 26 significant bits
_SPLITTER = 2.0**27 + 1.0


def _check_byte_budget(planned: int, what: str) -> None:
    """Refuse, before anything is allocated, a call that plans more than
    DENSE_BYTE_BUDGET bytes; `what` names the size that plans them."""
    if planned > DENSE_BYTE_BUDGET:
        tenths = (10 * planned + 2**29) >> 30   # in integers: any size formats
        raise ValueError(
            f"{what} plans {tenths // 10}.{tenths % 10} GiB of dense "
            f"arrays, over the {DENSE_BYTE_BUDGET >> 30} GiB budget"
        )


def _alias_order(x: float) -> int:
    """The smallest integer nu >= x at which |J_nu| <= 2^-60 on [0, x] by
    DLMF 10.14.4, (x/2)^nu / nu!, or by Kapteyn's inequality DLMF 10.14.5,
    (z e^s / (1 + s))^nu with z = x/nu <= 1 and s = sqrt(1 - z^2).

    Both bounds grow with x, so they hold on all of [0, x]; and both fall
    with nu from nu >= x on, so nu is the smaller of the two smallest
    orders.  The aliases of `bessel_j_grid` are the orders n + lM and
    lM - n, l >= 1: two sequences, each starting at nu or above and
    spaced M >= nu apart.  If 10.14.4 holds at nu, the bound at least
    halves with each further order, since (x/2)/(nu+1) <= 1/2, so each
    sequence sums to at most 2 * 2^-60.  If Kapteyn's holds, write its log
    as nu h(x/nu), h(z) = ln z + s - ln(1 + s); then h' = s/z > 0 and
    d(nu h(x/nu))/dnu = ln(z/(1+s)) < 0.  The l-th term of a sequence is
    at order >= l nu, where the bound is at most exp(l nu h(x/(l nu))) <=
    exp(l nu h(x/nu)) <= 2^-60l, so each sequence sums to at most
    2^-60 / (1 - 2^-60).  Either way the aliases sum to at most 4 * 2^-60.
    Near nu = x Kapteyn's bound falls slowly from one order to the next,
    which is why the spacing M, not halving per order, carries it.
    """
    if x <= 2.0**-59:          # nu = 1 already gives x/2 <= 2^-60
        return 1
    nu = math.ceil(x)
    log_half = math.log(0.5 * x)
    log_x = math.log(x)
    while True:
        if nu * log_half - math.lgamma(nu + 1) <= _ALIAS_LOG_BOUND:
            return nu
        if nu > x:
            s = math.sqrt((nu - x) * (nu + x)) / nu
            if nu * (log_x - math.log(nu) + s - math.log1p(s)) \
                    <= _ALIAS_LOG_BOUND:
                return nu
        nu += 1


def _split(a):
    """Dekker's split a = hi + lo, hi with at most 26 significant bits, so
    that the product of two such hi is exact in double."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def bessel_j_grid(n, xs) -> np.ndarray:
    """J_n(x) for integer orders n >= 0 and arguments x >= 0.

    `n` is an integer or an integer array and broadcasts against `xs`; the
    result has the broadcast shape.  All values share one trapezoidal rule
    of M points on [0, 2pi].  M is the smallest multiple of 4 with
    M - max(n) >= `_alias_order(max(x))`, so every aliased order
    |n + lM|, l != 0, is at least that order and, summed over l, the
    aliases stay below 4 * 2^-60 at every point; only rounding is left.

    Folded by t -> 2pi - t and t -> pi - t onto the nodes t_j = 2pi j/M,
    j = 0..K = M/4, with weights 2/M at j = 0 and j = K and 4/M between,
    and with r_j = x s_j mod 1, s_j = sin(t_j)/2pi, q_j = (n j mod M)/M:

        J_n(x) = sum_j w_j cos(2pi r_j) cos(2pi q_j)   (n even)
        J_n(x) = sum_j w_j sin(2pi r_j) sin(2pi q_j)   (n odd)

    cos(2pi r_j) is formed only when some order is even, sin(2pi r_j) only
    when some order is odd.  The phase r_j is exact up to rounding that
    does not grow with x: s_j is built in extended precision and split
    into hi (26 bits) + mid, x into xh + xl, so xh hi is exact and is
    reduced modulo 1 exactly before xl hi + x mid is added.  (Where long
    double is no wider than double, s_j itself carries a rounding, and
    the phase error grows as eps * x again.)  J_n(0) is exact.  Orders
    and arguments past BESSEL_ORDER_MAX, and rules whose arrays would
    exceed DENSE_BYTE_BUDGET, are refused before anything is allocated.
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
    M += -M % 4
    K = M // 4
    size = orders.size + xs.size
    _check_byte_budget(
        _RULE_BYTES_PER_NODE * (K + 1) * size
        + _RULE_BYTES_PER_VALUE * math.prod(np.broadcast_shapes(orders.shape,
                                                                xs.shape)),
        f"a Bessel rule of {K + 1} nodes for {size} orders and arguments")
    j = np.arange(K + 1)
    weights = np.full(K + 1, 4.0 / M)
    weights[[0, -1]] = 2.0 / M
    # s_j = sin(t_j)/2pi = hi + mid to about 2^-79 s_j; only this table
    # of K + 1 entries is formed in extended precision
    s_ext = np.sin((_TWO_PI_EXT / M) * j) / _TWO_PI_EXT
    hi = _split(s_ext.astype(float))[0]
    mid = (s_ext - hi).astype(float)
    # x s_j in turns: xh hi is exact and is reduced modulo 1 exactly, and
    # the small rest xl hi + x mid adds a rounding independent of x
    xh, xl = _split(xs)
    turns = xh[..., None] * hi
    turns -= np.rint(turns)
    turns += xl[..., None] * hi
    turns += xs[..., None] * mid
    turns *= 2.0 * math.pi
    # n t_j modulo 2pi, reduced in integers to [-pi, pi)
    nt = ((orders.astype(np.int64)[..., None] * j + M // 2) % M - M // 2) \
        * (2.0 * math.pi / M)
    # cos pairs with the even orders and sin with the odd; each is formed
    # only if some order needs it (cos for an empty order array)
    odd = orders % 2 == 1
    kinds = [(np.cos, ~odd), (np.sin, odd)]
    kinds = [kind for kind in kinds if kind[1].any()] or kinds[:1]
    by_arg = np.concatenate([f(turns) for f, _ in kinds], axis=-1)
    by_order = np.concatenate([np.where(mask[..., None], f(nt) * weights, 0.0)
                               for f, mask in kinds], axis=-1)
    vals = (by_arg[..., None, :] @ by_order[..., :, None])[..., 0, 0]
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
