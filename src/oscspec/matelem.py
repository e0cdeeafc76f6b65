"""Matrix elements of phase-space translations in the Hermite eigenbasis.

Three independent routes are provided for <U_a phi_k, phi_k'>:

* `u_element`     -- closed form: Laguerre polynomial times a log-space
                     factorial prefactor and an explicit phase.
* `u_element_oracle` -- the defining inner-product integral by high-order
                     Gauss-Hermite quadrature (the test oracle).
* `u_element_bessel` -- partial sums of the Bessel-series expansion.

`v_matrix`/`build_matrix` assemble the dense truncated matrix of V and
of H+V; `parity_blocks` finds its even/odd split when V commutes with
parity; `window_sup` bounds the elements near the diagonal.  Every
closed-form magnitude comes from one prefactored Laguerre recurrence,
`_magnitudes`, run on one offset for a single element and on a vector of
offsets for a matrix or a window block.  Its iterates are exactly the
(signed) element magnitudes, so every intermediate stays bounded by 1 and
basis sizes of 10^4 never overflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, roots_hermite

from .model import PhasePoint, Potential, rho as rho_of
from .specialfn import a_coefficients, bessel_j_grid, f_factor

__all__ = [
    "MatrixElementTable",
    "u_element",
    "u_element_oracle",
    "u_element_bessel",
    "v_element",
    "v_matrix",
    "build_matrix",
    "parity_blocks",
    "window_sup",
]

ORACLE_INDEX_MAX = 300
# Dense bytes one call may plan, sized for a 7 GB host with room left for
# the interpreter and another process.  Each dense entry point plans its
# own measured peak bytes per entry of the N x N basis.
DENSE_BYTE_BUDGET = 4 * 2**30


def _check_dense_budget(N: int, bytes_per_entry: int) -> None:
    """Refuse, before anything is allocated, a basis whose dense arrays
    would exceed DENSE_BYTE_BUDGET."""
    planned = bytes_per_entry * N * N
    if planned > DENSE_BYTE_BUDGET:
        tenths = (10 * planned + 2**29) >> 30   # in integers: any N formats
        raise ValueError(
            f"basis size {N} plans {tenths // 10}.{tenths % 10} GiB of dense "
            f"arrays, over the {DENSE_BYTE_BUDGET >> 30} GiB budget"
        )


def _omega(a: PhasePoint, alpha: float) -> complex:
    """The complex parameter carrying the phase of the closed form."""
    sa = math.sqrt(alpha)
    return complex(0.5 * sa * a.a_xi, -0.5 * a.a_x / sa)


def _magnitudes(r: float, m, kmax: int):
    """Yield g_k = sqrt(k!/k'!) (sqrt2 r)^m e^{-r^2} L_k^{(m)}(2 r^2), k = 0..kmax.

    m = k' - k is a float offset or an ndarray of offsets.  The recurrence
    runs on the prefactored quantity itself, so every iterate is bounded by
    1; its body uses only arithmetic and ** 0.5 so one loop serves both.
    """
    x = 2.0 * r * r
    g = np.exp(m * math.log(math.sqrt(2.0) * r) - r * r
               - 0.5 * gammaln(m + 1.0))
    prev = 0.0
    yield g
    for j in range(kmax):
        prev, g = g, (
            (2 * j + 1 + m - x) * g - (j * (j + m)) ** 0.5 * prev
        ) / ((j + 1) * (j + 1 + m)) ** 0.5
        yield g


def u_element(a: PhasePoint, alpha: float, k: int, k_prime: int) -> complex:
    """Closed-form matrix element <U_a phi_k, phi_k'>."""
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if k < 0 or k_prime < 0:
        raise ValueError("indices must be nonnegative")
    if k > k_prime:
        # U_a^* = U_{-a}
        return u_element(-a, alpha, k_prime, k).conjugate()
    w = _omega(a, alpha)
    r = abs(w)
    if r == 0.0:
        return 1.0 + 0.0j if k == k_prime else 0.0j
    m = k_prime - k
    *_, mag = _magnitudes(r, float(m), k)
    if not math.isfinite(mag):
        raise OverflowError(
            f"matrix-element magnitude not finite at k={k}, k'={k_prime}"
        )
    theta = cmath.phase(-w)
    return cmath.exp(1j * m * theta) * mag


# u_element_oracle asks for n_nodes = 4(k + k') + 200, k, k' <=
# ORACLE_INDEX_MAX: 2 ORACLE_INDEX_MAX + 1 sizes, all kept (at most 13.5 MB)
@lru_cache(maxsize=2 * ORACLE_INDEX_MAX + 1)
def _gh_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes with weight-free ('total') weights.

    The usual weights w_i carry e^{-u_i^2} and underflow at high order;
    w_i e^{u_i^2} = 1/(n psi_{n-1}(u_i)^2) with psi the normalized Hermite
    function, which the bounded recurrence evaluates directly.
    """
    u, _ = roots_hermite(n_nodes)
    # psi_{n-1}(u) at extreme nodes passes through the classically
    # forbidden region where it underflows; carry value * e^scale instead.
    psi_prev = np.zeros_like(u)
    psi = np.full_like(u, math.pi ** -0.25)
    scale = -0.5 * u * u
    for n in range(n_nodes - 1):
        psi_prev, psi = psi, (
            u * math.sqrt(2.0 / (n + 1)) * psi
            - math.sqrt(n / (n + 1.0)) * psi_prev
        )
        mag = np.abs(psi)
        big = mag > 1e100
        if np.any(big):
            adj = np.where(big, np.log(np.where(big, mag, 1.0)), 0.0)
            factor = np.exp(-adj)
            psi = psi * factor
            psi_prev = psi_prev * factor
            scale = scale + adj
    val = psi * np.exp(scale)
    return u, 1.0 / (n_nodes * val * val)


def _hermite_factor(n: int, u: np.ndarray, shift: float) -> np.ndarray:
    """p_n(u + shift) * e^{-u^2/2} with p_n the orthonormal Hermite polynomial."""
    arg = u + shift
    r_prev = np.zeros_like(u)
    r = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    for j in range(n):
        r_prev, r = r, (
            arg * math.sqrt(2.0 / (j + 1)) * r
            - math.sqrt(j / (j + 1.0)) * r_prev
        )
    return r


def u_element_oracle(a: PhasePoint, alpha: float, k: int, k_prime: int) -> complex:
    """<U_a phi_k, phi_k'> by direct Gauss-Hermite quadrature of the integral."""
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if k > ORACLE_INDEX_MAX or k_prime > ORACLE_INDEX_MAX:
        raise ValueError(f"oracle quadrature capped at index {ORACLE_INDEX_MAX}")
    n_nodes = 4 * (k + k_prime) + 200
    u, wt = _gh_rule(n_nodes)
    b = math.sqrt(alpha) * a.a_xi
    beta = a.a_x / math.sqrt(alpha)
    rk = _hermite_factor(k, u, 0.5 * b)
    rkp = _hermite_factor(k_prime, u, -0.5 * b)
    osc = np.exp(1j * beta * u)
    total = np.sum(wt * rk * rkp * osc)
    prefactor = cmath.exp(1j * (0.5 * a.a_x * a.a_xi - 0.5 * beta * b)
                          ) * math.exp(-0.25 * b * b)
    return complex(prefactor * total)


def u_element_bessel(a: PhasePoint, alpha: float, k: int, k_prime: int,
                     jmax: int = 48) -> complex:
    """Partial Bessel-series sum for <U_a phi_k, phi_k'> (k <= k').

    Converges to the closed form in the regime 2 rho <= (k'+k+1)^(1/6).
    The orders k'-k .. k'-k+jmax share the argument 2 rho sqrt(k'+k+1) and
    come from one `bessel_j_grid` call.
    """
    if k > k_prime:
        raise ValueError("bessel route requires k <= k'")
    w = _omega(a, alpha)
    r = abs(w)
    if r == 0.0:
        return 1.0 + 0.0j if k == k_prime else 0.0j
    m = k_prime - k
    s = k_prime + k + 1
    j = np.arange(jmax + 1)
    coeffs = np.array(a_coefficients(k, k_prime, jmax))
    terms = bessel_j_grid(m + j, 2.0 * r * math.sqrt(s))
    total = float(coeffs * (r / math.sqrt(s)) ** j @ terms)
    sqrt_f = math.sqrt(f_factor(k, k_prime))
    theta = cmath.phase(-w)
    return cmath.exp(1j * m * theta) * sqrt_f * total


def v_element(V: Potential, k: int, k_prime: int) -> complex:
    """<V phi_k, phi_k'> = sum_a c_a <U_a phi_k, phi_k'> (+ c0 on the diagonal)."""
    total = V.c0 if k == k_prime else 0.0j
    for p, c in V.terms:
        total += c * u_element(p, V.alpha, k, k_prime)
    return complex(total)


def _accumulate_pair(out: np.ndarray, p: PhasePoint, c: complex,
                     alpha: float, lo: int) -> None:
    """Add the {a, -a} pair contribution to the upper triangle of `out`,
    the block of rows and columns lo .. lo + len(out) - 1.

    One pass of the magnitude recurrence, shared across all diagonal
    offsets m = k' - k; row k is emitted as the recurrence reaches degree k.
    """
    n = out.shape[0]
    w = _omega(p, alpha)
    theta = cmath.phase(-w)
    marr = np.arange(n, dtype=float)
    # c_a e^{i m theta} + conj(c_a) e^{i m (theta+pi)}
    phase = np.exp(1j * marr * theta)
    coeff = phase * (c + np.where(np.arange(n) % 2 == 0, c.conjugate(),
                                  -c.conjugate()))
    for k, g in enumerate(_magnitudes(abs(w), marr, lo + n - 1)):
        if k >= lo:
            width = n - (k - lo)
            out[k - lo, k - lo:] += coeff[:width] * g[:width]


def v_matrix(V: Potential, N: int) -> np.ndarray:
    """Dense N x N matrix of <V phi_k, phi_k'>, Hermitian by construction."""
    if N < 1:
        raise ValueError("N must be positive")
    _check_dense_budget(N, 16)    # the complex matrix itself
    upper = np.zeros((N, N), dtype=complex)
    for p, c in V.pairs():
        _accumulate_pair(upper, p, c, V.alpha, 0)
    if V.c0 != 0:
        upper[np.diag_indices(N)] += V.c0
    # mirror the strict upper triangle row by row (no index-array blowup)
    for k in range(N - 1):
        upper[k + 1:, k] = np.conj(upper[k, k + 1:])
    return upper


@dataclass(frozen=True)
class MatrixElementTable:
    """Truncated matrix of H+V in the Hermite eigenbasis."""

    entries: np.ndarray


def build_matrix(V: Potential, N: int) -> MatrixElementTable:
    """The N x N truncation alpha(2k+1) delta_{kk'} + <V phi_k, phi_k'>."""
    mat = v_matrix(V, N)
    diag = V.alpha * (2.0 * np.arange(N) + 1.0)
    mat[np.diag_indices(N)] += diag
    return MatrixElementTable(entries=mat)


def parity_blocks(m: np.ndarray) -> tuple[slice, ...]:
    """Index slices of the diagonal blocks that together hold every entry of m.

    Parity P phi_k = (-1)^k phi_k satisfies P U_a P = U_{-a}, so V commutes
    with P when every c_a is real, and then every entry between an even and
    an odd index is exactly 0.0 (`_accumulate_pair` multiplies odd offsets
    by c_a - conj(c_a)).  Returns (even, odd) slices when m[0::2, 1::2] is
    all zero, else one slice over everything.  m must be Hermitian, so the
    other off-block vanishes with it.  Exact: a single nonzero entry keeps
    the matrix whole.
    """
    if m.shape[0] > 1 and not np.any(m[0::2, 1::2]):
        return (slice(0, None, 2), slice(1, None, 2))
    return (slice(None),)


def window_sup(V: Potential, n: int) -> float:
    """sup |<V phi_k, phi_k'>| over the window |k-n|, |k'-n| <= kappa sqrt(n)."""
    half = int(math.floor(V.kappa() * math.sqrt(n)))
    lo = max(0, n - half)
    block = np.zeros((n + half - lo + 1,) * 2, dtype=complex)
    for p, c in V.pairs():
        _accumulate_pair(block, p, c, V.alpha, lo)
    block[np.diag_indices(len(block))] += V.c0
    # the upper triangle holds every magnitude, since V is Hermitian
    return float(np.max(np.abs(block)))
