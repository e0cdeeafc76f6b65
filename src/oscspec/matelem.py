"""Matrix elements of phase-space translations in the Hermite eigenbasis.

Three independent routes are provided for <U_a phi_k, phi_k'>:

* `u_element`     -- closed form: Laguerre polynomial times a log-space
                     factorial prefactor (log m! by `math.lgamma`) and an
                     explicit phase.
* `u_element_oracle` -- the defining inner-product integral by high-order
                     Gauss-Hermite quadrature (the test oracle).
* `u_element_bessel` -- partial sums of the Bessel-series expansion.

`v_matrix`/`build_matrix` assemble the dense truncated matrix of V and
of H+V, the reference the tests compare with; `_v_blocks` assembles V
straight into its parity blocks, typed and split as `_block_kinds`
decides from V, for `resolvent`, and with the
coupling block of a wider truncation for `solver_blocks`, which adds H
and gives `spectral`'s eigensolver its LAPACK storage; `window_sup`
bounds the elements near the diagonal.  Every closed-form magnitude
comes from one prefactored Laguerre recurrence, `_magnitudes`, run on
one offset for a single element and, for a matrix or a window block, on
a vector of offsets for all {a, -a} pairs at once, cut at each step to
the offsets still written.  Its iterates are exactly the (signed)
element magnitudes, so every intermediate stays bounded by 1 and basis
sizes of 10^4 never overflow.  Only the oracle needs scipy
(`scipy.special.roots_hermite`), and imports it on its first call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import PhasePoint, Potential, rho as rho_of
from .specialfn import (_check_byte_budget, a_coefficients, bessel_j_grid,
                        f_factor)

__all__ = [
    "MatrixElementTable",
    "u_element",
    "u_element_oracle",
    "u_element_bessel",
    "v_element",
    "v_matrix",
    "build_matrix",
    "SolverBlocks",
    "solver_blocks",
    "window_sup",
]

ORACLE_INDEX_MAX = 300


def _check_dense_budget(N: int, bytes_per_entry: int) -> None:
    """Refuse, before anything is allocated, a basis whose dense arrays
    would exceed DENSE_BYTE_BUDGET at `bytes_per_entry` of the N x N basis."""
    _check_byte_budget(bytes_per_entry * N * N, f"basis size {N}")


def _omega(a: PhasePoint, alpha: float) -> complex:
    """The complex parameter carrying the phase of the closed form."""
    sa = math.sqrt(alpha)
    return complex(0.5 * sa * a.a_xi, -0.5 * a.a_x / sa)


def _elementwise(f, v):
    """f(v) by `math` for a float v, or for each entry of an ndarray v, so
    that both give the same bits."""
    if isinstance(v, np.ndarray):
        return np.array([f(e) for e in v.ravel().tolist()]).reshape(v.shape)
    return f(v)


def _log_factorial(m):
    """log m! by math.lgamma, for a float m >= 0 or each entry of an ndarray."""
    return _elementwise(lambda v: math.lgamma(v + 1.0), m)


def _magnitudes(r, m, kmax: int, widths=None):
    """Yield g_k = sqrt(k!/k'!) (sqrt2 r)^m e^{-r^2} L_k^{(m)}(2 r^2), k = 0..kmax.

    m = k' - k is a float offset or an ndarray of offsets, and r a float or
    a (P, 1) ndarray of P pairs' radii, whose iterates are then P rows of
    offsets.  The recurrence runs on the prefactored quantity itself, so
    every iterate is bounded by 1; its body uses only arithmetic and ** 0.5
    so one loop serves floats and arrays, and each step's denominator
    sqrt((j+1)(j+1+m)) is the next step's sqrt(j(j+m)).  Given `widths`,
    row k of the caller writes the first widths[k] offsets, and each
    iterate is cut to the offsets a row from it on still writes.  An
    offset whose start value underflows to 0 for every pair stays exactly
    0, so those past the last nonzero one are cut from the start.
    """
    x = 2.0 * r * r
    g = np.exp(m * _elementwise(math.log, math.sqrt(2.0) * r) - r * r
               - 0.5 * _log_factorial(m))
    if widths is not None:
        nonzero = np.flatnonzero(np.any(np.atleast_2d(g) != 0.0, axis=0))
        last = int(nonzero[-1]) + 1 if nonzero.size else 0
        keep = np.minimum(np.maximum.accumulate(widths[::-1])[::-1],
                          last).tolist()
        g, m = g[..., :keep[0]], m[:keep[0]]
    prev = root = 0.0   # g_{-1} and sqrt(j (j + m)) at j = 0
    yield g
    for j in range(kmax):
        if widths is not None and keep[j + 1] < len(m):
            w = keep[j + 1]
            g, m = g[..., :w], m[:w]
            if j:
                prev, root = prev[..., :w], root[:w]
        denominator = ((j + 1) * (j + 1 + m)) ** 0.5
        prev, g = g, ((2 * j + 1 + m - x) * g - root * prev) / denominator
        root = denominator
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
    from scipy.special import roots_hermite   # lazily: the oracle only
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
    """psi_n(u + shift), the normalized Hermite function.  Its start
    underflows past |u + shift| = 37.6, where psi_n < 1e-104, n <= 300."""
    arg = u + shift
    r_prev = np.zeros_like(u)
    r = math.pi ** -0.25 * np.exp(-0.5 * arg * arg)
    for j in range(n):
        r_prev, r = r, (
            arg * math.sqrt(2.0 / (j + 1)) * r
            - math.sqrt(j / (j + 1.0)) * r_prev
        )
    return r


def u_element_oracle(a: PhasePoint, alpha: float, k: int, k_prime: int) -> complex:
    """<U_a phi_k, phi_k'> by direct Gauss-Hermite quadrature of the integral.

    Its n_nodes = 4(k + k') + 200 point rule holds to 1e-10 up to |||a||| =
    sqrt(2 n_nodes), the span of its nodes, and fails from about 1.3 times
    that along a_x; a larger shift raises ValueError.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if k > ORACLE_INDEX_MAX or k_prime > ORACLE_INDEX_MAX:
        raise ValueError(f"oracle quadrature capped at index {ORACLE_INDEX_MAX}")
    n_nodes = 4 * (k + k_prime) + 200
    b = math.sqrt(alpha) * a.a_xi
    beta = a.a_x / math.sqrt(alpha)
    shift, limit = math.hypot(beta, b), math.sqrt(2 * n_nodes)
    if shift > limit:
        raise ValueError(f"oracle quadrature at k={k}, k'={k_prime} holds "
                         f"for |||a||| <= sqrt(2 * {n_nodes}) = {limit:.4g}, "
                         f"got {shift:.4g}")
    u, wt = _gh_rule(n_nodes)
    rk = _hermite_factor(k, u, 0.5 * b)
    rkp = _hermite_factor(k_prime, u, -0.5 * b)
    osc = np.exp(1j * beta * u)
    total = np.sum(wt * rk * rkp * osc)
    prefactor = cmath.exp(1j * (0.5 * a.a_x * a.a_xi - 0.5 * beta * b))
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
    # the kernel first: it refuses a rule past the byte budget
    terms = bessel_j_grid(m + j, 2.0 * r * math.sqrt(s))
    coeffs = np.array(a_coefficients(k, k_prime, jmax))
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


def _pair_terms(pairs, alpha: float, m: np.ndarray):
    """Radii and coefficients of the {a, -a} pairs (a, c_a) at offsets m.

    Returns r as a (P, 1) array of |omega_a| and coeff[p, i] = c_a e^{i m_i
    theta} + conj(c_a) e^{i m_i (theta + pi)}, theta = arg(-omega_a): row
    k of the upper triangle gets sum_p coeff[p, i] g_p,k(m_i) at column
    k + m_i, with g the magnitudes of `_magnitudes`.
    """
    radii, coeffs = [], []
    for p, c in pairs:
        w = _omega(p, alpha)
        theta = cmath.phase(-w)
        phase = np.exp(1j * m * theta)
        coeffs.append(phase * (c + np.where(m % 2 == 0, c.conjugate(),
                                            -c.conjugate())))
        radii.append(abs(w))
    return np.array(radii).reshape(-1, 1), np.array(coeffs)


def _add_rows(out: np.ndarray, terms: np.ndarray) -> None:
    """out += terms[0], terms[1], ... in order: the pairs' sum rounds as
    when each pair is added on its own (np.sum may pair them up)."""
    for t in terms:
        out += t


def _accumulate_pairs(out: np.ndarray, V: Potential, lo: int) -> None:
    """Add the contribution of every {a, -a} pair of V to the upper
    triangle of `out`, the block of rows and columns lo .. lo + len(out) - 1.

    One pass of the magnitude recurrence, stacked over the pairs and shared
    across all diagonal offsets m = k' - k; row k is emitted as the
    recurrence reaches degree k.
    """
    pairs = V.pairs()
    n = out.shape[0]
    if not pairs or n == 0:
        return
    m = np.arange(n, dtype=float)
    r, coeff = _pair_terms(pairs, V.alpha, m)
    rows = np.arange(lo + n)
    widths = np.where(rows >= lo, lo + n - rows, 0)
    for k, g in enumerate(_magnitudes(r, m, lo + n - 1, widths)):
        if k >= lo:
            w = min(lo + n - k, g.shape[1])
            _add_rows(out[k - lo, k - lo:k - lo + w], coeff[:, :w] * g[:, :w])


def v_matrix(V: Potential, N: int) -> np.ndarray:
    """Dense N x N matrix of <V phi_k, phi_k'>, Hermitian by construction."""
    if N < 1:
        raise ValueError("N must be positive")
    _check_dense_budget(N, 16)    # the complex matrix itself
    upper = np.zeros((N, N), dtype=complex)
    _accumulate_pairs(upper, V, 0)
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


def _block_kinds(V: Potential) -> tuple[bool, bool]:
    """(split, real) of the truncated matrix of H + V, decided from V alone.

    It splits into its even- and odd-index blocks when every c_a is real:
    parity P phi_k = (-1)^k phi_k satisfies P U_a P = U_{-a}, so V then
    commutes with P, and odd offsets carry c_a - conj(c_a) = 0 exactly
    (`_pair_terms`).  Its blocks are real when every pair's coefficients
    e^{i m theta}(c_a + (-1)^m conj(c_a)) are: theta = pi/2 when a_xi = 0,
    and theta = pi when a_x = 0, real for real c_a.  Real up to the rounding
    of e^{i m theta}, which the real blocks drop.
    """
    pairs = V.pairs()
    split = all(c.imag == 0 for _, c in pairs)
    real = all(p.a_xi == 0 or (p.a_x == 0 and c.imag == 0) for p, c in pairs)
    return split, real


@dataclass(frozen=True)
class SolverBlocks:
    """The N x N truncation A_N of H + V in the storage its eigensolver
    reads, and its coupling block in A_{N+b}.

    `blocks` holds one (slice, matrix) pair per parity block (`_block_kinds`):
    the block A_N[s, s] as a Fortran-ordered array, float64 when real,
    with only its lower triangle filled (LAPACK's UPLO = 'L').  `coupling`
    is E = A_{N+b}[N:N+b, max(0, N-b):N], complex, and `diagonal` holds
    alpha(2k+1) + V_kk, k < N.
    """

    blocks: tuple[tuple[slice, np.ndarray], ...]
    coupling: np.ndarray
    diagonal: np.ndarray


def _v_blocks(V: Potential, N: int, band: int):
    """The parity blocks of V's N x N truncation and the coupling block E
    of its N + band truncation, from one stacked pass of the magnitude
    recurrence over rows k < N.

    Returns ((slice, block), ...) and E.  Each block is Fortran-ordered,
    float64 when real (`_block_kinds`), with only its lower triangle
    filled, c0 on its diagonal; E is V[N:N+band, max(0, N-band):N],
    complex.  Entry (k + m, k) of the lower triangle is conj(V_{k, k+m}),
    so row k of the recurrence fills column k of its parity block
    (contiguous in Fortran order) and, for k >= N - band, column k of E.
    A split matrix runs the recurrence on the even offsets only.  The
    lower triangles are bitwise those of `v_matrix` read through the
    exact zero scan and realness test of `tests/parity_oracle.py`.
    """
    if N < 1 or band < 0:
        raise ValueError("N must be positive and band nonnegative")
    split, real = _block_kinds(V)
    dtype = float if real else complex
    _check_dense_budget(N, np.dtype(dtype).itemsize)
    step = 2 if split else 1
    slices = ((slice(0, None, 2), slice(1, None, 2)) if split and N > 1
              else (slice(None),))
    blocks = [np.zeros((len(range(N)[s]),) * 2, dtype=dtype, order="F")
              for s in slices]
    lo = max(0, N - band)
    coupling = np.zeros((band, N - lo), dtype=complex)
    pairs = V.pairs()
    if pairs:
        rows = np.arange(N)
        # row k writes offsets m < N - k, and the band past N from lo on
        widths = -(-(N - rows + np.where(rows >= lo, band, 0)) // step)
        m = step * np.arange(widths.max(), dtype=float)
        r, coeff = _pair_terms(pairs, V.alpha, m)
        lower = coeff.conjugate()
        in_block = lower.real if real else lower
        for k, g in enumerate(_magnitudes(r, m, N - 1, widths)):
            block, c = blocks[k % step], k // step
            w = min(len(block) - c, g.shape[1])
            _add_rows(block[c:c + w, c], in_block[:, :w] * g[:, :w])
            if k >= lo:
                # offsets N - k .. N - k + band - 1 reach rows N .. N+band-1
                i0 = -(-(N - k) // step)
                i1 = min(widths[k], g.shape[1])
                if i1 > i0:
                    e0 = i0 * step - (N - k)
                    _add_rows(coupling[e0:e0 + step * (i1 - i0):step, k - lo],
                              lower[:, i0:i1] * g[:, i0:i1])
    if V.c0 != 0:
        for block in blocks:
            i = np.arange(len(block))
            block[i, i] += V.c0.real if real else V.c0
    return tuple(zip(slices, blocks)), coupling


def solver_blocks(V: Potential, N: int, band: int) -> SolverBlocks:
    """A_N and the coupling block E of A_{N + band}: the blocks of V from
    `_v_blocks`, with alpha(2k+1) added to their diagonal.

    The blocks, E and the diagonal are bitwise those of `build_matrix`
    read through `tests/parity_oracle.py`, without its complex N x N
    matrix and Hermitian mirror.
    """
    blocks, coupling = _v_blocks(V, N, band)
    diag = V.alpha * (2.0 * np.arange(N) + 1.0)
    diagonal = np.empty(N)
    for s, block in blocks:
        i = np.arange(len(block))
        block[i, i] += diag[s]
        diagonal[s] = block[i, i].real
    return SolverBlocks(blocks=blocks, coupling=coupling, diagonal=diagonal)


def window_sup(V: Potential, n: int) -> float:
    """sup |<V phi_k, phi_k'>| over the window |k-n|, |k'-n| <= kappa sqrt(n)."""
    half = int(math.floor(V.kappa() * math.sqrt(n)))
    lo = max(0, n - half)
    block = np.zeros((n + half - lo + 1,) * 2, dtype=complex)
    _accumulate_pairs(block, V, lo)
    block[np.diag_indices(len(block))] += V.c0
    # the upper triangle holds every magnitude, since V is Hermitian
    return float(np.max(np.abs(block)))
