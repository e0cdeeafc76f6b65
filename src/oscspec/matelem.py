"""Matrix elements of phase-space translations in the Hermite eigenbasis.

Three independent routes are provided for <U_a phi_k, phi_k'>:

* `u_element`     -- closed form: Laguerre polynomial times a log-space
                     factorial prefactor (log m! by `math.lgamma`) and an
                     explicit phase.
* `u_element_oracle` -- the defining inner-product integral by high-order
                     Gauss-Hermite quadrature (the test oracle), for one
                     element or a batch on one Hermite recurrence.
* `u_element_bessel` -- partial sums of the Bessel-series expansion.

One fill, `_v_blocks`, assembles V's rows lo .. hi-1 straight into their
parity blocks, typed and split as `_block_kinds` decides from V: from
row 0 for `resolvent`; from row 0 for `solver_blocks`, which alone asks
for each block's coupling, V continued past row hi-1 out to every entry
the fill keeps, adds H and gives `spectral`'s eigensolver its LAPACK
storage and its coupling blocks; a window of rows for `window_sup`,
which bounds the elements near the diagonal; and from row 0 for
`v_matrix` and `build_matrix`, which scatter the blocks into the dense
matrix of V and of H+V.  One mirror, `_mirror`, fills an upper triangle
from the lower.

Every closed-form magnitude comes from one prefactored Laguerre
recurrence, `_magnitudes`, run on one offset for a single element and,
in `_v_blocks`, on a vector of offsets for all {a, -a} pairs at once.
Its iterates are exactly the (signed) element magnitudes, so every
intermediate stays bounded by 1 and basis sizes of 10^4 never overflow;
a start below the float range carries its exponent apart until the
iterate is back in range.  It yields rows in chunks of _CHUNK, each cut
to the offsets still written.  A narrow fill costs numpy's per-call
overhead, not arithmetic, so a chunk builds its step tables once and
runs each step as four ufuncs into its rows, and `_v_blocks` sums a
chunk over the pairs and scatters it into the blocks at once.  Both keep
the bits of a row-by-row fill: each offset runs the same operations in
the same order, the pairs are added in order from 0, and every entry is
written by one row.

This module alone says where V's entries end.  From Szego's bound,
`_coupling_band` gives the offset past which the entries of rows below N
sum to at most a target, and `_row_reach` cuts every row k at its band
for target _REACH_TOL and the power of 2 past k, a cut whose norm
`_cut_norm` bounds.  The reach never falls with k, so a fill's coupling
runs to the reach of its last row and holds every entry the fill keeps
past it.
Only the oracle needs scipy (`scipy.special.roots_hermite`), and imports
it on its first call.
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
# `u_element_oracle` keeps one double per node of each Hermite segment, and
# runs the segments in groups of at most _ORACLE_GROUP_NODES nodes, each
# with three more doubles a node: the argument and two of the recurrence's
# three iterates.  The 200 draws (seed 7) of the verify suite, 159,112
# nodes, run in 5 groups in 10.4 ms and hold 2.1 MB at once; as one group
# they took 15.8 ms and 5.1 MB, and in groups of 2^14 and 2^16 nodes 11.2
# and 12.6 ms (2 vCPUs).
_ORACLE_KEPT_BYTES = 8
_ORACLE_RUN_BYTES = 24
_ORACLE_GROUP_NODES = 2**15
# Peak bytes per entry of v_matrix's N x N basis: the complex matrix and,
# while it is filled, V's blocks.  Measured (max RSS growth, N = 2000 and
# 3000): 19.6 for cos x's two real blocks, 23.6 for one real block or two
# complex ones, 31.4 for one complex block.
_V_MATRIX_BYTES_PER_ENTRY = 32
# The target past which `_v_blocks` cuts each row (`_row_reach`).  At 1e-30
# the `oscspec compute` CSVs of cos x (nmax 800 and 2000) and quasi seed 3
# (nmax 600), and `oscspec trace` of cos x at n = 64, 72 and 80, are those
# of a fill that keeps every entry down to subnormals; at 1e-20 their
# eigenvalues moved by up to 3.9e-12, through LAPACK's rounding.
_REACH_TOL = 1e-30
# A magnitude start below 2^_CARRY_START carries its exponent apart, with
# its value held near 2^_CARRY_LEVEL until the true value gets there
# (`_magnitudes`).
_CARRY_START = -900
_CARRY_LEVEL = -300
# Rows per chunk of `_magnitudes` and of `_v_blocks`' pair-sum and scatter.
# A narrow fill's cost is numpy's per-call overhead, which a chunk pays
# once for its tables, pair-sum and scatter instead of once per row.
# Measured in us per row (median, one warm process) at 16, 32, 64, 128
# and 256 rows per chunk: 7.9, 6.6, 5.8, 4.9 and 5.2 for the trace
# route's fill of cos x, rows 0 .. 275 and 41 offsets a row (11.7 row
# by row); 17.1, 15.6, 15.0, 14.8 and 16.8 for the blocks and coupling
# of the four-pair quasi seed 7, rows 0 .. 797 and 183 offsets (21.4 row
# by row).  At 64 that fill's chunk arrays plan 2.5 MB.
_CHUNK = 64
_LN2 = math.log(2.0)


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
    """Yield g_k = sqrt(k!/k'!) (sqrt2 r)^m e^{-r^2} L_k^{(m)}(2 r^2), k = 0..kmax,
    in chunks (k0, rows): rows[i] is g_{k0+i}, for up to _CHUNK rows.

    m = k' - k is a float offset or an ndarray of offsets, and r a float or
    a (P, 1) ndarray of P pairs' radii, whose iterates are then P rows of
    offsets.  The recurrence runs on the prefactored quantity itself, so
    every iterate is bounded by 1, and each step's denominator
    sqrt((j+1)(j+1+m)) is the next step's sqrt(j(j+m)).  Given `widths`,
    row k of the caller writes the first widths[k] offsets, and each
    chunk's iterates are cut to the offsets a row from the chunk on still
    writes.

    A float offset runs the step in float arithmetic.  An array runs each
    chunk's steps from two tables built once per chunk, (2j+1+m) - x and
    sqrt((j+1)(j+1+m)), as four ufuncs into the chunk's rows: the
    products a g and root prev, their difference, and its quotient by the
    denominator.  These are the scalar step's operations in its order,
    and every offset's iterate is computed alone, so the two paths, and
    chunks of any width, give the same bits.

    A start below 2^_CARRY_START, which would lose digits as a subnormal
    or underflow to 0 while the true element at row k grows like
    J_m(2r sqrt(2k)) (Szego, Orthogonal Polynomials, 8.22), carries an
    integer exponent e: the iterate holds g 2^e, started near
    2^_CARRY_LEVEL, and yields g 2^-e (the extended exponent of Fukushima,
    J. Geodesy 86, 2012).  The recurrence is linear, so scaling by powers
    of 2 (`_carry`) changes nothing but the exponent.  Offsets that carry
    nothing run the same arithmetic, and once no offset carries the loop
    is the plain one.
    """
    x = 2.0 * r * r
    log_g = (m * _elementwise(math.log, math.sqrt(2.0) * r) - r * r
             - 0.5 * _log_factorial(m))
    low = log_g < _CARRY_START * _LN2
    e = None
    if not isinstance(log_g, np.ndarray):
        if low:
            e = math.ceil(_CARRY_LEVEL - log_g / _LN2)
        g = np.exp(log_g if e is None else log_g + e * _LN2)
        prev = root = 0.0   # g_{-1} and sqrt(j (j + m)) at j = 0
        rows = [g if e is None else math.ldexp(g, -e)]
        for j in range(kmax):
            denominator = math.sqrt((j + 1) * (j + 1 + m))
            prev, g = g, ((2 * j + 1 + m - x) * g - root * prev) / denominator
            root = denominator
            if e is not None:
                g, prev, e = _carry(g, prev, e)
            rows.append(g if e is None else math.ldexp(g, -e))
            if len(rows) == _CHUNK:
                yield j + 2 - _CHUNK, np.array(rows)
                rows = []
        if rows:
            yield kmax + 1 - len(rows), np.array(rows)
        return
    if low.any():
        e = np.where(low, np.ceil(_CARRY_LEVEL - log_g / _LN2), 0).astype(int)
    g = np.exp(log_g if e is None else log_g + e * _LN2)
    starts = range(0, kmax + 1, _CHUNK)
    if widths is not None:
        # the widest row from each chunk on
        tops = np.maximum.reduceat(widths, np.asarray(starts))
        keep = np.maximum.accumulate(tops[::-1])[::-1].tolist()
    prev = np.zeros_like(g)   # g_{-1}
    for i, k0 in enumerate(starts):
        if widths is not None and keep[i] < len(m):
            w = keep[i]
            g, prev, m = g[..., :w], prev[..., :w], m[:w]
            if e is not None:
                e = e[..., :w]
        rows = np.empty((min(_CHUNK, kmax + 1 - k0),) + g.shape)
        first = 0
        if k0 == 0:
            rows[0] = g if e is None else np.ldexp(g, -e)
            first = 1
        # the steps to rows k = k0 + first .. : j = k - 1, and sqrt(k (k + m))
        # from row k - 1 on, the first of which is the step's root
        k = np.arange(k0 + first - 1, k0 + len(rows), dtype=float)[:, None]
        sqrts = np.sqrt(k * (k + m))
        a = ((2.0 * k[1:] - 1.0 + m).reshape(len(k) - 1, *(1,) * (g.ndim - 1),
                                             len(m)) - x)
        ag, rp = np.empty_like(g), np.empty_like(g)
        for out, a_j, root, denominator in zip(rows[first:], a, sqrts,
                                                sqrts[1:]):
            np.multiply(a_j, g, out=ag)
            np.multiply(root, prev, out=rp)
            np.subtract(ag, rp, out=out)
            np.divide(out, denominator, out=out)
            prev, g = g, out
            if e is not None:
                g, prev, e = _carry(g, prev, e)
                out[...] = g if e is None else np.ldexp(g, -e)
        yield k0, rows


def _carry(g, prev, e):
    """Move what fits of the exponents e carried by the iterates g and prev
    into their values: per offset, the larger of |g| and |prev| is brought
    back to about 2^_CARRY_LEVEL, or e goes to 0.  Both are multiplied by
    2^-s, s <= e, which is exact while prev stays normal (a prev that does
    not is below 2^-720 of g and no longer counts).  Returns g, prev and
    e, e being None once it is 0 everywhere.  A float g runs in `math`.
    """
    if isinstance(g, np.ndarray):
        top = np.frexp(np.maximum(np.abs(g), np.abs(prev)))[1]
        s = np.minimum(e, np.maximum(top - _CARRY_LEVEL, 0))
        e = e - s
        return np.ldexp(g, -s), np.ldexp(prev, -s), e if e.any() else None
    s = min(e, max(math.frexp(max(abs(g), abs(prev)))[1] - _CARRY_LEVEL, 0))
    return math.ldexp(g, -s), math.ldexp(prev, -s), e - s or None


def _check_element(alpha: float, k: int, k_prime: int) -> None:
    """Refuse what no route to <U_a phi_k, phi_k'> takes; each runs this first."""
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if k < 0 or k_prime < 0:
        raise ValueError("indices must be nonnegative")


def u_element(a: PhasePoint, alpha: float, k: int, k_prime: int) -> complex:
    """Closed-form matrix element <U_a phi_k, phi_k'>."""
    _check_element(alpha, k, k_prime)
    if k > k_prime:
        # U_a^* = U_{-a}
        return u_element(-a, alpha, k_prime, k).conjugate()
    w = _omega(a, alpha)
    r = abs(w)
    if r == 0.0:
        return 1.0 + 0.0j if k == k_prime else 0.0j
    m = k_prime - k
    *_, (_, rows) = _magnitudes(r, float(m), k)
    mag = rows[-1]
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


def _oracle_plan(a: PhasePoint, alpha: float, k: int,
                 k_prime: int) -> tuple[int, float, float]:
    """Refuse one element the oracle cannot take, by `_check_element`,
    the index cap and the shift cap in that order; else its rule size
    n_nodes = 4(k + k') + 200, b = sqrt(alpha) a_xi and beta =
    a_x / sqrt(alpha)."""
    _check_element(alpha, k, k_prime)
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
    return n_nodes, b, beta


def _hermite_segments(segments, out: np.ndarray) -> None:
    """Write psi_n(u + shift), the normalized Hermite function, of each
    segment (n, u, shift) into `out`, the segments laid end to end and
    n falling along them.

    One recurrence psi_{j+1}(x) = x sqrt(2/(j+1)) psi_j(x) - sqrt(j/(j+1))
    psi_{j-1}(x) runs for all: at step j the segments still running, those
    of target n > j, are a prefix of the arrays, and each step is four
    ufuncs on it.  `out` holds the start psi_0 and is one of the three
    iterates; a step writes only where segments still run, and a
    segment's value is copied into its place in `out` once its step is
    reached.  Every segment runs the operations of its own recurrence in
    its order, so its bits do not depend on the others.  The start psi_0
    underflows past |u + shift| = 37.6, where psi_n < 1e-104, n <= 300.
    """
    arg = np.empty(len(out))
    ends, pos = {}, 0
    for n, u, shift in segments:
        np.add(u, shift, out=arg[pos:pos + len(u)])
        pos += len(u)
        ends[n] = pos   # the length of the segments of target n and up
    # psi_0 = pi^(-1/4) exp(-arg^2 / 2), with -arg^2 / 2 as (-0.5 arg) arg
    r = np.multiply(arg, -0.5, out=out)
    np.multiply(r, arg, out=r)
    np.exp(r, out=r)
    np.multiply(r, math.pi ** -0.25, out=r)
    r_prev, t = np.zeros(pos), np.empty(pos)
    # for each target n, the smallest first: step the running segments to
    # psi_n, copy out those of target n, at the end, and run on the rest
    up = sorted(ends)
    done = 0
    for target, n in zip(up, [ends[m] for m in up[1:]] + [0]):
        for j in range(done, target):
            np.multiply(arg, math.sqrt(2.0 / (j + 1)), out=t)
            np.multiply(t, r, out=t)
            np.multiply(r_prev, math.sqrt(j / (j + 1.0)), out=r_prev)
            np.subtract(t, r_prev, out=t)
            r_prev, r, t = r, t, r_prev
        out[n:len(r)] = r[n:]
        if not n:
            break
        arg, r, r_prev, t = arg[:n], r[:n], r_prev[:n], t[:n]
        done = target


def u_element_oracle(a, alpha: float, k, k_prime):
    """<U_a phi_k, phi_k'> by direct Gauss-Hermite quadrature of the integral.

    `a` is a PhasePoint and k, k' ints, giving a complex; or `a` is a
    sequence of points and k, k' integer sequences of its length, giving
    a complex array of the elements in order.  Each element is
    sum_i w_i psi_k(u_i + b/2) psi_k'(u_i - b/2) e^{i beta u_i} on its own
    n_nodes = 4(k + k') + 200 point rule (`_gh_rule`), times a phase.  The
    rule holds to 1e-10 up to |||a||| = sqrt(2 n_nodes), the span of its
    nodes, and fails from about 1.3 times that along a_x.

    Refusals come before any rule is built or anything allocated: each
    element in input order as `_oracle_plan` refuses it, the first refusal
    raising, and then a batch whose arrays would exceed DENSE_BYTE_BUDGET.

    The Hermite factors of all elements are segments of one recurrence,
    `_hermite_segments`: sorted by index, the largest first, laid end to
    end and run in consecutive groups of at most _ORACLE_GROUP_NODES
    nodes.  Each element's sum is then taken on its own contiguous
    arrays, so an element has the same bits alone or in any batch.  A
    call pays numpy's overhead per recurrence step, not per element and
    step: the 200 draws (seed 7) of `oscspec verify`'s matelem suite take
    11 ms in one call and 29 ms in 200 (2 vCPUs).
    """
    points, ks, kps = (([a], [k], [k_prime]) if isinstance(a, PhasePoint)
                       else (list(a), list(k), list(k_prime)))
    if not len(points) == len(ks) == len(kps):
        raise ValueError("points, k and k' must have the same length")
    plans = [_oracle_plan(p, alpha, kk, kkp)
             for p, kk, kkp in zip(points, ks, kps)]
    # segment 2i is psi_k of element i on u + b/2, 2i + 1 its psi_k' on
    # u - b/2, both over the element's nodes
    targets = [n for pair in zip(ks, kps) for n in pair]
    nodes = 2 * sum(n_nodes for n_nodes, _, _ in plans)
    _check_byte_budget(_ORACLE_KEPT_BYTES * nodes + _ORACLE_RUN_BYTES
                       * min(nodes, _ORACLE_GROUP_NODES),
                       f"an oracle batch of {len(plans)} elements")
    rules = [_gh_rule(n_nodes) for n_nodes, _, _ in plans]
    # the segments by target index, the largest first, laid end to end in
    # `kept` and run in consecutive groups of at most _ORACLE_GROUP_NODES
    order = sorted(range(len(targets)), key=targets.__getitem__, reverse=True)
    kept = np.empty(nodes)
    start, group, first, pos = [0] * len(targets), [], 0, 0
    for s in order:
        n_nodes, b, _ = plans[s // 2]
        if pos + n_nodes - first > _ORACLE_GROUP_NODES:
            _hermite_segments(group, kept[first:pos])
            group, first = [], pos
        start[s] = pos
        pos += n_nodes
        group.append((targets[s], rules[s // 2][0], (0.5, -0.5)[s % 2] * b))
    _hermite_segments(group, kept[first:pos])
    values = []
    for i, (p, (n_nodes, b, beta), (u, wt)) in enumerate(zip(points, plans,
                                                            rules)):
        lo, lo_prime = start[2 * i], start[2 * i + 1]
        rk = kept[lo:lo + n_nodes]
        rkp = kept[lo_prime:lo_prime + n_nodes]
        osc = np.exp(1j * beta * u)
        # np.sum's pairwise reduction, without its wrapper
        total = np.add.reduce(wt * rk * rkp * osc)
        prefactor = cmath.exp(1j * (0.5 * p.a_x * p.a_xi - 0.5 * beta * b))
        values.append(complex(prefactor * total))
    return (values[0] if isinstance(a, PhasePoint)
            else np.array(values, dtype=complex))


def u_element_bessel(a: PhasePoint, alpha: float, k: int, k_prime: int,
                     jmax: int = 48) -> complex:
    """Partial Bessel-series sum for <U_a phi_k, phi_k'> (k <= k').

    Converges to the closed form in the regime 2 rho <= (k'+k+1)^(1/6).
    The orders k'-k .. k'-k+jmax share the argument 2 rho sqrt(k'+k+1) and
    come from one `bessel_j_grid` call.  A partial sum that overflows,
    which happens only outside the regime, raises ValueError.
    """
    _check_element(alpha, k, k_prime)
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
    # outside the regime (r/sqrt(s))^j can overflow, and so can the sum
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(coeffs * (r / math.sqrt(s)) ** j @ terms)
    if not math.isfinite(total):
        raise ValueError(
            f"bessel series overflows at jmax = {jmax}: 2 rho = {2.0 * r:.6g} "
            f"is outside its regime 2 rho <= (k'+k+1)^(1/6) = "
            f"{s ** (1.0 / 6.0):.6g}")
    sqrt_f = math.sqrt(f_factor(k, k_prime))
    theta = cmath.phase(-w)
    return cmath.exp(1j * m * theta) * sqrt_f * total


def _series_converges(a: PhasePoint, alpha: float, k: int, kp: int) -> bool:
    """Whether <U_a phi_k, phi_k'> is in the regime of `u_element_bessel`,
    2 rho <= (k+k'+1)^(1/6); outside it the series is a partial sum."""
    return 2.0 * rho_of(a, alpha) <= (k + kp + 1) ** (1.0 / 6.0)


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


def _mirror(block: np.ndarray) -> None:
    """Copy the strict lower triangle of the Hermitian `block` into its
    upper one, in place, column by column (no index-array blowup),
    conjugated when complex."""
    real = np.isrealobj(block)
    for k in range(len(block) - 1):
        column = block[k + 1:, k]
        block[k, k + 1:] = column if real else column.conj()


def v_matrix(V: Potential, N: int) -> np.ndarray:
    """Dense N x N matrix of <V phi_k, phi_k'>: the parity blocks of
    `_v_blocks` scattered into one complex matrix and mirrored."""
    if N < 1:
        raise ValueError("N must be positive")
    _check_byte_budget(_V_MATRIX_BYTES_PER_ENTRY * N * N, f"basis size {N}")
    mat = np.zeros((N, N), dtype=complex)
    for s, block, _ in _v_blocks(V, 0, N):
        mat[s, s] = block
    _mirror(mat)
    return mat


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


def _coupling_band(V: Potential, N: int, target: float) -> int:
    """Smallest band b past which the entries of each row below N sum to
    at most `target`.

    Entries of V between index j < N and k = j + m >= N are bounded by
    sum_a |c_a| T_a(m), T_a(m) = (sqrt2 r_a)^m (N+m)^(m/2) / m!, from
    Szego's |L_j^(m)(x)| <= binom(j+m, j) e^(x/2) (Orthogonal Polynomials,
    (7.21.3)).  The ratio T_a(m+1)/T_a(m) is at most
    q = sqrt2 r_a sqrt(e (N+m+1)) / (m+1), which falls with m, so the
    offsets m > b sum to at most T_a(b+1) / (1 - q).  That sum bounds
    the entries past offset b of every row below N: in `_row_reach`, what
    a row's cut drops, and in `spectral`, the reach of the Ritz vectors
    that sizes its start basis.  It grows with N, and so does b.  Each
    term is compared with `target` by its log first, so one past the
    float range (large r_a sqrt(N)) widens b as any term over the target
    does.  Terms with c_a = 0 bound nothing and are left out.  Once q < 1
    every term's bound falls with b, so "the bound of b is at most
    target" is false and then true: b is found by doubling, then
    bisection, in O(log b) evaluations.
    """
    terms = [(math.sqrt(2.0) * rho_of(p, V.alpha), abs(c)) for p, c in V.terms
             if c != 0]
    if not terms:
        return 0
    log_target = math.log(target)

    def dropped(b: int) -> float:
        m = b + 1
        total = 0.0
        for z, c in terms:
            q = z * math.sqrt(math.e * (N + m + 1)) / (m + 1)
            if q >= 1.0:
                return math.inf
            log_t = m * math.log(z) + 0.5 * m * math.log(N + m) - math.lgamma(m + 1)
            if log_t + math.log(c / (1.0 - q)) > log_target:
                return math.inf
            total += c * math.exp(log_t) / (1.0 - q)
        return total

    hi = 0
    while not dropped(hi) <= target:
        hi = 2 * hi + 1
    # (hi - 1) // 2 is the size doubled last, or -1 (no band) for hi = 0
    return _bisect(lambda b: dropped(b) <= target, (hi - 1) // 2, hi)


def _bisect(pred, lo: int, hi: int) -> int:
    """The k in (lo, hi] where pred, false at lo and true at hi, turns true."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi


def _row_reach(V: Potential, k: int) -> int:
    """The last offset row k of V keeps: the band of `_coupling_band` at
    target _REACH_TOL and basis size 2^bit_length(k), the least power of
    2 past k.  Past it, row k's entries sum to at most _REACH_TOL.  It
    never falls with k, so a fill of rows below hi keeps no entry past
    row hi - 1 + `_row_reach`(V, hi - 1): the band of its coupling."""
    return _coupling_band(V, 1 << k.bit_length(), _REACH_TOL)


def _reach(V: Potential, lo: int, hi: int) -> np.ndarray:
    """`_row_reach` of each row k = lo .. hi-1.  It depends on k alone, so
    a fill of rows lo .. hi-1 cuts each row as a fill from 0 does; rows
    2^(j-1) .. 2^j - 1 share a band.
    """
    reach = np.empty(hi - lo, dtype=int)
    for j in range(lo.bit_length(), (hi - 1).bit_length() + 1):
        first = max((1 << j) >> 1, lo)
        reach[first - lo:(1 << j) - lo] = _row_reach(V, first)
    return reach


def _cut_norm(N: int) -> float:
    """Bound on the norm of the entries of V that `_row_reach` cuts from rows
    below N.  In the upper triangle each row's cut sums to at most
    _REACH_TOL, and each column's to at most _REACH_TOL per group of rows
    sharing a band, of which rows below N make 1 + ceil(log2 N).  By the
    Schur test that triangle's norm is at most _REACH_TOL sqrt(1 +
    ceil(log2 N)), and the Hermitian cut's twice that."""
    return 2.0 * _REACH_TOL * math.sqrt((N - 1).bit_length() + 1)


@dataclass(frozen=True)
class SolverBlocks:
    """The N x N truncation A_N of H + V in the storage its eigensolver
    reads, with each block's coupling in A_{N+b}, b the fill's band
    `_row_reach`(V, N - 1).

    `blocks` holds one (slice, matrix, coupling) triple per parity block
    (`_block_kinds`): the block A_N[s, s] as a Fortran-ordered array,
    float64 when real, with only its lower triangle filled (LAPACK's UPLO
    = 'L'); and its coupling, the rows N .. N+b-1 of A_{N+b} of the
    block's parity against its columns from max(0, N-b) on, in the
    block's dtype: every entry the fill keeps between the block and the
    rows past N.  `diagonal` holds alpha(2k+1) + V_kk, k < N.
    """

    blocks: tuple[tuple[slice, np.ndarray, np.ndarray], ...]
    diagonal: np.ndarray


def _v_blocks(V: Potential, lo: int, hi: int, coupling: bool = False):
    """V's rows and columns lo .. hi-1 as parity blocks, with each block's
    coupling to the rows past hi - 1 if asked for, from one stacked pass
    of the magnitude recurrence over rows k < hi, of which rows before lo
    write nothing.

    Returns ((slice, block, coupling), ...), the slices relative to lo and
    each coupling None unless asked for.  Each block is Fortran-ordered,
    float64 when real (`_block_kinds`), with only its lower triangle
    filled, c0 on its diagonal.  Row k is cut past offset
    `_row_reach`(V, k), which drops at most _REACH_TOL from it and depends
    on k alone.  The coupling is the block continued out to that reach:
    with band = `_row_reach`(V, hi - 1), which no row below hi passes, V's
    rows hi .. hi+band-1 of the block's parity against the block's
    columns from max(lo, hi-band) on, Fortran-ordered and of the block's
    dtype, holding every entry the fill keeps past row hi - 1.  Without
    it each row stops at the block's last row.  Entry (k + m, k) of the
    lower triangle is conj(V_{k, k+m}), so row k of the recurrence fills
    one column segment, which is split at the block's last row between
    column k - lo of its parity block and a column of its coupling.  A
    split matrix runs the recurrence on the even offsets only.

    The rows come in `_magnitudes`' chunks.  Each chunk's entries are
    summed over the pairs at once, in the pairs' order by += from 0, and
    written into each block and coupling by one index assignment: every
    entry is written by one row, so it holds the sum each row added on
    its own would leave, to the bit and to the sign of a zero.  The lower
    triangles are bitwise those of the uncut `tests/dense_oracle.py` read
    through `tests/parity_oracle.py` wherever they are nonzero, and 0
    where that entry is at most _REACH_TOL; a window's are the rows of the
    fill from 0.  The blocks, the couplings and a chunk's arrays are
    refused over the byte budget before allocation.
    """
    if not 0 <= lo < hi:
        raise ValueError("rows need 0 <= lo < hi")
    split, real = _block_kinds(V)
    dtype = np.dtype(float if real else complex)
    pairs = V.pairs()
    n = hi - lo
    step = 2 if split else 1
    reach = _row_reach(V, hi - 1)   # no row below hi reaches further
    band = reach if coupling else 0
    # a chunk's rows of offsets, its iterates, a-table and products (24
    # bytes per pair and entry), its pair-sum and products of the fill's
    # dtype, and its index arrays
    width = min(reach, band + n - 1) // step + 1 if pairs else 0
    chunk = _CHUNK * width * (24 * len(pairs) + dtype.itemsize * (len(pairs) + 1)
                              + 40)
    _check_byte_budget(dtype.itemsize * (n * n + band * min(band, n)) + chunk,
                       f"basis size {n}")
    slices = ((slice(0, None, 2), slice(1, None, 2)) if split and n > 1
              else (slice(None),))
    elo = max(lo, hi - band)
    blocks, couplings = [], []
    for p in range(len(slices)):
        size = len(range(p, n, step))
        blocks.append(np.zeros((size, size), dtype=dtype, order="F"))
        # rows hi .. hi+band-1 of the block's parity, columns from elo on
        couplings.append(np.zeros(
            (len(range(p, n + band, step)) - size,
             size - len(range(p, elo - lo, step))), dtype=dtype, order="F")
            if coupling else None)
    if pairs:
        # row k >= lo writes its offsets out to its reach, or to row hi - 1
        widths = np.zeros(hi, dtype=int)
        widths[lo:] = _reach(V, lo, hi) // step + 1
        if not coupling:
            np.minimum(widths[lo:], (hi - 1 - np.arange(lo, hi)) // step + 1,
                       out=widths[lo:])
        m = step * np.arange(widths.max(), dtype=float)
        r, coeff = _pair_terms(pairs, V.alpha, m)
        # the lower triangle's conj(V_{k, k+m}); real blocks drop the
        # rounding of e^{i m theta}
        lower = coeff.real if real else coeff.conjugate()
        for k0, rows in _magnitudes(r, m, hi - 1, widths):
            first = max(k0, lo)
            if first >= k0 + len(rows):
                continue
            g = rows[first - k0:]
            w = g.shape[-1]
            sums = np.zeros((len(g), w), dtype=dtype)
            _add_rows(sums, lower[:, None, :w] * g.transpose(1, 0, 2))
            for t in range(len(blocks)):
                # the chunk's rows of parity t, from row k = first + i on
                i = (t - (first - lo)) % step
                _scatter(blocks[t], couplings[t], (first + i - lo) // step,
                         widths[first + i:k0 + len(rows):step], sums[i::step])
    if V.c0 != 0:
        for block in blocks:
            i = np.arange(len(block))
            block[i, i] += V.c0.real if real else V.c0
    return tuple(zip(slices, blocks, couplings))


def _scatter(block, coupling, col: int, widths, sums) -> None:
    """Write the column segments sums[i, :widths[i]] into the lower
    triangle of `block` from its diagonal entry (col + i, col + i) down,
    each continued past the block's last row into the matching column of
    `coupling` (its last columns are the block's) when given, or cut
    there.  One fancy-index assignment per array, on its Fortran order."""
    size = len(block)
    cols = col + np.arange(len(sums))[:, None]
    rows = cols + np.arange(sums.shape[1])
    written = np.arange(sums.shape[1]) < widths[:, None]
    inside = written & (rows < size)
    block.T.reshape(-1)[(cols * size + rows)[inside]] = sums[inside]
    if coupling is not None:
        past = written & ~inside
        if past.any():
            height, ncols = coupling.shape
            flat = (cols + ncols - size) * height + rows - size
            coupling.T.reshape(-1)[flat[past]] = sums[past]


def solver_blocks(V: Potential, N: int) -> SolverBlocks:
    """A_N and each block's coupling in A_{N+b}, b = `_row_reach`(V,
    N - 1): the blocks of V from `_v_blocks`, with alpha(2k+1) added to
    their diagonal.

    The blocks, their couplings and the diagonal are bitwise those of
    `tests/dense_oracle.py`'s uncut dense `build_matrix` read through
    `tests/parity_oracle.py`, without its complex N x N matrix, except
    for the entries of at most _REACH_TOL that `_v_blocks` cuts to 0.
    """
    blocks = _v_blocks(V, 0, N, coupling=True)
    diag = V.alpha * (2.0 * np.arange(N) + 1.0)
    diagonal = np.empty(N)
    for s, block, _ in blocks:
        i = np.arange(len(block))
        block[i, i] += diag[s]
        diagonal[s] = block[i, i].real
    return SolverBlocks(blocks=blocks, diagonal=diagonal)


def window_sup(V: Potential, n: int) -> float:
    """sup |<V phi_k, phi_k'>| over the window |k-n|, |k'-n| <= kappa sqrt(n)."""
    half = int(math.floor(V.kappa() * math.sqrt(n)))
    blocks = _v_blocks(V, max(0, n - half), n + half + 1)
    # the lower triangles hold every modulus, since V is Hermitian
    return float(max(np.max(np.abs(block)) for _, block, _ in blocks))
