"""Diagonalization of the truncated H+V matrix with a certified error bound.

`spectrum` solves one truncation A_N = P(H+V)P and bounds the distance of
every Ritz value theta_n, n <= nmax, from the eigenvalue lambda_n of the
full operator by a quadratic residual bound.  The Ritz vectors reach the
rest of the basis only through a corner block of V whose entries decay
super-exponentially, so their residuals cost one small block, and the rest
of the spectrum is bounded below a priori.  Where V's entries end is
`matelem`'s one decision: its fill cuts each row at its reach, and the
coupling runs to the band b of row N-1, past which the fill keeps nothing.
One pass of `matelem.solver_blocks` assembles both, straight into the
storage the eigensolver reads: the parity blocks of A_N, their lower
triangle only, in Fortran order, float64 when real; and with each block
its coupling E_s, its parity's rows N..N+b-1 of A_{N+b}, of the block's
dtype.  No complex N x N matrix and no Hermitian mirror is built.  That
part of the bound is rigorous in exact arithmetic, with the fill's cut
added (`matelem._cut_norm`); the eigensolver's rounding is added by a
probabilistic model (`_rounding`), not a worst-case bound.
When the bound misses the tolerance, N grows geometrically up to the
largest size whose dense arrays, with the coupling block, fit
`specialfn.DENSE_BYTE_BUDGET`.
When V commutes with parity (every c_a real, e.g. multiplication by an even
function such as cos x) the matrix splits exactly into its even- and
odd-index blocks, which are assembled and diagonalized apart: two solves of
half the order cost about a quarter of one full solve.  Which blocks there
are, and whether they are real, is decided from V before assembly.  The
residuals ||E_s x_i||^2 need only the last b rows of the Ritz vectors, and
`eigensolve` forms them where it solves the block; a complex block, or a
real one of order `_FACTORED_REAL_ORDER` and up, is reduced in place and
keeps its eigenvectors factored through its Householder tridiagonal, and
the reflectors and Z are applied to E_s itself.  `_certify` reads only
the Ritz values and these residuals.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

# build_matrix has no use here; perfbench's tracer tests wrap it under
# this module's name until the benchmark is refitted (ROADMAP item 3)
from .matelem import build_matrix  # noqa: F401
from .matelem import (SolverBlocks, _bisect, _block_kinds, _coupling_band,
                      _cut_norm, _row_reach, solver_blocks)
from . import specialfn
from .model import Potential
from .specialfn import _check_byte_budget

__all__ = ["Spectrum", "TruncationError", "eigensolve", "spectrum"]

_EPS = float(np.finfo(float).eps)
_GROWTH = 1.5
# Real blocks of this order and up keep their eigenvectors factored, like
# complex ones.  Solve plus the certificate product, cos x's even block,
# each route in its own process, 2 vCPUs with OpenBLAS, medians:
# `np.linalg.eigh` 0.045, 0.31, 2.7 and 21 s at orders 546, 1200, 2700 and
# 5400; dsytrd + dstevd + dormqr + dgemm 0.035, 0.24, 1.9 and 15 s.  The
# factored route is faster at each order, but below 2500 it would load
# scipy.linalg for cos x, 27 MB on a 63 MB `oscspec compute` peak.
_FACTORED_REAL_ORDER = 2500


class TruncationError(RuntimeError):
    """Raised when the residual bound cannot certify the requested indices."""


def eigensolve(matrix: SolverBlocks, *, ritz: list) -> np.ndarray:
    """All eigenvalues of the Hermitian matrix, ascending.

    `matrix` is `solver_blocks` output: split into parity blocks, typed,
    and in LAPACK's storage (lower triangle, Fortran order), each with its
    coupling E_s.  Backed by LAPACK, one call per parity block; a real
    block goes through the cheaper symmetric path, and factored blocks are
    reduced in place (they become the reflectors).  Each block is solved
    with eigenvectors, and one (eigenvalues, residuals) pair per block is
    appended to `ritz`, the residuals being ||E_s x_i||^2 for the block's
    eigenvectors x_i.  The columns of E_s are the block's last ones, so
    only the eigenvectors' last rows enter.  A real block below order
    _FACTORED_REAL_ORDER is solved by `np.linalg.eigh` and E_s multiplied
    by its eigenvectors in numpy; a complex or a larger real block keeps
    them factored (`_factored_eigh`), which applies the reflectors and Z
    to E_s in scipy.  Either way the product runs in the library that
    solved the block, so a certificate never switches between numpy's and
    scipy's OpenBLAS thread pools.  The out-parameter keeps the solve with
    its residuals inside this function, where perfbench's tracer observes
    it (the `eigensolve_N` span); a private helper would hide it.
    """
    parts = []
    for _, block, e in matrix.blocks:
        if np.isrealobj(block) and len(block) < _FACTORED_REAL_ORDER:
            w, x = np.linalg.eigh(block)
            res2 = np.sum(np.abs(e @ x[len(x) - e.shape[1]:]) ** 2, axis=0)
        else:
            w, res2 = _factored_eigh(block, e)
        ritz.append((w, res2))
        parts.append(w)
    return np.sort(np.concatenate(parts))


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info={info})")


def _factored_eigh(a: np.ndarray, e: np.ndarray):
    """Eigenvalues w of the Hermitian (or real symmetric) matrix `a`,
    ascending, and the residuals ||e x_i||^2 of its eigenvectors x_i
    restricted to their last e.shape[1] rows.  LAPACK reads the lower
    triangle of `a`, and reduces a Fortran-ordered `a` in place.

    zhetrd (dsytrd) reduces a = Q T Q^H with T real tridiagonal and Q =
    H(0) .. H(N-2) kept as Householder reflectors, and dstevd gives
    T = Z diag(w) Z^T.  The eigenvectors X = Q Z are never formed, not
    even their last rows: `e` is placed in the last columns of a zero
    matrix C, zunmqr (dormqr) applies the reflectors to it from the right
    in place, and C Q is multiplied by Z with scipy's dgemm, once on the
    real and imaginary parts together.  That is O(b N^2) work for b rows
    of `e`, in place of the O(N^3) back-transform of `np.linalg.eigh`.
    Every product of the block runs in scipy's BLAS: numpy and scipy each
    load their own OpenBLAS, whose threads spin for a while after each
    call, and a call into one library right after the other ran 1.5 to 4
    times as slow on 2 vCPUs.
    """
    # lazily: small real blocks need neither
    from scipy.linalg import blas, lapack
    real = np.isrealobj(a)
    trd, mqr = ("dsytrd", "dormqr") if real else ("zhetrd", "zunmqr")
    n = a.shape[0]
    lwork, info = getattr(lapack, trd + "_lwork")(n, lower=1)
    _check_info(trd + "_lwork", info)
    c, d, off, tau, info = getattr(lapack, trd)(a, lower=1,
                                                lwork=int(lwork.real),
                                                overwrite_a=1)
    _check_info(trd, info)
    # dstevd takes an off-diagonal of length max(n - 1, 1)
    w, z, info = lapack.dstevd(d, off if n > 1 else [0.0])
    _check_info("dstevd", info)
    if not e.size:
        return w, np.zeros(n)
    q = np.zeros((len(e), n), dtype=np.result_type(c, e), order="F")
    q[:, n - e.shape[1]:] = e
    # Q = diag(1, Q'), and Q' is in QR storage at c[1:, :n-1]: reflector i
    # is one at row i+1 and c[i+2:, i] below.  Moved up one row in place,
    # Q' sits in the Fortran-contiguous c[:, :n-1], which reaches the
    # multiply uncopied (the slice c[1:, :n-1] would be copied whole).
    for i in range(n - 2):
        c[i + 1:n - 1, i] = c[i + 2:, i]
    # a complex q read as a real one of twice the rows (row i's real
    # part, then its imaginary part): a real Q' and Z act on both alike
    flat = q.T.view(np.float64).T if np.iscomplexobj(q) else q
    if n > 1:   # q[:, 1:] := q[:, 1:] Q', in place
        cq = flat if real else q
        _, work, info = getattr(lapack, mqr)("R", "N", c[:, :-1], tau,
                                             cq[:, 1:], -1)
        _check_info(mqr, info)
        _, _, info = getattr(lapack, mqr)("R", "N", c[:, :-1], tau,
                                          cq[:, 1:], int(work[0].real),
                                          overwrite_c=1)
        _check_info(mqr, info)
    x = blas.dgemm(1.0, flat, z)
    if flat is not q:
        x = x.T.view(q.dtype).T
    return w, np.sum(np.abs(x) ** 2, axis=0)


def _start_size(V: Potential, nmax: int) -> int:
    """First basis size `spectrum` tries: nmax plus a padding sized from
    b0, the band past which V's entries of rows below nmax sum to at most
    eps ||A_nmax||, a sqrt(nmax)-th of the rounding (`_coupling_band`).

    A Ritz vector of index n <= nmax reaches past row n by about the
    Bessel turning point 2 r_a sqrt(2n) of V's matrix elements (Szego,
    Orthogonal Polynomials, 8.22), and b0 bounds that reach.  The padding
    is 1.5 b0 + 16 rows.  A pair whose coupling 2|c_a| passes alpha, half
    the level spacing, spreads the Ritz vectors further, and the band
    part is then scaled by 1 + log2(2 max|c_a| / alpha) / 2.

    Measured by bisection over N, the smallest padding that certifies was
    0.4 to 1.7 b0 for cos kx (k = 1, 3, 6, 8; alpha = 1/2 to 4) and
    four-pair potentials, all with 2|c_a| <= alpha, at nmax = 10 to 4000
    and tolerances 1e-8 and 1e-11.  For A cos x with 2|c_a| / alpha = 2
    to 16 it rose to 2.5 b0 (alpha = 1/4, nmax = 1000).  A band far wider
    than nmax (a = (+-20, 0): b0 = 1543 at nmax = 10, 1975 at 600) needed
    0.6 to 1.05 b0, so there the start overshoots."""
    b0 = _coupling_band(V, nmax, _rounding(V, nmax) / math.sqrt(nmax))
    strength = 2.0 * max((abs(c) for _, c in V.terms), default=0.0) / V.alpha
    scale = 1.0 + 0.5 * math.log2(max(1.0, strength))
    return nmax + math.ceil(1.5 * scale * b0) + 16


def _planned_bytes(V: Potential, N: int, b: int) -> int:
    """Planned peak bytes of one attempt of `spectrum` at basis size N
    and band b, the band of its fill (`matelem._row_reach`).

    Peak bytes per entry of the N x N basis, measured in a child process
    at N = 1653-4570: 14.3-15.6 when the matrix splits, with real blocks
    (cos x) or complex ones (real c_a, a_xi != 0): two blocks of half the
    order, each one's eigenvectors or reflectors, and LAPACK's workspace
    for one.  A split matrix plans 24 per entry, the largest measurement
    with 40/27 headroom.  One block measured 41.4-41.6 when real (sin x:
    the block, `eigh`'s copy of it, the eigenvectors and dsyevd's 2 N^2
    workspace) and 33.5-34.2 when complex (quasi seed 3: the block
    reduced in place, Z and dstevd's workspace).  It plans 56, whose cap
    N <= 8757 keeps one complex block short of order 10^4, where the
    complex rounding is not yet measured.

    The couplings E_s of the blocks hold at most 16 b min(b, N) bytes
    together: about b rows of at most min(b, N) columns, 8 bytes an entry
    when real.  That upper bound is planned; it was a small part of those
    peaks (b well below N), and the plan's headroom holds it while it
    stays small.  A band near or past N (large r_a sqrt(N)) is
    counted on top of the largest measurement, 16 bytes per entry when
    split and 42 for one block: at N = 2903, b = 3389 (a pair at
    a = (+-20, 0)) one `_solve_and_certify` in a fresh process grew the
    peak by 157 MB, 19 per entry, while 24 per entry plans 202 MB and
    this 292 MB.
    """
    split, _ = _block_kinds(V)
    per_entry, measured = (24, 16) if split else (56, 42)
    return max(per_entry * N * N, measured * N * N + 16 * b * min(b, N))


def _rounding(V: Potential, N: int) -> float:
    """Modelled error of the eigensolver's eigenvalues: sqrt(N) eps
    ||A_N||, with ||A_N|| <= alpha(2N-1) + |c0| + sum |c_a|.

    A model, not a worst-case bound.  LAPACK's backward-error bound is
    p(N) eps ||A_N|| with p(N) a "modestly growing function" it does not
    pin down; the probabilistic analysis of Higham and Mary (SIAM J. Sci.
    Comput. 41, 2019) takes p(N) = sqrt(N) for rounding errors of
    independent sign.  Measured errors, against Rayleigh quotients in
    extended precision, were at most 15 eps ||A_N|| for N from 743 to
    6000, where sqrt(N) is 27 to 77.  It grows with N.
    """
    norm = V.alpha * (2 * N - 1) + abs(V.c0) + V.coefficient_sum()
    return math.sqrt(N) * _EPS * norm


def _certify(V: Potential, N: int, ritz: list, nmax: int) -> np.ndarray:
    """Bounds on |lambda_n(H+V) - theta_n| for n = 0..nmax.

    `ritz` holds each parity block's (theta, residuals) pair from
    `eigensolve`: the residual of Ritz vector x_i is ||E x_i||^2, for E =
    V[N:N+b, max(0, N-b):N] the coupling block of the fill
    (`matelem.solver_blocks`), which holds every entry the fill keeps
    between rows below N and rows past it.  For the Ritz
    vectors X = x_0..x_m of A_N the coupling to everything else is F =
    [0; E X]: zero towards the other Ritz vectors, the residuals E x_i
    towards the rest of the basis.  The complement is bounded below by
    min(theta_{m+1}, alpha(2N+1) + c0 - sum|c_a|) - sum|c_a|: the tail's
    H is at least alpha(2N+1), ||V - c0|| <= sum|c_a| since each U_a is
    unitary, and its coupling to the other Ritz vectors is a part of QVP.
    For index n, m is the smallest index >= n whose gap eta_n = that
    lower bound - theta_n is positive, and |lambda_n - theta_n| <=
    ||F||_F^2 / eta_n.  To that come, by Weyl, the entries
    `matelem._v_blocks` cut from the rows below N (`_cut_norm`), and the
    eigensolver's rounding (`_rounding`).
    """
    sigma = V.coefficient_sum()
    theta = np.concatenate([w for w, _ in ritz])
    order = np.argsort(theta, kind="stable")
    theta = theta[order]
    cum = np.cumsum(np.concatenate([res2 for _, res2 in ritz])[order])
    n = np.arange(nmax + 1)
    # index m(n) + 1: the first Ritz value beyond theta_n + sum|c_a|
    past = np.searchsorted(theta, theta[n] + sigma, side="right")
    nearest = np.minimum(np.append(theta, np.inf)[past],
                       V.alpha * (2 * N + 1) + V.c0.real - sigma)
    eta = nearest - sigma - theta[n]
    quadratic = np.full(nmax + 1, np.inf)
    ok = eta > 0
    quadratic[ok] = cum[past[ok] - 1] / eta[ok]
    return quadratic + _cut_norm(N) + _rounding(V, N)


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of a truncation, with a certified index window."""

    alpha: float
    basis_sizes: tuple[int, ...]   # every size tried, in order
    trusted_max: int
    eigenvalues: np.ndarray
    convergence_tol: float
    # >= |lambda_n(H+V) - eigenvalues[n]|, n <= trusted_max: the truncation
    # part rigorously, the eigensolver's rounding by the model of `_rounding`
    bounds: np.ndarray
    coupling_band: int      # offsets of V the fill and residuals keep
    stage_seconds: dict     # assembly, solve, certificate; all sizes tried

    @property
    def basis_size(self) -> int:
        """The basis size that certified, the last one tried."""
        return self.basis_sizes[-1]

    @property
    def max_certified_bound(self) -> float:
        return float(np.max(self.bounds))

    def trusted(self) -> np.ndarray:
        return self.eigenvalues[: self.trusted_max + 1]


def _fitted_size(V: Potential, N: int, nmax: int) -> int:
    """N when its plan (`_planned_bytes`) with the band of its fill fits
    the byte budget; else the largest size in (nmax, N) whose plan fits.

    The band, and with it the plan, grows with N, so the size is found by
    bisection.  Where no size fits, nmax + 1 is returned, the smallest
    basis with nmax + 1 Ritz values, and `_solve_and_certify` refuses it.
    """
    def over(size):
        return (_planned_bytes(V, size, _row_reach(V, size - 1))
                > specialfn.DENSE_BYTE_BUDGET)

    if N > nmax + 1 and over(N):
        N = _bisect(over, nmax + 1, N) - 1
    return N


def _solve_and_certify(V: Potential, N: int, nmax: int, seconds: dict):
    """Eigenvalues of A_N, its diagonal alpha(2k+1) + V_kk and the bounds
    for n <= nmax; stage times are added to `seconds`.  A_N, in the parity
    blocks and storage the eigensolver reads, and each block's coupling
    in A_{N+b}, b the band of the fill, come from one pass of
    `solver_blocks`; the solve stage includes the residual products
    E_s X.  The blocks and the eigenvectors (or reflectors) of one basis
    size are freed on return, before `spectrum` tries a larger one."""
    _check_byte_budget(_planned_bytes(V, N, _row_reach(V, N - 1)),
                       f"basis size {N}")
    t0 = time.perf_counter()
    blocks = solver_blocks(V, N)
    t1 = time.perf_counter()
    ritz = []
    ev = eigensolve(blocks, ritz=ritz)
    t2 = time.perf_counter()
    bounds = _certify(V, N, ritz, nmax)
    t3 = time.perf_counter()
    seconds["assembly"] += t1 - t0
    seconds["solve"] += t2 - t1
    seconds["certificate"] += t3 - t2
    return ev, blocks.diagonal, bounds


def spectrum(V: Potential, nmax: int, convergence_tol: float = 1e-8) -> Spectrum:
    """Eigenvalues of H+V certified through index nmax.

    Solves A_N, the leading block of A_{N+b}, at a start size N sized
    from V's coupling band (`_start_size`), forms the residuals of the
    eigenvectors' last rows (those the coupling block reaches), and bounds
    |lambda_n(H+V) - theta_n| for every n <= nmax (`_certify`) by the
    quadratic residual bound for Hermitian block matrices:
    |lambda_j(A) - lambda_j(diag(M, C))| <= ||E||^2 / eta_j for
    A = [[M, E*], [E, C]], with eta_j the distance from the j-th eigenvalue
    of the diagonal part to the spectrum of the other block (R. Mathias,
    "Quadratic residual bounds for the Hermitian eigenvalue problem", SIAM
    J. Matrix Anal. Appl. 19 (1998); C.-K. Li and R.-C. Li, "A note on
    eigenvalues of perturbed Hermitian matrices", Linear Algebra Appl. 395
    (2005), in the Kato-Temple line of Parlett, "The Symmetric Eigenvalue
    Problem").  It holds on every finite section of H+V past N + b and so
    in the limit.  E holds every entry the fill keeps between A_N and the
    rest; the entries of at most 1e-30 a row that the fill cuts
    (`matelem._cut_norm`) are added by Weyl's inequality, and the
    eigensolver's rounding by the probabilistic model sqrt(N) eps ||A_N||
    of `_rounding`, so the bound is rigorous for the truncation and
    modelled for the rounding.  While
    some bound exceeds convergence_tol, N grows by half.  The start size
    and each larger one are capped at the largest size whose plan with
    its fill's band (`_planned_bytes`) fits the dense byte budget
    (`_fitted_size`); once N can grow no further, TruncationError names
    the first index that fails.  An nmax that leaves no room for nmax + 1
    Ritz values under the budget is refused before assembly.
    `Spectrum.basis_sizes` lists every size tried.
    Warns, naming the indices, where sorted order may not be the
    perturbative labelling.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    # nmax + 1 is the smallest basis with nmax + 1 Ritz values; refusing
    # it in integers first keeps huge nmax away from math.sqrt
    _check_byte_budget(_planned_bytes(V, nmax + 1, 0), f"basis size {nmax + 1}")
    N = _fitted_size(V, _start_size(V, nmax), nmax)
    seconds = {"assembly": 0.0, "solve": 0.0, "certificate": 0.0}
    sizes = []
    while True:
        sizes.append(N)
        ev, first_order, bounds = _solve_and_certify(V, N, nmax, seconds)
        failing = np.flatnonzero(~(bounds <= convergence_tol))
        if not failing.size:
            break
        # the rounding term grows with N: past the tolerance, no N can pass
        grown = N
        if _rounding(V, N) <= convergence_tol:
            grown = _fitted_size(V, math.ceil(_GROWTH * N), nmax)
        if grown <= N:
            first = int(failing[0])
            raise TruncationError(
                f"certificate failed at index {first}: bound "
                f"{bounds[first]:.3e} > {convergence_tol:.3e} "
                f"(requested {nmax} at basis size {N})"
            )
        N = grown

    if V.coefficient_sum() >= V.alpha:
        # Below this bound Weyl's inequality keeps lambda_n within half the
        # level spacing of alpha(2n+1) + c0, so sorted order is the
        # perturbative labelling.  Past it, name the trusted indices whose
        # eigenvalue lies half a spacing or more from its first-order
        # prediction alpha(2n+1) + V_nn.
        drift = np.abs(ev[: nmax + 1] - first_order[: nmax + 1])
        suspect = np.flatnonzero(drift >= V.alpha)
        if suspect.size:
            warnings.warn(
                f"sum |c_a| >= alpha and |lambda_n - (alpha(2n+1) + V_nn)| "
                f">= alpha at n = {suspect.tolist()}: sorted-order eigenvalue "
                "labelling may differ from the perturbative labelling there",
                stacklevel=2,
            )
    return Spectrum(
        alpha=V.alpha,
        basis_sizes=tuple(sizes),
        trusted_max=nmax,
        eigenvalues=ev,
        convergence_tol=convergence_tol,
        bounds=bounds,
        coupling_band=_row_reach(V, N - 1),
        stage_seconds=seconds,
    )
