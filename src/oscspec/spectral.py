"""Diagonalization of the truncated H+V matrix with a certified error bound.

`spectrum` solves one truncation A_N = P(H+V)P and bounds the distance of
every Ritz value theta_n, n <= nmax, from the eigenvalue lambda_n of the
full operator by a quadratic residual bound.  The Ritz vectors reach the
rest of the basis only through a corner block of V whose entries decay
super-exponentially past a band b, so their residuals cost one small
block, and the rest of the spectrum is bounded below a priori.  One pass
of `matelem.solver_blocks` assembles both, straight into the storage the
eigensolver reads: the parity blocks of A_N, their lower triangle only, in
Fortran order, float64 when real; and the coupling block, rows N..N+b-1 of
A_{N+b}.  No complex N x N matrix and no Hermitian mirror is built.  That
part of the bound is rigorous in exact arithmetic; the eigensolver's rounding
is added by a probabilistic model (`_rounding`), not a worst-case bound.
When the bound misses the tolerance, N grows geometrically up to the
largest size whose dense arrays, with the coupling block, fit
`specialfn.DENSE_BYTE_BUDGET`.
When V commutes with parity (every c_a real, e.g. multiplication by an even
function such as cos x) the matrix splits exactly into its even- and
odd-index blocks, which are assembled and diagonalized apart: two solves of
half the order cost about a quarter of one full solve.  Which blocks there
are, and whether they are real, is decided from V before assembly.  The
residuals E X need only the last b rows of the Ritz vectors; a complex
block, or a real one of order `_FACTORED_REAL_ORDER` and up, is reduced in
place and keeps its eigenvectors factored through its Householder
tridiagonal, and the reflectors and Z are applied to E itself.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

# build_matrix has no use here; perfbench's tracer tests wrap it under
# this module's name until the benchmark is refitted (ROADMAP item 4)
from .matelem import build_matrix  # noqa: F401
from .matelem import SolverBlocks, _block_kinds, solver_blocks
from . import specialfn
from .model import Potential, rho
from .specialfn import _check_byte_budget

__all__ = ["Spectrum", "TruncationError", "eigensolve", "spectrum", "basis_size"]

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


def eigensolve(matrix: SolverBlocks, *, ritz: list | None = None) -> np.ndarray:
    """All eigenvalues of the Hermitian matrix, ascending.

    `matrix` is `solver_blocks` output: split into parity blocks, typed,
    and in LAPACK's storage (lower triangle, Fortran order).  Backed by
    LAPACK, one call per parity block; a real block goes through the
    cheaper symmetric path, and factored blocks are reduced in place (they
    become the reflectors).  Given a list `ritz`, the blocks are solved
    with eigenvectors, and one (slice, eigenvalues, rows) triple per block
    is appended to it:
    `rows(start, left)` returns left @ X[start:], for the block's
    eigenvector matrix X and any `left` of as many columns as X[start:] has
    rows.  A real block below order _FACTORED_REAL_ORDER is solved by
    `np.linalg.eigh` and `rows` multiplies by its eigenvectors in numpy; a
    complex or a larger real block keeps them factored (`_factored_eigh`)
    and `rows` applies the reflectors and Z to `left` in scipy.  Either
    way the product runs in the library that solved the block, so a
    certificate never switches between numpy's and scipy's OpenBLAS
    thread pools.  The out-parameter keeps the solve with eigenvectors
    inside this function, where perfbench's tracer observes it (the
    `eigensolve_N` span); a private helper would hide it.
    """
    parts = []
    for s, block in matrix.blocks:
        if ritz is None:
            w = np.linalg.eigvalsh(block)
        elif np.isrealobj(block) and len(block) < _FACTORED_REAL_ORDER:
            w, x = np.linalg.eigh(block)
            ritz.append((s, w, lambda start, left, x=x: left @ x[start:]))
        else:
            w, rows = _factored_eigh(block)
            ritz.append((s, w, rows))
        parts.append(w)
    return np.sort(np.concatenate(parts))


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info={info})")


def _factored_eigh(a: np.ndarray):
    """Eigenvalues of the Hermitian (or real symmetric) matrix `a`,
    ascending, and a function `rows(start, left)` returning left @ X[start:]
    for its eigenvectors X and any `left` of N - start columns.  LAPACK
    reads the lower triangle of `a`, and reduces a Fortran-ordered `a` in
    place.

    zhetrd (dsytrd) reduces a = Q T Q^H with T real tridiagonal and Q =
    H(0) .. H(N-2) kept as Householder reflectors, and dstevd gives
    T = Z diag(w) Z^T.  The eigenvectors X = Q Z are never formed, not even
    their rows start..: `rows` places `left` in columns start.. of a
    zero matrix C, has zunmqr (dormqr) apply the reflectors to it from the
    right in place, and multiplies C Q by Z with scipy's dgemm, once on the
    real and imaginary parts together.  That is O(b N^2) work for b rows
    of `left`, in place of the O(N^3) back-transform of `np.linalg.eigh`.
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
    c, d, e, tau, info = getattr(lapack, trd)(a, lower=1,
                                              lwork=int(lwork.real),
                                              overwrite_a=1)
    _check_info(trd, info)
    # dstevd takes an off-diagonal of length max(n - 1, 1)
    w, z, info = lapack.dstevd(d, e if n > 1 else [0.0])
    _check_info("dstevd", info)
    # Q = diag(1, Q'), and Q' is in QR storage at c[1:, :n-1]: reflector i
    # is one at row i+1 and c[i+2:, i] below.  Moved up one row in place,
    # Q' sits in the Fortran-contiguous c[:, :n-1], which reaches the
    # multiply uncopied (the slice c[1:, :n-1] would be copied whole).
    for i in range(n - 2):
        c[i + 1:n - 1, i] = c[i + 2:, i]

    def rows(start: int, left: np.ndarray) -> np.ndarray:
        q = np.zeros((len(left), n), dtype=np.result_type(c, left), order="F")
        if not q.size:
            return q
        q[:, start:] = left
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
        return x.T.view(q.dtype).T if flat is not q else x

    return w, rows


def basis_size(nmax: int) -> int:
    """Basis size of the trace route (`resolvent`) and of the test oracles:
    translations couple index k to a band of width O(sqrt k).  `spectrum`
    sizes its basis from V instead (`_start_size`)."""
    return 2 * nmax + math.ceil(8.0 * math.sqrt(nmax)) + 64


def _start_size(V: Potential, nmax: int) -> int:
    """First basis size `spectrum` tries: nmax plus a padding sized from
    b0, the coupling band of V at N = nmax.

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
    b0, _ = _band(V, nmax)
    strength = 2.0 * max((abs(c) for _, c in V.terms), default=0.0) / V.alpha
    scale = 1.0 + 0.5 * math.log2(max(1.0, strength))
    return nmax + math.ceil(1.5 * scale * b0) + 16


def _planned_bytes(V: Potential, N: int, b: int) -> int:
    """Planned peak bytes of one attempt of `spectrum` at basis size N
    and band b.

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

    The coupling block E holds 16 b min(b, N) bytes.  It was a small part
    of those peaks (b well below N), and the plan's headroom holds it
    while it stays small.  A band near or past N (large r_a sqrt(N)) is
    counted on top of the largest measurement, 16 bytes per entry when
    split and 42 for one block: at N = 2903, b = 2968 (a pair at
    a = (+-20, 0)) the peak grew by 228 MB, 27 per entry, while 24 per
    entry plans 202 MB and this 273 MB.
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


def _coupling_band(V: Potential, N: int, target: float) -> tuple[int, float]:
    """Smallest band b whose dropped coupling is bounded by `target`, and
    that bound.

    Entries of V between index j < N and k = j + m >= N are bounded by
    sum_a |c_a| T_a(m), T_a(m) = (sqrt2 r_a)^m (N+m)^(m/2) / m!, from
    Szego's |L_j^(m)(x)| <= binom(j+m, j) e^(x/2) (Orthogonal Polynomials,
    (7.21.3)).  The ratio T_a(m+1)/T_a(m) is at most
    q = sqrt2 r_a sqrt(e (N+m+1)) / (m+1), which falls with m, so the
    offsets m > b sum to at most T_a(b+1) / (1 - q).  That sum bounds every
    row and column sum of the entries outside the block
    E = V[N:N+b, N-b:N] that `_certify` keeps, hence (Schur test) their
    operator norm.  Each term is compared with `target` by its log first,
    so one past the float range (large r_a sqrt(N)) widens b as any term
    over the target does.  Terms with c_a = 0 bound nothing and are left
    out.  Once q < 1 every term's bound falls with b, so "the bound of b
    is at most target" is false and then true: b is found by doubling,
    then bisection, in O(log b) evaluations.
    """
    terms = [(math.sqrt(2.0) * rho(p, V.alpha), abs(c)) for p, c in V.terms
             if c != 0]
    if not terms:
        return 0, 0.0
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
    b = _bisect(lambda b: dropped(b) <= target, (hi - 1) // 2, hi)
    return b, dropped(b)


def _bisect(pred, lo: int, hi: int) -> int:
    """The k in (lo, hi] where pred, false at lo and true at hi, turns true."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi


def _certify(V: Potential, N: int, E: np.ndarray, dropped: float,
             ritz: list, nmax: int) -> np.ndarray:
    """Bounds on |lambda_n(H+V) - theta_n| for n = 0..nmax.

    E = V[N:N+b, lo:N], lo = max(0, N - b), is the coupling block of the
    band b of `_coupling_band`, whose dropped coupling is `dropped`.
    For the Ritz vectors X = x_0..x_m of A_N the coupling to everything
    else is F = [0; E X]: zero towards the other Ritz vectors, the
    residuals E x_i towards the rest of the basis.  The complement is
    bounded below by min(theta_{m+1}, alpha(2N+1) + c0 - sum|c_a|) -
    sum|c_a|: the tail's H is at least alpha(2N+1), ||V - c0|| <= sum|c_a|
    since each U_a is unitary, and its coupling to the other Ritz vectors
    is a part of QVP.  For index n, m is the smallest index >= n whose gap
    eta_n = that lower bound - theta_n is positive, and
    |lambda_n - theta_n| <= ||F||_F^2 / eta_n.  To that come the dropped
    coupling (Weyl) and the eigensolver's rounding (`_rounding`).
    """
    sigma = V.coefficient_sum()
    lo = N - E.shape[1]
    # real blocks drop the rounding of e^{i m theta}, and so does their E
    if _block_kinds(V)[1]:
        E = E.real
    thetas, res2 = [], []
    for s, w, rows in ritz:
        index = np.arange(N)[s]
        start = int(np.searchsorted(index, lo))   # the block's rows >= lo
        thetas.append(w)
        res2.append(np.sum(np.abs(rows(start, E[:, index[start:] - lo])) ** 2,
                           axis=0))
    theta = np.concatenate(thetas)
    order = np.argsort(theta, kind="stable")
    theta = theta[order]
    cum = np.cumsum(np.concatenate(res2)[order])
    n = np.arange(nmax + 1)
    # index m(n) + 1: the first Ritz value beyond theta_n + sum|c_a|
    past = np.searchsorted(theta, theta[n] + sigma, side="right")
    nearest = np.minimum(np.append(theta, np.inf)[past],
                       V.alpha * (2 * N + 1) + V.c0.real - sigma)
    eta = nearest - sigma - theta[n]
    quadratic = np.full(nmax + 1, np.inf)
    ok = eta > 0
    quadratic[ok] = cum[past[ok] - 1] / eta[ok]
    return quadratic + dropped + _rounding(V, N)


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
    coupling_band: int      # offsets of V the residuals keep
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


def _band(V: Potential, N: int) -> tuple[int, float]:
    """The band b of basis size N and the coupling it drops, kept to
    eps ||A_N||, a sqrt(N)-th of the rounding (`_coupling_band`)."""
    return _coupling_band(V, N, _rounding(V, N) / math.sqrt(N))


def _fitted_size(V: Potential, N: int, nmax: int):
    """N and its band when the plan of N with that band
    (`_planned_bytes`) fits the byte budget; else the largest size in
    (nmax, N) whose plan fits, and its band.

    The band, and with it the plan, grows with N, so the size is found by
    bisection.  Where no size fits, nmax + 1 is returned, the smallest
    basis with nmax + 1 Ritz values, and `_solve_and_certify` refuses it.
    """
    def over(size, band):
        return _planned_bytes(V, size, band[0]) > specialfn.DENSE_BYTE_BUDGET

    band = _band(V, N)
    if N > nmax + 1 and over(N, band):
        N = _bisect(lambda size: over(size, _band(V, size)), nmax + 1, N) - 1
        band = _band(V, N)
    return N, band


def _solve_and_certify(V: Potential, N: int, band: tuple[int, float],
                       nmax: int, seconds: dict):
    """Eigenvalues of A_N, its diagonal alpha(2k+1) + V_kk and the bounds
    for n <= nmax, at the band b and dropped coupling `band` of `_band`;
    stage times are added to `seconds`.  A_N, in the parity blocks and
    storage the eigensolver reads, and the coupling block E of A_{N+b}
    come from one pass of `solver_blocks`.  The blocks and the
    eigenvectors (or reflectors) of one basis size are freed on return,
    before `spectrum` tries a larger one."""
    b, dropped = band
    _check_byte_budget(_planned_bytes(V, N, b), f"basis size {N}")
    t0 = time.perf_counter()
    blocks = solver_blocks(V, N, b)
    t1 = time.perf_counter()
    ritz = []
    ev = eigensolve(blocks, ritz=ritz)
    t2 = time.perf_counter()
    bounds = _certify(V, N, blocks.coupling, dropped, ritz, nmax)
    t3 = time.perf_counter()
    seconds["assembly"] += t1 - t0
    seconds["solve"] += t2 - t1
    seconds["certificate"] += t3 - t2
    return ev, blocks.diagonal, bounds


def spectrum(V: Potential, nmax: int, convergence_tol: float = 1e-8) -> Spectrum:
    """Eigenvalues of H+V certified through index nmax.

    Solves A_N, the leading block of A_{N+b}, at a start size N sized
    from V's coupling band (`_start_size`), forms the last rows of the
    eigenvectors (those the coupling block reaches), and bounds
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
    in the limit.  The dropped coupling is added by Weyl's inequality and
    the eigensolver's rounding by the probabilistic model sqrt(N) eps
    ||A_N|| of `_rounding`, so the bound is rigorous for the truncation
    and modelled for the rounding.  While some bound exceeds
    convergence_tol, N grows by half.  The start size and each larger one
    are capped at the largest size whose plan with its band
    (`_planned_bytes`) fits the dense byte budget (`_fitted_size`); once
    N can grow no further, TruncationError names the first index that
    fails.  An nmax that leaves no room for nmax + 1 Ritz values under the
    budget is refused before assembly.  `Spectrum.basis_sizes` lists
    every size tried.
    Warns, naming the indices, where sorted order may not be the
    perturbative labelling.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    # nmax + 1 is the smallest basis with nmax + 1 Ritz values; refusing
    # it in integers first keeps huge nmax away from math.sqrt
    _check_byte_budget(_planned_bytes(V, nmax + 1, 0), f"basis size {nmax + 1}")
    N, band = _fitted_size(V, _start_size(V, nmax), nmax)
    seconds = {"assembly": 0.0, "solve": 0.0, "certificate": 0.0}
    sizes = []
    while True:
        sizes.append(N)
        ev, first_order, bounds = _solve_and_certify(V, N, band, nmax, seconds)
        failing = np.flatnonzero(~(bounds <= convergence_tol))
        if not failing.size:
            break
        # the rounding term grows with N: past the tolerance, no N can pass
        grown = N
        if _rounding(V, N) <= convergence_tol:
            grown, next_band = _fitted_size(V, math.ceil(_GROWTH * N), nmax)
        if grown <= N:
            first = int(failing[0])
            raise TruncationError(
                f"certificate failed at index {first}: bound "
                f"{bounds[first]:.3e} > {convergence_tol:.3e} "
                f"(requested {nmax} at basis size {N})"
            )
        N, band = grown, next_band

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
        coupling_band=band[0],
        stage_seconds=seconds,
    )
