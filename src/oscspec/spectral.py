"""Diagonalization of the truncated H+V matrix with a certified error bound.

`spectrum` solves one truncation A_N = P(H+V)P and bounds the distance of
every Ritz value theta_n, n <= nmax, from the eigenvalue lambda_n of the
full operator by a quadratic residual bound.  The Ritz vectors reach the
rest of the basis only through a corner block of V whose entries decay
super-exponentially past a band b, so their residuals cost one small
block, and the rest of the spectrum is bounded below a priori.  One
assembly of A_{N+b} serves both: its leading N x N block is solved, and
the coupling block is read from its rows N..N+b-1.  That part
of the bound is rigorous in exact arithmetic; the eigensolver's rounding
is added by a probabilistic model (`_rounding`), not a worst-case bound.
When the bound misses the tolerance, N grows geometrically up to the
largest size whose dense arrays fit `specialfn.DENSE_BYTE_BUDGET`.
When V commutes with parity (every c_a real, e.g. multiplication by an even
function such as cos x) the matrix splits exactly into its even- and
odd-index blocks, which `eigensolve` diagonalizes apart: two solves of
half the order cost about a quarter of one full solve.  The residuals need
only the last b rows of the Ritz vectors; a complex block keeps its
eigenvectors factored through its Householder tridiagonal, and LAPACK
zunmqr forms only those rows.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .matelem import (MatrixElementTable, _check_dense_budget, _real_if_real,
                      build_matrix, parity_blocks)
from .model import Potential, rho
from .specialfn import DENSE_BYTE_BUDGET

__all__ = ["Spectrum", "TruncationError", "eigensolve", "spectrum", "basis_size"]

_EPS = float(np.finfo(float).eps)
_GROWTH = 1.5


class TruncationError(RuntimeError):
    """Raised when the residual bound cannot certify the requested indices."""


def eigensolve(table: MatrixElementTable, *,
               ritz: list | None = None) -> np.ndarray:
    """All eigenvalues of the Hermitian table, ascending.

    Backed by LAPACK, one call per parity block; a purely real block
    (common for even potentials) is routed through the cheaper symmetric
    path.  Given a list `ritz`, the blocks are solved with eigenvectors,
    and one (slice, eigenvalues, rows) triple per block is appended to it:
    `rows(start)` returns rows start.. of the block's eigenvector matrix.
    A real block is solved by `np.linalg.eigh` and `rows` slices its
    eigenvectors; a complex block keeps them factored (`_factored_eigh`)
    and `rows` has zunmqr form only the rows asked for.  The out-parameter
    keeps the solve with eigenvectors inside this function, where
    perfbench's tracer observes it (the `eigensolve_N` span); a private
    helper would hide it.
    """
    m = table.entries
    parts = []
    for s in parity_blocks(m):
        block = _real_if_real(m[s, s])
        if ritz is None:
            w = np.linalg.eigvalsh(block)
        elif np.isrealobj(block):
            w, x = np.linalg.eigh(block)
            ritz.append((s, w, lambda start, x=x: x[start:]))
        else:
            w, rows = _factored_eigh(block)
            ritz.append((s, w, rows))
        parts.append(w)
    return np.sort(np.concatenate(parts))


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info={info})")


def _factored_eigh(a: np.ndarray):
    """Eigenvalues of the complex Hermitian matrix `a`, ascending, and a
    function `rows(start)` returning rows start.. of its eigenvectors.

    zhetrd reduces a = Q T Q^H with T real tridiagonal and Q = H(0) ..
    H(N-2) kept as Householder reflectors, and dstevd gives
    T = Z diag(w) Z^T.  The eigenvectors X = Q Z are never formed whole:
    `rows` has zunmqr apply the reflectors to the unit rows start.. only
    and multiplies by Z, O(N^2 (N - start)) work in place of the O(N^3)
    back-transform of `np.linalg.eigh`.  The same route for real blocks
    (dsytrd, dstevd, dormqr) solved no faster than `np.linalg.eigh` and
    certified slower, so `eigensolve` sends only complex blocks here.
    """
    from scipy.linalg import lapack   # lazily: not needed on the real path
    n = a.shape[0]
    lwork, info = lapack.zhetrd_lwork(n, lower=1)
    _check_info("zhetrd_lwork", info)
    c, d, e, tau, info = lapack.zhetrd(a, lower=1, lwork=int(lwork.real))
    _check_info("zhetrd", info)
    # dstevd takes an off-diagonal of length max(n - 1, 1)
    w, z, info = lapack.dstevd(d, e if n > 1 else [0.0])
    _check_info("dstevd", info)
    # Q = diag(1, Q'), and Q' is in QR storage at c[1:, :n-1]: reflector i
    # is one at row i+1 and c[i+2:, i] below.  Moved up one row in place,
    # Q' sits in the Fortran-contiguous c[:, :n-1], which reaches zunmqr
    # uncopied (the slice c[1:, :n-1] would be copied whole).
    for i in range(n - 2):
        c[i + 1:n - 1, i] = c[i + 2:, i]

    def rows(start: int) -> np.ndarray:
        q = np.zeros((n - start, n), dtype=complex, order="F")
        q[np.arange(n - start), np.arange(start, n)] = 1.0
        if n > 1:   # q[:, 1:] := q[:, 1:] Q', in place
            _, work, info = lapack.zunmqr("R", "N", c[:, :-1], tau,
                                          q[:, 1:], -1)
            _check_info("zunmqr", info)
            _, _, info = lapack.zunmqr("R", "N", c[:, :-1], tau, q[:, 1:],
                                       int(work[0].real), overwrite_c=1)
            _check_info("zunmqr", info)
        x = np.empty_like(q)
        x.real = q.real @ z
        x.imag = q.imag @ z
        return x

    return w, rows


def basis_size(nmax: int) -> int:
    """Padding rule: translations couple index k to a band of width O(sqrt k)."""
    return 2 * nmax + math.ceil(8.0 * math.sqrt(nmax)) + 64


def _start_size(nmax: int) -> int:
    """First basis size `spectrum` tries: nmax plus the padding of
    `basis_size`."""
    return basis_size(nmax) - nmax


def _basis_cap(bytes_per_entry: int) -> int:
    """Largest basis size whose dense arrays fit DENSE_BYTE_BUDGET."""
    return math.isqrt(DENSE_BYTE_BUDGET // bytes_per_entry)


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
    operator norm.
    """
    terms = [(math.sqrt(2.0) * rho(p, V.alpha), abs(c)) for p, c in V.terms]
    if not terms:
        return 0, 0.0
    b = 0
    while True:
        m = b + 1
        total = 0.0
        for z, c in terms:
            q = z * math.sqrt(math.e * (N + m + 1)) / (m + 1)
            if q >= 1.0:
                total = math.inf
                break
            log_t = m * math.log(z) + 0.5 * m * math.log(N + m) - math.lgamma(m + 1)
            total += c * math.exp(log_t) / (1.0 - q)
        if total <= target:
            return b, total
        b += 1


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
    thetas, res2 = [], []
    for s, w, rows in ritz:
        index = np.arange(N)[s]
        start = int(np.searchsorted(index, lo))   # the block's rows >= lo
        thetas.append(w)
        res2.append(np.sum(np.abs(E[:, index[start:] - lo] @ rows(start)) ** 2,
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
    basis_size: int
    trusted_max: int
    eigenvalues: np.ndarray
    convergence_tol: float
    # >= |lambda_n(H+V) - eigenvalues[n]|, n <= trusted_max: the truncation
    # part rigorously, the eigensolver's rounding by the model of `_rounding`
    bounds: np.ndarray
    coupling_band: int      # offsets of V the residuals keep
    stage_seconds: dict     # assembly, solve, certificate; all sizes tried

    @property
    def max_certified_bound(self) -> float:
        return float(np.max(self.bounds))

    def trusted(self) -> np.ndarray:
        return self.eigenvalues[: self.trusted_max + 1]


def _solve_and_certify(V: Potential, N: int, nmax: int, seconds: dict):
    """Eigenvalues of A_N, its diagonal alpha(2k+1) + V_kk, the bounds for
    n <= nmax and the band; stage times are added to `seconds`.  A_N and
    the coupling block E are both read from one assembly of A_{N+b}.  The
    matrix and the eigenvectors (or reflectors) of one basis size are freed
    on return, before `spectrum` tries a larger one."""
    # the dropped coupling kept to eps ||A_N||, a sqrt(N)-th of the rounding
    b, dropped = _coupling_band(V, N, _rounding(V, N) / math.sqrt(N))
    t0 = time.perf_counter()
    entries = build_matrix(V, N + b).entries
    t1 = time.perf_counter()
    ritz = []
    ev = eigensolve(MatrixElementTable(entries[:N, :N]), ritz=ritz)
    t2 = time.perf_counter()
    bounds = _certify(V, N, entries[N:, max(0, N - b):N], dropped, ritz, nmax)
    t3 = time.perf_counter()
    seconds["assembly"] += t1 - t0
    seconds["solve"] += t2 - t1
    seconds["certificate"] += t3 - t2
    return ev, entries.diagonal()[:N].real.copy(), bounds, b


def spectrum(V: Potential, nmax: int, convergence_tol: float = 1e-8) -> Spectrum:
    """Eigenvalues of H+V certified through index nmax.

    Solves A_N, the leading block of A_{N+b}, at N = nmax + ceil(8
    sqrt(nmax)) + 64, forms the last rows of the eigenvectors (those the
    coupling block reaches), and bounds
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
    convergence_tol, N grows by half up to the largest size the dense
    byte budget admits; past it, TruncationError names the first index
    that fails.  A start size over the budget is refused before assembly.
    Warns, naming the indices, where sorted order may not be the
    perturbative labelling.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    # Peak bytes per entry of the N x N basis in one attempt (the matrix of
    # order N + b, parity blocks, eigenvectors or reflectors), measured at
    # N = 1500-4500: 27.5-29.6 for real c_a and real blocks (cos x),
    # 31.5-35.8 for real c_a and a_xi != 0, and 50.7-53.7 for complex c_a
    # (one complex block: matrix, reflectors, Z and dstevd's workspace).
    per_entry = 40 if all(c.imag == 0 for _, c in V.terms) else 56
    cap = _basis_cap(per_entry)
    # the integer test first keeps huge nmax away from math.sqrt; past the
    # cap the refusal names nmax, a lower bound on the start size
    N = _start_size(nmax) if nmax <= cap else nmax
    _check_dense_budget(N, per_entry)
    seconds = {"assembly": 0.0, "solve": 0.0, "certificate": 0.0}
    while True:
        ev, first_order, bounds, band = _solve_and_certify(V, N, nmax, seconds)
        failing = np.flatnonzero(~(bounds <= convergence_tol))
        if not failing.size:
            break
        # the rounding term grows with N: past the tolerance, no N can pass
        if N == cap or _rounding(V, N) > convergence_tol:
            first = int(failing[0])
            raise TruncationError(
                f"certificate failed at index {first}: bound "
                f"{bounds[first]:.3e} > {convergence_tol:.3e} "
                f"(requested {nmax} at basis size {N})"
            )
        N = min(cap, math.ceil(_GROWTH * N))

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
        basis_size=N,
        trusted_max=nmax,
        eigenvalues=ev,
        convergence_tol=convergence_tol,
        bounds=bounds,
        coupling_band=band,
        stage_seconds=seconds,
    )
