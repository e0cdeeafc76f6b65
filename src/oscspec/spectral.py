"""Diagonalization of the truncated H+V matrix with convergence control.

Eigenvalues of the truncation only approximate eigenvalues of H+V up to
some index; `spectrum` certifies a trusted window by re-solving at twice
the basis size and comparing every index up to nmax.  When V commutes with
parity (every c_a real, e.g. multiplication by an even function such as
cos x) the matrix splits exactly into its even- and odd-index blocks,
which `eigensolve` diagonalizes apart: two solves of half the order cost
about a quarter of one full solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .matelem import MAX_BASIS, MatrixElementTable, build_matrix, parity_blocks
from .model import Potential

__all__ = ["Spectrum", "TruncationError", "eigensolve", "spectrum", "basis_size"]

_REAL_TOL = 1e-13


class TruncationError(RuntimeError):
    """Raised when the doubling check cannot certify the requested indices."""


def eigensolve(table: MatrixElementTable) -> np.ndarray:
    """All eigenvalues of the Hermitian table, ascending.

    Backed by LAPACK's Hermitian solver, one call per parity block; a
    purely real block (common for even potentials) is routed through the
    cheaper symmetric path.
    """
    m = table.entries
    parts = []
    for s in parity_blocks(m):
        block = m[s, s]
        if np.max(np.abs(block.imag)) <= _REAL_TOL * max(
                1.0, np.max(np.abs(block.real))):
            block = block.real
        parts.append(np.linalg.eigvalsh(block))
    return np.sort(np.concatenate(parts))


def _solve_with_diagonal(V: Potential, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the N x N truncation and its real diagonal
    alpha(2k+1) + V_kk; the matrix itself is not kept."""
    table = build_matrix(V, N)
    return eigensolve(table), table.entries.diagonal().real.copy()


def basis_size(nmax: int) -> int:
    """Padding rule: translations couple index k to a band of width O(sqrt k)."""
    return 2 * nmax + math.ceil(8.0 * math.sqrt(nmax)) + 64


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of a truncation, with a certified index window."""

    alpha: float
    basis_size: int
    trusted_max: int
    eigenvalues: np.ndarray
    convergence_tol: float
    max_doubling_delta: float   # max |lambda_n(N) - lambda_n(2N)| over n <= trusted_max

    def trusted(self) -> np.ndarray:
        return self.eigenvalues[: self.trusted_max + 1]


def spectrum(V: Potential, nmax: int, convergence_tol: float = 1e-8) -> Spectrum:
    """Eigenvalues of H+V trusted through index nmax.

    Solves at N = basis_size(nmax) and again at 2N; every index 0..nmax must
    agree within convergence_tol under the doubling, else TruncationError
    names the first that does not.  Warns, naming the indices, where sorted
    order may not be the perturbative labelling.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    # the integer test first keeps huge nmax away from math.sqrt
    if nmax > MAX_BASIS or 2 * basis_size(nmax) > MAX_BASIS:
        raise ValueError(
            f"nmax {nmax} too large: the doubling solve needs basis size "
            f"2 * basis_size(nmax) <= {MAX_BASIS}"
        )
    n_basis = basis_size(nmax)
    ev, first_order = _solve_with_diagonal(V, n_basis)
    ev_double = eigensolve(build_matrix(V, 2 * n_basis))

    deltas = np.abs(ev[: nmax + 1] - ev_double[: nmax + 1])
    failing = np.flatnonzero(~(deltas <= convergence_tol))
    if failing.size:
        first = int(failing[0])
        raise TruncationError(
            f"doubling check failed at index {first}: |delta| = "
            f"{deltas[first]:.3e} > {convergence_tol:.3e} "
            f"(requested {nmax} at basis size {n_basis})"
        )

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
        basis_size=n_basis,
        trusted_max=nmax,
        eigenvalues=ev,
        convergence_tol=convergence_tol,
        max_doubling_delta=float(np.max(deltas)),
    )
