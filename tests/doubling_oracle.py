"""Test oracle: the 2N solve of the doubling check that `spectrum` replaced.

Solves the truncation at 2N, N = basis_size(nmax).  Its eigenvalues sit
no further than `spectrum`'s from those of H+V (interlacing), but no bound
says how far; tests use them as an independent reference for the
certified bounds of `spectrum`.
"""

from oscspec.matelem import build_matrix
from oscspec.spectral import basis_size, eigensolve


def doubling_eigenvalues(V, nmax):
    """Eigenvalues 0..nmax of the 2 basis_size(nmax) truncation."""
    return eigensolve(build_matrix(V, 2 * basis_size(nmax)))[: nmax + 1]
