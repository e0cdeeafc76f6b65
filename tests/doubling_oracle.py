"""Test oracle: the 2N solve of the doubling check that `spectrum` replaced.

Solves the truncation at 2N, N = basis_size(nmax), in parity-block storage
(`solver_blocks`), by `np.linalg.eigvalsh` of each block's lower triangle:
at nmax = 4600 (2N = 19614) the complex 2N x 2N matrix alone would take
6.2 GB.  Its eigenvalues sit no further than `spectrum`'s from those of
H+V (interlacing), but no bound says how far; tests use them as an
independent reference for the certified bounds of `spectrum`.
"""

import numpy as np

from oscspec.matelem import solver_blocks
from oscspec.resolvent import basis_size


def doubling_eigenvalues(V, nmax):
    """Eigenvalues 0..nmax of the 2 basis_size(nmax) truncation."""
    blocks = solver_blocks(V, 2 * basis_size(nmax), 0).blocks
    return np.sort(np.concatenate(
        [np.linalg.eigvalsh(block) for _, block, _ in blocks]))[: nmax + 1]
