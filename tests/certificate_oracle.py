"""Test oracle: the certificate of `spectrum` from full eigenvectors.

`spectral.eigensolve` never forms a factored block's Ritz vectors X: the
residuals E X come from the block's Householder reflectors applied to E
and a product with the tridiagonal's eigenvectors, all in scipy's LAPACK
and BLAS, so that the solve and its product share one OpenBLAS.  This
oracle is the certificate as it stood before: every parity block solved by
`np.linalg.eigh` with all N x N eigenvectors, and E X taken from the rows
of those at or past lo.  Band and rounding term come from `spectral`; the
coupling block E is read from the dense `dense_oracle.v_matrix` of order
N + b, and the residuals and the quadratic bound are computed here.
"""

import math

import numpy as np

from dense_oracle import build_matrix, v_matrix
from oscspec import spectral
from parity_oracle import parity_blocks


def full_eigenvector_bounds(V, N, nmax):
    """The bounds for n <= nmax and the band at basis size N."""
    m = build_matrix(V, N)
    sigma = V.coefficient_sum()
    rounding = spectral._rounding(V, N)
    b, dropped = spectral._coupling_band(V, N, rounding / math.sqrt(N))
    lo = max(0, N - b)
    E = v_matrix(V, N + b)[N:, lo:N]
    thetas, res2 = [], []
    for s in parity_blocks(m):
        w, x = np.linalg.eigh(m[s, s])
        rows = np.arange(N)[s]
        keep = rows >= lo
        thetas.append(w)
        res2.append(np.sum(np.abs(E[:, rows[keep] - lo] @ x[keep]) ** 2, axis=0))
    theta = np.concatenate(thetas)
    order = np.argsort(theta, kind="stable")
    theta = theta[order]
    cum = np.cumsum(np.concatenate(res2)[order])
    n = np.arange(nmax + 1)
    past = np.searchsorted(theta, theta[n] + sigma, side="right")
    nearest = np.minimum(np.append(theta, np.inf)[past],
                         V.alpha * (2 * N + 1) + V.c0.real - sigma)
    eta = nearest - sigma - theta[n]
    quadratic = np.full(nmax + 1, np.inf)
    ok = eta > 0
    quadratic[ok] = cum[past[ok] - 1] / eta[ok]
    return quadratic + dropped + rounding, b
