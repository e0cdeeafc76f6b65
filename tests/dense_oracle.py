"""Test oracle: the uncut dense complex fill of V that `matelem._v_blocks`
replaced.

`matelem` fills V once, into parity-block storage of a row range, for
`spectrum`, the trace route, `window_sup` and `v_matrix`, and cuts each
row where its entries past the reach sum to at most `matelem._REACH_TOL`.
This oracle keeps the fill as it stood before, and uncut: one pass of the
magnitude recurrence into the upper triangle of a dense complex block
from row lo, every row out to the block's edge, every pair added in
order, the strict upper triangle mirrored down with conjugation.  It
shares only the recurrence and the pairs' coefficients with `matelem`;
tests compare the two fills where the fill is nonzero, and bound the
oracle's entries where the cut left 0.
"""

import math

import numpy as np

from oscspec.matelem import _REACH_TOL, _add_rows, _magnitudes, _pair_terms


def assert_cut_fill(got, want):
    """Assert that the fill `got` is the uncut `want` as `_v_blocks` cuts
    it: bitwise equal wherever `got` is nonzero, and where `got` holds 0,
    `want`'s entry at most _REACH_TOL in modulus.  Returns how many
    nonzero entries of `want` were cut."""
    got, want = np.asarray(got), np.asarray(want)
    kept = got != 0
    np.testing.assert_array_equal(got[kept], want[kept])
    cut = want[~kept]
    assert np.all(np.abs(cut) <= _REACH_TOL), np.max(np.abs(cut))
    return int(np.count_nonzero(cut))


def _accumulate_pairs(out, V, lo):
    """Add the contribution of every {a, -a} pair of V to the upper
    triangle of `out`, the block of rows and columns lo .. lo + len(out) - 1.

    One pass of the magnitude recurrence, stacked over the pairs and shared
    across all diagonal offsets m = k' - k; row k is written on its own,
    as the recurrence's chunk holding degree k comes.
    """
    pairs = V.pairs()
    n = out.shape[0]
    if not pairs or n == 0:
        return
    m = np.arange(n, dtype=float)
    r, coeff = _pair_terms(pairs, V.alpha, m)
    rows = np.arange(lo + n)
    widths = np.where(rows >= lo, lo + n - rows, 0)
    for k0, chunk in _magnitudes(r, m, lo + n - 1, widths):
        for k, g in enumerate(chunk, k0):
            if k >= lo:
                w = lo + n - k
                _add_rows(out[k - lo, k - lo:], coeff[:, :w] * g[:, :w])


def v_window(V, lo, hi):
    """Dense complex matrix of <V phi_k, phi_k'>, k, k' = lo .. hi-1."""
    n = hi - lo
    upper = np.zeros((n, n), dtype=complex)
    _accumulate_pairs(upper, V, lo)
    if V.c0 != 0:
        upper[np.diag_indices(n)] += V.c0
    for k in range(n - 1):
        upper[k + 1:, k] = np.conj(upper[k, k + 1:])
    return upper


def v_matrix(V, N):
    """Dense N x N complex matrix of <V phi_k, phi_k'>."""
    return v_window(V, 0, N)


def build_matrix(V, N):
    """Dense N x N truncation alpha(2k+1) delta_{kk'} + <V phi_k, phi_k'>."""
    mat = v_matrix(V, N)
    mat[np.diag_indices(N)] += V.alpha * (2.0 * np.arange(N) + 1.0)
    return mat


def window_block(V, n):
    """The upper triangle of V on the window |k-n|, |k'-n| <= kappa sqrt(n)."""
    half = int(math.floor(V.kappa() * math.sqrt(n)))
    lo = max(0, n - half)
    block = np.zeros((n + half - lo + 1,) * 2, dtype=complex)
    _accumulate_pairs(block, V, lo)
    block[np.diag_indices(len(block))] += V.c0
    return block
