"""Test oracle: the parity split and realness of an assembled matrix.

`matelem` decides from V alone, before assembly, whether the truncation
splits into even- and odd-index blocks and whether they are real
(`_block_kinds`).  This oracle reads both off a dense Hermitian matrix
instead, as the solver did before: an exact zero scan of the off-parity
entries, and a tolerance on the imaginary parts.  Tests compare the two.
"""

import numpy as np

# Relative size of the imaginary parts below which a block counts as real.
REAL_TOL = 1e-13


def parity_blocks(m):
    """Index slices of the diagonal blocks that together hold every entry of m.

    Parity P phi_k = (-1)^k phi_k satisfies P U_a P = U_{-a}, so V commutes
    with P when every c_a is real, and then every entry between an even and
    an odd index is exactly 0.0.  Returns (even, odd) slices when
    m[0::2, 1::2] is all zero, else one slice over everything.  m must be
    Hermitian, so the other off-block vanishes with it.  Exact: a single
    nonzero entry keeps the matrix whole.
    """
    if m.shape[0] > 1 and not np.any(m[0::2, 1::2]):
        return (slice(0, None, 2), slice(1, None, 2))
    return (slice(None),)


def real_if_real(block):
    """block.real when the imaginary parts of the Hermitian block are below
    REAL_TOL relative to max(1, its largest real entry), else block: the
    parity blocks of an even potential are real up to the rounding of the
    complex assembly."""
    if np.max(np.abs(block.imag)) <= REAL_TOL * max(
            1.0, np.max(np.abs(block.real))):
        return block.real
    return block


def dense_blocks(m):
    """(slice, block) of each parity block of m, real where it counts so."""
    return [(s, real_if_real(m[s, s])) for s in parity_blocks(m)]
