"""Test reference: generalized Laguerre polynomials by plain recurrence.

The production matrix elements run the Laguerre recurrence on prefactored,
bounded iterates inside `matelem`; this module keeps the textbook form,
L_k^{(m)}(x) itself, so tests can check the Hermite product identity
against it.
"""

import math


def laguerre(k: int, m: int, x: float) -> float:
    """Evaluate the generalized Laguerre polynomial L_k^{(m)}(x).

    Forward three-term recurrence in the degree at fixed argument.
    """
    if k < 0 or m < 0:
        raise ValueError("k and m must be nonnegative")
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if k == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + m - x
    for j in range(1, k):
        prev, cur = cur, ((2 * j + 1 + m - x) * cur - (j + m) * prev) / (j + 1)
    return cur
