"""Validated special-function kernels.

Bessel functions of the first kind (via the cosine integral
representation), the factorial prefactor F and the recurrence
coefficients A_j used in the Bessel-series representation of oscillator
matrix elements.  All operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AjSequence",
    "bessel_j",
    "bessel_j_grid",
    "f_factor",
    "a_coefficients",
]

# Largest Bessel order supported by the quadrature path.
BESSEL_ORDER_MAX = 10**6

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x) for integer n >= 0, x >= 0."""
    return float(bessel_j_grid(n, np.array([x]))[0])


def bessel_j_grid(n: int, xs: np.ndarray) -> np.ndarray:
    """J_n over a batch of arguments x >= 0 sharing one quadrature grid.

    Composite Gauss-Legendre quadrature of (1/pi) * int_0^pi
    cos(x sin(t) - n t) dt, with the panel count growing with the largest
    x plus n so each panel sees a bounded amount of phase.  J_n(0) is exact.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > BESSEL_ORDER_MAX:
        raise ValueError(f"order {n} beyond supported range {BESSEL_ORDER_MAX}")
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < 0):
        raise ValueError("arguments must be nonnegative")
    x_max = float(np.max(xs, initial=0.0))
    panels = int(math.ceil(x_max)) + n + 16
    h = math.pi / panels
    # All panel nodes at once: centers[p] + (h/2) * gl_node
    centers = (np.arange(panels) + 0.5) * h
    theta = (centers[:, None] + (0.5 * h) * _GL_NODES[None, :]).ravel()
    w = np.broadcast_to((0.5 * h) * _GL_WEIGHTS, (panels, 10)).ravel()
    vals = np.cos(xs[:, None] * np.sin(theta)[None, :] - n * theta[None, :])
    return np.where(xs == 0, float(n == 0), vals @ w / math.pi)


def f_factor(k: int, k_prime: int) -> float:
    """The prefactor F_{k',k} = (k'!/k!) * (2/(k'+k+1))^(k'-k), in (0, 1].

    Assembled in log space so it never overflows for large indices.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > k_prime:
        raise ValueError("requires k <= k'")
    m = k_prime - k
    if m == 0:
        return 1.0
    log_f = sum(math.log(j) for j in range(k + 1, k_prime + 1)) if m <= 512 else (
        math.lgamma(k_prime + 1) - math.lgamma(k + 1)
    )
    log_f += m * math.log(2.0 / (k_prime + k + 1))
    return math.exp(log_f)


@dataclass(frozen=True)
class AjSequence:
    """Coefficients A_0..A_jmax of the Bessel-series expansion.

    A_0 = 1, A_1 = 0, A_2 = (k'-k+1)/2 and, for j >= 2,
    (j+1) A_{j+1} = (j + k'-k) A_{j-1} - (k'+k+1) A_{j-2}.
    """

    k: int
    k_prime: int
    values: tuple[float, ...]


def a_coefficients(k: int, k_prime: int, jmax: int) -> AjSequence:
    """Compute A_0..A_jmax for the pair (k, k') by the exact recurrence."""
    if k < 0 or jmax < 0:
        raise ValueError("k and jmax must be nonnegative")
    if k > k_prime:
        raise ValueError("requires k <= k'")
    m = k_prime - k
    s = k_prime + k + 1
    a = [1.0, 0.0, 0.5 * (m + 1)]
    for j in range(2, jmax):
        a.append(((j + m) * a[j - 1] - s * a[j - 2]) / (j + 1))
    return AjSequence(k=k, k_prime=k_prime, values=tuple(a[: jmax + 1]))
