"""Resolvent machinery on a contour, and the trace series for eigenvalues.

Everything here refers to a circular contour of radius epsilon in
(0, alpha) around the unperturbed eigenvalue alpha(2n+1): inverse-
distance sums to the unperturbed spectrum, norms of R(lambda)VR(lambda),
the contour traces t_j = (1/2 pi i) oint lambda Tr[R (VR)^j] dlambda and
the alternating-series eigenvalue reconstruction.  The traces are the
Rayleigh-Schroedinger corrections of lambda_n up to sign, so they are
computed by the RS recursion, one matrix-vector product per order, with
the diagonal reduced resolvent of the Hermite basis; contour quadrature of
the same integrals serves only as a test oracle.  The Neumann contraction
||(VR)^2|| that licenses the series is checked on sampled contour nodes.
R is diagonal, so when V splits into parity blocks (`parity_blocks`) so do
VR and RVR; the dense norms are then taken block by block, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matelem import _check_dense_budget, parity_blocks, v_matrix
from .model import Potential
from .spectral import basis_size

__all__ = [
    "Contour",
    "WindowPartition",
    "NeumannDivergence",
    "ResolventSums",
    "RvrNorms",
    "TraceEigenvalue",
    "resolvent_sums",
    "rvr_norms",
    "trace_order_j",
    "trace_eigenvalue",
]

DEFAULT_NODES = 128
_SVD_NODE_STRIDE = 16
# Peak dense bytes per entry of the N x N basis planned by rvr_norms and
# trace_eigenvalue: the complex V (16), |V|^2 (8) and the dense temporaries
# of the norms.  Measured peaks with V in one block (no parity split) were
# 58 and 66 bytes per entry at N = 2000.  trace_order_j, which holds V and
# a few vectors, plans the same.
_DENSE_BYTES_PER_ENTRY = 80


class NeumannDivergence(RuntimeError):
    """The even-power contraction check failed; the series may diverge."""


@dataclass(frozen=True)
class Contour:
    """Circular contour of radius epsilon around alpha(2n+1)."""

    n: int
    alpha: float
    epsilon: float
    node_count: int = DEFAULT_NODES

    def __post_init__(self):
        if not 0.0 < self.epsilon < self.alpha:
            raise ValueError("epsilon must lie in (0, alpha)")
        if self.node_count < 32 or self.node_count % 2:
            raise ValueError("node_count must be even and at least 32")

    @property
    def center(self) -> float:
        return self.alpha * (2 * self.n + 1)

    def angles(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.node_count) / self.node_count

    def nodes(self) -> np.ndarray:
        return self.center + self.epsilon * np.exp(1j * self.angles())


@dataclass(frozen=True)
class WindowPartition:
    """Split of [0, N) into the parabolic window I around n and its complement."""

    n: int
    inside: np.ndarray
    outside: np.ndarray

    @classmethod
    def build(cls, n: int, kappa: float, N: int) -> "WindowPartition":
        k = np.arange(N)
        mask = np.abs(k - n) <= kappa * math.sqrt(n)
        return cls(n=n, inside=k[mask], outside=k[~mask])


@dataclass(frozen=True)
class ResolventSums:
    """Inverse-distance sums maximized over contour nodes (with tail bounds)."""

    s1: float        # sum over window I of |lambda - lambda_k|^-1
    s2a: float       # full inverse-square sum
    s2: float        # inverse-square sum over the complement J
    gap: float       # min distance from the contour to {lambda_k : k in J}
    tail_bound: float


def _square_tail(n: int, alpha: float, epsilon: float, N: int) -> float:
    """Analytic bound on sum_{k >= N} |lambda - lambda_k|^-2 on the contour."""
    # |lambda - lambda_k| >= 2 alpha (k - n) - epsilon for k > n
    lead = 2.0 * alpha * (N - 1 - n) - epsilon
    if lead <= 0:
        return math.inf
    return 1.0 / (2.0 * alpha * lead)


def resolvent_sums(n: int, epsilon: float, N: int, alpha: float = 1.0,
                   kappa: float = 1.0 / 3.0,
                   node_count: int = DEFAULT_NODES) -> ResolventSums:
    """Evaluate the contour-node maxima of the inverse-distance sums."""
    contour = Contour(n=n, alpha=alpha, epsilon=epsilon, node_count=node_count)
    lam = contour.nodes()[:, None]
    lam_k = alpha * (2.0 * np.arange(N) + 1.0)[None, :]
    dist = np.abs(lam - lam_k)
    part = WindowPartition.build(n, kappa, N)
    tail = _square_tail(n, alpha, epsilon, N)
    s1 = float(np.max(np.sum(1.0 / dist[:, part.inside], axis=1)))
    s2a = float(np.max(np.sum(dist**-2, axis=1))) + tail
    s2 = float(np.max(np.sum(dist[:, part.outside] ** -2, axis=1))) + tail
    gap = float(np.min(dist[:, part.outside]))
    return ResolventSums(s1=s1, s2a=s2a, s2=s2, gap=gap, tail_bound=tail)


@dataclass(frozen=True)
class RvrNorms:
    """Norm maxima of R(lambda) V R(lambda) over contour nodes."""

    operator_norm: float
    hilbert_schmidt: float
    trace_norm: float


def rvr_norms(V: Potential, n: int, epsilon: float, N: int | None = None,
              node_count: int = DEFAULT_NODES) -> RvrNorms:
    """Hilbert-Schmidt norm at every node; operator and trace norms at a
    coarser node sample (they need a full SVD each)."""
    if N is None:
        N = basis_size(n)
    _check_dense_budget(N, _DENSE_BYTES_PER_ENTRY)
    contour = Contour(n=n, alpha=V.alpha, epsilon=epsilon, node_count=node_count)
    vm = v_matrix(V, N)
    v_abs2 = np.abs(vm) ** 2
    lam_k = V.alpha * (2.0 * np.arange(N) + 1.0)
    nodes = contour.nodes()

    hs_best = 0.0
    for lam in nodes:
        w = np.abs(lam_k - lam) ** -2.0
        hs_best = max(hs_best, float(w @ (v_abs2 @ w)))
    hs_best = math.sqrt(hs_best)

    # the singular values of RVR are those of its parity blocks together
    blocks = [(vm[s, s], lam_k[s]) for s in parity_blocks(vm)]
    op_best = tr_best = 0.0
    for lam in nodes[::_SVD_NODE_STRIDE]:
        parts = []
        for v, lk in blocks:
            d = 1.0 / (lk - lam)
            parts.append(np.linalg.svd(d[:, None] * v * d[None, :],
                                       compute_uv=False))
        sv = np.concatenate(parts)
        op_best = max(op_best, float(np.max(sv)))
        tr_best = max(tr_best, float(np.sum(sv)))
    return RvrNorms(operator_norm=op_best, hilbert_schmidt=hs_best,
                    trace_norm=tr_best)


def _rs_orders(vm: np.ndarray, n: int, alpha: float, jmax: int) -> np.ndarray:
    """Contour traces t_1 .. t_jmax from the Rayleigh-Schroedinger recursion.

    (1/2 pi i) oint lambda Tr[R (VR)^j] dlambda around the isolated
    eigenvalue alpha(2n+1) is, up to the sign (-1)^(j+1), the j-th Taylor
    coefficient of lambda_n(kappa) for H0 + kappa V (Kato, II.2): the RS
    correction E^j of the same truncated matrix.  In intermediate
    normalisation, from psi^0 = e_n:  E^j = (V psi^(j-1))_n and
    psi^j = S (V psi^(j-1) - sum_{i=1..j} E^i psi^(j-i)), where the reduced
    resolvent S = Q / (alpha(2n+1) - H0) is diagonal.  Each order costs one
    matrix-vector product.
    """
    N = vm.shape[0]
    if not 0 <= n < N:
        raise ValueError(f"index n={n} must lie in the basis [0, {N})")
    gap = 2.0 * alpha * (n - np.arange(N))
    gap[n] = 1.0
    reduced = 1.0 / gap
    reduced[n] = 0.0
    psi = [np.zeros(N, dtype=complex)]
    psi[0][n] = 1.0
    energies = [0.0j]
    for j in range(1, jmax + 1):
        v_psi = vm @ psi[j - 1]
        energies.append(v_psi[n])
        for i in range(1, j + 1):
            v_psi -= energies[i] * psi[j - i]
        psi.append(reduced * v_psi)
    return np.array([(-1.0) ** (j + 1) * energies[j].real
                     for j in range(1, jmax + 1)])


def _neumann_contraction(vm: np.ndarray, contour: Contour) -> float:
    """max ||(VR)^2|| (spectral norm) over every _SVD_NODE_STRIDE-th contour
    node; raises NeumannDivergence if it reaches 1.  (VR)^2 is block
    diagonal with V, so its norm is the largest over the parity blocks."""
    lam_k = contour.alpha * (2.0 * np.arange(vm.shape[0]) + 1.0)
    blocks = [(vm[s, s], lam_k[s]) for s in parity_blocks(vm)]
    contraction = 0.0
    for lam in contour.nodes()[::_SVD_NODE_STRIDE]:
        for v, lk in blocks:
            vr = v * (1.0 / (lk - lam))[None, :]
            contraction = max(contraction, float(np.linalg.norm(vr @ vr, 2)))
    if contraction >= 1.0:
        raise NeumannDivergence(
            f"||(VR)^2|| reaches {contraction:.3f} >= 1 on the contour; "
            "the eigenvalue series is not guaranteed to converge"
        )
    return contraction


def trace_order_j(V: Potential, n: int, N: int | None = None,
                  j: int = 1) -> float:
    """Trace of (1/2 pi i) oint lambda R(lambda) (V R(lambda))^j dlambda.

    Evaluated exactly by the RS recursion, so no contour enters.
    """
    if j < 1:
        raise ValueError("j must be at least 1")
    if N is None:
        N = basis_size(n)
    _check_dense_budget(N, _DENSE_BYTES_PER_ENTRY)
    return float(_rs_orders(v_matrix(V, N), n, V.alpha, j)[j - 1])


@dataclass(frozen=True)
class TraceEigenvalue:
    """Eigenvalue reconstructed from contour traces, with its partial sums."""

    value: float
    unperturbed: float
    orders: tuple[float, ...]          # t_1 .. t_jmax
    partial_sums: tuple[float, ...]    # prediction after including each order
    contraction: float = math.nan      # largest ||(VR)^2|| checked (nan: none)


def trace_eigenvalue(V: Potential, n: int, epsilon: float,
                     N: int | None = None, jmax: int = 6,
                     node_count: int = DEFAULT_NODES) -> TraceEigenvalue:
    """lambda_n(H+V) from the alternating series of contour traces.

    value = alpha(2n+1) + sum_{j=1}^{jmax} (-1)^(j+1) t_j, with the t_j
    from the RS recursion.  The even-power contraction ||(VR)^2|| is
    computed on sampled contour nodes; the series is rejected if it
    reaches 1.
    """
    if jmax < 1:
        raise ValueError("jmax must be at least 1")
    if N is None:
        N = basis_size(n)
    _check_dense_budget(N, _DENSE_BYTES_PER_ENTRY)
    contour = Contour(n=n, alpha=V.alpha, epsilon=epsilon, node_count=node_count)
    vm = v_matrix(V, N)
    contraction = _neumann_contraction(vm, contour)
    orders = tuple(float(t) for t in _rs_orders(vm, n, V.alpha, jmax))
    base = contour.center
    partial = []
    total = base
    for j, t in enumerate(orders, start=1):
        total += t if j % 2 else -t
        partial.append(total)
    return TraceEigenvalue(value=total, unperturbed=base, orders=orders,
                           partial_sums=tuple(partial), contraction=contraction)
