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
||(VR)^2|| that licenses the series is bounded from above by its Frobenius
norm on sampled contour nodes.

Every dense quantity reads V's parity blocks through `_trace_blocks`,
which sizes the basis as basis_size(n), refuses one over the byte budget,
validates the contour, and assembles by `matelem._v_blocks` straight
into block storage, once per V object and index: split into even and
odd indices when every c_a is real, and float64 when `_block_kinds` says
real, decided from V before assembly; no complex N x N matrix is built and
no block is found by scanning one.  Each block's lower triangle is
mirrored in place.  R is diagonal, so VR and RVR split with V: the norms
are summed or maximized over the blocks, exactly, and the RS recursion
runs on n's block alone.  A one-slot memo keeps the last assembly,
read-only, so `oscspec trace`'s rvr_norms and trace_eigenvalue at one
index share it.

The dense loops run over the contour nodes, and two facts cut them.
First, the levels alpha(2k+1) are real, so |R| is the same at a node and
at its conjugate: node i folds to min(i, node_count - i).  No norm of RVR
needs a general SVD: with R = P |R| and P a diagonal of phases,
RVR = P (|R| V |R|) P, so the singular values of RVR are the absolute
eigenvalues of the Hermitian |R| V |R|, and every norm of RVR is taken
once per folded node.  Second, on a block with d_k = 1/(lambda_k - lambda)
and W = diag(|d|^2), ||(VR)^2||_F^2 = d^H (V^2 o conj(VWV)) d, o the
entrywise product: V^2 is formed once per block, VWV once per folded
node, and each sampled node adds a quadratic form.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .matelem import _mirror, _v_blocks
# v_matrix has no use here; perfbench's tracer tests wrap it under this
# module's name until the benchmark is refitted (ROADMAP item 3)
from .matelem import v_matrix  # noqa: F401
from .model import Potential
from .specialfn import _check_byte_budget

__all__ = [
    "Contour",
    "NeumannDivergence",
    "ResolventSums",
    "RvrNorms",
    "TraceEigenvalue",
    "basis_size",
    "resolvent_sums",
    "rvr_norms",
    "trace_order_j",
    "trace_eigenvalue",
]

DEFAULT_NODES = 128
_DENSE_NODE_STRIDE = 16
# Peak dense bytes per entry of the N x N basis planned by rvr_norms,
# trace_eigenvalue and trace_order_j: V's blocks (4 when split and real,
# 16 in one complex block), and per block the temporaries of the norms, or
# V^2, VWV and one factor of VWV in the gate.  Measured peaks at N = 2000
# (max RSS over the resident size before the call, in a child process
# warmed at N = 600, each call assembling): rvr_norms 9.9 and
# trace_eigenvalue 10.3 bytes per entry for cos x (two real blocks), 47.3
# and 63.3 for a potential in one complex block; trace_order_j 3.5 and
# 14.4.  rvr_norms then trace_eigenvalue, sharing one assembly, peak at
# 10.1 and 63.9.
_DENSE_BYTES_PER_ENTRY = 80
# Peak bytes of resolvent_sums per contour node and basis index, at its
# DEFAULT_NODES nodes.  Measured (max RSS growth): 24.2 at N = 80064.
_SUMS_BYTES_PER_NODE_INDEX = 26


def basis_size(nmax: int) -> int:
    """Basis size of the trace route and of the test oracles,
    2 nmax + ceil(8 sqrt(nmax)) + 64: translations couple index k to a band
    of width O(sqrt k).  `spectrum` sizes its basis from V instead
    (`spectral._start_size`).  The root is taken in integers, so any nmax
    gives a size for the byte guard to refuse."""
    r = math.isqrt(64 * nmax)
    return 2 * nmax + r + (r * r < 64 * nmax) + 64


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
class ResolventSums:
    """Inverse-distance sums maximized over contour nodes (with tail bounds)."""

    s1: float        # sum over window I of |lambda - lambda_k|^-1
    s2a: float       # full inverse-square sum
    s2: float        # inverse-square sum over the complement J
    gap: float       # min distance from the contour to {lambda_k : k in J}
    tail_bound: float


def resolvent_sums(n: int, epsilon: float, N: int, alpha: float = 1.0,
                   kappa: float = 1.0 / 3.0) -> ResolventSums:
    """Maxima over the DEFAULT_NODES contour nodes of the inverse-distance
    sums to the levels k in [0, N): s1 over the window
    I = {k : |k - n| <= kappa sqrt(n)}, s2a over every k and s2 over the
    complement J of I, both with the analytic tail past N; gap is the
    least distance to a level in J.  An n outside the basis, a basis with
    no level in J, or one that ends within epsilon / (2 alpha) levels of
    n, where the tail has no bound, is refused before the distances are
    formed."""
    if n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    if n >= N:   # in integers: a huge n never reaches numpy or math.sqrt
        raise ValueError(f"n must lie in the basis 0 <= n < N = {N}, got {n}")
    _check_byte_budget(_SUMS_BYTES_PER_NODE_INDEX * DEFAULT_NODES * N,
                       f"{DEFAULT_NODES} contour nodes at basis size {N}")
    k = np.arange(N)
    inside = np.abs(k - n) <= kappa * math.sqrt(n)
    if inside[0] and inside[-1]:   # then the window I holds every k < N
        raise ValueError(f"the basis 0 <= k < N = {N} holds no level outside "
                         f"the window of n = {n}")
    contour = Contour(n=n, alpha=alpha, epsilon=epsilon)
    # |lambda - lambda_k| >= 2 alpha (k - n) - epsilon for k > n, so the
    # tail past N sums to at most 1 / (2 alpha lead)
    lead = 2.0 * alpha * (N - 1 - n) - epsilon
    if lead <= 0:
        raise ValueError(f"the basis 0 <= k < N = {N} ends within epsilon / "
                         f"(2 alpha) = {epsilon / (2.0 * alpha):.4g} levels of "
                         f"n = {n}: the sums past it have no bound")
    lam = contour.nodes()[:, None]
    lam_k = alpha * (2.0 * k + 1.0)[None, :]
    dist = np.abs(lam - lam_k)
    tail = 1.0 / (2.0 * alpha * lead)
    s1 = float(np.max(np.sum(1.0 / dist[:, inside], axis=1)))
    s2a = float(np.max(np.sum(dist**-2, axis=1))) + tail
    outside = dist[:, ~inside]
    s2 = float(np.max(np.sum(outside ** -2, axis=1))) + tail
    gap = float(np.min(outside))
    return ResolventSums(s1=s1, s2a=s2a, s2=s2, gap=gap, tail_bound=tail)


@dataclass(frozen=True)
class _TraceBlocks:
    """V's N x N truncation as its parity blocks, read-only: one
    (index, levels, block) triple per block, `index` the basis indices it
    holds, `levels` their unperturbed eigenvalues alpha(2k+1) and `block`
    = V[index, index] with both triangles filled, float64 when real."""

    N: int
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _assemble(V: Potential, N: int) -> _TraceBlocks:
    """V's parity blocks from `matelem._v_blocks`, the lower triangle of
    each mirrored into its upper one in place."""
    parts = []
    for s, block, _ in _v_blocks(V, 0, N):
        _mirror(block)
        if np.isrealobj(block):
            block = block.T   # symmetric: the same matrix, C-ordered
        index = np.arange(N)[s]
        levels = V.alpha * (2.0 * index + 1.0)
        for a in (index, levels, block):
            a.flags.writeable = False
        parts.append((index, levels, block))
    return _TraceBlocks(N=N, blocks=tuple(parts))


# The last assembly as (V, blocks).  The slot holds V, so no other object
# can take its identity while the entry lives.  `oscspec trace` calls
# rvr_norms and trace_eigenvalue at one index with one V, so one slot
# serves it.
_last: list = []
_last_lock = threading.Lock()


def _trace_blocks(V: Potential, n: int, epsilon: float | None = None,
                  node_count: int = DEFAULT_NODES) -> _TraceBlocks:
    """V's parity blocks at basis size N = basis_size(n), assembled once
    per V object and n; n < 0 and the byte budget refuse it first.

    Given epsilon, the Contour around n is validated between the byte guard
    and the assembly: an oversized basis is reported first, and an invalid
    contour is refused without assembling.

    Potentials that compare equal are assembled apart: they may still
    assemble differently (the phases of -0.0 and 0.0 differ by rounding).
    The old assembly is dropped before a new one is built, so two are
    never alive at once; the one kept stays alive until a call with
    another V or n, at most 16 bytes per entry of the N x N basis.
    """
    if n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    N = basis_size(n)
    _check_byte_budget(_DENSE_BYTES_PER_ENTRY * N * N, f"basis size {N}")
    if epsilon is not None:
        Contour(n=n, alpha=V.alpha, epsilon=epsilon, node_count=node_count)
    with _last_lock:
        if _last and _last[0][0] is V and _last[0][1].N == N:
            return _last[0][1]
        _last.clear()
        blocks = _assemble(V, N)
        _last.append((V, blocks))
        return blocks


def _sampled_nodes(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Every _DENSE_NODE_STRIDE-th node index i, and each folded to
    min(i, node_count - i): the index of the node or of its conjugate,
    which has the same |R| since the levels are real."""
    sampled = np.arange(0, node_count, _DENSE_NODE_STRIDE)
    return sampled, np.minimum(sampled, node_count - sampled)


@dataclass(frozen=True)
class RvrNorms:
    """Norm maxima of R(lambda) V R(lambda) over contour nodes."""

    operator_norm: float
    hilbert_schmidt: float
    trace_norm: float


def rvr_norms(V: Potential, n: int, epsilon: float,
              node_count: int = DEFAULT_NODES) -> RvrNorms:
    """Hilbert-Schmidt norm at every node; operator and trace norms at
    every _DENSE_NODE_STRIDE-th node, from the eigenvalues of |R| V |R|
    (one symmetric eigensolve per parity block, real when the block is).
    Each norm is read from |R|, so each is taken once per node folded with
    its conjugate: node_count / 2 + 1 Hilbert-Schmidt rows, and 5
    eigensolves per block at the default 128 nodes.

    On the basis_size(n) basis the trace norm is converged only to about
    1e-3 relative: it moves by 2.4e-4 to 8.0e-4 between N and 2N
    (cos x and a complex potential, n = 10, 72, 256), while the
    Hilbert-Schmidt norm moves by at most 1.5e-8 and the operator norm by
    4.4e-16.
    """
    tb = _trace_blocks(V, n, epsilon, node_count)
    contour = Contour(n=n, alpha=V.alpha, epsilon=epsilon, node_count=node_count)
    nodes = contour.nodes()

    # ||RVR||_2^2 = sum_kl w_k |V_kl|^2 w_l with w = |R|^2, at every node
    # up to conjugation at once, summed over the parity blocks
    half = nodes[:node_count // 2 + 1]
    hs = np.zeros(len(half))
    for _, lk, v in tb.blocks:
        w = np.abs(lk[None, :] - half[:, None]) ** -2.0
        hs += np.sum((w @ np.abs(v) ** 2) * w, axis=1)
    hs_best = math.sqrt(float(np.max(hs)))

    # the singular values of RVR are those of its parity blocks together
    op_best = tr_best = 0.0
    for lam in nodes[np.unique(_sampled_nodes(node_count)[1])]:
        parts = []
        for _, lk, v in tb.blocks:
            r = 1.0 / np.abs(lk - lam)
            parts.append(np.linalg.eigvalsh(r[:, None] * v * r[None, :]))
        sv = np.abs(np.concatenate(parts))
        op_best = max(op_best, float(np.max(sv)))
        tr_best = max(tr_best, float(np.sum(sv)))
    return RvrNorms(operator_norm=op_best, hilbert_schmidt=hs_best,
                    trace_norm=tr_best)


def _rs_orders(tb: _TraceBlocks, n: int, alpha: float,
               jmax: int) -> np.ndarray:
    """Contour traces t_1 .. t_jmax from the Rayleigh-Schroedinger recursion.

    (1/2 pi i) oint lambda Tr[R (VR)^j] dlambda around the isolated
    eigenvalue alpha(2n+1) is, up to the sign (-1)^(j+1), the j-th Taylor
    coefficient of lambda_n(kappa) for H0 + kappa V (Kato, II.2): the RS
    correction E^j of the same truncated matrix.  In intermediate
    normalisation, from psi^0 = e_n:  E^j = (V psi^(j-1))_n and
    psi^j = S (V psi^(j-1) - sum_{i=1..j} E^i psi^(j-i)), where the reduced
    resolvent S = Q / (alpha(2n+1) - H0) is diagonal.  Each order costs one
    matrix-vector product.  V preserves the parity blocks, so every psi^j
    lies in n's block and the recursion runs there alone.
    """
    # the blocks are (even, odd) or one block of every index
    index, _, v = tb.blocks[n % len(tb.blocks)]
    at = n // len(tb.blocks)
    gap = 2.0 * alpha * (n - index)
    gap[at] = 1.0
    reduced = 1.0 / gap
    reduced[at] = 0.0
    psi = [np.zeros(len(index), dtype=v.dtype)]
    psi[0][at] = 1.0
    energies = [0.0]
    for j in range(1, jmax + 1):
        v_psi = v @ psi[j - 1]
        energies.append(v_psi[at])
        for i in range(1, j + 1):
            v_psi -= energies[i] * psi[j - i]
        psi.append(reduced * v_psi)
    return np.array([(-1.0) ** (j + 1) * energies[j].real
                     for j in range(1, jmax + 1)])


def _neumann_contraction(tb: _TraceBlocks, contour: Contour) -> float:
    """max ||(VR)^2||_F over every _DENSE_NODE_STRIDE-th contour node;
    raises NeumannDivergence if it reaches 1.

    The Frobenius norm bounds the spectral norm from above, so the gate can
    only reject more; it is tight here, as (VR)^2 is close to rank one.
    (VR)^2 = V (RVR) is block diagonal with V, so its norm is the largest
    over the parity blocks.  On a block, with d_k = 1/(lambda_k - lambda)
    and W = diag(|d|^2), ||V D V D||_F^2 = Tr[V D V W V D* V] is the
    Hermitian form d^H (V^2 o conj(VWV)) d, o the entrywise product.  V^2
    is formed once per block, and VWV = (V|R|)(V|R|)^H depends on |R|
    alone, so one Hermitian product serves a node and its conjugate; each
    sampled node then adds an O(m^2) form.  The conjugate must sit on VWV:
    on V^2 instead, a complex block would give each node its partner's
    value.
    """
    nodes = contour.nodes()
    sampled, folded = _sampled_nodes(contour.node_count)
    square = 0.0
    for _, lk, v in tb.blocks:
        real = np.isrealobj(v)
        v2 = v @ v.conj().T   # V^2, symmetric product when real
        for f in np.unique(folded):
            r = 1.0 / np.abs(lk - nodes[f])
            if real:
                vr = v * r
                form = vr @ vr.T   # VWV: one symmetric product
            else:
                # conj(VWV) = V^T W V^T, as conj(V) = V^T: no conjugate copy
                form = v.T @ (r[:, None] ** 2 * v.T)
            form *= v2
            for lam in nodes[sampled[folded == f]]:
                d = 1.0 / (lk - lam)
                if real:
                    # d^H A d = a^T A a + b^T A b for d = a + ib, A real
                    # symmetric
                    x = d.view(np.float64).reshape(-1, 2)
                    q = float(np.sum(x * (form @ x)))
                else:
                    q = float(np.vdot(d, form @ d).real)
                square = max(square, q)
            del form   # released before the next product is formed
    contraction = math.sqrt(square)
    if contraction >= 1.0:
        raise NeumannDivergence(
            f"||(VR)^2|| reaches {contraction:.3f} >= 1 on the contour "
            "(Frobenius upper bound); the eigenvalue series is not "
            "guaranteed to converge"
        )
    return contraction


def trace_order_j(V: Potential, n: int, j: int = 1) -> float:
    """Trace of (1/2 pi i) oint lambda R(lambda) (V R(lambda))^j dlambda.

    Evaluated exactly by the RS recursion, so no contour enters.
    """
    if j < 1:
        raise ValueError("j must be at least 1")
    return float(_rs_orders(_trace_blocks(V, n), n, V.alpha, j)[j - 1])


@dataclass(frozen=True)
class TraceEigenvalue:
    """Eigenvalue reconstructed from contour traces, with its partial sums.

    `contraction` is a Frobenius upper bound on the Neumann contraction
    ||(VR)^2||, not its exact 2-norm.
    """

    value: float
    unperturbed: float
    orders: tuple[float, ...]          # t_1 .. t_jmax
    partial_sums: tuple[float, ...]    # prediction after including each order
    contraction: float                 # largest ||(VR)^2||_F


def trace_eigenvalue(V: Potential, n: int, epsilon: float,
                     jmax: int = 6) -> TraceEigenvalue:
    """lambda_n(H+V) from the alternating series of contour traces.

    value = alpha(2n+1) + sum_{j=1}^{jmax} (-1)^(j+1) t_j, with the t_j
    from the RS recursion.  The even-power contraction ||(VR)^2|| is
    bounded by its Frobenius norm on sampled contour nodes; the series is
    rejected if the bound reaches 1.
    """
    if jmax < 1:
        raise ValueError("jmax must be at least 1")
    tb = _trace_blocks(V, n, epsilon)
    contour = Contour(n=n, alpha=V.alpha, epsilon=epsilon)
    contraction = _neumann_contraction(tb, contour)
    orders = tuple(float(t) for t in _rs_orders(tb, n, V.alpha, jmax))
    base = contour.center
    partial = []
    total = base
    for j, t in enumerate(orders, start=1):
        total += t if j % 2 else -t
        partial.append(total)
    return TraceEigenvalue(value=total, unperturbed=base, orders=orders,
                           partial_sums=tuple(partial), contraction=contraction)
