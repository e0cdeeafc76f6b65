"""Test oracle: the dense trace route that `resolvent` replaced.

It assembles the complex N x N `dense_oracle.v_matrix`, finds its blocks
by the exact zero scan and counts a block real by the tolerance of
`parity_oracle.dense_blocks`, and loops over the contour nodes per block.
The RS recursion runs on the whole matrix.  `resolvent` reads V's parity blocks straight
from `matelem` instead, decided from V, and runs the recursion on n's
block; tests compare the two.
"""

import math

import numpy as np

import parity_oracle
from dense_oracle import v_matrix
from oscspec.resolvent import _DENSE_NODE_STRIDE, Contour, basis_size


def dense_blocks(vm):
    """(block, lambda_k of its indices / alpha) pairs of vm; the caller
    scales lambda_k."""
    N = vm.shape[0]
    index = np.arange(N)
    return [(block, index[s]) for s, block in parity_oracle.dense_blocks(vm)]


def dense_rvr_norms(V, n, epsilon, N=None, node_count=128):
    """(operator, Hilbert-Schmidt, trace) norm maxima of RVR over the
    contour nodes, from the complex matrix."""
    if N is None:
        N = basis_size(n)
    contour = Contour(n=n, alpha=V.alpha, epsilon=epsilon,
                      node_count=node_count)
    vm = v_matrix(V, N)
    lam_k = V.alpha * (2.0 * np.arange(N) + 1.0)
    nodes = contour.nodes()
    w = np.abs(lam_k[None, :] - nodes[:, None]) ** -2.0
    hs = math.sqrt(float(np.max(np.sum((w @ np.abs(vm) ** 2) * w, axis=1))))
    blocks = [(v, lam_k[index]) for v, index in dense_blocks(vm)]
    op = tr = 0.0
    for lam in nodes[::_DENSE_NODE_STRIDE]:
        parts = []
        for v, lk in blocks:
            r = 1.0 / np.abs(lk - lam)
            parts.append(np.linalg.eigvalsh(r[:, None] * v * r[None, :]))
        sv = np.abs(np.concatenate(parts))
        op, tr = max(op, float(np.max(sv))), max(tr, float(np.sum(sv)))
    return op, hs, tr


def dense_contraction(vm, contour):
    """max ||(VR)^2||_F over the parity blocks and every
    _DENSE_NODE_STRIDE-th contour node, in complex arithmetic."""
    lam_k = contour.alpha * (2.0 * np.arange(vm.shape[0]) + 1.0)
    blocks = [(v, lam_k[index]) for v, index in dense_blocks(vm)]
    contraction = 0.0
    for lam in contour.nodes()[::_DENSE_NODE_STRIDE]:
        for v, lk in blocks:
            d = 1.0 / (lk - lam)
            vr = v * d[None, :]
            contraction = max(contraction, float(np.linalg.norm(vr @ vr)))
    return contraction


def dense_rs_orders(vm, n, alpha, jmax):
    """RS orders t_1 .. t_jmax on the whole complex matrix."""
    N = vm.shape[0]
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


def dense_trace_eigenvalue(V, n, epsilon, N=None, jmax=6, node_count=128):
    """(value, orders, contraction) of the series from the complex matrix."""
    if N is None:
        N = basis_size(n)
    contour = Contour(n=n, alpha=V.alpha, epsilon=epsilon,
                      node_count=node_count)
    vm = v_matrix(V, N)
    orders = dense_rs_orders(vm, n, V.alpha, jmax)
    value = contour.center
    for j, t in enumerate(orders, start=1):
        value += t if j % 2 else -t
    return value, orders, dense_contraction(vm, contour)
