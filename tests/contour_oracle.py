"""Test oracle: trapezoid quadrature of the contour traces.

The production trace path computes t_j by the Rayleigh-Schroedinger
recursion; this module keeps the direct route, the quadrature of
(1/2 pi i) oint lambda Tr[R (VR)^j] dlambda on a Contour, so tests can check
the recursion against it and probe the contour's epsilon and node count.
"""

import numpy as np

from dense_oracle import v_matrix
from oscspec.resolvent import DEFAULT_NODES, Contour, basis_size


def contour_traces(vm: np.ndarray, contour: Contour, jmax: int) -> np.ndarray:
    """Complex quadrature values of the traces for j = 1..jmax.

    Per node: C = D V, traces Tr[C^j D] from the diagonals of the
    accumulated powers.  The trapezoid rule on this smooth periodic
    integrand converges geometrically in the node count.
    """
    N = vm.shape[0]
    lam_k = contour.alpha * (2.0 * np.arange(N) + 1.0)
    angles = contour.angles()
    acc = np.zeros(jmax, dtype=complex)
    for angle, lam in zip(angles, contour.nodes()):
        d = 1.0 / (lam_k - lam)
        c = d[:, None] * vm
        weight = (contour.epsilon / contour.node_count) * lam * np.exp(1j * angle)
        power = c
        for j in range(1, jmax + 1):
            acc[j - 1] += weight * np.dot(np.diagonal(power), d)
            if j < jmax:
                power = power @ c
    return acc


def contour_order_j(V, n, epsilon, j=1, N=None, node_count=DEFAULT_NODES):
    """Real part of the quadrature value of t_j, as trace_order_j returns it."""
    if N is None:
        N = basis_size(n)
    contour = Contour(n=n, alpha=V.alpha, epsilon=epsilon, node_count=node_count)
    return float(contour_traces(v_matrix(V, N), contour, j)[j - 1].real)
