"""Compare trace-series eigenvalues against direct diagonalization.

For the cos x benchmark, prints the two values and their difference at a
few indices, together with the per-order contributions of the trace series
(computed by Rayleigh-Schroedinger recursion) and the Neumann contraction
max ||(VR)^2|| on the sampled contour nodes.

Usage: python scripts/trace_vs_diagonalization.py [n ...]
"""

import sys
import warnings

from oscspec.model import Potential
from oscspec.resolvent import NeumannDivergence, trace_eigenvalue
from oscspec.spectral import spectrum


def main():
    ns = [int(a) for a in sys.argv[1:]] or [16, 64, 256]
    V = Potential.cosine(alpha=1.0, amplitude=1.0, frequency=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = spectrum(V, nmax=max(ns))
    for n in ns:
        try:
            te = trace_eigenvalue(V, n, epsilon=0.5, jmax=6)
        except NeumannDivergence as exc:
            print(f"n={n}: skipped ({exc})")
            continue
        direct = float(spec.eigenvalues[n])
        orders = ", ".join(f"{t:+.3e}" for t in te.orders)
        print(f"n={n}: trace {te.value:.12f}  direct {direct:.12f}  "
              f"diff {abs(te.value - direct):.2e}")
        print(f"       orders [{orders}]  contraction {te.contraction:.4f}")


if __name__ == "__main__":
    main()
