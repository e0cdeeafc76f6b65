"""Spectral asymptotics of the perturbed one-dimensional harmonic oscillator.

Computes the spectrum of H + V for quasi-periodic zero-order
perturbations V built from phase-space translation operators, and
verifies the first-order eigenvalue asymptotics with their
quasi-periodic correction term.
"""

__version__ = "0.1.0"

from .model import PhasePoint, Potential, ValidationError, metric_norm, rho, validate
from .matelem import (MatrixElementTable, build_matrix, u_element,
                      u_element_bessel, u_element_oracle, v_element, v_matrix)
from .asymptotics import (AsymptoticModel, ResidualReport, first_order_diagonal,
                          residual_report, w_value)
from .spectral import Spectrum, TruncationError, eigensolve, spectrum
from .resolvent import (Contour, NeumannDivergence, resolvent_sums,
                        rvr_norms, trace_eigenvalue, trace_order_j)

__all__ = [
    "__version__",
    "PhasePoint", "Potential", "ValidationError", "metric_norm", "rho",
    "validate",
    "MatrixElementTable", "build_matrix", "u_element", "u_element_bessel",
    "u_element_oracle", "v_element", "v_matrix",
    "AsymptoticModel", "ResidualReport", "first_order_diagonal",
    "residual_report", "w_value",
    "Spectrum", "TruncationError", "eigensolve", "spectrum",
    "Contour", "NeumannDivergence", "resolvent_sums", "rvr_norms",
    "trace_eigenvalue", "trace_order_j",
]
