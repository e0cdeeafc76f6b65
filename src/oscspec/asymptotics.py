"""First-order eigenvalue asymptotics and residual reports.

The prediction is alpha(2n+1) + c0 + W(sqrt n) n^(-1/4), where W is a
quasi-periodic sum of cosines with frequencies sqrt2 |||a||| and
amplitudes proportional to c_a |||a|||^(-1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .matelem import v_element
from .model import Potential, metric_norm

__all__ = [
    "AsymptoticModel",
    "ResidualRow",
    "ResidualReport",
    "w_value",
    "first_order_diagonal",
    "residual_report",
]

_W_PREFACTOR = 2.0**0.25 / math.sqrt(math.pi)
_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class AsymptoticModel:
    """Evaluable form of the first-order prediction.

    wave_terms holds one entry per unordered pair {a, -a}:
    (weight 2 Re c_a, frequency sqrt2 |||a|||, |||a|||^(-1/2)).  Pairing
    a with -a makes W real by construction.
    """

    alpha: float
    c0: float
    wave_terms: tuple[tuple[float, float, float], ...]

    @classmethod
    def from_potential(cls, V: Potential) -> "AsymptoticModel":
        if abs(V.c0.imag) > _IMAG_TOL:
            raise ValueError("c0 must be real")
        waves = []
        for p, c in V.pairs():
            norm = metric_norm(p, V.alpha)
            waves.append((2.0 * c.real, math.sqrt(2.0) * norm, norm**-0.5))
        return cls(alpha=V.alpha, c0=V.c0.real, wave_terms=tuple(waves))


def w_value(model: AsymptoticModel, lam: float) -> float:
    """The quasi-periodic correction W(lambda), real by construction."""
    total = 0.0
    for weight, freq, inv_root in model.wave_terms:
        total += weight * inv_root * math.cos(freq * lam - 0.25 * math.pi)
    return _W_PREFACTOR * total


def first_order_diagonal(V: Potential, n: int) -> float:
    """The diagonal element <V phi_n, phi_n>, asserted real."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    val = v_element(V, n, n)
    if abs(val.imag) > _IMAG_TOL:
        raise AssertionError(f"diagonal element has imaginary part {val.imag}")
    return val.real


@dataclass(frozen=True)
class ResidualRow:
    n: int
    lambda_numeric: float
    lambda_unperturbed: float
    c0: float
    w_term: float
    residual: float
    scaled_residual: Optional[float]   # r_n * n^(1/2) / ln n, n >= 3 only
    alt_scaled: Optional[float]        # r_n * n^(3/4), n >= 3 only


@dataclass(frozen=True)
class ResidualReport:
    rows: tuple[ResidualRow, ...]

    # max |column| over n_lo <= n <= n_hi, None if no n >= 3 is in range
    def max_scaled(self, n_lo: int, n_hi: int) -> Optional[float]:
        return max((abs(r.scaled_residual) for r in self.rows
                    if r.scaled_residual is not None and n_lo <= r.n <= n_hi),
                   default=None)

    def max_alt_scaled(self, n_lo: int, n_hi: int) -> Optional[float]:
        return max((abs(r.alt_scaled) for r in self.rows
                    if r.alt_scaled is not None and n_lo <= r.n <= n_hi),
                   default=None)


def residual_report(model: AsymptoticModel,
                    spectrum: Sequence[tuple[int, float]]) -> ResidualReport:
    """Per-index comparison of numeric eigenvalues against the prediction.

    Scaled columns are left empty for n < 3 (ln 1 = 0 and the prediction
    is asymptotic anyway).
    """
    rows = []
    for n, lam in spectrum:
        unperturbed = model.alpha * (2 * n + 1)
        w_term = w_value(model, math.sqrt(n)) * n**-0.25 if n >= 1 else 0.0
        r = lam - unperturbed - model.c0 - w_term
        if n >= 3:
            scaled = r * math.sqrt(n) / math.log(n)
            alt = r * n**0.75
        else:
            scaled = alt = None
        rows.append(ResidualRow(
            n=n, lambda_numeric=lam, lambda_unperturbed=unperturbed,
            c0=model.c0, w_term=w_term, residual=r,
            scaled_residual=scaled, alt_scaled=alt,
        ))
    return ResidualReport(rows=tuple(rows))
