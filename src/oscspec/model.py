"""Oscillator parameter and quasi-periodic perturbation model.

A perturbation is a finite Hermitian-symmetric combination
V = sum_a c_a U_a of phase-space translation operators, plus an
optional multiple c0 of the identity.  This module owns the structural
validation (symmetry, conjugacy, distinctness) and the derived
constants gamma (minimal lattice norm) and kappa (index-window factor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PhasePoint",
    "Potential",
    "ValidationError",
    "metric_norm",
    "rho",
    "validate",
]

CONJUGACY_TOL = 1e-12
_NORM_POWERS = (-1.5, 0.0, 3.0)


@dataclass(frozen=True)
class PhasePoint:
    """A point a = (a_x, a_xi) of phase space indexing a translation U_a."""

    a_x: float
    a_xi: float

    def __post_init__(self):
        if not (math.isfinite(self.a_x) and math.isfinite(self.a_xi)):
            raise ValueError("phase point coordinates must be finite")

    def __neg__(self) -> "PhasePoint":
        return PhasePoint(-self.a_x, -self.a_xi)

    def is_zero(self) -> bool:
        return self.a_x == 0.0 and self.a_xi == 0.0


def metric_norm(a: PhasePoint, alpha: float) -> float:
    """The alpha-weighted phase-space norm (a_x^2/alpha + alpha a_xi^2)^(1/2)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return math.sqrt(a.a_x**2 / alpha + alpha * a.a_xi**2)


def rho(a: PhasePoint, alpha: float) -> float:
    """Half the metric norm of a; the natural scale of matrix elements."""
    return 0.5 * metric_norm(a, alpha)


class ValidationError(ValueError):
    """Raised when a potential violates its structural conditions."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(problems))


@dataclass(frozen=True)
class Potential:
    """V = sum_{a in Lambda'} c_a U_a + c0 * I at oscillator parameter alpha.

    `terms` pairs distinct nonzero phase points with complex coefficients;
    the zero point's coefficient lives in `c0`.  Immutable once built.
    """

    alpha: float
    terms: tuple[tuple[PhasePoint, complex], ...] = ()
    c0: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((p, complex(c)) for p, c in self.terms))
        object.__setattr__(self, "c0", complex(self.c0))

    @classmethod
    def cosine(cls, alpha: float = 1.0, amplitude: float = 1.0,
               frequency: float = 1.0) -> "Potential":
        """Multiplication by amplitude * cos(frequency * x)."""
        half = amplitude / 2.0
        return cls(alpha=alpha, terms=(
            (PhasePoint(frequency, 0.0), half),
            (PhasePoint(-frequency, 0.0), half),
        ))

    def gamma(self) -> float:
        if not self.terms:
            return math.inf
        return min(metric_norm(p, self.alpha) for p, _ in self.terms)

    def kappa(self) -> float:
        g = self.gamma()
        return 1.0 / 3.0 if math.isinf(g) else min(1.0 / 3.0, g / (2.0 * math.sqrt(3.0)))

    def coefficient_sum(self) -> float:
        """Upper bound sum |c_a| on the operator norm of V - c0*I."""
        return sum(abs(c) for _, c in self.terms)

    def pairs(self) -> list[tuple[PhasePoint, complex]]:
        """One representative (a, c_a) per unordered pair {a, -a}."""
        out = []
        for p, c in self.terms:
            if p.a_x > 0 or (p.a_x == 0 and p.a_xi > 0):
                out.append((p, c))
        return out


def _in_float_range(a: PhasePoint, c: complex, alpha: float) -> bool:
    """Whether |c| and |||a|||^p, p in _NORM_POWERS, are finite and the
    norm is nonzero, so the derived constants of `validate` exist."""
    try:
        norm = metric_norm(a, alpha)
        return (0.0 < norm < math.inf and abs(c) < math.inf
                and all(math.isfinite(norm**p) for p in _NORM_POWERS))
    except OverflowError:   # float ** raises where * gives inf
        return False


def validate(potential: Potential) -> None:
    """Check every structural condition, and that the sums of
    |||a|||^p |c_a|, p in _NORM_POWERS, are finite.

    Raises ValidationError listing all violated conditions.
    """
    problems = []
    alpha = potential.alpha
    alpha_ok = alpha > 0 and math.isfinite(alpha)
    if not alpha_ok:
        problems.append(f"alpha must be a positive finite real, got {alpha}")

    points = [p for p, _ in potential.terms]
    coeffs = {p: c for p, c in potential.terms}
    if len(set(points)) != len(points):
        problems.append("duplicate phase points in terms (merge or fix the config)")
    for p in points:
        if p.is_zero():
            problems.append("the zero phase point belongs in c0, not in terms")

    for p, c in potential.terms:
        if p.is_zero():
            continue
        if alpha_ok and not _in_float_range(p, c, alpha):
            problems.append(
                f"phase point ({p.a_x}, {p.a_xi}) in terms has a metric norm "
                f"or coefficient outside the float range at alpha = {alpha}"
            )
        mirror = -p
        if mirror not in coeffs:
            problems.append(f"missing mirror term -a for a = ({p.a_x}, {p.a_xi})")
            continue
        gap = coeffs[mirror] - c.conjugate()
        if math.hypot(gap.real, gap.imag) > CONJUGACY_TOL:  # abs() can overflow
            problems.append(
                f"coefficient at ({mirror.a_x}, {mirror.a_xi}) is not the "
                f"conjugate of the one at ({p.a_x}, {p.a_xi})"
            )
    if abs(potential.c0.imag) > CONJUGACY_TOL:
        problems.append("c0 must be real for a self-adjoint potential")

    if problems:
        raise ValidationError(problems)

    # p = 0 is sum |c_a|, the operator bound `coefficient_sum`
    sums = (sum(metric_norm(a, alpha) ** p * abs(c) for a, c in potential.terms)
            for p in _NORM_POWERS)
    if not all(math.isfinite(v) for v in sums):
        raise ValidationError(
            ["the sums over terms of |||a|||^p |c_a| overflow the float range"])
