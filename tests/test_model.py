import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscspec.matelem import v_element
from oscspec.model import (PhasePoint, Potential, ValidationError,
                           metric_norm, rho, validate)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def cosx():
    return Potential.cosine(alpha=1.0)


class TestMetricNorm:
    def test_zero_vector(self):
        assert metric_norm(PhasePoint(0, 0), 3.7) == 0.0

    def test_euclidean_case(self):
        assert metric_norm(PhasePoint(3, 4), 1.0) == pytest.approx(5.0)

    def test_weighted_case(self):
        assert metric_norm(PhasePoint(2, 1), 4.0) == pytest.approx(math.sqrt(5))

    def test_rho_is_half(self):
        assert rho(PhasePoint(0, 0), 1.0) == 0.0
        assert rho(PhasePoint(1, 0), 1.0) == pytest.approx(0.5)
        assert rho(PhasePoint(0, 1), 2.0) == pytest.approx(math.sqrt(2) / 2)

    def test_alpha_precondition(self):
        with pytest.raises(ValueError):
            metric_norm(PhasePoint(1, 1), 0.0)
        with pytest.raises(ValueError):
            rho(PhasePoint(1, 1), -2.0)

    @given(ax=finite, axi=finite, t=st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_homogeneous(self, ax, axi, t):
        a = PhasePoint(ax, axi)
        ta = PhasePoint(t * ax, t * axi)
        assert metric_norm(ta, 2.0) == pytest.approx(
            abs(t) * metric_norm(a, 2.0), rel=1e-12, abs=1e-9)

    @given(ax1=finite, axi1=finite, ax2=finite, axi2=finite)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, ax1, axi1, ax2, axi2):
        a, b = PhasePoint(ax1, axi1), PhasePoint(ax2, axi2)
        s = PhasePoint(ax1 + ax2, axi1 + axi2)
        assert metric_norm(s, 0.5) <= (
            metric_norm(a, 0.5) + metric_norm(b, 0.5)) * (1 + 1e-12) + 1e-12

    @given(ax=finite, axi=finite)
    @settings(max_examples=100, deadline=None)
    def test_positive_definite(self, ax, axi):
        a = PhasePoint(ax, axi)
        n = metric_norm(a, 1.5)
        assert n >= 0
        if ax == 0 and axi == 0:
            assert n == 0
        elif max(abs(ax), abs(axi)) > 1e-150:  # below this, squares underflow
            assert n > 0


class TestValidate:
    def test_cosine_potential(self):
        pot = cosx()
        assert validate(pot) is None
        assert pot.gamma() == pytest.approx(1.0)
        assert pot.kappa() == pytest.approx(1.0 / (2 * math.sqrt(3)))
        assert pot.kappa() < 1.0 / 3.0
        assert pot.coefficient_sum() == pytest.approx(1.0)

    def test_missing_mirror(self):
        pot = Potential(alpha=1.0, terms=((PhasePoint(1, 0), 0.5),))
        with pytest.raises(ValidationError, match="mirror"):
            validate(pot)

    def test_broken_conjugacy(self):
        pot = Potential(alpha=1.0, terms=(
            (PhasePoint(1, 0), 0.5 + 0.1j),
            (PhasePoint(-1, 0), 0.5 + 0.1j),
        ))
        with pytest.raises(ValidationError, match="conjugate"):
            validate(pot)

    def test_empty_potential(self):
        pot = Potential(alpha=2.0)
        assert validate(pot) is None
        assert pot.kappa() == pytest.approx(1.0 / 3.0)
        assert pot.coefficient_sum() == 0.0
        assert math.isinf(pot.gamma())

    def test_negative_alpha(self):
        with pytest.raises(ValidationError, match="alpha"):
            validate(Potential.cosine(alpha=-1.0))

    def test_duplicate_points_rejected(self):
        pot = Potential(alpha=1.0, terms=(
            (PhasePoint(1, 0), 0.25),
            (PhasePoint(1, 0), 0.25),
            (PhasePoint(-1, 0), 0.5),
        ))
        with pytest.raises(ValidationError, match="duplicate"):
            validate(pot)

    def test_zero_point_rejected_in_terms(self):
        pot = Potential(alpha=1.0, terms=((PhasePoint(0, 0), 1.0),))
        with pytest.raises(ValidationError, match="c0"):
            validate(pot)

    def test_error_lists_every_problem(self):
        pot = Potential(alpha=-1.0, terms=((PhasePoint(1, 0), 0.5),))
        with pytest.raises(ValidationError) as err:
            validate(pot)
        assert len(err.value.problems) == 2

    @pytest.mark.parametrize("alpha, terms, match", [
        (1.0, ((PhasePoint(1e200, 0), 0.5), (PhasePoint(-1e200, 0), 0.5)),
         "float range"),
        (1.0, ((PhasePoint(1e-200, 0), 0.5), (PhasePoint(-1e-200, 0), 0.5)),
         "float range"),
        (1e-300, ((PhasePoint(1, 0), 0.5), (PhasePoint(-1, 0), 0.5)),
         "float range"),
        (1.0, ((PhasePoint(1, 0), 1e308),
               (PhasePoint(-1, 0), -0.3e308 + 1.5e308j)), "conjugate"),
        (1.0, tuple((PhasePoint(s * ax, 0), 1e308)
                    for ax in (1, 2) for s in (1, -1)), "overflow"),
    ])
    def test_extreme_sizes_are_problems(self, alpha, terms, match):
        # each raised OverflowError or ZeroDivisionError from float
        # arithmetic before these sizes were reported as problems
        with pytest.raises(ValidationError, match=match):
            validate(Potential(alpha=alpha, terms=terms))

    def test_symmetry_broken_mutations_rejected(self):
        import numpy as np
        rng = np.random.default_rng(2)
        base = [(PhasePoint(1, 0.5), 0.3 + 0.2j),
                (PhasePoint(-1, -0.5), 0.3 - 0.2j),
                (PhasePoint(0, 2), 0.1),
                (PhasePoint(0, -2), 0.1)]
        validate(Potential(alpha=1.0, terms=tuple(base)))
        for _ in range(20):
            idx = int(rng.integers(0, len(base)))
            mutated = list(base)
            p, c = mutated[idx]
            mutated[idx] = (p, c + complex(*rng.normal(0, 0.1, 2)))
            with pytest.raises(ValidationError):
                validate(Potential(alpha=1.0, terms=tuple(mutated)))


class TestOperatorBound:
    def test_bound_dominates_matrix_elements(self):
        pot = Potential(alpha=1.0, terms=(
            (PhasePoint(1, 0), 0.5),
            (PhasePoint(-1, 0), 0.5),
            (PhasePoint(0.6, 0.7), 0.2 + 0.1j),
            (PhasePoint(-0.6, -0.7), 0.2 - 0.1j),
        ))
        validate(pot)
        bound = pot.coefficient_sum()
        worst = max(abs(v_element(pot, k, kp))
                    for k in range(30) for kp in range(30))
        assert worst <= bound + 1e-12
