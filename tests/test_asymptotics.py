"""Tests for the first-order prediction and residual bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import build_matrix
from oscspec.asymptotics import (
    AsymptoticModel,
    first_order_diagonal,
    residual_report,
    w_value,
)
from oscspec.model import PhasePoint, Potential, metric_norm


def cos_model(alpha=1.0, amplitude=1.0, frequency=1.0):
    return AsymptoticModel.from_potential(
        Potential.cosine(alpha=alpha, amplitude=amplitude, frequency=frequency))


class TestModelConstruction:
    def test_cosine_single_pair(self):
        model = cos_model()
        assert model.alpha == 1.0
        assert model.c0 == 0.0
        assert len(model.wave_terms) == 1
        weight, freq, inv_root = model.wave_terms[0]
        # pair {(1,0), (-1,0)} with c = 1/2 each, |||a||| = 1
        assert weight == pytest.approx(1.0)
        assert freq == pytest.approx(math.sqrt(2.0))
        assert inv_root == pytest.approx(1.0)

    def test_metric_enters_frequency(self):
        model = cos_model(alpha=4.0, frequency=2.0)
        _, freq, inv_root = model.wave_terms[0]
        norm = metric_norm(PhasePoint(2.0, 0.0), 4.0)
        assert norm == pytest.approx(1.0)
        assert freq == pytest.approx(math.sqrt(2.0) * norm)
        assert inv_root == pytest.approx(norm**-0.5)

    def test_complex_c0_rejected(self):
        V = Potential(alpha=1.0, terms=(((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)),
                      c0=1.0 + 0.1j)
        with pytest.raises(ValueError):
            AsymptoticModel.from_potential(V)


class TestWValue:
    def test_zero_argument(self):
        # cos(-pi/4) = 1/sqrt2; prefactor 2^(1/4)/sqrt(pi)
        model = cos_model()
        want = 2.0**0.25 / math.sqrt(math.pi) / math.sqrt(2.0)
        assert w_value(model, 0.0) == pytest.approx(want, rel=1e-14)
        assert w_value(model, 0.0) == pytest.approx(2.0**-0.25 / math.sqrt(math.pi),
                                                    rel=1e-14)

    def test_linear_in_amplitude(self):
        m1 = cos_model(amplitude=1.0)
        m3 = cos_model(amplitude=3.0)
        for lam in (0.0, 0.7, 5.3):
            assert w_value(m3, lam) == pytest.approx(3.0 * w_value(m1, lam),
                                                     rel=1e-13)

    @given(st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_periodicity(self, lam):
        # a single wave at frequency sqrt2 has period 2pi/sqrt2 = pi sqrt2
        model = cos_model()
        period = math.pi * math.sqrt(2.0)
        assert w_value(model, lam + period) == pytest.approx(
            w_value(model, lam), rel=1e-10, abs=1e-12)

    def test_amplitude_bound(self):
        # |W| <= prefactor * sum |weight| * inv_root
        model = cos_model(amplitude=2.0, frequency=1.5)
        cap = 2.0**0.25 / math.sqrt(math.pi) * sum(
            abs(w) * r for w, _, r in model.wave_terms)
        grid = np.linspace(0.0, 30.0, 4001)
        vals = [w_value(model, lam) for lam in grid]
        assert max(abs(v) for v in vals) <= cap + 1e-12
        # the bound is nearly attained somewhere on a long window
        assert max(abs(v) for v in vals) > 0.99 * cap


class TestPredict:
    """The first-order prediction that `residual_report` subtracts."""

    def test_matches_pieces(self):
        model = cos_model(alpha=0.5, amplitude=0.3, frequency=2.0)
        n, lam = 17, 17.6
        w_term = w_value(model, math.sqrt(n)) * n**-0.25
        row = residual_report(model, [(n, lam)]).rows[0]
        assert row.lambda_unperturbed == 0.5 * 35
        assert row.c0 == model.c0
        assert row.w_term == pytest.approx(w_term, rel=1e-15)
        assert row.residual == pytest.approx(
            lam - (0.5 * 35 + model.c0 + w_term), abs=1e-14)

    def test_c0_shift(self):
        base = cos_model()
        shifted = AsymptoticModel(alpha=base.alpha, c0=0.25,
                                  wave_terms=base.wave_terms)
        spectrum = [(n, 2.0 * n + 1.0) for n in (1, 5, 40)]
        for b, s in zip(residual_report(base, spectrum).rows,
                        residual_report(shifted, spectrum).rows):
            assert s.residual == pytest.approx(b.residual - 0.25, rel=1e-14)


class TestFirstOrderDiagonal:
    def test_ground_state_cosine(self):
        # <cos(x) phi_0, phi_0> = e^{-1/4} for alpha = 1
        V = Potential.cosine(alpha=1.0, amplitude=1.0, frequency=1.0)
        assert first_order_diagonal(V, 0) == pytest.approx(math.exp(-0.25),
                                                           rel=1e-13)

    def test_matches_matrix_diagonal(self):
        V = Potential.cosine(alpha=1.0, amplitude=0.8, frequency=1.3)
        H = build_matrix(V, 12)
        for n in range(12):
            diag = H[n, n].real - V.alpha * (2 * n + 1)
            assert first_order_diagonal(V, n) == pytest.approx(diag, abs=1e-13)

    def test_rejects_negative(self):
        V = Potential.cosine(alpha=1.0, amplitude=1.0, frequency=1.0)
        with pytest.raises(ValueError):
            first_order_diagonal(V, -1)


class TestResidualReport:
    def test_zero_potential_perfect(self):
        model = AsymptoticModel(alpha=1.0, c0=0.0, wave_terms=())
        spectrum = [(n, 2.0 * n + 1.0) for n in range(10)]
        report = residual_report(model, spectrum)
        assert all(r.residual == 0.0 for r in report.rows)
        assert report.max_scaled(3, 9) == 0.0
        assert report.max_alt_scaled(3, 9) == 0.0
        # no n >= 3 in the range: no maximum
        assert report.max_scaled(0, 2) is None
        assert report.max_alt_scaled(10, 20) is None

    def test_small_n_columns_blank(self):
        model = cos_model()
        report = residual_report(model, [(0, 1.0), (1, 3.1), (2, 5.0), (3, 7.2)])
        for row in report.rows:
            if row.n < 3:
                assert row.scaled_residual is None
                assert row.alt_scaled is None
            else:
                assert row.scaled_residual is not None

    def test_n_zero_wave_term(self):
        model = cos_model()
        report = residual_report(model, [(0, 1.0)])
        assert report.rows[0].w_term == 0.0

    def test_scalings(self):
        model = AsymptoticModel(alpha=1.0, c0=0.0, wave_terms=())
        n, bump = 16, 1e-3
        report = residual_report(model, [(n, 2.0 * n + 1.0 + bump)])
        row = report.rows[0]
        assert row.residual == pytest.approx(bump, rel=1e-12)
        assert row.scaled_residual == pytest.approx(
            bump * math.sqrt(n) / math.log(n), rel=1e-12)
        assert row.alt_scaled == pytest.approx(bump * n**0.75, rel=1e-12)
