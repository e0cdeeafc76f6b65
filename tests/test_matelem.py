import cmath
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from laguerre_oracle import laguerre
from parity_oracle import block_coupling
from oscspec import matelem, specialfn, spectral
from oscspec.matelem import (_CHUNK, _block_kinds, _magnitudes, _row_reach,
                             _v_blocks, build_matrix, u_element,
                             u_element_bessel, u_element_oracle, v_element,
                             v_matrix, window_sup)
from oscspec.model import PhasePoint, Potential, metric_norm
from test_spectral import BLOCK_KINDS, KIND_IDS
from test_spectral import quasi_potential as seeded_quasi


def cosx():
    return Potential.cosine(alpha=1.0)


def quasi_potential():
    """Complex coefficients, a_xi != 0 and c0 != 0."""
    terms = []
    for (ax, axi), c in (((1.0, 0.0), 0.5 * np.exp(0.7j)),
                         ((0.6, 0.8), 0.2 * np.exp(2.1j))):
        c = complex(c)
        terms += [(PhasePoint(ax, axi), c), (PhasePoint(-ax, -axi), c.conjugate())]
    return Potential(alpha=1.0, terms=tuple(terms), c0=0.25)


def v_element_oracle(V, k, k_prime):
    """<V phi_k, phi_k'> from the Gauss-Hermite quadrature of every U_a."""
    total = V.c0 if k == k_prime else 0.0j
    for p, c in V.terms:
        total += c * u_element_oracle(p, V.alpha, k, k_prime)
    return total


def random_phase_point(rng, norm_cap, alpha):
    """Uniform direction, norm up to norm_cap in the alpha-weighted metric."""
    r = norm_cap * math.sqrt(rng.uniform(0, 1))
    phi = rng.uniform(0, 2 * math.pi)
    return PhasePoint(math.sqrt(alpha) * r * math.cos(phi),
                      r * math.sin(phi) / math.sqrt(alpha))


class TestUElement:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_alpha(self, alpha):
        # the series route raised ZeroDivisionError at alpha = 0 and a math
        # domain error at alpha = -1
        for route in (u_element, u_element_oracle, u_element_bessel):
            with pytest.raises(ValueError, match="positive and finite"):
                route(PhasePoint(1.0, 0.0), alpha, 0, 1)

    @pytest.mark.parametrize("k, kp", [(-1, 0), (0, -1), (-100, -100)])
    def test_rejects_negative_index(self, k, kp):
        # the oracle returned 0.7316 at k = -1, k' = 0
        for route in (u_element, u_element_oracle, u_element_bessel):
            with pytest.raises(ValueError,
                               match="^indices must be nonnegative$"):
                route(PhasePoint(1.0, 0.5), 1.0, k, kp)

    def test_identity_at_zero(self):
        a = PhasePoint(0, 0)
        assert u_element(a, 1.0, 4, 4) == 1.0
        assert u_element(a, 1.0, 4, 9) == 0.0

    def test_gaussian_integral_values(self):
        # both are the Gaussian integral e^{-1/4}
        val = u_element(PhasePoint(1, 0), 1.0, 0, 0)
        assert val == pytest.approx(math.exp(-0.25), abs=1e-14)
        assert val.imag == 0.0
        val = u_element(PhasePoint(0, 1), 1.0, 0, 0)
        assert val == pytest.approx(math.exp(-0.25), abs=1e-14)

    def test_adjoint_symmetry(self):
        a = PhasePoint(0.7, -1.3)
        for k, kp in ((2, 9), (9, 2), (5, 5)):
            lhs = u_element(a, 1.0, kp, k)
            rhs = u_element(PhasePoint(-a.a_x, -a.a_xi), 1.0, k, kp).conjugate()
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            a = random_phase_point(rng, 5.0, alpha)
            k, kp = (int(v) for v in rng.integers(0, 51, 2))
            closed = u_element(a, alpha, k, kp)
            oracle = u_element_oracle(a, alpha, k, kp)
            assert abs(closed - oracle) < 1e-10

    def test_oracle_shift_limit(self):
        # the 2600-node rule at k = k' = 300 holds up to |||a||| =
        # sqrt(2 * 2600) on every direction (along a_xi its Hermite factors
        # overflowed from 0.78 of that while they carried e^{-u^2/2} in
        # place of e^{-(u + shift)^2/2}), and refuses larger shifts
        limit = math.sqrt(2 * 2600)
        for phi in (0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi):
            a = PhasePoint(0.99 * limit * math.cos(phi),
                           0.99 * limit * math.sin(phi))
            assert abs(u_element(a, 1.0, 300, 300)
                       - u_element_oracle(a, 1.0, 300, 300)) < 1e-10
        with pytest.raises(ValueError, match=r"sqrt\(2 \* 2600\) = 72.11"):
            u_element_oracle(PhasePoint(0.0, 1.01 * limit), 1.0, 300, 300)

    def test_oracle_orthonormality(self):
        assert abs(u_element_oracle(PhasePoint(0, 0), 1.0, 3, 7)) < 1e-12
        assert u_element_oracle(PhasePoint(0, 0), 1.0, 5, 5).real == \
            pytest.approx(1.0, abs=1e-12)

    def test_explicit_phase_k0_k1(self):
        # alpha=1, a=(1,0): omega = -i/2, element = sqrt2 (i/2) e^{-1/4}
        got = u_element(PhasePoint(1, 0), 1.0, 0, 1)
        want = 1j * math.exp(-0.25) / math.sqrt(2)
        assert got == pytest.approx(want, abs=1e-14)
        assert u_element_oracle(PhasePoint(1, 0), 1.0, 0, 1) == \
            pytest.approx(want, abs=1e-12)

    @given(ax=st.floats(-20, 20), axi=st.floats(-20, 20),
           k=st.integers(0, 400), kp=st.integers(0, 400),
           alpha=st.sampled_from([0.25, 1.0, 4.0]))
    @settings(max_examples=150, deadline=None)
    def test_unit_bound(self, ax, axi, k, kp, alpha):
        val = u_element(PhasePoint(ax, axi), alpha, k, kp)
        assert abs(val) <= 1.0 + 1e-10

    def test_unitarity_row_sums(self):
        for k, a in ((10, PhasePoint(1.0, 0.5)), (60, PhasePoint(0.3, -1.2))):
            norm = metric_norm(a, 1.0)
            n_basis = k + math.ceil(40.0 * (1.0 + norm * math.sqrt(k)))
            total = sum(abs(u_element(a, 1.0, k, kp)) ** 2
                        for kp in range(n_basis))
            assert total >= 1.0 - 1e-6
            assert total <= 1.0 + 1e-10

    def test_parabolic_regime_bound(self):
        # |element| <= (4 (2rho)^{-1/2} + (2rho)^2/2) (k'+k+1)^{-1/4}
        rng = np.random.default_rng(9)
        for _ in range(60):
            kp = int(rng.integers(50, 3000))
            a = random_phase_point(rng, 2.0, 1.0)
            two_rho = metric_norm(a, 1.0)
            if two_rho == 0:
                continue
            s_min = 2 * kp + 1
            if 2.0 * (two_rho / 2.0) > s_min ** (1 / 6.0):
                continue
            dmax = int((two_rho / 2.0) * math.sqrt(s_min))
            k = kp - int(rng.integers(0, max(1, dmax + 1)))
            if k < 0 or kp < 2:
                continue
            s = kp + k + 1
            if kp - k > (two_rho / 2.0) * math.sqrt(s) or two_rho > s**(1 / 6.0):
                continue
            bound = (4.0 * two_rho**-0.5 + 0.5 * two_rho**2) * s**-0.25
            assert abs(u_element(a, 1.0, k, kp)) <= bound * (1 + 1e-12)


def quadrature_one(a, alpha, k, kp):
    """<U_a phi_k, phi_k'> by the quadrature written out for one element:
    each Hermite factor on its own recurrence, as `u_element_oracle` runs
    every segment of a batch, and the sum on the element's own arrays."""
    n_nodes = 4 * (k + kp) + 200
    u, wt = matelem._gh_rule(n_nodes)
    b = math.sqrt(alpha) * a.a_xi
    beta = a.a_x / math.sqrt(alpha)

    def psi(n, arg):
        r_prev = np.zeros_like(arg)
        r = math.pi ** -0.25 * np.exp(-0.5 * arg * arg)
        for j in range(n):
            r_prev, r = r, (arg * math.sqrt(2.0 / (j + 1)) * r
                            - math.sqrt(j / (j + 1.0)) * r_prev)
        return r

    total = np.sum(wt * psi(k, u + 0.5 * b) * psi(kp, u - 0.5 * b)
                   * np.exp(1j * beta * u))
    return complex(cmath.exp(1j * (0.5 * a.a_x * a.a_xi - 0.5 * beta * b))
                   * total)


@st.composite
def oracle_elements(draw, alpha):
    """(a, k, k') the oracle takes at alpha: k = 0, k' = 0 and k = k'
    often, and a at 0, on the a_x axis, exactly at the shift cap
    sqrt(2 n_nodes) along an axis, or anywhere inside it."""
    k = draw(st.sampled_from([0, 1, 50, 300]) | st.integers(0, 300))
    kp = draw(st.sampled_from([0, k]) | st.integers(0, 300))
    limit = math.sqrt(2 * (4 * (k + kp) + 200))
    s = math.sqrt(alpha)   # 0.5, 1 or 2: a_x / s and s a_xi are exact
    sign = draw(st.sampled_from([1.0, -1.0]))
    kind = draw(st.sampled_from(["zero", "a_xi = 0", "cap a_x", "cap a_xi",
                                 "inside"]))
    if kind == "zero":
        a = PhasePoint(0.0, 0.0)
    elif kind == "a_xi = 0":
        a = PhasePoint(s * limit * draw(st.floats(-1.0, 1.0)), 0.0)
    elif kind == "cap a_x":
        a = PhasePoint(sign * s * limit, 0.0)
    elif kind == "cap a_xi":
        a = PhasePoint(0.0, sign * limit / s)
    else:
        frac = draw(st.floats(0.0, 0.999))
        phi = draw(st.floats(0.0, 2.0 * math.pi))
        a = PhasePoint(s * frac * limit * math.cos(phi),
                       frac * limit * math.sin(phi) / s)
    return a, k, kp


class TestOracleBatch:
    """`u_element_oracle` on sequences: one recurrence for every element,
    each element with the bits of its own quadrature."""

    @given(data=st.data(), alpha=st.sampled_from([0.25, 1.0, 4.0]),
           size=st.integers(1, 6), group=st.sampled_from([400, 1000, 2**15]))
    @settings(max_examples=60, deadline=None)
    def test_batch_is_scalar_calls_bitwise(self, data, alpha, size, group):
        # groups of 400 and 1000 nodes split a batch as the 2^15 of the
        # suite's 200 draws do (a segment has 200 to 2600 nodes)
        elements = data.draw(st.lists(oracle_elements(alpha), min_size=size,
                                      max_size=size))
        points, ks, kps = zip(*elements)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matelem, "_ORACLE_GROUP_NODES", group)
            batch = u_element_oracle(points, alpha, ks, kps)
        assert batch.dtype == np.complex128 and batch.shape == (size,)
        scalar = np.array([u_element_oracle(a, alpha, k, kp)
                           for a, k, kp in elements])
        alone = np.array([quadrature_one(a, alpha, k, kp)
                          for a, k, kp in elements])
        np.testing.assert_array_equal(batch.view(np.int64),
                                      scalar.view(np.int64))
        np.testing.assert_array_equal(batch.view(np.int64),
                                      alone.view(np.int64))

    def test_scalar_and_empty(self):
        a = PhasePoint(1.0, 0.0)
        assert type(u_element_oracle(a, 1.0, 0, 1)) is complex
        batch = u_element_oracle([a], 1.0, [0], [1])
        assert batch.tolist() == [u_element_oracle(a, 1.0, 0, 1)]
        empty = u_element_oracle([], 1.0, [], [])
        assert empty.dtype == np.complex128 and empty.shape == (0,)

    def test_lengths_must_match(self):
        a = PhasePoint(1.0, 0.0)
        with pytest.raises(ValueError, match="same length"):
            u_element_oracle([a, a], 1.0, [0], [0, 1])

    @pytest.fixture
    def no_rule(self, monkeypatch):
        def refuse(n_nodes):
            raise AssertionError(f"built a {n_nodes}-node rule")

        monkeypatch.setattr(matelem, "_gh_rule", refuse)

    @pytest.mark.parametrize("bad, message", [
        ((PhasePoint(1.0, 0.0), -1, 400), "indices must be nonnegative"),
        ((PhasePoint(0.0, 1e3), 301, 0),
         "oracle quadrature capped at index 300"),
        ((PhasePoint(30.0, 0.0), 2, 1),
         "oracle quadrature at k=2, k'=1 holds for |||a||| <= "
         "sqrt(2 * 212) = 20.59, got 30"),
    ], ids=["negative index", "index cap", "shift cap"])
    def test_first_refusal_raises_before_any_rule(self, no_rule, bad,
                                                  message):
        # each element gets the scalar checks in the scalar order, and the
        # first element refused (at 150) raises, not the one at 170
        elements = [(PhasePoint(0.5, 0.5), i % 51, 3 * i % 51)
                    for i in range(200)]
        elements[150] = bad
        elements[170] = (PhasePoint(100.0, 0.0), 0, 0)
        points, ks, kps = zip(*elements)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            u_element_oracle(points, 1.0, ks, kps)

    def test_batch_over_budget_refused_before_any_rule(self, no_rule,
                                                      monkeypatch):
        # 200 elements at k = k' = 50: 400 segments of 600 nodes, 8 bytes
        # a node kept and 24 a node of one group of 2^15 nodes, plan
        # 1,920,000 + 786,432 bytes
        points, ks = [PhasePoint(0.5, 0.5)] * 200, [50] * 200
        monkeypatch.setattr(specialfn, "DENSE_BYTE_BUDGET", 2_706_432 - 1)
        with pytest.raises(ValueError,
                           match="^an oracle batch of 200 elements plans "):
            u_element_oracle(points, 1.0, ks, ks)
        monkeypatch.setattr(specialfn, "DENSE_BYTE_BUDGET", 2_706_432)
        with pytest.raises(AssertionError, match="built a 600-node rule"):
            u_element_oracle(points, 1.0, ks, ks)


@st.composite
def closed_form_elements(draw, alpha):
    """(a, k, k') for `u_element`: k, k' <= 4000 in either order, k = k',
    a = 0, a_xi = 0, and carried starts, |a| <= 0.02 with |k' - k| >= 1000
    (a start below 2^-900)."""
    kind = draw(st.sampled_from(["any", "diagonal", "zero", "real",
                                 "carried"]))
    k, kp = draw(st.integers(0, 4000)), draw(st.integers(0, 4000))
    ax, axi = draw(st.floats(-12.0, 12.0)), draw(st.floats(-12.0, 12.0))
    if kind == "diagonal":
        kp = k
    elif kind == "zero":
        ax = axi = 0.0
    elif kind == "real":
        axi = 0.0
    elif kind == "carried":
        k = draw(st.integers(0, 3000))
        kp = draw(st.integers(k + 1000, 4000))
        if draw(st.booleans()):
            k, kp = kp, k
        ax = draw(st.floats(-0.014, 0.014)) * math.sqrt(alpha)
        axi = draw(st.floats(-0.014, 0.014)) / math.sqrt(alpha)
    return PhasePoint(ax, axi), k, kp


class TestClosedFormBatch:
    """`u_element` on sequences: one elementwise recurrence for every
    element, each element with the bits it has alone."""

    @given(data=st.data(), alpha=st.sampled_from([0.25, 1.0, 4.0]),
           size=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_batch_is_singletons_bitwise(self, data, alpha, size):
        elements = data.draw(st.lists(closed_form_elements(alpha),
                                      min_size=size, max_size=size))
        points, ks, kps = zip(*elements) if elements else ((), (), ())
        batch = u_element(points, alpha, ks, kps)
        assert batch.dtype == np.complex128 and batch.shape == (size,)
        single = np.array([u_element(a, alpha, k, kp)
                           for a, k, kp in elements], dtype=complex)
        np.testing.assert_array_equal(batch.view(np.int64),
                                      single.view(np.int64))

    def test_scalar_and_empty(self):
        a = PhasePoint(1.0, 0.0)
        assert type(u_element(a, 1.0, 0, 1)) is complex
        assert type(u_element(a, 1.0, 1, 0)) is complex
        batch = u_element([a], 1.0, [0], [1])
        assert batch.tolist() == [u_element(a, 1.0, 0, 1)]
        empty = u_element([], 1.0, [], [])
        assert empty.dtype == np.complex128 and empty.shape == (0,)

    def test_lengths_must_match(self):
        a = PhasePoint(1.0, 0.0)
        with pytest.raises(ValueError, match="same length"):
            u_element([a, a], 1.0, [0], [0, 1])

    def test_swapped_elements_make_one_call(self, monkeypatch):
        # U_a^* = U_{-a}: the elements with k > k' are swapped, and their
        # point negated, in one call on the whole batch
        calls = []
        closed_form = matelem.u_element

        def spy(a, alpha, k, kp):
            calls.append(([(p.a_x, p.a_xi) for p in a], list(k), list(kp)))
            return closed_form(a, alpha, k, kp)

        monkeypatch.setattr(matelem, "u_element", spy)
        a = PhasePoint(0.3, -0.7)
        got = matelem.u_element([a, a, a], 1.0, [7, 2, 5], [3, 2, 9])
        assert calls == [([(0.3, -0.7)] * 3, [7, 2, 5], [3, 2, 9]),
                         ([(-0.3, 0.7), (0.3, -0.7), (0.3, -0.7)],
                          [3, 2, 5], [7, 2, 9])]
        assert got[0] == closed_form(-a, 1.0, 3, 7).conjugate()
        calls.clear()
        matelem.u_element([a, a], 1.0, [3, 2], [7, 2])
        assert len(calls) == 1

    @pytest.fixture
    def no_recurrence(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("ran the recurrence")

        monkeypatch.setattr(matelem, "_magnitudes", refuse)

    @pytest.mark.parametrize("bad", [(-1, 400), (400, -1), (-3, -3)])
    def test_first_refusal_raises_before_any_recurrence(self, no_recurrence,
                                                        bad):
        # each element gets the scalar check, and the first refused (at
        # 150) raises before the batch's swap or recurrence
        elements = [(PhasePoint(0.5, 0.5), i % 51, 3 * i % 51)
                    for i in range(200)]
        elements[150] = (PhasePoint(1.0, 0.0), *bad)
        points, ks, kps = zip(*elements)
        with pytest.raises(ValueError,
                           match="^indices must be nonnegative$"):
            u_element(points, 1.0, ks, kps)
        with pytest.raises(ValueError, match="positive and finite"):
            u_element(points[:150], 0.0, ks[:150], kps[:150])

    def test_batch_over_budget_refused_before_any_recurrence(
            self, no_recurrence, monkeypatch):
        # 200 elements at 8 (5 * 64 + 16) bytes each plan 537,600 bytes
        points, ks = [PhasePoint(0.5, 0.5)] * 200, [50] * 200
        monkeypatch.setattr(specialfn, "DENSE_BYTE_BUDGET", 537_600 - 1)
        with pytest.raises(ValueError, match="^a batch of 200 elements plans "):
            u_element(points, 1.0, ks, ks)
        monkeypatch.setattr(specialfn, "DENSE_BYTE_BUDGET", 537_600)
        with pytest.raises(AssertionError, match="ran the recurrence"):
            u_element(points, 1.0, ks, ks)

    @pytest.mark.parametrize("size", [1e10, 1e50, 1e100])
    def test_huge_shift_clips_the_carried_exponent(self, size):
        # from r of about 2.5e9 on the carried exponent passes int64, and
        # its cast warned "invalid value encountered in cast".  Every
        # element is a zero, pinned with its signs as the float recurrence
        # (Python ints for the exponent) gave them, alone and in one batch
        want = {(1.0, 0.0): [complex(0.0, -0.0), complex(-0.0, -0.0),
                             complex(-0.0, -0.0), complex(0.0, 0.0)],
                (0.0, 1.0): [complex(-0.0, 0.0), complex(0.0, -0.0),
                             complex(-0.0, -0.0), complex(-0.0, 0.0)]}
        ks, kps = [0, 3, 9, 40], [3, 0, 5, 41]
        for (dx, dxi), values in want.items():
            points = [PhasePoint(size * dx, size * dxi)] * 4
            want_bits = np.array(values).view(np.int64)
            np.testing.assert_array_equal(
                u_element(points, 1.0, ks, kps).view(np.int64), want_bits)
            single = np.array([u_element(p, 1.0, k, kp)
                               for p, k, kp in zip(points, ks, kps)])
            np.testing.assert_array_equal(single.view(np.int64), want_bits)

    def test_shift_past_float_range_overflows(self):
        # 2 r^2 = inf from |a| of about 1.9e154 (alpha = 1): no magnitude
        # is finite, an OverflowError as before, and no RuntimeWarning
        points = [PhasePoint(1.0, 0.0), PhasePoint(0.0, 1e200)]
        with pytest.raises(OverflowError,
                           match="^matrix-element magnitude not finite at "
                                 "k=0, k'=3$"):
            u_element(points, 1.0, [2, 3], [2, 0])


class TestUnderflowedStart:
    """At k = 12000, k' = 12440 and a = (3, 0) the start g_0 of offset
    m = 440 underflows: without its exponent carried apart the recurrence
    keeps it 0.  The element is 0.0604356678364 by the Bessel series and
    by mpmath's Laguerre polynomial at 200 bits."""

    A, K, KP = PhasePoint(3.0, 0.0), 12000, 12440

    def test_bessel_series_value(self):
        series = u_element_bessel(self.A, 1.0, self.K, self.KP)
        assert abs(series) == pytest.approx(0.0604356678364, rel=1e-11)

    def test_closed_form_matches_series(self):
        series = u_element_bessel(self.A, 1.0, self.K, self.KP)
        assert u_element(self.A, 1.0, self.K, self.KP) == pytest.approx(
            series, rel=1e-10, abs=0)

    def test_fill_matches_mpmath(self):
        # 0.5 cos 10x: r = 5, and V_{k,k'} = g_k(m) / 2 at even m.  The
        # start of m = 820 and 900 underflows to 0, that of m = 800 is
        # subnormal; the fill of rows 2900 .. 4900 agrees to 2e-13
        import mpmath

        V = Potential.cosine(alpha=1.0, amplitude=0.5, frequency=10.0)
        lo = 2900
        blocks = _v_blocks(V, lo, 4901)
        for k, kp in ((3000, 3820), (4000, 4900), (2900, 3700)):
            with mpmath.workdps(40):
                m, r = kp - k, mpmath.mpf(5)
                want = 0.5 * mpmath.exp(
                    (mpmath.loggamma(k + 1) - mpmath.loggamma(kp + 1)) / 2
                    + m * mpmath.log(mpmath.sqrt(2) * r) - r * r
                ) * mpmath.laguerre(k, m, 2 * r * r)
            _, block, _ = blocks[(k - lo) % 2]
            got = block[(kp - lo) // 2, (k - lo) // 2]
            assert got == pytest.approx(float(want), rel=1e-11, abs=0), (k, kp)


class TestBesselRoute:
    def test_leading_term_only(self):
        from oscspec.specialfn import bessel_j_grid, f_factor
        a = PhasePoint(0.8, 0.3)
        k, kp = 30, 34
        got = u_element_bessel(a, 1.0, k, kp, jmax=0)
        rho = metric_norm(a, 1.0) / 2.0
        s = k + kp + 1
        want_mag = math.sqrt(f_factor(k, kp)) * float(bessel_j_grid(
            kp - k, 2.0 * rho * math.sqrt(s)))
        assert abs(got) == pytest.approx(abs(want_mag), abs=1e-13)

    def test_one_kernel_call_per_element(self, monkeypatch):
        from oscspec import matelem
        from oscspec.specialfn import a_coefficients, bessel_j_grid, f_factor
        calls = []

        def counted(n, xs):
            calls.append(n)
            return bessel_j_grid(n, xs)

        monkeypatch.setattr(matelem, "bessel_j_grid", counted)
        a = PhasePoint(0.8, 0.3)
        k, kp, jmax = 30, 34, 48
        got = u_element_bessel(a, 1.0, k, kp, jmax=jmax)
        assert len(calls) == 1
        # the sum over one-order kernel calls that the batch replaces
        rho = metric_norm(a, 1.0) / 2.0
        s = k + kp + 1
        total = sum(aj * (rho / math.sqrt(s)) ** j
                    * float(bessel_j_grid(kp - k + j, 2.0 * rho * math.sqrt(s)))
                    for j, aj in enumerate(a_coefficients(k, kp, jmax)))
        assert abs(abs(got) - math.sqrt(f_factor(k, kp)) * abs(total)) <= 1e-14

    def test_huge_argument_refused(self):
        # the series argument 2 rho sqrt(k'+k+1) is 1.4e17, past 2^53: the
        # Bessel kernel refuses it instead of sizing a rule for it, and the
        # timeout turns a regression into a failure rather than a hang
        src = str(Path(matelem.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-c",
             "from oscspec.matelem import u_element_bessel\n"
             "from oscspec.model import PhasePoint\n"
             "try:\n"
             "    u_element_bessel(PhasePoint(1e17, 0.0), 1.0, 0, 1)\n"
             "except ValueError as exc:\n"
             "    print(exc)\n"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0
        assert "beyond supported range" in run.stdout

    def test_rule_over_budget_refused(self):
        # k = k' at |||a||| = 10^6 and jmax = 1024 ask for 1025 orders at
        # one argument: about 250000 nodes each, refused before the rule
        # is allocated
        with pytest.raises(ValueError,
                           match="^a Bessel rule of .* over the 4 GiB budget"):
            u_element_bessel(PhasePoint(1e6, 0.0), 1.0, 0, 0, jmax=1024)

    def test_diagonal_prefactor_is_one(self):
        from oscspec.specialfn import f_factor
        assert f_factor(123, 123) == 1.0

    def test_matches_closed_form_at_high_index(self):
        a = PhasePoint(1, 0)
        closed = u_element(a, 1.0, 400, 400)
        series = u_element_bessel(a, 1.0, 400, 400, jmax=48)
        assert abs(abs(series) - abs(closed)) < 1e-8

    def test_three_route_agreement(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            a = random_phase_point(rng, 2.0, 1.0)
            k = int(rng.integers(30, 120))
            kp = k + int(rng.integers(0, 4))
            s = k + kp + 1
            if metric_norm(a, 1.0) > s ** (1 / 6.0):
                continue
            closed = u_element(a, 1.0, k, kp)
            series = u_element_bessel(a, 1.0, k, kp, jmax=48)
            oracle = u_element_oracle(a, 1.0, k, kp)
            assert abs(closed - oracle) < 1e-10
            assert abs(series - closed) < 1e-7


def _hermite_mp(n, x, mp):
    h_prev, h = mp.mpf(0), mp.mpf(1)
    for j in range(n):
        h_prev, h = h, 2 * x * h - 2 * j * h_prev
    return h, h_prev  # H_n(x), H_{n-1}(x)


def _gauss_hermite_mp(n, mp):
    """High-precision Gauss-Hermite rule: scipy nodes Newton-refined in mpmath.

    The raw-Hermite product integrand cancels by ~1e19, so double-precision
    nodes and weights cannot reach the 1e-8 relative target.
    """
    from scipy.special import roots_hermite

    seeds, _ = roots_hermite(n)
    nodes, weights = [], []
    log_c = mp.log(mp.sqrt(mp.pi)) + (n - 1) * mp.log(2) \
        + sum(mp.log(j) for j in range(2, n + 1))
    for seed in seeds:
        x = mp.mpf(float(seed))
        for _ in range(6):
            h, h_prev = _hermite_mp(n, x, mp)
            x -= h / (2 * n * h_prev)
        _, h_prev = _hermite_mp(n, x, mp)
        nodes.append(x)
        weights.append(mp.e**(log_c) / (n**2 * h_prev**2))
    return nodes, weights


class TestHermiteIdentity:
    def test_weighted_product_integral(self):
        # int e^{-x^2} H_k(x+y) H_k'(x+z) dx
        #   = 2^k' sqrt(pi) k! z^(k'-k) L_k^{(k'-k)}(-2yz)
        from mpmath import mp

        mp.dps = 60
        rng = np.random.default_rng(21)
        nodes, weights = _gauss_hermite_mp(40, mp)
        for _ in range(40):
            kp = int(rng.integers(0, 31))
            k = int(rng.integers(0, kp + 1))
            y = float(rng.uniform(-2, 2))
            z = float(rng.uniform(-2, 2))
            if abs(z) < 0.1:
                continue
            got = float(sum(
                w * _hermite_mp(k, x + y, mp)[0] * _hermite_mp(kp, x + z, mp)[0]
                for x, w in zip(nodes, weights)))
            want = (2.0**kp * math.sqrt(math.pi) * math.factorial(k)
                    * z**(kp - k) * laguerre(k, kp - k, -2.0 * y * z))
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)


class TestMagnitudePrefactor:
    """The first iterate of `_magnitudes`, exp(m log(sqrt2 r) - r^2 -
    log(m!)/2), carries the log-factorial every closed-form magnitude
    starts from."""

    RADII = (1e-3, 0.5, 2.0, 10.0, 70.0)

    @staticmethod
    def offsets():
        rng = np.random.default_rng(13)
        return np.unique(np.concatenate(
            [[0, 1, 2, 10**4], rng.integers(0, 10**4 + 1, 120)])).astype(float)

    def test_matches_mpmath(self):
        # The exponent's terms reach ~4e4 at m = 1e4, so its rounding is a
        # few ulp of their sum: measured <= 0.84 eps * scale on this grid.
        import mpmath

        eps = np.finfo(float).eps
        ms = self.offsets()
        for r in self.RADII:
            _, (g,) = next(_magnitudes(r, ms, 0))
            with mpmath.workprec(128):
                rm = mpmath.mpf(r)
                for m, got in zip(ms.tolist(), g.tolist()):
                    want = mpmath.exp(m * mpmath.log(mpmath.sqrt(2) * rm)
                                      - rm * rm - mpmath.loggamma(m + 1) / 2)
                    scale = (abs(m * math.log(math.sqrt(2.0) * r)) + r * r
                             + 0.5 * math.lgamma(m + 1.0) + 1.0)
                    err = float(abs(got - want))
                    assert err <= 2 * eps * scale * float(want) + 2.0**-1022, \
                        (r, m, got)

    def test_elementwise_and_grid_paths_identical(self):
        # every row out to a kmax past three chunks, bit for bit: the
        # (P, 1) x (W,) grid of `_v_blocks` and its P W entries as single
        # elements, (P W,) radii against (P W,) offsets.  At r = 70 every
        # start is carried, at r = 1e-3 those of the large offsets
        def rows(r, m, kmax):
            return np.concatenate([c for _, c in _magnitudes(r, m, kmax)])

        ms = self.offsets()
        radii = np.array(self.RADII)
        kmax = 3 * _CHUNK + 5
        grid = rows(radii[:, None], ms, kmax)
        assert grid.shape == (kmax + 1, len(radii), len(ms))
        single = rows(np.repeat(radii, len(ms)), np.tile(ms, len(radii)), kmax)
        assert single.shape == (kmax + 1, len(radii) * len(ms))
        np.testing.assert_array_equal(
            grid.reshape(kmax + 1, -1).view(np.int64), single.view(np.int64))

    def test_chunks_cut_to_widths(self):
        # the chunks start every _CHUNK rows, each as wide as the widest
        # row from it on, and hold the uncut iterates' bits
        ms = self.offsets()
        kmax = 2 * _CHUNK + 1
        widths = np.maximum(len(ms) - 5 * np.arange(kmax + 1), 0)
        full = np.concatenate([c for _, c in _magnitudes(2.0, ms, kmax)])
        starts = []
        for k0, chunk in _magnitudes(2.0, ms, kmax, widths):
            starts.append(k0)
            assert chunk.shape == (min(_CHUNK, kmax + 1 - k0), widths[k0])
            np.testing.assert_array_equal(
                chunk.view(np.int64),
                full[k0:k0 + len(chunk), :widths[k0]].view(np.int64))
        assert starts == [0, _CHUNK, 2 * _CHUNK]


class TestVElement:
    def test_zero_potential(self):
        assert v_element(Potential(alpha=1.0), 3, 5) == 0.0

    def test_cosine_ground_state(self):
        assert v_element(cosx(), 0, 0) == pytest.approx(
            math.exp(-0.25), abs=1e-14)

    def test_hermitian_in_indices(self):
        pot = Potential(alpha=1.0, terms=(
            (PhasePoint(0.5, 1.0), 0.3 + 0.4j),
            (PhasePoint(-0.5, -1.0), 0.3 - 0.4j),
        ))
        for k, kp in ((0, 3), (2, 7), (5, 5)):
            assert v_element(pot, kp, k) == pytest.approx(
                v_element(pot, k, kp).conjugate(), abs=1e-14)

    def test_one_closed_form_call(self, monkeypatch):
        calls = []

        def spy(points, alpha, k, kp):
            calls.append((len(points), list(k), list(kp)))
            return u_element(points, alpha, k, kp)

        monkeypatch.setattr(matelem, "u_element", spy)
        got = v_element(quasi_potential(), 3, 8)
        assert calls == [(4, [3] * 4, [8] * 4)]
        assert got == pytest.approx(v_element_oracle(quasi_potential(), 3, 8),
                                    abs=1e-12)

    def test_c0_shifts_diagonal_only(self):
        pot = Potential(alpha=1.0, c0=0.7)
        assert v_element(pot, 2, 2) == pytest.approx(0.7)
        assert v_element(pot, 2, 3) == 0.0


class TestBuildMatrix:
    def test_unperturbed_diagonal(self):
        table = build_matrix(Potential(alpha=1.0), 3)
        assert np.allclose(table.entries, np.diag([1.0, 3.0, 5.0]))

    def test_cosine_corner_entry(self):
        table = build_matrix(cosx(), 4)
        assert table.entries[0, 0] == pytest.approx(1.0 + math.exp(-0.25))

    def test_hermitian(self):
        pot = Potential(alpha=0.8, terms=(
            (PhasePoint(1.1, 0.4), 0.2 - 0.3j),
            (PhasePoint(-1.1, -0.4), 0.2 + 0.3j),
        ), c0=0.1)
        m = build_matrix(pot, 60).entries
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_matches_scalar_elements(self):
        # v_matrix and v_element share one recurrence; the quadrature is
        # the independent route
        pot = Potential(alpha=1.3, terms=(
            (PhasePoint(0.9, -0.2), 0.4 + 0.1j),
            (PhasePoint(-0.9, 0.2), 0.4 - 0.1j),
        ))
        m = v_matrix(pot, 25)
        for k in range(25):
            for kp in range(25):
                assert m[k, kp] == pytest.approx(
                    v_element_oracle(pot, k, kp), abs=1e-12)

    def test_off_diagonal_bound(self):
        m = v_matrix(cosx(), 50)
        off = m - np.diag(np.diag(m))
        assert np.max(np.abs(off)) <= cosx().coefficient_sum() + 1e-12

    def test_resource_guard(self):
        # 32 bytes per entry: N <= 11585 fits the 4 GiB budget
        with pytest.raises(ValueError, match="30000 plans 26.8 GiB .* 4 GiB budget"):
            build_matrix(cosx(), 30_000)
        with pytest.raises(ValueError, match="11586 plans 4.0 GiB"):
            build_matrix(cosx(), 11586)
        with pytest.raises(ValueError):
            build_matrix(cosx(), 0)


class TestWindowBound:
    @pytest.mark.parametrize("V, n", [
        (cosx(), 64),
        (cosx(), 256),
        (quasi_potential(), 100),
    ], ids=["cos-64", "cos-256", "quasi-100"])
    def test_matches_oracle_window(self, V, n):
        half = int(math.floor(V.kappa() * math.sqrt(n)))
        window = range(max(0, n - half), n + half + 1)
        want = max(abs(v_element_oracle(V, k, kp))
                   for k in window for kp in window if k <= kp)
        assert window_sup(V, n) == pytest.approx(want, abs=1e-12)

    def test_scaled_sup_stable_small(self):
        sups = [window_sup(cosx(), n) * n**0.25 for n in (64, 256)]
        assert max(sups) / min(sups) < 2.0


def scattered(blocks, n):
    """The parity blocks of `_v_blocks` scattered into one n x n matrix."""
    out = np.zeros((n, n), dtype=complex)
    for s, block, _ in blocks:
        out[s, s] = block
    return out


# cos x (two real blocks), quasi seed 3 (one complex block) and real c_a
# with a_xi != 0 and c0 != 0 (two complex blocks)
ROW_RANGE = [cosx(), seeded_quasi(3), BLOCK_KINDS[2][0]]
ROW_RANGE_IDS = ["cos x", "quasi seed 3", "split complex"]


# cos x (two real blocks), quasi seed 7 (the benchmark's four pairs, one
# complex block) and real c_a with a_xi != 0 (two complex blocks)
CHUNKED = [cosx(), seeded_quasi(7), BLOCK_KINDS[2][0]]
CHUNKED_IDS = ["cos x", "quasi seed 7", "split complex"]


def assert_chunked_fill(V, lo, hi):
    """The blocks and couplings of `_v_blocks`(V, lo, hi) against the
    uncut dense oracle of rows lo .. hi+b-1, b the fill's band, read
    through `parity_oracle`: bit for bit where they are nonzero, and at
    most _REACH_TOL where cut to 0.  A fill without its coupling has the
    same blocks.  Returns how many entries were cut."""
    b = _row_reach(V, hi - 1)
    step = 2 if _block_kinds(V)[0] else 1
    full = dense_oracle.v_window(V, lo, hi + b)
    n = hi - lo
    cut = 0
    for (s, block, e), (_, alone, none) in zip(
            _v_blocks(V, lo, hi, coupling=True), _v_blocks(V, lo, hi)):
        assert alone.dtype == block.dtype and alone.shape == block.shape
        assert alone.tobytes() == block.tobytes() and none is None
        want = full[:n, :n][s, s]
        cut += dense_oracle.assert_cut_fill(
            np.tril(block), np.tril(want.real if np.isrealobj(block) else want))
        assert not np.any(np.triu(block, 1))
        want = block_coupling(full, np.arange(n)[s], n, step)
        cut += dense_oracle.assert_cut_fill(
            e, want.real if np.isrealobj(e) else want)
    return cut


class TestChunkedFill:
    """`_v_blocks` sums the pairs and scatters the rows a chunk of _CHUNK
    rows at a time; every fill is the dense oracle's, about the chunks'
    edges as well as inside them."""

    @pytest.mark.parametrize("V", CHUNKED, ids=CHUNKED_IDS)
    @pytest.mark.parametrize("hi", [_CHUNK - 1, _CHUNK, _CHUNK + 1,
                                    2 * _CHUNK + 1])
    def test_rows_about_chunk_edges(self, V, hi):
        assert_chunked_fill(V, 0, hi)

    @pytest.mark.parametrize("V", CHUNKED, ids=CHUNKED_IDS)
    @pytest.mark.parametrize("lo, hi", [
        (_CHUNK // 2, 2 * _CHUNK + 1), (_CHUNK + 5, 3 * _CHUNK - 3),
        (2 * _CHUNK - 1, 2 * _CHUNK + 2)])
    def test_window_from_mid_chunk(self, V, lo, hi):
        assert lo % _CHUNK
        assert_chunked_fill(V, lo, hi)

    def test_carried_start_across_chunks(self, monkeypatch):
        # 0.5 cos 10x (TestUnderflowedStart): the offsets whose start
        # underflows carry their exponent through the first 910 steps,
        # across 14 chunk edges, and rows 2900 .. 3700 and their coupling
        # are the oracle's
        V = Potential.cosine(alpha=1.0, amplitude=0.5, frequency=10.0)
        steps = []
        carry = matelem._carry
        monkeypatch.setattr(matelem, "_carry",
                            lambda *a: steps.append(1) or carry(*a))
        assert assert_chunked_fill(V, 2900, 3701) > 0
        assert len(steps) > 2 * _CHUNK


class TestRowRangeFill:
    """`_v_blocks` over rows [lo, hi) is the one fill of V: solver blocks,
    trace blocks, windows and the dense matrix all come from it."""

    @pytest.mark.parametrize("V", ROW_RANGE, ids=ROW_RANGE_IDS)
    def test_window_is_sliced_fill_from_zero(self, V):
        # a window's blocks and couplings are those of the fill from 0 and
        # of a fill to 2N, bit for bit, so no row's cut depends on lo or
        # hi; against the uncut oracle they differ only where cut to 0
        N = 120
        b = _row_reach(V, N - 1)
        assert N + b <= 2 * N
        step = 2 if _block_kinds(V)[0] else 1
        wide = scattered(_v_blocks(V, 0, 2 * N), 2 * N)
        full = _v_blocks(V, 0, N)
        dense = scattered(full, N)
        np.testing.assert_array_equal(dense, wide[:N, :N])
        wider = dense_oracle.v_matrix(V, N + b)
        cut = 0
        for lo in sorted({0, b, N // 2, N - 5}):   # N - 5 is odd
            blocks = _v_blocks(V, lo, N, coupling=True)
            assert all(e is None for _, _, e in _v_blocks(V, lo, N))
            assert ([block.dtype for _, block, _ in blocks]
                    == [block.dtype for _, block, _ in full])
            assert all(block.flags.f_contiguous for _, block, _ in blocks)
            np.testing.assert_array_equal(scattered(blocks, N - lo),
                                          dense[lo:, lo:])
            # each block's coupling as the fill to 2N holds it, bit for
            # bit, and as the uncut fill of order N + b does
            for s, block, e in blocks:
                index = lo + np.arange(N - lo)[s]
                assert e.dtype == block.dtype and e.flags.f_contiguous
                want = block_coupling(wide[:N + b, :N + b], index, N, step)
                np.testing.assert_array_equal(
                    e, want.real if np.isrealobj(e) else want)
                want = block_coupling(wider, index, N, step)
                cut += dense_oracle.assert_cut_fill(
                    e, want.real if np.isrealobj(e) else want)
        assert cut > 0

    @pytest.mark.parametrize("V", ROW_RANGE, ids=ROW_RANGE_IDS)
    @pytest.mark.parametrize("N", [61, 120, 300])
    def test_coupling_holds_every_kept_entry(self, V, N):
        # the coupling runs to the band b of row N - 1: bit for bit the
        # rows N .. N+b-1 of a fill to N + 2b against the block's columns
        # from N - b on, and that fill keeps nothing else between the rows
        # past N - 1 and the columns below N
        b = _row_reach(V, N - 1)
        step = 2 if _block_kinds(V)[0] else 1
        wide = scattered(_v_blocks(V, 0, N + 2 * b), N + 2 * b)
        for s, block, e in _v_blocks(V, 0, N, coupling=True):
            want = block_coupling(wide[:N + b, :N + b], np.arange(N)[s], N,
                                  step)
            np.testing.assert_array_equal(
                e, want.real if np.isrealobj(e) else want)
        assert np.any(wide[N + b - 2:N + b, :N])
        outside = wide[N:, :N].copy()
        outside[:b, max(0, N - b):] = 0
        assert not np.any(outside)

    @pytest.mark.parametrize("lo, hi", [(5, 5), (-1, 3)])
    def test_rejects_bad_rows(self, lo, hi):
        with pytest.raises(ValueError, match="0 <= lo < hi"):
            _v_blocks(cosx(), lo, hi)

    @pytest.mark.parametrize("V", ROW_RANGE, ids=ROW_RANGE_IDS)
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_window_sup_is_dense_window(self, V, n):
        want = np.max(np.abs(dense_oracle.window_block(V, n)))
        assert window_sup(V, n) == want

    def test_window_refused_over_budget(self):
        # 2 floor(kappa sqrt(n)) + 1 = 25819 rows plan 5.0 GiB, their
        # coupling left out; refused before the recurrence's arrays of n
        # rows are built
        with pytest.raises(ValueError, match="25819 plans 5.0 GiB"):
            window_sup(cosx(), 2 * 10**9)

    def test_window_plans_no_coupling(self, monkeypatch):
        # a = (+-20, 0) at n = 1024: the 21-row window plans 58 KiB with
        # its chunk arrays, and its coupling to the 2718 rows past it
        # would add 0.4 MiB.  Under a 128 KiB budget the window is built
        # and its maximum is the dense window's
        V = Potential.cosine(alpha=1.0, frequency=20.0)
        assert _row_reach(V, 1034) == 2718
        want = np.max(np.abs(dense_oracle.window_block(V, 1024)))
        monkeypatch.setattr(specialfn, "DENSE_BYTE_BUDGET", 2**17)
        assert window_sup(V, 1024) == want

    @pytest.mark.parametrize("V, kind", BLOCK_KINDS, ids=KIND_IDS)
    def test_v_matrix_is_dense_fill(self, V, kind):
        # the uncut dense fill where v_matrix is nonzero, bit for bit, and
        # at most _REACH_TOL where it holds 0; real blocks drop the
        # rounding of e^{i m theta}
        cut = 0
        for N in (1, 2, 61, 300):
            got, want = v_matrix(V, N), dense_oracle.v_matrix(V, N)
            cut += dense_oracle.assert_cut_fill(got.real, want.real)
            if kind[1]:
                assert not np.any(got.imag)
                assert np.max(np.abs(want.imag)) <= 2e-15
            else:
                dense_oracle.assert_cut_fill(got.imag, want.imag)
            dense_oracle.assert_cut_fill(
                build_matrix(V, N).entries.real,
                dense_oracle.build_matrix(V, N).real)
        assert cut > 0

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the peak RSS from /proc")
    def test_v_matrix_peak_within_plan(self):
        # in one complex block, the complex matrix and the block it is
        # scattered from: a peak over 24 bytes per entry, under the plan.
        # The peak is VmHWM: ru_maxrss keeps the high-water mark of the
        # forking process
        code = ("import sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "from oscspec import matelem\n"
                "from test_spectral import quasi_potential\n"
                "def peak():\n"
                "    with open('/proc/self/status') as f:\n"
                "        line = next(l for l in f if l.startswith('VmHWM:'))\n"
                "    return 1024 * int(line.split()[1])\n"
                "V = quasi_potential(3)\n"
                "matelem.v_matrix(V, 300)\n"
                "base = peak()\n"
                "matelem.v_matrix(V, 1500)\n"
                "print(peak() - base, matelem._V_MATRIX_BYTES_PER_ENTRY)\n")
        src = str(Path(spectral.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code,
                              str(Path(__file__).parent)],
                             check=True, capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        growth, per_entry = map(int, out.split())
        assert 24 * 1500**2 < growth <= per_entry * 1500**2
