import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from laguerre_oracle import laguerre
from oscspec.specialfn import (BESSEL_ORDER_MAX, _alias_order, a_coefficients,
                               bessel_j_grid, f_factor)


def laguerre_exact(k: int, m: int, x: Fraction) -> Fraction:
    """Independent oracle: explicit coefficients in exact rational arithmetic.

    L_k^{(m)}(x) = sum_{i=0}^k (-1)^i binom(k+m, k-i) x^i / i!
    """
    total = Fraction(0)
    for i in range(k + 1):
        total += (-1) ** i * Fraction(math.comb(k + m, k - i)) \
            * x**i / Fraction(math.factorial(i))
    return total


def bessel_at(n: int, x: float) -> float:
    """J_n(x) at one point, as a one-point batch of the kernel."""
    return float(bessel_j_grid(n, np.array([x]))[0])


def bessel_series(n: int, x: float) -> float:
    """Ascending power series of J_n, for small arguments only."""
    total = 0.0
    term = (x / 2.0) ** n / math.factorial(n)
    for t in range(60):
        total += term
        term *= -(x / 2.0) ** 2 / ((t + 1) * (n + t + 1))
    return total


class TestLaguerre:
    def test_degree_zero(self):
        for m in (0, 3, 17):
            assert laguerre(0, m, 1.7) == 1.0

    def test_degree_one(self):
        assert laguerre(1, 0, 2.0) == pytest.approx(-1.0, abs=1e-15)

    def test_degree_two(self):
        # L_2^{(1)}(x) = 3 - 3x + x^2/2
        assert laguerre(2, 1, 0.5) == pytest.approx(1.625, abs=1e-14)

    def test_against_rational_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(0, 21))
            m = int(rng.integers(0, 21))
            num = int(rng.integers(-500, 501))
            x = Fraction(num, 10)  # |x| <= 50
            exact = float(laguerre_exact(k, m, x))
            got = laguerre(k, m, float(x))
            assert got == pytest.approx(exact, rel=1e-10, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0, 1.0)
        with pytest.raises(ValueError):
            laguerre(1, 0, math.inf)


class TestBessel:
    def test_at_zero(self):
        assert bessel_at(0, 0.0) == 1.0
        assert bessel_at(3, 0.0) == 0.0
        xs = np.array([0.0, 1.5, 0.0])
        for n in (0, 3):
            vals = bessel_j_grid(n, xs)
            assert vals[0] == vals[2] == float(n == 0)
            assert vals[1] == pytest.approx(bessel_series(n, 1.5), abs=1e-10)

    def test_first_zero_of_j0(self):
        # locate the first zero of J_0 by bisection on the power series
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if bessel_series(0, lo) * bessel_series(0, mid) <= 0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(2.404825557695773, abs=1e-12)
        assert abs(bessel_at(0, 2.404825557695773)) < 1e-10
        assert abs(bessel_at(0, root)) < 1e-10

    def test_matches_power_series(self):
        for n in range(11):
            for x in np.linspace(0.1, 10.0, 23):
                assert bessel_at(n, float(x)) == pytest.approx(
                    bessel_series(n, float(x)), abs=1e-10)

    def test_grid_matches_scalar(self):
        xs = np.linspace(0.3, 40.0, 50)
        vals = bessel_j_grid(4, xs)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(bessel_at(4, float(x)), abs=1e-12)

    def test_unit_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(0, 40))
            x = float(rng.uniform(0, 200))
            assert abs(bessel_at(n, x)) <= 1.0 + 1e-12

    def test_decay_bound(self):
        # |J_n(x)| <= 4 x^(-1/2) for x >= 2n (sampled; the full grid is in
        # the acceptance suite)
        for n in (0, 5, 20, 50):
            xs = np.linspace(max(2 * n, 0.1), 2 * n + 100, 101)
            vals = bessel_j_grid(n, xs)
            assert np.all(np.abs(vals) <= 4.0 / np.sqrt(xs) + 1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bessel_at(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_at(0, -1.0)
        with pytest.raises(ValueError):
            bessel_at(10**6 + 1, 1.0)
        with pytest.raises(ValueError):
            bessel_j_grid(-1, np.array([1.0]))
        with pytest.raises(ValueError):
            bessel_j_grid(0, np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            bessel_j_grid(10**6 + 1, np.array([1.0]))

    @pytest.mark.parametrize("n_max, x_max", [(5, 2), (10, 20), (50, 200),
                                              (500, 1000), (2000, 3000)])
    def test_matches_scipy_jv(self, n_max, x_max):
        # scipy is a test-only oracle; its own error is a few 1e-14 at
        # x ~ 3000, several times the kernel's (see the mpmath test)
        rng = np.random.default_rng(n_max)
        for n in rng.integers(0, n_max, 40):
            xs = rng.uniform(0, x_max, 50)
            err = np.abs(bessel_j_grid(int(n), xs) - jv(n, xs))
            assert np.max(err) <= 1e-13

    def test_matches_scipy_jv_on_suite_grid(self):
        # the grid of `oscspec verify --suite bessel`
        for n in range(51):
            xs = np.arange(2 * n, 2 * n + 100.0001, 0.1)
            xs = xs[xs > 0]
            assert np.max(np.abs(bessel_j_grid(n, xs) - jv(n, xs))) <= 1e-13

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="the phase is extended-precision only where "
                               "long double is wider than double")
    def test_matches_mpmath_to_rounding(self):
        rng = np.random.default_rng(12)
        with mpmath.workdps(30):
            for n in rng.integers(0, 2000, 6):
                xs = rng.uniform(0, 3000, 10)
                want = [float(mpmath.besselj(int(n), x)) for x in xs]
                err = np.abs(bessel_j_grid(int(n), xs) - want)
                assert np.max(err) <= 1e-15

    def test_order_array_matches_scalar_orders(self):
        orders = np.arange(0, 60, 3)[:, None]
        xs = np.array([0.0, 0.5, 7.25, 40.0, 133.0])
        vals = bessel_j_grid(orders, xs)
        assert vals.shape == (20, 5)
        for row, n in zip(vals, orders[:, 0]):
            assert np.max(np.abs(row - bessel_j_grid(int(n), xs))) <= 1e-14
        assert np.array_equal(vals[:, 0], (orders[:, 0] == 0).astype(float))
        # orders against one argument, as the Bessel series asks for them
        series = bessel_j_grid(np.arange(5, 54), 12.5)
        assert series.shape == (49,)
        for n, v in zip(range(5, 54), series):
            assert abs(v - bessel_at(n, 12.5)) <= 1e-14
        assert np.array_equal(bessel_j_grid(np.arange(4), 0.0),
                              [1.0, 0.0, 0.0, 0.0])

    def test_alias_order_is_minimal(self):
        # the smallest nu >= x with (x/2)^nu / nu! <= 2^-60, in exact
        # rational arithmetic
        def holds(x, nu):
            return (Fraction(x) / 2) ** nu / math.factorial(nu) \
                <= Fraction(1, 2**60)

        for x in [*np.linspace(0.0, 3.0, 13), *np.geomspace(3.5, 3000.0, 40)]:
            x = float(x)
            nu = _alias_order(x)
            assert nu >= x
            assert holds(x, nu)
            if nu > math.ceil(x):
                assert not holds(x, nu - 1)

    def test_order_array_rejects_bad_orders(self):
        xs = np.array([1.0, 2.0])
        for orders in ([0, 3, -1], [[2], [BESSEL_ORDER_MAX + 1]], [1.5, 2.0]):
            with pytest.raises(ValueError):
                bessel_j_grid(np.array(orders), xs)
        for x in (math.inf, math.nan):
            with pytest.raises(ValueError):
                bessel_j_grid(0, np.array([1.0, x]))

    def test_rejects_arguments_past_the_cap(self):
        # the rule has more than max(x) points: the cap is checked before
        # sizing it (tests/test_cli.py runs an argument past 2^53, where the
        # sizing loop would never end, under a timeout)
        past = float(np.nextafter(BESSEL_ORDER_MAX, math.inf))
        for xs in (past, np.array([1.0, past])):
            with pytest.raises(ValueError, match="argument .* beyond"):
                bessel_j_grid(np.arange(3), xs)


class TestFFactor:
    def test_known_values(self):
        assert f_factor(7, 7) == 1.0
        assert f_factor(0, 1) == pytest.approx(1.0, rel=1e-14)
        assert f_factor(0, 2) == pytest.approx(8.0 / 9.0, rel=1e-13)

    def test_range(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            kp = int(rng.integers(0, 501))
            k = int(rng.integers(0, kp + 1))
            f = f_factor(k, kp)
            assert 0.0 < f <= 1.0 + 1e-13

    def test_precondition(self):
        with pytest.raises(ValueError):
            f_factor(3, 1)


class TestAjCoefficients:
    def test_leading_values(self):
        for k, kp in ((0, 0), (3, 9), (5, 5)):
            a = a_coefficients(k, kp, 2)
            assert a[0] == 1.0
            assert a[1] == 0.0
            assert a[2] == pytest.approx(0.5 * (kp - k + 1))

    def test_a3_for_equal_indices(self):
        # j=2: 3 A_3 = (2 + 0) A_1 - 11 A_0 = -11
        assert a_coefficients(5, 5, 3)[3] == pytest.approx(-11.0 / 3.0,
                                                           rel=1e-15)

    @given(k=st.integers(0, 60), dm=st.integers(0, 40), jmax=st.integers(3, 40))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_invariant(self, k, dm, jmax):
        kp = k + dm
        a = a_coefficients(k, kp, jmax)
        assert isinstance(a, tuple) and len(a) == jmax + 1
        for j in range(2, jmax):
            lhs = (j + 1) * a[j + 1]
            rhs = (j + kp - k) * a[j - 1] - (kp + k + 1) * a[j - 2]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)

    def test_growth_bound(self):
        # |A_j| <= (k'+k+1)^(j/3) for k' >= 2 and 0 <= k'-k <= k'^(2/3)
        rng = np.random.default_rng(5)
        for _ in range(100):
            kp = int(rng.integers(2, 2000))
            dm = int(rng.integers(0, int(kp ** (2.0 / 3.0)) + 1))
            k = kp - dm
            if k < 0:
                continue
            s = kp + k + 1
            for j, aj in enumerate(a_coefficients(k, kp, 60)):
                assert abs(aj) <= s ** (j / 3.0) * (1 + 1e-12)
