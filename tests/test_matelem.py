import cmath
import math
import os
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
from oscspec import spectral
from oscspec.matelem import (_block_kinds, _magnitudes, _v_blocks,
                             build_matrix, u_element,
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
        for route in (u_element, u_element_oracle):
            with pytest.raises(ValueError, match="positive and finite"):
                route(PhasePoint(1.0, 0.0), alpha, 0, 1)

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


class TestUnderflowedStart:
    """ROADMAP item 1: at k = 12000, k' = 12440 and a = (3, 0) the start
    g_0 of offset m = 440 underflows, and the recurrence keeps it 0.  The
    element is 0.0604356678364 by the Bessel series and by mpmath's
    Laguerre polynomial at 200 bits."""

    A, K, KP = PhasePoint(3.0, 0.0), 12000, 12440

    def test_bessel_series_value(self):
        series = u_element_bessel(self.A, 1.0, self.K, self.KP)
        assert abs(series) == pytest.approx(0.0604356678364, rel=1e-11)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a magnitude "
                       "start that underflows stays exactly 0")
    def test_closed_form_matches_series(self):
        series = u_element_bessel(self.A, 1.0, self.K, self.KP)
        assert u_element(self.A, 1.0, self.K, self.KP) == pytest.approx(
            series, rel=1e-10, abs=0)


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
            g = next(_magnitudes(r, ms, 0))
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

    def test_scalar_and_array_paths_identical(self):
        ms = self.offsets()
        for r in self.RADII:
            g = next(_magnitudes(r, ms, 0))
            scalar = [next(_magnitudes(r, m, 0)) for m in ms.tolist()]
            assert g.tolist() == [float(s) for s in scalar]


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


class TestRowRangeFill:
    """`_v_blocks` over rows [lo, hi) is the one fill of V: solver blocks,
    trace blocks, windows and the dense matrix all come from it."""

    @pytest.mark.parametrize("V", ROW_RANGE, ids=ROW_RANGE_IDS)
    def test_window_is_sliced_fill_from_zero(self, V):
        N = 120
        b = spectral._band(V, N)[0]
        step = 2 if _block_kinds(V)[0] else 1
        for band in (0, b):
            full = _v_blocks(V, 0, N, band)
            dense = scattered(full, N)
            wider = dense_oracle.v_matrix(V, N + band)
            for lo in sorted({0, b, N // 2, N - 5}):   # N - 5 is odd
                blocks = _v_blocks(V, lo, N, band)
                assert ([block.dtype for _, block, _ in blocks]
                        == [block.dtype for _, block, _ in full])
                assert all(block.flags.f_contiguous for _, block, _ in blocks)
                np.testing.assert_array_equal(scattered(blocks, N - lo),
                                              dense[lo:, lo:])
                # each block's coupling, bit for bit, as the dense fill
                # of order N + band holds it
                for s, block, e in blocks:
                    want = block_coupling(wider, lo + np.arange(N - lo)[s],
                                          N, step)
                    assert e.dtype == block.dtype and e.flags.f_contiguous
                    np.testing.assert_array_equal(
                        e, want.real if np.isrealobj(e) else want)

    @pytest.mark.parametrize("lo, hi, band", [(5, 5, 0), (-1, 3, 0),
                                              (0, 3, -1)])
    def test_rejects_bad_rows(self, lo, hi, band):
        with pytest.raises(ValueError, match="0 <= lo < hi"):
            _v_blocks(cosx(), lo, hi, band)

    @pytest.mark.parametrize("V", ROW_RANGE, ids=ROW_RANGE_IDS)
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_window_sup_is_dense_window(self, V, n):
        want = np.max(np.abs(dense_oracle.window_block(V, n)))
        assert window_sup(V, n) == want

    def test_window_refused_over_budget(self):
        # 2 floor(kappa sqrt(n)) + 1 = 25819 rows plan 5.0 GiB; refused
        # before the recurrence's arrays of n rows are built
        with pytest.raises(ValueError, match="25819 plans 5.0 GiB"):
            window_sup(cosx(), 2 * 10**9)

    @pytest.mark.parametrize("V, kind", BLOCK_KINDS, ids=KIND_IDS)
    def test_v_matrix_is_dense_fill(self, V, kind):
        # bit for bit, but real blocks drop the rounding of e^{i m theta}
        for N in (1, 2, 61, 300):
            got, want = v_matrix(V, N), dense_oracle.v_matrix(V, N)
            np.testing.assert_array_equal(got.real, want.real)
            if kind[1]:
                assert not np.any(got.imag)
                assert np.max(np.abs(want.imag)) <= 2e-15
            else:
                np.testing.assert_array_equal(got.imag, want.imag)
            np.testing.assert_array_equal(
                build_matrix(V, N).entries.real,
                dense_oracle.build_matrix(V, N).real)

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
