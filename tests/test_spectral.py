"""Tests for diagonalization and the certified eigenvalue window."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from certificate_oracle import full_eigenvector_bounds
from doubling_oracle import doubling_eigenvalues
from oscspec.matelem import MatrixElementTable, build_matrix, parity_blocks
from oscspec.model import PhasePoint, Potential
from oscspec import spectral
from oscspec.spectral import (
    Spectrum,
    TruncationError,
    basis_size,
    eigensolve,
    spectrum,
)

# complex c_a, so one block; a_xi != 0 in two of the pairs
COMPLEX_FOUR_PAIRS = Potential(alpha=1.0, c0=0.25, terms=(
    (PhasePoint(1.0, 0.0), 0.3 + 0.2j), (PhasePoint(-1.0, 0.0), 0.3 - 0.2j),
    (PhasePoint(2**0.5, 0.0), 0.1), (PhasePoint(-(2**0.5), 0.0), 0.1),
    (PhasePoint(0.6, 0.8), 0.1 - 0.15j), (PhasePoint(-0.6, -0.8), 0.1 + 0.15j),
    (PhasePoint(1.5, -1.2), 0.05j), (PhasePoint(-1.5, 1.2), -0.05j),
))


def quasi_potential(seed):
    """The potential of perfbench's `compute_quasi` workload, seeds 0..15:
    four pairs, two with a_xi != 0, and seeded coefficient phases."""
    pairs = (((1.0, 0.0), 0.5), ((2**0.5, 0.0), 0.15), ((0.6, 0.8), 0.2),
             ((1.5, -1.2), 0.1))
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=4)
    terms = []
    for ((ax, axi), amp), phi in zip(pairs, phases):
        c = complex(amp * math.cos(phi), amp * math.sin(phi))
        terms += [(PhasePoint(ax, axi), c),
                  (PhasePoint(-ax, -axi), c.conjugate())]
    return Potential(alpha=1.0, terms=tuple(terms), c0=0.25)


def table_from(entries):
    return MatrixElementTable(entries=np.asarray(entries, dtype=complex))


def charpoly_eigenvalues(m, lo, hi, count, tol=1e-9):
    """Independent eigenvalue oracle: bisection on det(M - lam I) sign changes.

    Only suitable for small matrices with simple, well-separated spectrum.
    """
    def f(lam):
        return np.linalg.det(m - lam * np.eye(m.shape[0]))

    grid = np.linspace(lo, hi, 2000)
    vals = [np.real(f(g)) for g in grid]
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
            continue
        if vals[i] * vals[i + 1] < 0:
            a, b = grid[i], grid[i + 1]
            fa = vals[i]
            while b - a > tol:
                mid = 0.5 * (a + b)
                fm = np.real(f(mid))
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    assert len(roots) == count, "oracle bracketing failed"
    return np.array(roots)


class TestEigensolve:
    def test_diagonal(self):
        ev = eigensolve(table_from(np.diag([5.0, 1.0, 3.0])))
        np.testing.assert_allclose(ev, [1.0, 3.0, 5.0], atol=1e-14)

    def test_two_by_two_closed_form(self):
        a, b, c = 2.0, 0.7, -1.0
        ev = eigensolve(table_from([[a, b], [b, c]]))
        mean = 0.5 * (a + c)
        half = math.sqrt(0.25 * (a - c) ** 2 + b * b)
        np.testing.assert_allclose(ev, [mean - half, mean + half], rtol=1e-14)

    def test_complex_hermitian_two_by_two(self):
        b = 0.3 + 0.4j
        m = np.array([[1.0, b], [np.conj(b), -1.0]])
        half = math.sqrt(1.0 + abs(b) ** 2)
        np.testing.assert_allclose(eigensolve(table_from(m)), [-half, half],
                                   rtol=1e-14)

    def test_random_hermitian_vs_det_bisection(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = 0.5 * (a + a.conj().T)
        ev = eigensolve(table_from(m))
        oracle = charpoly_eigenvalues(m, ev.min() - 1.0, ev.max() + 1.0, 6)
        np.testing.assert_allclose(ev, oracle, atol=5e-9)

    def test_ritz_pairs(self):
        # one (slice, eigenvalues, rows) triple per parity block: two real
        # blocks for cos x, one complex (factored) block for four pairs
        for V in (Potential.cosine(alpha=1.0), COMPLEX_FOUR_PAIRS):
            m = build_matrix(V, 60).entries
            ritz = []
            ev = eigensolve(table_from(m), ritz=ritz)
            assert [s for s, _, _ in ritz] == list(parity_blocks(m))
            np.testing.assert_array_equal(
                ev, np.sort(np.concatenate([w for _, w, _ in ritz])))
            for s, w, rows in ritz:
                x = rows(0)
                np.testing.assert_allclose(m[s, s] @ x, x * w, atol=1e-12)
                np.testing.assert_allclose(x.conj().T @ x, np.eye(len(w)),
                                           atol=1e-12)
                np.testing.assert_array_equal(rows(len(w) // 3),
                                              x[len(w) // 3:])

    def test_realness_routing_consistent(self):
        # a tiny imaginary dusting below tolerance must not change results
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8))
        m = 0.5 * (a + a.T)
        dusted = m + 1e-16j * np.eye(8)
        np.testing.assert_allclose(eigensolve(table_from(m)),
                                   eigensolve(table_from(dusted)), atol=1e-12)


def tridiagonal_with_real_steps(n):
    """Complex Hermitian tridiagonal matrix whose even subdiagonal entries
    are real: zhetrd's reflector is the identity (tau = 0) there."""
    sub = np.array([0.5 + 0.3j if i % 2 else 0.7 - 0.1 * i
                    for i in range(n - 1)])
    return (np.diag(np.arange(n, dtype=float) ** 1.5).astype(complex)
            + np.diag(sub, -1) + np.diag(sub.conj(), 1))


class TestFactoredEigh:
    """The complex route: zhetrd, dstevd and the Ritz-vector rows formed
    from the Householder reflectors, against `np.linalg.eigh`."""

    @pytest.mark.parametrize("a", [
        build_matrix(COMPLEX_FOUR_PAIRS, 60).entries,
        build_matrix(quasi_potential(3), 300).entries,
        np.array([[2.5 + 0j]]),
        np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, -1.0]]),
        tridiagonal_with_real_steps(40),
    ], ids=["four pairs N=60", "quasi N=300", "1x1", "2x2", "tau=0"])
    def test_rows_match_full_solve(self, a):
        w, rows = spectral._factored_eigh(a)
        w_full, x_full = np.linalg.eigh(a)
        scale = max(1.0, np.max(np.abs(w_full)))
        np.testing.assert_allclose(w, w_full, rtol=0, atol=1e-12 * scale)
        x = rows(0)
        # eigenvectors are unique up to one unit phase per column
        overlap = np.sum(x_full.conj() * x, axis=0)
        np.testing.assert_allclose(np.abs(overlap), 1.0, atol=1e-12)
        x_full = x_full * (overlap / np.abs(overlap))
        n = len(w)
        for start in sorted({0, n // 2, n - 1}):
            np.testing.assert_allclose(rows(start), x_full[start:],
                                       rtol=0, atol=1e-12)

    def test_tau_zero_case_is_exercised(self):
        from scipy.linalg import lapack
        tau = lapack.zhetrd(tridiagonal_with_real_steps(40), lower=1)[3]
        assert np.any(tau == 0) and np.any(tau != 0)

    @pytest.mark.parametrize("routine", ["zhetrd_lwork", "zhetrd", "dstevd",
                                         "zunmqr"])
    def test_lapack_failure_raises(self, routine, monkeypatch):
        from scipy.linalg import lapack
        call = getattr(lapack, routine)

        def failing(*args, **kwargs):
            return (*call(*args, **kwargs)[:-1], 1)

        monkeypatch.setattr(lapack, routine, failing)
        ritz = []
        with pytest.raises(np.linalg.LinAlgError,
                           match=rf"LAPACK {routine} failed \(info=1\)"):
            eigensolve(build_matrix(COMPLEX_FOUR_PAIRS, 20), ritz=ritz)
            for _, _, rows in ritz:   # zunmqr runs when rows are asked for
                rows(0)

    def test_real_path_does_not_import_scipy_linalg(self):
        # scipy.linalg is imported only for complex blocks
        code = ("import sys, oscspec.cli\n"
                "from oscspec.model import Potential\n"
                "from oscspec.spectral import spectrum\n"
                "spectrum(Potential.cosine(alpha=1.0), nmax=20)\n"
                "assert 'scipy.linalg' not in sys.modules\n")
        src = str(Path(spectral.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


class TestParityBlocks:
    """V commutes with parity when every c_a is real; eigensolve then
    diagonalizes the even- and odd-index blocks apart."""

    @staticmethod
    def assert_matches_full_solve(m):
        ev = eigensolve(table_from(m))
        full = np.linalg.eigvalsh(m)
        np.testing.assert_allclose(ev, full, rtol=0,
                                   atol=1e-12 * np.max(np.abs(full)))

    def test_cosine_odd_order_split(self):
        m = build_matrix(Potential.cosine(alpha=1.0), 301).entries
        assert parity_blocks(m) == (slice(0, None, 2), slice(1, None, 2))
        self.assert_matches_full_solve(m)

    def test_real_coefficients_complex_blocks(self):
        # a_xi != 0 with real c_a: the blocks are complex Hermitian
        V = Potential(alpha=1.0, terms=(
            (PhasePoint(0.6, 0.8), 0.2), (PhasePoint(-0.6, -0.8), 0.2),
            (PhasePoint(1.0, 0.0), 0.5), (PhasePoint(-1.0, 0.0), 0.5),
        ), c0=0.25)
        m = build_matrix(V, 120).entries
        assert len(parity_blocks(m)) == 2
        assert np.max(np.abs(m[0::2, 0::2].imag)) > 0.1
        self.assert_matches_full_solve(m)

    def test_complex_coefficients_stay_whole(self):
        V = Potential(alpha=1.0, terms=(
            (PhasePoint(1.0, 0.0), 0.5 + 0.1j),
            (PhasePoint(-1.0, 0.0), 0.5 - 0.1j),
        ))
        assert parity_blocks(build_matrix(V, 40).entries) == (slice(None),)

    def test_one_tiny_odd_offset_entry_keeps_whole(self):
        m = build_matrix(Potential.cosine(alpha=1.0), 40).entries.copy()
        m[2, 5] = m[5, 2] = 1e-300
        assert parity_blocks(m) == (slice(None),)
        self.assert_matches_full_solve(m)

    def test_one_by_one_and_diagonal(self):
        assert parity_blocks(np.array([[3.0]])) == (slice(None),)
        np.testing.assert_array_equal(eigensolve(table_from([[3.0]])), [3.0])
        m = np.diag([5.0, 1.0, 3.0, -2.0, 4.0])
        assert len(parity_blocks(m)) == 2
        np.testing.assert_array_equal(eigensolve(table_from(m)),
                                      [-2.0, 1.0, 3.0, 4.0, 5.0])


class TestBasisSize:
    def test_monotone_and_padded(self):
        prev = 0
        for nmax in (1, 2, 10, 100, 1000):
            n = basis_size(nmax)
            assert n > 2 * nmax
            assert n > prev
            prev = n

    def test_formula(self):
        assert basis_size(100) == 200 + math.ceil(8 * 10.0) + 64


class TestSpectrum:
    def test_zero_potential_exact(self):
        V = Potential(alpha=1.0, terms=(), c0=0.0)
        spec = spectrum(V, nmax=20, convergence_tol=1e-10)
        assert spec.trusted_max >= 20
        np.testing.assert_allclose(spec.trusted()[:21],
                                   2.0 * np.arange(21) + 1.0, atol=1e-10)

    def test_weyl_perturbation_bound(self):
        # each eigenvalue moves by at most the operator norm bound sum |c_a|
        V = Potential.cosine(alpha=1.0, amplitude=0.6, frequency=1.0)
        spec = spectrum(V, nmax=30)
        shifts = spec.trusted() - (2.0 * np.arange(31) + 1.0)
        assert np.max(np.abs(shifts)) <= V.coefficient_sum() + 1e-9

    def test_gap_preserved(self):
        # perturbation below half the spacing keeps eigenvalues separated
        V = Potential.cosine(alpha=1.0, amplitude=0.5, frequency=1.0)
        spec = spectrum(V, nmax=30)
        assert np.min(np.diff(spec.trusted())) > 2.0 - 2 * V.coefficient_sum() - 1e-9

    def test_trusted_view_length(self):
        V = Potential.cosine(alpha=1.0, amplitude=0.2, frequency=1.0)
        spec = spectrum(V, nmax=5)
        assert len(spec.trusted()) == spec.trusted_max + 1
        assert len(spec.eigenvalues) == spec.basis_size

    def test_rejects_nmax_zero(self):
        V = Potential(alpha=1.0, terms=(), c0=0.0)
        with pytest.raises(ValueError):
            spectrum(V, nmax=0)

    @pytest.fixture
    def bands(self, monkeypatch):
        """The bands b of `_coupling_band`, in order: `spectrum` solves
        basis size N by assembling N + b."""
        found = []
        band = spectral._coupling_band

        def record(V, N, target):
            b, dropped = band(V, N, target)
            found.append(b)
            return b, dropped

        monkeypatch.setattr(spectral, "_coupling_band", record)
        return found

    def test_basis_limit_checked_before_assembly(self, bands, monkeypatch):
        # at 40 bytes per entry (real c_a) the 4 GiB budget admits
        # N <= 10362 = 9517 + 781 + 64; at 56 (complex c_a) N <= 8757 =
        # 7978 + 715 + 64.  Past it nothing may be built
        class Built(Exception):
            pass

        def refuse(V, N):
            raise Built(N - bands[-1])

        monkeypatch.setattr(spectral, "build_matrix", refuse)
        for V, fits, N in ((Potential.cosine(alpha=1.0), 9517, "10362"),
                           (COMPLEX_FOUR_PAIRS, 7978, "8757")):
            for nmax in (fits + 1, 10**400):
                with pytest.raises(ValueError, match="budget"):
                    spectrum(V, nmax=nmax)
            with pytest.raises(Built, match=N):
                spectrum(V, nmax=fits)

    @pytest.fixture
    def built_sizes(self, bands, monkeypatch):
        """The basis sizes `spectrum` solves, in order: each assembled size
        less its band."""
        sizes = []

        def record(V, N):
            sizes.append(N - bands[-1])
            return build_matrix(V, N)

        monkeypatch.setattr(spectral, "build_matrix", record)
        return sizes

    def test_impossible_tolerance_raises(self, built_sizes):
        # the rounding term sqrt(N) eps ||A_N|| alone exceeds 1e-300 and
        # grows with N, so every index fails at the start size and no
        # larger basis is tried
        V = Potential.cosine(alpha=1.0, amplitude=0.4, frequency=8.0)
        with pytest.raises(TruncationError,
                           match=r"failed at index 0: .* basis size 100\)"):
            spectrum(V, nmax=10, convergence_tol=1e-300)
        assert built_sizes == [100]

    def test_grows_past_start_size(self, built_sizes, bands):
        # at frequency 8 the Ritz vectors of n <= 10 reach the edge of the
        # start basis (bound about 4e-6 at N = 100): N grows, then certifies
        V = Potential.cosine(alpha=1.0, amplitude=0.4, frequency=8.0)
        spec = spectrum(V, nmax=10)
        assert built_sizes[0] == spectral._start_size(10) == 100
        assert len(built_sizes) > 1 and built_sizes == sorted(set(built_sizes))
        assert len(bands) == len(built_sizes)   # one assembly per size
        assert spec.basis_size == built_sizes[-1]
        assert spec.max_certified_bound <= spec.convergence_tol

    def test_every_index_certified(self, monkeypatch):
        # at frequency 6 the bound at the start size N = 155 rises from
        # 2.6e-12 at n = 0 to 1.1e-6 at n = 40: truncation, index by index
        V = Potential.cosine(alpha=1.0, amplitude=0.4, frequency=6.0)
        spec = spectrum(V, nmax=40)
        assert spec.bounds.shape == (41,)
        assert np.all(spec.bounds <= spec.convergence_tol)
        assert spec.max_certified_bound == np.max(spec.bounds)
        # with growth capped at the start size, the error names the first
        # index past the tolerance, sampled or not
        monkeypatch.setattr(spectral, "_basis_cap",
                            lambda per_entry: spectral._start_size(40))
        at_start = spectrum(V, nmax=40, convergence_tol=1.0).bounds
        tol = 1e-8
        first = int(np.flatnonzero(at_start > tol)[0])
        assert 0 < first < 40
        with pytest.raises(TruncationError, match=rf"at index {first}:"):
            spectrum(V, nmax=40, convergence_tol=tol)

    @pytest.mark.parametrize("V, nmax", [
        (Potential.cosine(alpha=1.0), 200),
        (Potential.cosine(alpha=1.0, amplitude=0.4, frequency=6.0), 40),
        (COMPLEX_FOUR_PAIRS, 100),
    ], ids=["cos x", "cos 6x", "complex four pairs"])
    def test_doubling_oracle_within_bound(self, V, nmax, monkeypatch):
        # theta_n >= lambda_n(2N) >= lambda_n(H+V) by interlacing, so the
        # 2N oracle may not sit further from theta_n than the bound plus
        # the oracle's own rounding, neither at the certified N nor at the
        # start size
        oracle = doubling_eigenvalues(V, nmax)
        slack = spectral._rounding(V, 2 * basis_size(nmax))
        spec = spectrum(V, nmax=nmax)
        assert np.all(np.abs(spec.trusted() - oracle) <= spec.bounds + slack)
        monkeypatch.setattr(spectral, "_basis_cap",
                            lambda per_entry: spectral._start_size(nmax))
        spec = spectrum(V, nmax=nmax, convergence_tol=1.0)
        assert np.all(np.abs(spec.trusted() - oracle) <= spec.bounds + slack)

    def test_large_coefficient_warns(self):
        V = Potential.cosine(alpha=1.0, amplitude=5.0, frequency=1.0)
        with pytest.warns(UserWarning, match=r"at n = \[0, 1\]: .*labelling"):
            spectrum(V, nmax=5)

    def test_cosine_does_not_warn(self):
        # sum |c_a| = alpha, but every eigenvalue stays within half a
        # spacing of its first-order prediction
        V = Potential.cosine(alpha=1.0, amplitude=1.0, frequency=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectrum(V, nmax=200)

    @pytest.mark.parametrize("V, nmax", [
        (COMPLEX_FOUR_PAIRS, 100), (quasi_potential(3), 200),
    ], ids=["complex four pairs", "quasi seed 3"])
    def test_certificate_matches_full_eigenvectors(self, V, nmax):
        # the bounds from the factored rows of X match those from the full
        # eigenvectors of np.linalg.eigh, and so do the eigenvalues
        spec = spectrum(V, nmax=nmax)
        bounds, band = full_eigenvector_bounds(V, spec.basis_size, nmax)
        assert band == spec.coupling_band
        np.testing.assert_allclose(spec.bounds, bounds, rtol=1e-12, atol=0)
        full = np.linalg.eigvalsh(build_matrix(V, spec.basis_size).entries)
        np.testing.assert_allclose(spec.eigenvalues, full, rtol=0,
                                   atol=1e-12 * np.max(np.abs(full)))
        # there the rounding term dominates the bound; at N = nmax + 24 the
        # residuals E X do.  Rows agree to about 1e-15, and the bound squares
        # residuals down to about 1e-6 where they still count, so 1e-9
        N = nmax + 24
        seconds = {"assembly": 0.0, "solve": 0.0, "certificate": 0.0}
        bounds = spectral._solve_and_certify(V, N, nmax, seconds)[2]
        oracle = full_eigenvector_bounds(V, N, nmax)[0]
        assert np.max(oracle[np.isfinite(oracle)]) > 1e6 * spectral._rounding(V, N)
        np.testing.assert_allclose(bounds, oracle, rtol=1e-9, atol=0)

    def test_matches_direct_solve(self):
        V = Potential.cosine(alpha=0.5, amplitude=0.3, frequency=1.2)
        spec = spectrum(V, nmax=10)
        direct = eigensolve(build_matrix(V, spec.basis_size))
        np.testing.assert_allclose(spec.eigenvalues, direct, atol=1e-13)
