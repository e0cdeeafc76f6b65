"""Tests for diagonalization and the certified eigenvalue window."""

import math
import warnings

import numpy as np
import pytest

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


def table_from(entries, alpha=1.0):
    m = np.asarray(entries, dtype=complex)
    return MatrixElementTable(alpha=alpha, dimension=m.shape[0], entries=m)


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

    def test_realness_routing_consistent(self):
        # a tiny imaginary dusting below tolerance must not change results
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8))
        m = 0.5 * (a + a.T)
        dusted = m + 1e-16j * np.eye(8)
        np.testing.assert_allclose(eigensolve(table_from(m)),
                                   eigensolve(table_from(dusted)), atol=1e-12)


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

    def test_basis_limit_checked_before_assembly(self, monkeypatch):
        # 2 * basis_size(4694) = 20002 > MAX_BASIS; nothing may be built
        class Built(Exception):
            pass

        def refuse(V, N):
            raise Built(N)

        monkeypatch.setattr(spectral, "build_matrix", refuse)
        V = Potential.cosine(alpha=1.0)
        for nmax in (4694, 10**400):
            with pytest.raises(ValueError, match="20000"):
                spectrum(V, nmax=nmax)
        with pytest.raises(Built):   # 2 * basis_size(4693) = 19998 passes
            spectrum(V, nmax=4693)

    def test_impossible_tolerance_raises(self):
        # at frequency 8 the N and 2N solves differ by 3.1e-9 at n = 0:
        # truncation, not roundoff (at frequency 1 they agree exactly)
        V = Potential.cosine(alpha=1.0, amplitude=0.4, frequency=8.0)
        with pytest.raises(TruncationError, match=r"failed at index 0:"):
            spectrum(V, nmax=10, convergence_tol=1e-300)

    def test_every_index_certified(self):
        # at frequency 6 the deltas near n = 40 are truncation (about 1e-10)
        V = Potential.cosine(alpha=1.0, amplitude=0.4, frequency=6.0)
        spec = spectrum(V, nmax=40)
        direct = eigensolve(build_matrix(V, 2 * spec.basis_size))
        deltas = np.abs(spec.trusted() - direct[:41])
        assert spec.max_doubling_delta == np.max(deltas)
        # the error names the first index past the tolerance, sampled or not
        tol = 0.5 * spec.max_doubling_delta
        first = int(np.flatnonzero(deltas > tol)[0])
        with pytest.raises(TruncationError, match=rf"at index {first}:"):
            spectrum(V, nmax=40, convergence_tol=tol)

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

    def test_matches_direct_solve(self):
        V = Potential.cosine(alpha=0.5, amplitude=0.3, frequency=1.2)
        spec = spectrum(V, nmax=10)
        direct = eigensolve(build_matrix(V, spec.basis_size))
        np.testing.assert_allclose(spec.eigenvalues, direct, atol=1e-13)
