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
from dense_oracle import assert_cut_fill, build_matrix
from doubling_oracle import doubling_eigenvalues
from parity_oracle import block_coupling, parity_blocks, real_if_real
from oscspec.matelem import SolverBlocks, _block_kinds, solver_blocks
from oscspec.model import PhasePoint, Potential, rho
from oscspec import matelem, specialfn, spectral
from oscspec.resolvent import basis_size
from oscspec.spectral import Spectrum, TruncationError, eigensolve, spectrum

# complex c_a, so one block; a_xi != 0 in two of the pairs
COMPLEX_FOUR_PAIRS = Potential(alpha=1.0, c0=0.25, terms=(
    (PhasePoint(1.0, 0.0), 0.3 + 0.2j), (PhasePoint(-1.0, 0.0), 0.3 - 0.2j),
    (PhasePoint(2**0.5, 0.0), 0.1), (PhasePoint(-(2**0.5), 0.0), 0.1),
    (PhasePoint(0.6, 0.8), 0.1 - 0.15j), (PhasePoint(-0.6, -0.8), 0.1 + 0.15j),
    (PhasePoint(1.5, -1.2), 0.05j), (PhasePoint(-1.5, 1.2), -0.05j),
))


# one pair at |||a||| = 20, whose coupling band passes N at N = 2327 and
# at its start size for nmax = 145
WIDE_PAIR = Potential(alpha=1.0, terms=((PhasePoint(20.0, 0.0), 0.25),
                                        (PhasePoint(-20.0, 0.0), 0.25)))


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


def one_block(entries):
    """The Hermitian matrix `entries` as one parity block in the storage
    `eigensolve` reads: lower triangle, Fortran order, and no coupling."""
    m = np.asarray(entries)
    return SolverBlocks(blocks=((slice(None), np.asfortranarray(np.tril(m)),
                                 np.zeros((0, 0), dtype=m.dtype)),),
                        diagonal=m.diagonal().real.copy())


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
        ev = eigensolve(one_block(np.diag([5.0, 1.0, 3.0])), ritz=[])
        np.testing.assert_allclose(ev, [1.0, 3.0, 5.0], atol=1e-14)

    def test_two_by_two_closed_form(self):
        a, b, c = 2.0, 0.7, -1.0
        ev = eigensolve(one_block([[a, b], [b, c]]), ritz=[])
        mean = 0.5 * (a + c)
        half = math.sqrt(0.25 * (a - c) ** 2 + b * b)
        np.testing.assert_allclose(ev, [mean - half, mean + half], rtol=1e-14)

    def test_complex_hermitian_two_by_two(self):
        b = 0.3 + 0.4j
        m = np.array([[1.0, b], [np.conj(b), -1.0]])
        half = math.sqrt(1.0 + abs(b) ** 2)
        np.testing.assert_allclose(eigensolve(one_block(m), ritz=[]),
                                   [-half, half], rtol=1e-14)

    def test_random_hermitian_vs_det_bisection(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = 0.5 * (a + a.conj().T)
        ev = eigensolve(one_block(m), ritz=[])
        oracle = charpoly_eigenvalues(m, ev.min() - 1.0, ev.max() + 1.0, 6)
        np.testing.assert_allclose(ev, oracle, atol=5e-9)

    def test_ritz_pairs(self):
        # one (eigenvalues, residuals) pair per parity block: two real
        # blocks for cos x, one complex (factored) block for four pairs.
        # The residuals are ||E_s x||^2 for the eigenvectors x of the
        # dense block and its coupling E_s in the dense matrix of order
        # N + b, b the band of the fill
        N = 60
        for V in (Potential.cosine(alpha=1.0), COMPLEX_FOUR_PAIRS):
            full = build_matrix(V, N + matelem._row_reach(V, N - 1))
            m = full[:N, :N]
            blocks = solver_blocks(V, N)
            ritz = []
            ev = eigensolve(blocks, ritz=ritz)
            slices = parity_blocks(m)
            assert len(ritz) == len(slices)
            np.testing.assert_array_equal(
                ev, np.sort(np.concatenate([w for w, _ in ritz])))
            for s, (w, res2) in zip(slices, ritz):
                w_full, x = np.linalg.eigh(m[s, s])
                np.testing.assert_allclose(w, w_full, rtol=0,
                                           atol=1e-12 * np.max(np.abs(w)))
                index = np.arange(N)[s]
                # two blocks hold every other index
                e = block_coupling(full, index, N, len(slices))
                want = np.sum(np.abs(e @ x[len(index) - e.shape[1]:]) ** 2,
                              axis=0)
                assert np.max(want) > 1e-3
                np.testing.assert_allclose(res2, want, rtol=0, atol=1e-12)


def tridiagonal_with_real_steps(n):
    """Complex Hermitian tridiagonal matrix whose even subdiagonal entries
    are real: zhetrd's reflector is the identity (tau = 0) there."""
    sub = np.array([0.5 + 0.3j if i % 2 else 0.7 - 0.1 * i
                    for i in range(n - 1)])
    return (np.diag(np.arange(n, dtype=float) ** 1.5).astype(complex)
            + np.diag(sub, -1) + np.diag(sub.conj(), 1))


class TestFactoredEigh:
    """The factored route: zhetrd (dsytrd), dstevd, and the residuals
    ||e x_i||^2 of the Ritz vectors from the Householder reflectors and Z,
    against `np.linalg.eigh`."""

    @pytest.mark.parametrize("a", [
        build_matrix(COMPLEX_FOUR_PAIRS, 60),
        build_matrix(quasi_potential(3), 300),
        np.array([[2.5 + 0j]]),
        np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, -1.0]]),
        tridiagonal_with_real_steps(40),
        solver_blocks(Potential.cosine(alpha=1.0), 300).blocks[0][1],
        np.array([[2.5]]),
    ], ids=["four pairs N=60", "quasi N=300", "1x1", "2x2", "tau=0",
            "real lower triangle", "real 1x1"])
    def test_rows_match_full_solve(self, a):
        # e = I gives the squared norms of the eigenvectors' rows start..,
        # which carry no phase
        w_full, x_full = np.linalg.eigh(a)
        scale = max(1.0, np.max(np.abs(w_full)))
        n = len(w_full)
        for start in sorted({0, n // 2, n - 1}):
            w, res2 = spectral._factored_eigh(a.copy(), np.eye(n - start))
            np.testing.assert_allclose(w, w_full, rtol=0, atol=1e-12 * scale)
            # entries within 1e-12 put each column's norm within
            # 1e-12 sqrt(rows)
            np.testing.assert_allclose(
                np.sqrt(res2), np.linalg.norm(x_full[start:], axis=0),
                rtol=0, atol=1e-12 * math.sqrt(n - start))

    @pytest.mark.parametrize("a", [
        solver_blocks(Potential.cosine(alpha=1.0), 300).blocks[0][1],
        build_matrix(quasi_potential(3), 300),
    ], ids=["real", "complex"])
    def test_rows_multiply_any_left(self, a):
        # ||e x_i||^2 over the last e.shape[1] rows of the eigenvectors, for
        # a random complex e of another row count, with no warning: a real
        # block takes a complex e too.  The squared norms carry no phase
        w_full, x_full = np.linalg.eigh(a)
        n = len(w_full)
        rng = np.random.default_rng(5)
        for start in sorted({0, n // 2, n - 1}):
            shape = (n - start + 3, n - start)
            e = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, res2 = spectral._factored_eigh(a.copy(), e)   # in place
            np.testing.assert_allclose(
                np.sqrt(res2), np.linalg.norm(e @ x_full[start:], axis=0),
                rtol=0, atol=1e-12 * math.sqrt(len(e)))

    def test_tau_zero_case_is_exercised(self):
        from scipy.linalg import lapack
        tau = lapack.zhetrd(tridiagonal_with_real_steps(40), lower=1)[3]
        assert np.any(tau == 0) and np.any(tau != 0)

    @pytest.mark.parametrize("routine, V", [
        *(pytest.param(r, COMPLEX_FOUR_PAIRS, id=r)
          for r in ("zhetrd_lwork", "zhetrd", "dstevd", "zunmqr")),
        *(pytest.param(r, Potential.cosine(alpha=1.0), id=f"real {r}")
          for r in ("dsytrd_lwork", "dsytrd", "dstevd", "dormqr")),
    ])
    def test_lapack_failure_raises(self, routine, V, monkeypatch):
        from scipy.linalg import lapack
        call = getattr(lapack, routine)

        def failing(*args, **kwargs):
            return (*call(*args, **kwargs)[:-1], 1)

        monkeypatch.setattr(lapack, routine, failing)
        monkeypatch.setattr(spectral, "_FACTORED_REAL_ORDER", 1)
        # each block has a coupling for zunmqr (dormqr) to act on
        with pytest.raises(np.linalg.LinAlgError,
                           match=rf"LAPACK {routine} failed \(info=1\)"):
            eigensolve(solver_blocks(V, 20), ritz=[])

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

    def test_real_path_imports_no_scipy(self):
        # no scipy module on the real solve, trace and window routes; the
        # Gauss-Hermite oracle loads scipy.special on its first call
        code = ("import math, sys, oscspec.cli\n"
                "from oscspec.matelem import u_element_oracle, window_sup\n"
                "from oscspec.model import PhasePoint, Potential\n"
                "from oscspec.resolvent import rvr_norms, trace_eigenvalue\n"
                "from oscspec.spectral import spectrum\n"
                "V = Potential.cosine(alpha=1.0)\n"
                "spectrum(V, nmax=20)\n"
                "rvr_norms(V, 10, 0.5)\n"
                "trace_eigenvalue(V, 10, 0.5, jmax=3)\n"
                "window_sup(V, 10)\n"
                "loaded = [m for m in sys.modules\n"
                "          if m == 'scipy' or m.startswith('scipy.')]\n"
                "assert not loaded, loaded\n"
                "u = u_element_oracle(PhasePoint(1.0, 0.0), 1.0, 0, 1)\n"
                "assert abs(u - 1j * math.exp(-0.25) / math.sqrt(2)) < 1e-12\n"
                "assert 'scipy.special' in sys.modules\n")
        src = str(Path(spectral.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


class TestParityBlocks:
    """V commutes with parity when every c_a is real; eigensolve then
    diagonalizes the even- and odd-index blocks apart."""

    @staticmethod
    def assert_matches_full_solve(V, N):
        m = build_matrix(V, N)
        blocks = solver_blocks(V, N)
        assert [s for s, _, _ in blocks.blocks] == list(parity_blocks(m))
        ev = eigensolve(blocks, ritz=[])
        full = np.linalg.eigvalsh(m)
        np.testing.assert_allclose(ev, full, rtol=0,
                                   atol=1e-12 * np.max(np.abs(full)))
        return m

    def test_cosine_odd_order_split(self):
        m = self.assert_matches_full_solve(Potential.cosine(alpha=1.0), 301)
        assert parity_blocks(m) == (slice(0, None, 2), slice(1, None, 2))

    def test_real_coefficients_complex_blocks(self):
        # a_xi != 0 with real c_a: the blocks are complex Hermitian
        V = Potential(alpha=1.0, terms=(
            (PhasePoint(0.6, 0.8), 0.2), (PhasePoint(-0.6, -0.8), 0.2),
            (PhasePoint(1.0, 0.0), 0.5), (PhasePoint(-1.0, 0.0), 0.5),
        ), c0=0.25)
        m = self.assert_matches_full_solve(V, 120)
        assert len(parity_blocks(m)) == 2
        assert np.max(np.abs(m[0::2, 0::2].imag)) > 0.1

    def test_complex_coefficients_stay_whole(self):
        V = Potential(alpha=1.0, terms=(
            (PhasePoint(1.0, 0.0), 0.5 + 0.1j),
            (PhasePoint(-1.0, 0.0), 0.5 - 0.1j),
        ))
        m = self.assert_matches_full_solve(V, 40)
        assert parity_blocks(m) == (slice(None),)

    def test_one_by_one_and_diagonal(self):
        np.testing.assert_array_equal(eigensolve(one_block([[3.0]]), ritz=[]),
                                      [3.0])
        # two diagonal blocks: their eigenvalues merge in ascending order
        even, odd = slice(0, None, 2), slice(1, None, 2)
        none = np.zeros((0, 0))
        split = SolverBlocks(
            blocks=((even, np.diag([5.0, 3.0, 4.0]), none),
                    (odd, np.diag([1.0, -2.0]), none)),
            diagonal=np.array([5.0, 1.0, 3.0, -2.0, 4.0]))
        np.testing.assert_array_equal(eigensolve(split, ritz=[]),
                                      [-2.0, 1.0, 3.0, 4.0, 5.0])


# one potential per block kind: (split, real) of `_block_kinds`
BLOCK_KINDS = [
    (Potential.cosine(alpha=1.0), (True, True)),
    # complex c_a with a_xi = 0, real c_a with a_x = 0: one real block
    (Potential(alpha=1.0, c0=0.1, terms=(
        (PhasePoint(1.0, 0.0), 0.3 - 0.4j),
        (PhasePoint(-1.0, 0.0), 0.3 + 0.4j),
        (PhasePoint(2**0.5, 0.0), 0.2j), (PhasePoint(-(2**0.5), 0.0), -0.2j),
        (PhasePoint(0.0, 1.3), 0.1), (PhasePoint(0.0, -1.3), 0.1),
    )), (False, True)),
    # real c_a with a_xi != 0: two complex blocks
    (Potential(alpha=1.0, c0=0.25, terms=(
        (PhasePoint(0.6, 0.8), 0.2), (PhasePoint(-0.6, -0.8), 0.2),
        (PhasePoint(1.0, 0.0), 0.5), (PhasePoint(-1.0, 0.0), 0.5),
        (PhasePoint(0.0, 1.3), 0.1), (PhasePoint(0.0, -1.3), 0.1),
    )), (True, False)),
    (quasi_potential(3), (False, False)),
]
KIND_IDS = ["cos x", "complex c_a, a_xi = 0", "real c_a, a_xi != 0",
            "quasi seed 3"]


class TestSolverBlocks:
    """`spectrum` assembles A_N straight into its eigensolver's storage:
    real or complex parity blocks, lower triangle, Fortran order."""

    @pytest.mark.parametrize("V, kind", BLOCK_KINDS, ids=KIND_IDS)
    @pytest.mark.parametrize("N", [1, 2, 61, 300])
    def test_bitwise_equal_to_full_assembly(self, V, kind, N):
        # blocks, their couplings and diagonal as the uncut dense fill of
        # dense_oracle read through parity_blocks and real_if_real gives
        # them, at the band of the fill: bit for bit where the blocks are
        # nonzero, and at most _REACH_TOL where they hold 0.  One row keeps
        # all it has out to the band; a row before the last reaches less
        # far than the coupling, and some such entry is cut for every kind
        # from N = 61 on (at N = 2 for three of the four)
        full = build_matrix(V, N + matelem._row_reach(V, N - 1))
        m = full[:N, :N]
        got = solver_blocks(V, N)
        assert [s for s, _, _ in got.blocks] == list(parity_blocks(m))
        cut = 0
        for s, block, e in got.blocks:
            want = real_if_real(m[s, s])
            if N > 2:   # a 1 x 1 block is real to any tolerance
                assert np.isrealobj(block) == np.isrealobj(want)
            assert block.dtype == (float if kind[1] else complex)
            assert block.flags.f_contiguous
            cut += assert_cut_fill(np.tril(block),
                                   np.tril(want.astype(block.dtype)))
            assert not np.any(np.triu(block, 1))
            want = block_coupling(full, np.arange(N)[s], N,
                                  2 if kind[0] else 1)
            assert e.dtype == block.dtype and e.flags.f_contiguous
            cut += assert_cut_fill(e, want.real if np.isrealobj(e) else want)
        np.testing.assert_array_equal(got.diagonal, full.diagonal()[:N].real)
        if N == 1:
            assert cut == 0
        if N >= 61:
            assert cut > 0

    @pytest.mark.parametrize("V, kind", BLOCK_KINDS, ids=KIND_IDS)
    def test_kind_matches_tolerance_decision(self, V, kind):
        # the kinds decided from V before assembly are those the parity
        # split and the realness tolerance find in the assembled matrix
        assert _block_kinds(V) == kind
        m = build_matrix(V, 200)
        slices = parity_blocks(m)
        assert (len(slices) == 2) == kind[0]
        assert all(np.isrealobj(real_if_real(m[s, s])) == kind[1]
                   for s in slices)

    @pytest.mark.parametrize("V, kind", BLOCK_KINDS, ids=KIND_IDS)
    def test_spectrum_builds_no_full_matrix(self, V, kind, monkeypatch):
        # eigensolve takes the blocks as assembled and reduces complex ones
        # in place (zhetrd makes no copy); spectrum never builds the
        # complex N x N matrix
        blocks = solver_blocks(V, 80)
        before = [block.copy() for _, block, _ in blocks.blocks]
        ev = eigensolve(blocks, ritz=[])
        np.testing.assert_allclose(
            ev, np.linalg.eigvalsh(build_matrix(V, 80)),
            rtol=0, atol=1e-12 * np.max(np.abs(ev)))
        for (_, block, _), old in zip(blocks.blocks, before):
            assert np.array_equal(block, old) == kind[1]

        def refuse(*args):
            raise AssertionError("the N x N complex matrix was built")

        monkeypatch.setattr(spectral, "build_matrix", refuse)
        monkeypatch.setattr(matelem, "v_matrix", refuse)
        monkeypatch.setattr(matelem, "build_matrix", refuse)
        assert spectrum(V, nmax=40).max_certified_bound <= 1e-8

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the peak RSS from /proc")
    def test_peak_memory_within_plan(self):
        # spectrum's peak RSS growth for cos x, in a fresh process, stays
        # under the per-entry plan of the byte guard.  The peak is VmHWM:
        # ru_maxrss keeps the high-water mark of the forking process
        code = ("from oscspec import spectral\n"
                "from oscspec.model import Potential\n"
                "def peak():\n"
                "    with open('/proc/self/status') as f:\n"
                "        line = next(l for l in f if l.startswith('VmHWM:'))\n"
                "    return 1024 * int(line.split()[1])\n"
                "V = Potential.cosine(alpha=1.0)\n"
                "spectral.spectrum(V, nmax=20)\n"
                "base = peak()\n"
                "spec = spectral.spectrum(V, nmax=1500)\n"
                "N = spec.basis_size\n"
                "print(N, peak() - base,\n"
                "      spectral._planned_bytes(V, N, spec.coupling_band))\n")
        src = str(Path(spectral.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        N, growth, plan = map(int, out.split())
        V = Potential.cosine(alpha=1.0)
        assert N == spectral._start_size(V, 1500) == 1665
        assert plan == 24 * N * N
        assert 0 < growth < plan


class TestSpectrum:
    def test_zero_potential_exact(self):
        V = Potential(alpha=1.0, terms=(), c0=0.0)
        spec = spectrum(V, nmax=20, convergence_tol=1e-10)
        assert spec.trusted_max >= 20
        np.testing.assert_allclose(spec.trusted()[:21],
                                   2.0 * np.arange(21) + 1.0, atol=1e-10)

    def test_zero_potential_factored(self, monkeypatch):
        # no terms: band 0 and an empty coupling block, which the
        # factored route multiplies without calling LAPACK on zero rows
        monkeypatch.setattr(spectral, "_FACTORED_REAL_ORDER", 1)
        spec = spectrum(Potential(alpha=1.0, terms=(), c0=0.0), nmax=20,
                        convergence_tol=1e-10)
        assert spec.coupling_band == 0
        np.testing.assert_allclose(spec.trusted(), 2.0 * np.arange(21) + 1.0,
                                   atol=1e-10)

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
        """The bands b of `spectral._coupling_band`, in order: only the
        start size reads one; the fill sizes its own coupling."""
        found = []
        band = spectral._coupling_band

        def record(V, N, target):
            found.append(band(V, N, target))
            return found[-1]

        monkeypatch.setattr(spectral, "_coupling_band", record)
        return found

    def test_basis_limit_checked_before_assembly(self, monkeypatch):
        # at 24 bytes per entry (real c_a, split) the 4 GiB budget admits
        # N <= 13377; at 56 (complex c_a) N <= 8757.  The start size is
        # fitted under it, and from nmax = N on, where the basis cannot
        # hold nmax + 1 Ritz values, nothing may be built
        class Built(Exception):
            pass

        def refuse(V, N):
            raise Built(N)

        monkeypatch.setattr(spectral, "solver_blocks", refuse)
        for V, fits, N in ((Potential.cosine(alpha=1.0), 13376, "13377"),
                           (COMPLEX_FOUR_PAIRS, 8756, "8757")):
            assert spectral._start_size(V, fits) > int(N)
            for nmax in (fits + 1, 10**400):
                with pytest.raises(ValueError, match="budget"):
                    spectrum(V, nmax=nmax)
            with pytest.raises(Built, match=N):
                spectrum(V, nmax=fits)

    def test_coupling_band_past_float_range(self):
        # the Szego terms of a = (+-20, 0) at N = 2327 pass the float range
        # at small offsets: they widen b, they do not overflow
        N = 2327
        target = spectral._rounding(WIDE_PAIR, N) / math.sqrt(N)
        b = spectral._coupling_band(WIDE_PAIR, N, target)
        assert b > N

        # the bound of band b (offsets m >= b + 1) and of band b - 1
        # (offsets m >= b), summed in log space
        def log_term(z, c, m):
            q = z * math.sqrt(math.e * (N + m + 1)) / (m + 1)
            assert q < 1.0
            return (math.log(c / (1.0 - q)) + m * math.log(z)
                    + 0.5 * m * math.log(N + m) - math.lgamma(m + 1))

        def log_bound(m):
            logs = [log_term(math.sqrt(2.0) * rho(p, 1.0), abs(c), m)
                    for p, c in WIDE_PAIR.terms]
            top = max(logs)
            return top + math.log(sum(math.exp(x - top) for x in logs))

        assert log_bound(b + 1) <= math.log(target) < log_bound(b)
        # a pair with zero coefficients (a valid config) bounds nothing
        cos = Potential.cosine(alpha=1.0)
        zero_pair = Potential(alpha=1.0, terms=cos.terms + tuple(
            (p, 0j) for p, _ in WIDE_PAIR.terms))
        target = spectral._rounding(cos, N) / math.sqrt(N)
        assert (spectral._coupling_band(zero_pair, N, target)
                == spectral._coupling_band(cos, N, target))

    @staticmethod
    def linear_coupling_band(V, N, target):
        """`_coupling_band` by scanning b = 0, 1, 2, ...: the route the
        doubling-and-bisection search replaced."""
        terms = [(math.sqrt(2.0) * rho(p, V.alpha), abs(c))
                 for p, c in V.terms if c != 0]
        if not terms:
            return 0, 0.0
        log_target = math.log(target)
        b = 0
        while True:
            m = b + 1
            total = 0.0
            for z, c in terms:
                q = z * math.sqrt(math.e * (N + m + 1)) / (m + 1)
                if q >= 1.0:
                    total = math.inf
                    break
                log_t = (m * math.log(z) + 0.5 * m * math.log(N + m)
                         - math.lgamma(m + 1))
                if log_t + math.log(c / (1.0 - q)) > log_target:
                    total = math.inf
                    break
                total += c * math.exp(log_t) / (1.0 - q)
            if total <= target:
                return b, total
            b += 1

    @pytest.mark.parametrize("V", [
        Potential.cosine(alpha=1.0),
        Potential.cosine(alpha=1.0, amplitude=0.4, frequency=8.0),
        Potential.cosine(alpha=0.25), Potential.cosine(alpha=4.0),
        WIDE_PAIR,
        Potential(alpha=1.0, terms=((PhasePoint(60.0, 0.0), 0.25),
                                    (PhasePoint(-60.0, 0.0), 0.25))),
        COMPLEX_FOUR_PAIRS,
    ], ids=["cos x", "0.4 cos 8x", "alpha 1/4", "alpha 4", "(+-20, 0)",
            "(+-60, 0)", "four pairs"])
    def test_coupling_band_matches_linear_scan(self, V):
        # the same b as the scan over every b, whose Szego sum is within
        # the target
        for N in (1, 2, 10, 145, 2327, 13377):
            for target in (1e-300, 1e-100, 1e-13, 1e-8, 1e-3, 1.0):
                b, dropped = self.linear_coupling_band(V, N, target)
                assert spectral._coupling_band(V, N, target) == b
                assert dropped <= target

    def test_wide_coupling_block_in_byte_plan(self, monkeypatch):
        # at N = 2327 the fill's band is b = 3389 and the coupling block E
        # 126 MB, more than the 24-per-entry plan's headroom over the
        # measured 16: a budget that holds 24 N^2 but not 16 N^2 + E
        # refuses before assembly
        N = 2327
        assert matelem._row_reach(WIDE_PAIR, N - 1) == 3389
        plan = spectral._planned_bytes(WIDE_PAIR, N, 3389)
        assert plan == 16 * N * N + 16 * 3389 * N > 24 * N * N
        assert spectral._planned_bytes(WIDE_PAIR, N, 200) == 24 * N * N

        def refuse(V, N):
            raise AssertionError("assembled")

        monkeypatch.setattr(spectral, "solver_blocks", refuse)
        monkeypatch.setattr(specialfn, "DENSE_BYTE_BUDGET", plan - 1)
        seconds = {"assembly": 0.0, "solve": 0.0, "certificate": 0.0}
        with pytest.raises(ValueError, match=f"basis size {N} plans"):
            spectral._solve_and_certify(WIDE_PAIR, N, 145, seconds)

    def test_start_capped_at_fitting_plan(self, monkeypatch):
        # a = (+-20, 0) at nmax = 10 starts at N = 2341 with the fill's
        # band b = 3389, a plan of 205 MiB.  Under a 64 MiB budget the
        # start drops to the largest size whose plan with its own band
        # fits (1099, b = 2717), and certifies there; under 35 MiB that
        # size (757) cannot certify, and the certificate names the index
        built = []

        def record(V, N):
            built.append(N)
            return solver_blocks(V, N)

        monkeypatch.setattr(spectral, "solver_blocks", record)
        start = spectral._start_size(WIDE_PAIR, 10)
        budget = 64 * 2**20

        def plan(N):
            return spectral._planned_bytes(
                WIDE_PAIR, N, matelem._row_reach(WIDE_PAIR, N - 1))

        assert start == 2341 and plan(start) > budget
        monkeypatch.setattr(specialfn, "DENSE_BYTE_BUDGET", budget)
        spec = spectrum(WIDE_PAIR, nmax=10)
        N = spec.basis_size
        assert built == [N] == [1099]
        assert spec.coupling_band == matelem._row_reach(WIDE_PAIR, N - 1) > N
        assert plan(N) <= budget < plan(N + 1)
        assert spec.max_certified_bound <= spec.convergence_tol
        built.clear()
        monkeypatch.setattr(specialfn, "DENSE_BYTE_BUDGET", 35 * 2**20)
        with pytest.raises(TruncationError,
                           match=r"failed at index 0: .* basis size 757\)"):
            spectrum(WIDE_PAIR, nmax=10)
        assert built == [757]

    @pytest.fixture
    def built_sizes(self, monkeypatch):
        """The basis sizes `spectrum` solves, in order."""
        sizes = []

        def record(V, N):
            sizes.append(N)
            return solver_blocks(V, N)

        monkeypatch.setattr(spectral, "solver_blocks", record)
        return sizes

    def test_impossible_tolerance_raises(self, built_sizes):
        # the rounding term sqrt(N) eps ||A_N|| alone exceeds 1e-300 and
        # grows with N, so every index fails at the start size and no
        # larger basis is tried
        V = Potential.cosine(alpha=1.0, amplitude=0.4, frequency=8.0)
        with pytest.raises(TruncationError,
                           match=r"failed at index 0: .* basis size 472\)"):
            spectrum(V, nmax=10, convergence_tol=1e-300)
        assert built_sizes == [472]

    @pytest.mark.parametrize("V", [
        Potential.cosine(alpha=1.0), quasi_potential(3),
        Potential.cosine(alpha=1.0, amplitude=0.2, frequency=6.0),
        Potential.cosine(alpha=1.0, amplitude=0.2, frequency=8.0),
    ], ids=["cos x", "quasi seed 3", "0.2 cos 6x", "0.2 cos 8x"])
    def test_start_size_certifies(self, V, built_sizes):
        # the start sized from V's band certifies at the default tolerance;
        # nmax + ceil(8 sqrt(nmax)) + 64 grew for cos 6x and cos 8x, e.g.
        # [100, 150] at nmax = 10 and [155, 233, 350] at nmax = 40
        for nmax in (10, 40, 200):
            built_sizes.clear()
            spec = spectrum(V, nmax=nmax)
            assert len(built_sizes) == 1
            assert spec.max_certified_bound <= spec.convergence_tol
            assert spec.basis_sizes == (spectral._start_size(V, nmax),)

    def test_grows_past_start_size(self, built_sizes, bands):
        # at tolerance 1e-11 the Ritz vectors of n <= 200 of cos 3x reach
        # the edge of the start basis (bound 2.1e-11 at N = 410): N grows,
        # then certifies
        V = Potential.cosine(alpha=1.0, frequency=3.0)
        spec = spectrum(V, nmax=200, convergence_tol=1e-11)
        # the band b0 at N = nmax sizes the start, the one band spectral
        # reads; each assembly's band is its fill's
        assert len(bands) == 1
        assert built_sizes[0] == 200 + math.ceil(1.5 * bands[0]) + 16
        assert built_sizes[0] == spectral._start_size(V, 200) == 410
        assert len(built_sizes) > 1 and built_sizes == sorted(set(built_sizes))
        assert spec.basis_sizes == tuple(built_sizes)
        assert spec.basis_size == built_sizes[-1]
        assert spec.max_certified_bound <= spec.convergence_tol

    def test_every_index_certified(self, monkeypatch):
        # at tolerance 1e-11 the bound of cos 3x at the start size N = 410
        # rises from 3.8e-12 at n = 0 to 2.1e-11 at n = 200: truncation,
        # index by index
        V = Potential.cosine(alpha=1.0, frequency=3.0)
        tol = 1e-11
        spec = spectrum(V, nmax=200, convergence_tol=tol)
        assert spec.bounds.shape == (201,)
        assert np.all(spec.bounds <= spec.convergence_tol)
        assert spec.max_certified_bound == np.max(spec.bounds)
        # with no growth past the start size, the error names the first
        # index past the tolerance, sampled or not
        monkeypatch.setattr(spectral, "_GROWTH", 1.0)
        at_start = spectrum(V, nmax=200, convergence_tol=1.0).bounds
        first = int(np.flatnonzero(at_start > tol)[0])
        assert 0 < first < 200
        with pytest.raises(TruncationError, match=rf"at index {first}:"):
            spectrum(V, nmax=200, convergence_tol=tol)

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
        monkeypatch.setattr(spectral, "_GROWTH", 1.0)
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
        (Potential.cosine(alpha=1.0), 200),
    ], ids=["complex four pairs", "quasi seed 3", "cos x"])
    def test_certificate_matches_full_eigenvectors(self, V, nmax,
                                                   monkeypatch):
        # the bounds from the factored rows of X match those from the full
        # eigenvectors of np.linalg.eigh, and so do the eigenvalues; real
        # blocks are factored too from order _FACTORED_REAL_ORDER on
        monkeypatch.setattr(spectral, "_FACTORED_REAL_ORDER", 1)
        spec = spectrum(V, nmax=nmax)
        N = spec.basis_size
        assert spec.coupling_band == matelem._row_reach(V, N - 1)
        bounds = full_eigenvector_bounds(V, N, spec.coupling_band, nmax)
        np.testing.assert_allclose(spec.bounds, bounds, rtol=1e-9, atol=0)
        full = np.linalg.eigvalsh(build_matrix(V, spec.basis_size))
        np.testing.assert_allclose(spec.eigenvalues, full, rtol=0,
                                   atol=1e-12 * np.max(np.abs(full)))
        seconds = {"assembly": 0.0, "solve": 0.0, "certificate": 0.0}
        # at N = nmax + ceil(8 sqrt(nmax)) + 64 (244 and 378) the rounding
        # term dominates the bound, and the two routes agree to 1e-12.  At
        # the start size (220, 342 and 293) the residuals E X are no longer
        # negligible against it (1.4e-12 apart for cos x at n = 200), and
        # at N = nmax + 24 they dominate.  Rows agree to about 1e-15, and
        # the bound squares residuals down to about 1e-6 where they still
        # count, so 1e-9 at both
        N = basis_size(nmax) - nmax
        bounds = spectral._solve_and_certify(V, N, nmax, seconds)[2]
        oracle = full_eigenvector_bounds(V, N, matelem._row_reach(V, N - 1),
                                         nmax)
        assert np.max(oracle) < 1.1 * spectral._rounding(V, N)
        np.testing.assert_allclose(bounds, oracle, rtol=1e-12, atol=0)
        N = nmax + 24
        bounds = spectral._solve_and_certify(V, N, nmax, seconds)[2]
        oracle = full_eigenvector_bounds(V, N, matelem._row_reach(V, N - 1),
                                         nmax)
        assert np.max(oracle[np.isfinite(oracle)]) > 1e6 * spectral._rounding(V, N)
        np.testing.assert_allclose(bounds, oracle, rtol=1e-9, atol=0)

    def test_matches_direct_solve(self):
        V = Potential.cosine(alpha=0.5, amplitude=0.3, frequency=1.2)
        spec = spectrum(V, nmax=10)
        direct = np.linalg.eigvalsh(build_matrix(V, spec.basis_size))
        np.testing.assert_allclose(spec.eigenvalues, direct, atol=1e-13)
