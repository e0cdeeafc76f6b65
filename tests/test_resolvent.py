"""Tests for the contour-trace eigenvalue machinery.

The trace orders come from the Rayleigh-Schroedinger recursion, which does
not depend on the contour; the contour quadrature in contour_oracle checks
them, and the epsilon and node-count tests run on that quadrature.
"""

import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contour_oracle import contour_order_j, contour_traces
from test_spectral import quasi_potential as seeded_quasi
from trace_oracle import (dense_contraction, dense_rs_orders,
                          dense_rvr_norms, dense_trace_eigenvalue)
from dense_oracle import assert_cut_fill, v_matrix
from oscspec import matelem, resolvent
from parity_oracle import dense_blocks, parity_blocks
from oscspec.model import PhasePoint, Potential
from oscspec.resolvent import (
    _DENSE_NODE_STRIDE,
    Contour,
    NeumannDivergence,
    _neumann_contraction,
    _rs_orders,
    _trace_blocks,
    basis_size,
    resolvent_sums,
    rvr_norms,
    trace_eigenvalue,
    trace_order_j,
)
from oscspec.asymptotics import first_order_diagonal
from oscspec.spectral import spectrum


def cos_potential(amplitude=1.0, alpha=1.0, frequency=1.0):
    return Potential.cosine(alpha=alpha, amplitude=amplitude,
                            frequency=frequency)


class TestContour:
    def test_geometry(self):
        c = Contour(n=4, alpha=1.0, epsilon=0.5, node_count=64)
        assert c.center == 9.0
        nodes = c.nodes()
        assert len(nodes) == 64
        np.testing.assert_allclose(np.abs(nodes - 9.0), 0.5, rtol=1e-14)
        assert nodes[0] == pytest.approx(9.5)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            Contour(n=1, alpha=1.0, epsilon=1.0)
        with pytest.raises(ValueError):
            Contour(n=1, alpha=1.0, epsilon=0.0)
        with pytest.raises(ValueError):
            Contour(n=1, alpha=0.5, epsilon=0.7)

    def test_node_count_enforced(self):
        with pytest.raises(ValueError):
            Contour(n=1, alpha=1.0, epsilon=0.5, node_count=16)
        with pytest.raises(ValueError):
            Contour(n=1, alpha=1.0, epsilon=0.5, node_count=33)


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

    def test_integer_root_matches_float_form(self):
        # the root is taken in integers; the float form it replaced agrees
        # on every n below 10^5 and around every square up to 2 * 10^6
        squares = [m * m + d for m in range(1, 1415) for d in (-1, 0, 1)]
        for n in [*range(10**5), *squares]:
            assert basis_size(n) == 2 * n + math.ceil(8.0 * math.sqrt(n)) + 64


class TestResolventSums:
    def test_gap_positive_and_tail_finite(self):
        sums = resolvent_sums(n=20, epsilon=0.5, N=200)
        assert sums.gap > 0
        assert 0 < sums.tail_bound < math.inf
        assert sums.s2 <= sums.s2a

    def test_s1_dominated_by_nearest(self):
        # the contour passes within alpha - epsilon of lambda_n; with a
        # window of about 2 kappa sqrt(n) terms the sum stays moderate
        sums = resolvent_sums(n=100, epsilon=0.5, N=500)
        width = 2 * (1.0 / 3.0) * 10.0 + 1
        assert 1.0 / 0.5 <= sums.s1 <= width / 0.5

    def test_tail_bound_shrinks_with_basis(self):
        small = resolvent_sums(n=20, epsilon=0.5, N=100)
        large = resolvent_sums(n=20, epsilon=0.5, N=400)
        assert large.tail_bound < small.tail_bound

    def test_scaling_in_n(self):
        # s2 over the complement decays like 1/sqrt(n) up to logs
        a = resolvent_sums(n=64, epsilon=0.5, N=512)
        b = resolvent_sums(n=256, epsilon=0.5, N=1200)
        assert b.s2 < a.s2

    @pytest.mark.parametrize("n", [0, 9, 100, 500])
    def test_window_and_complement_sums(self, n):
        # the window I = {k : |k - n| <= sqrt(n) / 3}, as 9 (k - n)^2 <= n
        # in integers, holds n and at most 2 sqrt(n) / 3 + 1 indices (only
        # n at n = 0); s1 sums over I, s2 and gap over the rest of [0, N)
        N, eps = 4 * n + 64, 0.5
        sums = resolvent_sums(n, eps, N=N)
        inside = [k for k in range(N) if 9 * (k - n) ** 2 <= n]
        outside = [k for k in range(N) if k not in inside]
        assert n in inside and len(inside) <= 2 * math.sqrt(n) / 3 + 1
        if n == 0:
            assert inside == [0]
        tail = 1.0 / (2.0 * (2.0 * (N - 1 - n) - eps))
        assert sums.tail_bound == pytest.approx(tail, rel=1e-15)
        nodes = Contour(n=n, alpha=1.0, epsilon=eps).nodes()
        s1 = s2a = s2 = 0.0
        gap = math.inf
        for lam in nodes:
            dist = {k: abs(lam - (2 * k + 1)) for k in range(N)}
            s1 = max(s1, sum(1.0 / dist[k] for k in inside))
            s2a = max(s2a, sum(d ** -2 for d in dist.values()))
            s2 = max(s2, sum(dist[k] ** -2 for k in outside))
            gap = min(gap, *(dist[k] for k in outside))
        assert sums.s1 == pytest.approx(s1, rel=1e-13)
        assert sums.s2a == pytest.approx(s2a + tail, rel=1e-13)
        assert sums.s2 == pytest.approx(s2 + tail, rel=1e-13)
        assert sums.gap == gap


class TestRvrNorms:
    def test_zero_potential(self):
        V = Potential(alpha=1.0, terms=(), c0=0.0)
        norms = rvr_norms(V, n=10, epsilon=0.5)
        assert norms.operator_norm == 0.0
        assert norms.hilbert_schmidt == 0.0
        assert norms.trace_norm == 0.0

    def test_norm_ordering(self):
        V = cos_potential(amplitude=0.5)
        norms = rvr_norms(V, n=16, epsilon=0.5)
        assert norms.operator_norm <= norms.hilbert_schmidt * (1 + 1e-10)
        assert norms.hilbert_schmidt <= norms.trace_norm * (1 + 1e-10)
        assert norms.operator_norm > 0

    def test_linear_in_amplitude(self):
        n1 = rvr_norms(cos_potential(amplitude=0.2), n=12, epsilon=0.5)
        n2 = rvr_norms(cos_potential(amplitude=0.4), n=12, epsilon=0.5)
        assert n2.hilbert_schmidt == pytest.approx(2.0 * n1.hilbert_schmidt,
                                                   rel=1e-10)
        assert n2.operator_norm == pytest.approx(2.0 * n1.operator_norm,
                                                 rel=1e-10)

    def test_parity_split_matches_unsplit(self):
        # cos x commutes with parity, so the norms and the contraction are
        # taken on two real blocks; compare with SVDs of the whole matrix
        V, n, eps = cos_potential(), 32, 0.5
        tb = _trace_blocks(V, n)
        assert [v.dtype for _, _, v in tb.blocks] == [np.float64] * 2
        op, tr, exact, frobenius = unsplit_reference(V, n, eps)
        norms = rvr_norms(V, n, eps)
        assert norms.operator_norm == pytest.approx(op, rel=1e-13)
        assert norms.trace_norm == pytest.approx(tr, rel=1e-13)
        contraction = _neumann_contraction(
            tb, Contour(n=n, alpha=V.alpha, epsilon=eps))
        assert contraction == pytest.approx(frobenius, rel=1e-13)
        assert exact <= contraction

    @pytest.mark.parametrize("n", [12, 40])
    def test_complex_block_matches_svd(self, n):
        # a_xi != 0 keeps V in one complex block: the norms come from the
        # complex Hermitian eigenvalues of |R| V |R|
        V, eps = quasi_potential(), 0.5
        tb = _trace_blocks(V, n)
        assert [v.dtype for _, _, v in tb.blocks] == [np.complex128]
        op, tr, exact, frobenius = unsplit_reference(V, n, eps)
        norms = rvr_norms(V, n, eps)
        assert norms.operator_norm == pytest.approx(op, rel=1e-13)
        assert norms.trace_norm == pytest.approx(tr, rel=1e-13)
        contraction = _neumann_contraction(
            tb, Contour(n=n, alpha=V.alpha, epsilon=eps))
        assert contraction == pytest.approx(frobenius, rel=1e-13)
        assert exact <= contraction

    @pytest.mark.parametrize("n", [10, 72])
    @pytest.mark.parametrize("potential", ["cos", "quasi"])
    def test_basis_size_converged(self, potential, n):
        # the dense oracle on twice the basis moves neither norm: the
        # truncation tail is negligible even at small n
        V = cos_potential() if potential == "cos" else quasi_potential()
        at_n = rvr_norms(V, n, 0.5, node_count=32)
        op, hs, _ = dense_rvr_norms(V, n, 0.5, N=2 * basis_size(n),
                                    node_count=32)
        assert at_n.hilbert_schmidt == pytest.approx(hs, rel=1e-6)
        assert at_n.operator_norm == pytest.approx(op, rel=1e-6)


class TestTraceOrders:
    def test_first_order_is_diagonal_element(self):
        V = cos_potential(amplitude=0.8)
        for n in (3, 10, 25):
            t1 = trace_order_j(V, n=n, j=1)
            assert t1 == pytest.approx(first_order_diagonal(V, n), abs=1e-11)

    def test_zero_potential_all_orders_vanish(self):
        V = Potential(alpha=1.0, terms=(), c0=0.0)
        for j in (1, 2, 3):
            assert trace_order_j(V, n=5, j=j) == \
                pytest.approx(0.0, abs=1e-13)

    def test_epsilon_independence(self):
        V = cos_potential(amplitude=0.7)
        a = contour_order_j(V, n=8, epsilon=0.3, j=2)
        b = contour_order_j(V, n=8, epsilon=0.7, j=2)
        assert a == pytest.approx(b, abs=1e-11)

    def test_node_doubling_converged(self):
        V = cos_potential(amplitude=0.7)
        a = contour_order_j(V, n=8, epsilon=0.5, j=2, node_count=64)
        b = contour_order_j(V, n=8, epsilon=0.5, j=2, node_count=128)
        assert a == pytest.approx(b, abs=1e-10)

    def test_rejects_bad_j(self):
        with pytest.raises(ValueError):
            trace_order_j(cos_potential(), n=5, j=0)


def quasi_potential():
    """Complex coefficients, a_xi != 0 and c0 != 0."""
    terms = []
    for (ax, axi), c in (((1.0, 0.0), 0.5 * np.exp(0.7j)),
                         ((0.6, 0.8), 0.2 * np.exp(2.1j))):
        c = complex(c)
        terms += [(PhasePoint(ax, axi), c), (PhasePoint(-ax, -axi), c.conjugate())]
    return Potential(alpha=1.0, terms=tuple(terms), c0=0.25)


def unsplit_reference(V, n, eps):
    """Maxima over the dense contour nodes, from the whole matrices by full
    SVDs: ||RVR||, ||RVR||_1, ||(VR)^2||_2, and ||(VR)^2||_F taken over
    each parity block."""
    N = basis_size(n)
    vm = v_matrix(V, N)
    blocks = parity_blocks(vm)
    lam_k = V.alpha * (2.0 * np.arange(N) + 1.0)
    op = tr = exact = frobenius = 0.0
    for lam in Contour(n=n, alpha=V.alpha,
                       epsilon=eps).nodes()[::_DENSE_NODE_STRIDE]:
        d = 1.0 / (lam_k - lam)
        sv = np.linalg.svd(d[:, None] * vm * d[None, :], compute_uv=False)
        op, tr = max(op, sv[0]), max(tr, np.sum(sv))
        vr = vm * d[None, :]
        p = vr @ vr
        exact = max(exact, np.linalg.norm(p, 2))
        frobenius = max(frobenius,
                        *(np.linalg.norm(p[s, s]) for s in blocks))
    return op, tr, exact, frobenius


class TestRsMatchesContour:
    """Every RS order equals the contour quadrature of the same trace."""

    @pytest.mark.parametrize("V, n", [
        (cos_potential(), 8),
        (cos_potential(), 32),
        (cos_potential(), 64),
        (quasi_potential(), 12),
    ], ids=["cos-8", "cos-32", "cos-64", "quasi-12"])
    def test_orders_equal_quadrature(self, V, n):
        jmax = 6
        vm = v_matrix(V, basis_size(n))
        rs = _rs_orders(_trace_blocks(V, n), n, V.alpha, jmax)
        oracle = contour_traces(vm, Contour(n=n, alpha=V.alpha, epsilon=0.5),
                                jmax)
        np.testing.assert_allclose(rs, oracle.real, rtol=0, atol=1e-12)

    def test_trace_order_j_is_rs_order(self):
        V = quasi_potential()
        rs = _rs_orders(_trace_blocks(V, 12), 12, V.alpha, 4)
        for j in range(1, 5):
            assert trace_order_j(V, n=12, j=j) == rs[j - 1]


class TestTraceEigenvalue:
    def test_zero_potential(self):
        V = Potential(alpha=1.0, terms=(), c0=0.0)
        result = trace_eigenvalue(V, n=7, epsilon=0.5, jmax=3)
        assert result.value == pytest.approx(15.0, abs=1e-12)
        assert result.unperturbed == 15.0

    def test_partial_sums_structure(self):
        V = cos_potential(amplitude=0.6)
        result = trace_eigenvalue(V, n=10, epsilon=0.5, jmax=4)
        assert len(result.orders) == 4
        assert len(result.partial_sums) == 4
        assert result.partial_sums[0] == pytest.approx(
            result.unperturbed + result.orders[0], rel=1e-14)
        assert result.partial_sums[-1] == result.value

    def test_matches_diagonalization(self):
        V = cos_potential(amplitude=1.0)
        n = 32
        result = trace_eigenvalue(V, n=n, epsilon=0.5, jmax=6)
        spec = spectrum(V, nmax=n)
        assert result.value == pytest.approx(spec.trusted()[n], abs=1e-7)
        exact = unsplit_reference(V, n, 0.5)[2]
        assert 0.0 < exact <= result.contraction < 1.0

    def test_orders_decay(self):
        V = cos_potential(amplitude=0.5)
        result = trace_eigenvalue(V, n=20, epsilon=0.5, jmax=5)
        mags = [abs(t) for t in result.orders]
        assert mags[2] < mags[0]
        assert mags[4] < mags[2]

    def test_complex_potential(self):
        # the Frobenius gate bounds the exact 2-norm of (VR)^2 from above
        V, n, eps = quasi_potential(), 40, 0.5
        result = trace_eigenvalue(V, n=n, epsilon=eps)
        assert result.value == pytest.approx(
            spectrum(V, nmax=n).trusted()[n], abs=1e-7)
        assert unsplit_reference(V, n, eps)[2] <= result.contraction < 1.0

    def test_complex_potential_gate_trips(self):
        # at n = 72 the exact ||(VR)^2|| is already 1.004
        V, n, eps = quasi_potential(), 72, 0.5
        assert unsplit_reference(V, n, eps)[2] >= 1.0
        with pytest.raises(NeumannDivergence, match="Frobenius upper bound"):
            trace_eigenvalue(V, n=n, epsilon=eps, jmax=2)

    def test_divergent_series_rejected(self):
        # amplitude far above the level spacing defeats the contraction
        V = cos_potential(amplitude=40.0)
        with pytest.raises(NeumannDivergence):
            trace_eigenvalue(V, n=4, epsilon=0.5, jmax=2)


class TestDenseBudget:
    @pytest.mark.parametrize("call", [
        lambda V, n: rvr_norms(V, n, 0.5),
        lambda V, n: trace_eigenvalue(V, n, 0.5),
        lambda V, n: trace_order_j(V, n),
    ], ids=["rvr_norms", "trace_eigenvalue", "trace_order_j"])
    def test_refused_before_assembly(self, call, monkeypatch):
        # 80 bytes per entry: n = 3398 (N = 7327) fits the 4 GiB budget,
        # n = 3399 (N = 7329) does not
        class Built(Exception):
            pass

        def refuse(V, lo, hi):
            raise Built(hi)

        monkeypatch.setattr(resolvent, "_v_blocks", refuse)
        V = cos_potential()
        with pytest.raises(ValueError,
                           match="^basis size 7329 plans 4.0 GiB .* budget$"):
            call(V, 3399)
        with pytest.raises(Built) as built:
            call(V, 3398)
        assert built.value.args == (7327,)

    @pytest.mark.parametrize("call", [
        lambda V: rvr_norms(V, -1, 0.5),
        lambda V: resolvent_sums(-1, 0.5, N=100),
        lambda V: trace_eigenvalue(V, -1, 0.5),
        lambda V: trace_order_j(V, -1),
    ], ids=["rvr_norms", "resolvent_sums", "trace_eigenvalue",
            "trace_order_j"])
    def test_negative_index_refused_before_assembly(self, call, monkeypatch):
        # rvr_norms returned norms at n = -1, resolvent_sums failed with a
        # math domain error
        def refuse(V, lo, hi):
            raise AssertionError("assembled")

        monkeypatch.setattr(resolvent, "_v_blocks", refuse)
        with pytest.raises(ValueError,
                           match="^n must be a nonnegative integer, got -1$"):
            call(cos_potential())

    def test_resolvent_sums_refused_before_allocation(self):
        # 26 bytes per contour node and basis index: 128 nodes at
        # N = 4 * 10^6 + 64 plan 12.4 GiB
        with pytest.raises(ValueError,
                           match="128 contour nodes at basis size 4000064 "
                                 "plans 12.4 GiB .* budget"):
            resolvent_sums(10**6, 0.5, N=4 * 10**6 + 64)

    @pytest.mark.parametrize("n, N", [
        (10**20, 100), (10**400, 100), (3, 0), (200, 100), (100, 100),
    ])
    def test_resolvent_sums_index_outside_basis(self, n, N, monkeypatch):
        # refused in integers before the byte guard: 10^20 and 10^400 raised
        # OverflowError from numpy and math.sqrt, N = 0 numpy's zero-size
        # error, and n = 200 at N = 100 returned s2a = s2 = inf
        def refuse(planned, what):
            raise AssertionError("reached the byte guard")

        monkeypatch.setattr(resolvent, "_check_byte_budget", refuse)
        with pytest.raises(ValueError, match=re.escape(
                f"n must lie in the basis 0 <= n < N = {N}, got {n}")):
            resolvent_sums(n, 0.5, N=N)

    def test_resolvent_sums_basis_inside_window(self):
        # at n = 0 and N = 1 the window holds the whole basis, which gave
        # numpy's zero-size error for the gap; N = 2 reaches level 1
        with pytest.raises(ValueError, match=re.escape(
                "the basis 0 <= k < N = 1 holds no level outside the window "
                "of n = 0")):
            resolvent_sums(0, 0.5, N=1)
        assert resolvent_sums(0, 0.5, N=2).gap == 1.5

    @pytest.mark.parametrize("n, N", [(99, 100), (4, 5)])
    def test_resolvent_sums_basis_ends_at_n(self, n, N, monkeypatch):
        # the last level is within epsilon / (2 alpha) = 0.25 levels of n,
        # where the tail has no bound: s2a = s2 = inf came back silently.
        # Refused before any distance is formed
        def refuse(self):
            raise AssertionError("formed the contour nodes")

        monkeypatch.setattr(resolvent.Contour, "nodes", refuse)
        with pytest.raises(ValueError, match=re.escape(
                f"the basis 0 <= k < N = {N} ends within epsilon / (2 alpha) "
                f"= 0.25 levels of n = {n}: the sums past it have no bound")):
            resolvent_sums(n, 0.5, N=N)

    def test_resolvent_sums_basis_one_level_past_n(self):
        sums = resolvent_sums(98, 0.5, N=100)
        assert sums.tail_bound == 1.0 / 3.0
        assert math.isfinite(sums.s2a) and math.isfinite(sums.s2)


def split_complex_potential():
    """Real c_a with a_xi != 0: two parity blocks, both complex."""
    return Potential(alpha=1.0, c0=0.1, terms=(
        (PhasePoint(1.0, 0.5), 0.3), (PhasePoint(-1.0, -0.5), 0.3)))


class TestMatchesDenseOracle:
    """The block route against the complex N x N route it replaced
    (`trace_oracle`).  Norms, values and the contraction agree to 1e-13
    relative.  An order t_j is a difference of terms of the size of t_1,
    so it agrees to 1e-13 of the largest order: at cos x, n = 256, t_6 is
    -2.0e-11 and the two routes are 6e-23 apart."""

    @pytest.mark.parametrize("V, n, kinds", [
        (cos_potential(), 10, [np.float64] * 2),
        (cos_potential(), 72, [np.float64] * 2),
        (cos_potential(), 256, [np.float64] * 2),
        (cos_potential(), 33, [np.float64] * 2),
        (split_complex_potential(), 11, [np.complex128] * 2),
        (split_complex_potential(), 41, [np.complex128] * 2),
        (seeded_quasi(3), 10, [np.complex128]),
        (seeded_quasi(3), 41, [np.complex128]),
    ], ids=["cos-10", "cos-72", "cos-256", "cos-33", "split-complex-11",
            "split-complex-41", "quasi3-10", "quasi3-41"])
    def test_matches_dense_route(self, V, n, kinds):
        tb = _trace_blocks(V, n)
        assert [v.dtype for _, _, v in tb.blocks] == kinds
        norms = rvr_norms(V, n, 0.5)
        np.testing.assert_allclose(
            [norms.operator_norm, norms.hilbert_schmidt, norms.trace_norm],
            dense_rvr_norms(V, n, 0.5), rtol=1e-13, atol=0)
        te = trace_eigenvalue(V, n, 0.5)
        value, orders, contraction = dense_trace_eigenvalue(V, n, 0.5)
        assert te.value == pytest.approx(value, rel=1e-13, abs=0)
        assert te.contraction == pytest.approx(contraction, rel=1e-13, abs=0)
        scale = 1e-13 * np.max(np.abs(orders))
        np.testing.assert_allclose(te.orders, orders, rtol=1e-13, atol=scale)
        partial = te.unperturbed + np.cumsum(
            [t if j % 2 else -t for j, t in enumerate(orders, start=1)])
        np.testing.assert_allclose(te.partial_sums, partial, rtol=1e-13,
                                   atol=0)
        for j in (1, 2, 5):
            assert trace_order_j(V, n, j=j) == pytest.approx(
                orders[j - 1], rel=1e-13, abs=scale)

    @pytest.mark.parametrize("node_count", [32, 40, 48, 128])
    @pytest.mark.parametrize("V, kinds", [
        (cos_potential(), [np.float64] * 2),
        (quasi_potential(), [np.complex128]),
    ], ids=["cos", "quasi"])
    def test_folded_nodes_match_dense_route(self, V, kinds, node_count):
        # the sampled nodes are closed under conjugation at 32, 48 and 128
        # nodes but not at 40 (0, 16 and 32; 32 folds to 8): each norm is
        # taken at the folded node, and the gate at every sampled one
        n, eps = 40, 0.5
        tb = _trace_blocks(V, n)
        assert [v.dtype for _, _, v in tb.blocks] == kinds
        norms = rvr_norms(V, n, eps, node_count=node_count)
        np.testing.assert_allclose(
            [norms.operator_norm, norms.hilbert_schmidt, norms.trace_norm],
            dense_rvr_norms(V, n, eps, node_count=node_count),
            rtol=1e-13, atol=0)
        contour = Contour(n=n, alpha=V.alpha, epsilon=eps,
                          node_count=node_count)
        assert _neumann_contraction(tb, contour) == pytest.approx(
            dense_contraction(v_matrix(V, basis_size(n)), contour),
            rel=1e-13, abs=0)

    def test_blocks_are_the_dense_blocks(self):
        # the lower triangle of each block is the uncut dense one, bitwise
        # where it is nonzero and at most _REACH_TOL where the fill cut it,
        # and the mirrored upper triangle its transpose (conjugate); each
        # block's levels are alpha(2k+1) of its indices
        cut = 0
        for V in (cos_potential(), split_complex_potential(),
                  seeded_quasi(3)):
            vm = v_matrix(V, 61)
            dense = [block for _, block in dense_blocks(vm)]
            tb = resolvent._assemble(V, 61)
            assert len(tb.blocks) == len(dense)
            for (index, levels, v), d in zip(tb.blocks, dense):
                np.testing.assert_array_equal(
                    levels, V.alpha * (2.0 * index + 1.0))
                assert v.dtype == d.dtype
                cut += assert_cut_fill(np.tril(v), np.tril(d))
                np.testing.assert_array_equal(v, v.T.conj())
                np.testing.assert_array_equal(
                    index, np.arange(61)[index[0]::len(tb.blocks)])
        assert cut > 0

    def test_no_subnormal_entries(self):
        # the fill cuts each row where its rest sums to 1e-30, so products
        # of the blocks never reach subnormal numbers; uncut, cos x's
        # blocks at n = 72 held entries down to 2.3e-317
        tb = _trace_blocks(cos_potential(), 72)
        smallest = min(np.min(np.abs(v[v != 0])) for _, _, v in tb.blocks)
        assert smallest > 1e-300

    def test_rs_orders_match_dense_recursion(self):
        V, n = seeded_quasi(3), 24
        N = basis_size(n)
        np.testing.assert_allclose(
            _rs_orders(_trace_blocks(V, n), n, V.alpha, 6),
            dense_rs_orders(v_matrix(V, N), n, V.alpha, 6),
            rtol=1e-13, atol=1e-14)


@st.composite
def two_pair_potentials(draw):
    """Two pairs with complex c_a and a_xi != 0, in one complex block; the
    sign ranges keep the four phase points distinct."""
    terms = []
    for ax_range, axi_range in (((0.0, 1.5), (0.1, 1.5)),
                                ((0.1, 1.5), (-1.5, -0.1))):
        a = PhasePoint(draw(st.floats(*ax_range)), draw(st.floats(*axi_range)))
        c = complex(draw(st.floats(0.02, 0.4)) * np.exp(
            1j * draw(st.floats(0.0, 2.0 * math.pi))))
        terms += [(a, c), (-a, c.conjugate())]
    return Potential(alpha=1.0, terms=tuple(terms),
                     c0=draw(st.floats(-0.5, 0.5)))


class TestGateDecision:
    @settings(max_examples=40, deadline=None)
    @given(V=two_pair_potentials(), n=st.integers(0, 40),
           eps=st.floats(0.1, 0.9))
    def test_refuses_where_dense_oracle_reaches_one(self, V, n, eps):
        # the Gram form refuses exactly where the complex (VR)^2 of the
        # dense oracle reaches 1, and otherwise gives its value
        contour = Contour(n=n, alpha=V.alpha, epsilon=eps)
        dense = dense_contraction(v_matrix(V, basis_size(n)), contour)
        assume(abs(dense - 1.0) > 1e-12)
        if dense >= 1.0:
            with pytest.raises(NeumannDivergence):
                trace_eigenvalue(V, n, eps, jmax=1)
        else:
            assert trace_eigenvalue(V, n, eps, jmax=1).contraction == \
                pytest.approx(dense, rel=1e-12, abs=0)


class TestAssemblyMemo:
    """One assembly of V's blocks serves every trace function at one V
    object and N."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The (V, N) of every assembly, from an empty memo."""
        built = []
        fill = matelem._v_blocks

        def record(V, lo, hi):
            assert lo == 0
            built.append((V, hi))
            return fill(V, lo, hi)

        monkeypatch.setattr(resolvent, "_last", [])
        monkeypatch.setattr(resolvent, "_v_blocks", record)
        return built

    def test_one_assembly_per_index(self, builds):
        V, n = cos_potential(), 24
        rvr_norms(V, n, 0.5)
        trace_eigenvalue(V, n, 0.5)
        trace_order_j(V, n, j=2)
        assert builds == [(V, basis_size(n))]
        # a new index, a new potential, then the first again: one slot
        trace_order_j(V, n + 1)
        W = cos_potential(amplitude=0.5)
        trace_order_j(W, n + 1)
        trace_order_j(V, n)
        assert builds == [(V, basis_size(n)), (V, basis_size(n + 1)),
                          (W, basis_size(n + 1)), (V, basis_size(n))]
        # an equal but distinct potential is assembled again
        U = cos_potential()
        assert U == V and U is not V
        trace_order_j(U, n)
        assert len(builds) == 5
        assert builds[-1][0] is U and builds[-1][1] == basis_size(n)

    def test_old_entry_dropped_before_build(self, builds, monkeypatch):
        V = cos_potential()
        tb = _trace_blocks(V, 0)
        refs = [weakref.ref(tb), weakref.ref(tb.blocks[0][2])]
        del tb
        alive = []
        fill = resolvent._v_blocks

        def check(V, lo, hi):
            alive.append([r() is not None for r in refs])
            return fill(V, lo, hi)

        monkeypatch.setattr(resolvent, "_v_blocks", check)
        _trace_blocks(V, 1)
        assert alive == [[False, False]]

    def test_cached_arrays_read_only(self):
        for V in (cos_potential(), quasi_potential()):
            for index, levels, v in _trace_blocks(V, 0).blocks:
                with pytest.raises(ValueError, match="read-only"):
                    v[0, 0] = 1.0
                with pytest.raises(ValueError, match="read-only"):
                    index[0] = 1
                with pytest.raises(ValueError, match="read-only"):
                    levels[0] = 1.0

    def test_signed_zero_not_shared(self, builds):
        # -0.0 == 0.0, so the potentials compare equal, but the phase
        # arg(-omega_a) is +pi for one and -pi for the other
        c = 0.3 + 0.2j
        V, W = (Potential(alpha=1.0, terms=(
            (PhasePoint(zero, 1.0), c), (PhasePoint(-zero, -1.0),
                                         c.conjugate()))) for zero in
            (0.0, -0.0))
        assert V == W
        trace_order_j(V, 10)
        trace_order_j(W, 10)
        assert len(builds) == 2
        assert not np.array_equal(resolvent._assemble(V, 10).blocks[0][2],
                                  resolvent._assemble(W, 10).blocks[0][2])
