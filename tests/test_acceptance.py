"""End-to-end acceptance checks at pinned tolerances.

One test per headline property; each prints a PASS or FAIL line with the measured
quantity before asserting.  The cos x benchmark potential (alpha = 1,
coefficients 1/2 at (+-1, 0)) is shared across the spectral criteria, and
its large spectrum is computed once per module.

Two checks need care because W is quasi-periodic with zeros and the paper's
remainder term is only an upper bound:

* test_remainder_log_scaling checks the finite-range form of
  r_n = O(n^(-1/2) ln n): the scaled remainder |r_n| sqrt(n) / ln n must not
  grow from [100, 999] to [1000, 2000].  The bound need not be sharp, and on
  cos x the remainder decays faster than it.  A prediction with no W term
  serves as a control that the check rejects.
* test_resolvent_hs_norm_scaling checks that ||R V R||_HS n^(1/4) is stable
  when read at matched phase of W.  The diagonal entry |V_nn| / epsilon^2
  dominates the norm and V_nn ~ W(sqrt n) n^(-1/4), so at fixed indices the
  scaled norm follows |W(sqrt n)| and swings about 8x within one
  quasi-period; the indices are therefore taken at peaks of |W|.
"""

import math
import warnings

import numpy as np
import pytest

from contour_oracle import contour_order_j
from oscspec.asymptotics import (
    AsymptoticModel,
    first_order_diagonal,
    residual_report,
    w_value,
)
from oscspec.matelem import u_element, u_element_oracle, window_sup
from oscspec.model import PhasePoint, Potential
from oscspec.resolvent import rvr_norms, trace_eigenvalue, trace_order_j
from oscspec.spectral import spectrum
from oscspec.specialfn import a_coefficients, bessel_j_grid, f_factor


def _report(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def cosx():
    return Potential.cosine(alpha=1.0, amplitude=1.0, frequency=1.0)


@pytest.fixture(scope="module")
def cosx_spectrum(cosx):
    # trusted through n = 2000; reused by the remainder and cross-method
    # criteria to avoid repeating the large diagonalization
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return spectrum(cosx, nmax=2000, convergence_tol=1e-8)


@pytest.fixture(scope="module")
def cosx_pairs(cosx_spectrum):
    return [(n, float(cosx_spectrum.eigenvalues[n])) for n in range(2001)]


@pytest.fixture(scope="module")
def cosx_residuals(cosx, cosx_pairs):
    model = AsymptoticModel.from_potential(cosx)
    return residual_report(model, cosx_pairs)


def test_unperturbed_spectrum_exact():
    V = Potential(alpha=1.0, terms=(), c0=0.0)
    spec = spectrum(V, nmax=500, convergence_tol=1e-10)
    exact = 2.0 * np.arange(501) + 1.0
    rel = np.max(np.abs(spec.trusted()[:501] - exact) / exact)
    ok = rel <= 1e-9
    _report("unperturbed-exactness", ok, f"max relative error {rel:.3e}")
    assert ok


def test_matrix_element_routes_agree():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        # uniform over the metric ball of radius 5
        r = 5.0 * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        a = PhasePoint(r * math.cos(phi) * math.sqrt(alpha),
                       r * math.sin(phi) / math.sqrt(alpha))
        k, kp = (int(v) for v in rng.integers(0, 51, size=2))
        diff = abs(u_element(a, alpha, k, kp) - u_element_oracle(a, alpha, k, kp))
        worst = max(worst, diff)
    ok = worst <= 1e-10
    _report("matrix-element-equivalence", ok,
            f"max |closed - quadrature| = {worst:.3e} over 1000 samples")
    assert ok


def test_remainder_log_scaling(cosx_residuals, cosx_pairs):
    # r_n = O(n^(-1/2) ln n) is an upper bound, so on a finite range it means
    # |r_n| sqrt(n) / ln n does not grow: its maximum over [1000, 2000] is at
    # most its maximum over the disjoint range [100, 999], with no slack.
    # The bound need not be attained (on cos x r_n decays faster), so a
    # falling scaled remainder passes.  The same check must reject a
    # prediction with no W term, whose scaled remainder grows.
    head = cosx_residuals.max_scaled(100, 999)
    tail = cosx_residuals.max_scaled(1000, 2000)
    no_w = residual_report(
        AsymptoticModel(alpha=1.0, c0=0.0, wave_terms=()), cosx_pairs)
    no_w_head = no_w.max_scaled(100, 999)
    no_w_tail = no_w.max_scaled(1000, 2000)
    control_rejected = no_w_tail > no_w_head
    ok = tail <= head and control_rejected
    _report("remainder-log-scaling", ok,
            f"max over [100,999] = {head:.4f}, over [1000,2000] = {tail:.4f}, "
            f"ratio {tail / head:.4f} (required <= 1); "
            f"no-W control {no_w_head:.4f} -> {no_w_tail:.4f}, "
            f"ratio {no_w_tail / no_w_head:.4f} "
            f"({'rejected' if control_rejected else 'NOT rejected'})")
    assert ok


def test_remainder_three_quarters_scaling(cosx_residuals):
    # |r_n| n^(3/4) stable within a factor of 2 across the same split
    full = cosx_residuals.max_alt_scaled(100, 2000)
    tail = cosx_residuals.max_alt_scaled(1000, 2000)
    ratio = full / tail
    ok = ratio < 2.0
    _report("remainder-3/4-scaling", ok,
            f"max over [100,2000] = {full:.4f}, over [1000,2000] = {tail:.4f}, "
            f"ratio {ratio:.4f} (required < 2)")
    assert ok


def test_first_order_term_scaling(cosx):
    model = AsymptoticModel.from_potential(cosx)
    powers = [2**j for j in range(4, 13)]  # 16 .. 4096
    scaled = []
    for n in powers:
        diag = first_order_diagonal(cosx, n)
        w_term = w_value(model, math.sqrt(n)) * n**-0.25
        scaled.append(abs(diag - w_term) * math.sqrt(n))
    lower = max(scaled[: len(scaled) // 2 + 1])
    upper = max(scaled[len(scaled) // 2 + 1:])
    ok = upper <= lower and max(scaled) < 1.0
    vals = ", ".join(f"{s:.4f}" for s in scaled)
    _report("first-order-term", ok,
            f"|diag - W term| sqrt(n) at n = 16..4096: [{vals}]")
    assert ok


def test_window_supremum_scaling(cosx):
    vals = [window_sup(cosx, n) * n**0.25 for n in (64, 256, 1024, 4096)]
    ratio = max(vals) / min(vals)
    ok = ratio < 2.0
    _report("window-supremum", ok,
            f"sup n^(1/4) = {[f'{v:.4f}' for v in vals]}, ratio {ratio:.4f}")
    assert ok


def test_special_function_bounds():
    bessel_worst = 0.0
    for n in range(51):
        xs = np.arange(2 * n, 2 * n + 100.0001, 0.1)
        xs = xs[xs > 0]
        vals = bessel_j_grid(n, xs)
        bessel_worst = max(bessel_worst,
                           float(np.max(np.abs(vals) * np.sqrt(xs))))

    f_worst = 0.0
    for k in range(501):
        for kp in range(k, 501):
            f_worst = max(f_worst, f_factor(k, kp))

    rng = np.random.default_rng(6)
    a_ok = True
    for _ in range(200):
        # the growth bound needs k' >= 2 and k' - k <= k'^(2/3)
        kp = int(rng.integers(2, 501))
        k = kp - int(rng.integers(0, int(kp ** (2.0 / 3.0)) + 1))
        seq = a_coefficients(k, kp, 60)
        s = k + kp + 1
        for j, val in enumerate(seq.values):
            if abs(val) > s ** (j / 3.0) * (1 + 1e-12):
                a_ok = False

    ok = bessel_worst <= 4.0 and f_worst <= 1.0 + 1e-12 and a_ok
    _report("special-function-bounds", ok,
            f"max |J_n| sqrt(x) = {bessel_worst:.4f} (<= 4), "
            f"max F = {f_worst:.6f} (<= 1), "
            f"A_j bound {'holds' if a_ok else 'violated'}")
    assert ok


def test_trace_identity(cosx):
    # trace_order_j (RS recursion) does not depend on the contour, so the
    # epsilon dependence is measured on the contour quadrature itself.
    worst_diag = worst_eps = 0.0
    for n in (10, 50, 100, 200):
        t_rs = trace_order_j(cosx, n, j=1)
        t_half = contour_order_j(cosx, n, epsilon=0.5, j=1)
        t_quarter = contour_order_j(cosx, n, epsilon=0.25, j=1)
        diag = first_order_diagonal(cosx, n)
        worst_diag = max(worst_diag, abs(t_rs - diag), abs(t_half - diag))
        worst_eps = max(worst_eps, abs(t_half - t_quarter))
    ok = worst_diag <= 1e-8 and worst_eps <= 1e-8
    _report("trace-identity", ok,
            f"max |trace_1 - diag| = {worst_diag:.2e}, "
            f"max epsilon dependence = {worst_eps:.2e}")
    assert ok


def test_cross_method_eigenvalues(cosx, cosx_spectrum):
    worst = 0.0
    for n in (32, 64, 128, 256, 512):
        te = trace_eigenvalue(cosx, n, epsilon=0.5, jmax=6)
        direct = float(cosx_spectrum.eigenvalues[n])
        worst = max(worst, abs(te.value - direct))
    ok = worst <= 1e-6
    _report("cross-method-eigenvalues", ok,
            f"max |trace - diagonalization| = {worst:.3e} over n in "
            "(32, 64, 128, 256, 512)")
    assert ok


@pytest.fixture(scope="module")
def cosx_rvr_norms(cosx):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {n: rvr_norms(cosx, n, epsilon=0.5, node_count=32)
                for n in (64, 256, 1024)}


def _w_peak_index(model, n_near):
    """The integer n nearest n_near at which |W(sqrt n)| peaks, i.e. where
    freq sqrt(n) - pi/4 is a multiple of pi, for a single-wave model."""
    ((_, freq, _),) = model.wave_terms
    k = math.floor((freq * math.sqrt(n_near) - 0.25 * math.pi) / math.pi)
    peaks = [((j + 0.25) * math.pi / freq) ** 2 for j in (k, k + 1)]
    return round(min(peaks, key=lambda n: abs(n - n_near)))


@pytest.fixture(scope="module")
def cosx_rvr_norms_at_w_peaks(cosx):
    model = AsymptoticModel.from_potential(cosx)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {n: rvr_norms(cosx, n, epsilon=0.5, node_count=32)
                for n in (_w_peak_index(model, m) for m in (64, 256, 1024))}


def test_resolvent_hs_norm_scaling(cosx, cosx_rvr_norms_at_w_peaks,
                                   cosx_rvr_norms):
    # No statement of the paper's abstract or of a docstring gives a law for
    # ||R V R||_HS; the law checked here is this test's own: HS n^(1/4) is
    # stable within a factor of 2.  The diagonal term |V_nn| / epsilon^2
    # dominates, and V_nn ~ W(sqrt n) n^(-1/4), so the law is read at the
    # peak of |W| nearest each of n = 64, 256, 1024; the peak indices come
    # from the model's wave term, not from the HS values.  The fixed indices
    # are printed alongside to show the quasi-periodic swing.
    model = AsymptoticModel.from_potential(cosx)

    def scaled(norms):
        return {n: r.hilbert_schmidt * n**0.25 for n, r in norms.items()}

    def listing(values):
        return ", ".join(f"n={n}: {v:.4f} (|W|={abs(w_value(model, math.sqrt(n))):.3f})"
                         for n, v in values.items())

    at_peaks = scaled(cosx_rvr_norms_at_w_peaks)
    ratio = max(at_peaks.values()) / min(at_peaks.values())
    ok = ratio < 2.0
    _report("resolvent-hs-scaling", ok,
            f"HS n^(1/4) at |W| peaks [{listing(at_peaks)}] "
            f"(ratio {ratio:.3f}, required < 2); "
            f"at fixed indices [{listing(scaled(cosx_rvr_norms))}]")
    assert ok


def test_resolvent_trace_norm_bounded(cosx_rvr_norms):
    trace_norms = [r.trace_norm for r in cosx_rvr_norms.values()]
    ok = max(trace_norms) < 10.0
    _report("resolvent-trace-norm", ok,
            f"trace norms = {[f'{v:.4f}' for v in trace_norms]} (bounded)")
    assert ok
