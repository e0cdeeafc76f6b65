"""Command-line interface: config ingestion, experiment runs, verification.

Subcommands:
  compute  -- spectrum + residual report as CSV with a .meta.json sidecar
  verify   -- property suites with recorded empirical constants
  matelem  -- one matrix element by all three routes
  trace    -- resolvent diagnostics and the RS trace series for one index,
              checked against the dense eigenvalue

Config schema (JSON): {"alpha": >0, "c0": optional, "terms": [[a_x, a_xi,
re, im], ...], "nmax": >=1, "tol": optional, "epsilon": optional}.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import AsymptoticModel, first_order_diagonal, residual_report
from .matelem import (u_element, u_element_bessel, u_element_oracle,
                      window_sup)
from .model import PhasePoint, Potential, ValidationError, rho, validate
from .resolvent import resolvent_sums, rvr_norms, trace_eigenvalue, trace_order_j
from .spectral import spectrum
from .specialfn import bessel_j_grid

__all__ = ["RunConfig", "parse_config", "run_compute", "run_verify", "main"]

_CSV_HEADER = ("n,lambda_numeric,lambda_unperturbed,c0,w_term,"
               "residual,scaled_residual,alt_scaled")


@dataclass(frozen=True)
class RunConfig:
    potential: Potential
    nmax: int
    convergence_tol: float
    epsilon: float

    raw: dict


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _is_number(x) -> bool:
    """A JSON number with a finite float value; true and false are not
    numbers here."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:   # an integer beyond the float range
        return False


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")

    problems = []
    alpha = doc.get("alpha")
    if not _is_number(alpha) or alpha <= 0:
        problems.append(f"alpha must be a positive number, got {alpha!r}")
        alpha = 1.0
    c0 = doc.get("c0", 0.0)
    if not _is_number(c0):
        problems.append(f"c0 must be a number, got {c0!r}")
        c0 = 0.0
    terms = []
    rows = doc.get("terms", [])
    if not isinstance(rows, list):
        problems.append(f"terms must be a list, got {rows!r}")
        rows = []
    for i, row in enumerate(rows):
        if (not isinstance(row, list)) or len(row) != 4 or not all(
                _is_number(v) for v in row):
            problems.append(f"terms[{i}] must be [a_x, a_xi, re, im]")
            continue
        ax, axi, re, im = map(float, row)
        terms.append((PhasePoint(ax, axi), complex(re, im)))
    nmax = doc.get("nmax")
    if not isinstance(nmax, int) or isinstance(nmax, bool) or nmax < 1:
        problems.append(f"nmax must be an integer >= 1, got {nmax!r}")
        nmax = 1
    tol = doc.get("tol", 1e-8)
    if not _is_number(tol) or tol <= 0:
        problems.append(f"tol must be a positive number, got {tol!r}")
        tol = 1e-8
    epsilon = doc.get("epsilon", alpha / 2.0)
    if not _is_number(epsilon) or not 0.0 < epsilon < alpha:
        problems.append(f"epsilon must lie in (0, alpha), got {epsilon!r}")
        epsilon = alpha / 2.0
    if problems:
        raise ValidationError(problems)

    potential = Potential(alpha=float(alpha), terms=tuple(terms), c0=float(c0))
    validate(potential)
    return RunConfig(potential=potential, nmax=nmax,
                     convergence_tol=float(tol), epsilon=float(epsilon),
                     raw=doc)


def run_compute(config: RunConfig, out_path: Path) -> None:
    """Spectrum -> residual report -> CSV (+ metadata sidecar).

    Warnings raised by `spectrum` are listed in the sidecar and emitted
    again, so they still reach stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = spectrum(config.potential, config.nmax, config.convergence_tol)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    model = AsymptoticModel.from_potential(config.potential)
    pairs = [(n, float(spec.eigenvalues[n])) for n in range(spec.trusted_max + 1)]
    report = residual_report(model, pairs)

    lines = [_CSV_HEADER]
    for row in report.rows:
        scaled = _fmt(row.scaled_residual) if row.scaled_residual is not None else ""
        alt = _fmt(row.alt_scaled) if row.alt_scaled is not None else ""
        lines.append(",".join([
            str(row.n), _fmt(row.lambda_numeric), _fmt(row.lambda_unperturbed),
            _fmt(row.c0), _fmt(row.w_term), _fmt(row.residual), scaled, alt,
        ]))
    out_path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")

    # disjoint ranges: a growing scaled remainder shows as a larger upper one
    nmax = spec.trusted_max
    maxima = [{"n_lo": lo, "n_hi": hi,
               "scaled_residual": report.max_scaled(lo, hi),
               "alt_scaled": report.max_alt_scaled(lo, hi)}
              for lo, hi in ((nmax // 10, nmax // 2 - 1), (nmax // 2, nmax))]
    meta = {
        "config": config.raw,
        "basis_size": spec.basis_size,
        "basis_sizes_tried": list(spec.basis_sizes),
        "coupling_band": spec.coupling_band,
        "trusted_max": spec.trusted_max,
        "max_certified_bound": spec.max_certified_bound,
        "residual_maxima": maxima,
        "stage_seconds": spec.stage_seconds,
        "convergence_tol": config.convergence_tol,
        "version": __version__,
        "warnings": [str(w.message) for w in caught],
    }
    sidecar = out_path.with_suffix(out_path.suffix + ".meta.json")
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")


def _suite_bessel(config: RunConfig, rng) -> tuple[bool, str]:
    worst = 0.0
    for n in range(0, 51):
        xs = np.arange(2 * n, 2 * n + 100.0001, 0.1)
        xs = xs[xs > 0]
        vals = bessel_j_grid(n, xs)
        worst = max(worst, float(np.max(np.abs(vals) * np.sqrt(xs))) / 4.0)
    ok = worst <= 1.0
    return ok, f"max |J_n(x)| x^(1/2) / 4 = {worst:.6f}"


def _suite_matelem(config: RunConfig, rng) -> tuple[bool, str]:
    worst = 0.0
    alpha = config.potential.alpha
    for _ in range(200):
        ax, axi = rng.uniform(-3.5, 3.5, size=2)
        k, kp = (int(v) for v in rng.integers(0, 51, size=2))
        p = PhasePoint(float(ax), float(axi))
        closed = u_element(p, alpha, k, kp)
        oracle = u_element_oracle(p, alpha, k, kp)
        worst = max(worst, abs(closed - oracle))
        if k <= kp:
            series = u_element_bessel(p, alpha, k, kp, jmax=48)
            if 2.0 * rho(p, alpha) <= (k + kp + 1) ** (1.0 / 6.0):
                worst = max(worst, abs(abs(series) - abs(closed)))
    ok = worst <= 1e-10
    return ok, f"max cross-route discrepancy = {worst:.3e}"


def _suite_window(config: RunConfig, rng) -> tuple[bool, str]:
    sups = []
    for n in (64, 256, 1024):
        sups.append(window_sup(config.potential, n) * n**0.25)
    ok = (max(sups) < math.inf and
          (min(sups) == 0.0 or max(sups) / min(sups) < 2.0))
    vals = ", ".join(f"{s:.4f}" for s in sups)
    return ok, f"sup|V_kk'| n^(1/4) over n in (64,256,1024) = [{vals}]"


def _suite_resolvent(config: RunConfig, rng) -> tuple[bool, str]:
    V = config.potential
    details = []
    ok = True
    for n in (64, 256):
        sums = resolvent_sums(n, config.epsilon, N=4 * n, alpha=V.alpha,
                              kappa=V.kappa())
        details.append(f"n={n}: s1/ln n={sums.s1 / math.log(n):.3f} "
                       f"s2a={sums.s2a:.3f} gap/sqrt n={sums.gap / math.sqrt(n):.3f}")
    if V.terms:
        t1 = trace_order_j(V, 50, j=1)
        diag = first_order_diagonal(V, 50)
        ok = abs(t1 - diag) <= 1e-8
        details.append(f"|trace_1 - diag| = {abs(t1 - diag):.2e}")
    return ok, "; ".join(details)


_SUITES = {
    "bessel": _suite_bessel,
    "matelem": _suite_matelem,
    "window": _suite_window,
    "resolvent": _suite_resolvent,
}


def run_verify(config: RunConfig, suite: str, seed: int = 0) -> bool:
    """Run one (or all) property suites; print one line per suite."""
    names = list(_SUITES) if suite == "all" else [suite]
    rng = np.random.default_rng(seed)
    all_ok = True
    for name in names:
        ok, detail = _SUITES[name](config, rng)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok


def _load_config(path: str) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oscspec",
        description="Spectra and eigenvalue asymptotics of the perturbed "
                    "harmonic oscillator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="spectrum + residual CSV")
    p_compute.add_argument("--config", required=True)
    p_compute.add_argument("--out", required=True)
    p_compute.add_argument("--nmax", type=int, default=None)

    p_verify = sub.add_parser("verify", help="property suites")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--suite", default="all",
                          choices=["all", *_SUITES])
    p_verify.add_argument("--seed", type=int, default=0)

    p_mat = sub.add_parser("matelem", help="one element by all three routes")
    p_mat.add_argument("--alpha", type=float, default=1.0)
    p_mat.add_argument("--ax", type=float, required=True)
    p_mat.add_argument("--axi", type=float, required=True)
    p_mat.add_argument("--k", type=int, required=True)
    p_mat.add_argument("--kprime", type=int, required=True)
    p_mat.add_argument("--jmax", type=int, default=48)

    p_trace = sub.add_parser("trace", help="resolvent diagnostics at index n")
    p_trace.add_argument("--config", required=True)
    p_trace.add_argument("--n", type=int, required=True)
    p_trace.add_argument("--epsilon", type=float, default=None)
    p_trace.add_argument("--jmax", type=int, default=6)

    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            config = _load_config(args.config)
            if args.nmax is not None:
                config = replace(config, nmax=args.nmax,
                                 raw={**config.raw, "nmax": args.nmax})
            run_compute(config, Path(args.out))
            print(f"wrote {args.out}")
            return 0
        if args.command == "verify":
            config = _load_config(args.config)
            return 0 if run_verify(config, args.suite, args.seed) else 1
        if args.command == "matelem":
            p = PhasePoint(args.ax, args.axi)
            # the checks a config's alpha and terms get
            validate(Potential(alpha=args.alpha, terms=() if p.is_zero()
                               else ((p, 1.0), (-p, 1.0))))
            k, kp = args.k, args.kprime
            # the series route checks jmax too, but runs only when k <= k'
            if args.jmax < 0:
                raise ValueError(
                    f"jmax must be a nonnegative integer, got {args.jmax}")
            # every route before any output, so a refusal prints only the error
            closed = u_element(p, args.alpha, k, kp)
            series = (u_element_bessel(p, args.alpha, k, kp, args.jmax)
                      if k <= kp else None)
            oracle = u_element_oracle(p, args.alpha, k, kp)
            print(f"closed form : {closed!r}")
            print(f"quadrature  : {oracle!r}")
            if series is not None:
                print(f"bessel series: {series!r}")
            print(f"|closed - quadrature| = {abs(closed - oracle):.3e}")
            return 0
        if args.command == "trace":
            config = _load_config(args.config)
            eps = args.epsilon if args.epsilon is not None else config.epsilon
            V, n = config.potential, args.n
            if n < 0:
                raise ValueError(f"n must be a nonnegative integer, got {n}")
            # every stage before any output, so a refusal prints only the
            # error; rvr_norms' byte guard first, before the sums' arrays
            norms = rvr_norms(V, n, eps)
            sums = resolvent_sums(n, eps, N=4 * n + 64, alpha=V.alpha,
                                  kappa=V.kappa())
            te = trace_eigenvalue(V, n, eps, jmax=args.jmax)
            dense = float(spectrum(V, nmax=max(n, 1)).eigenvalues[n])
            print(f"s1={sums.s1:.6f} s2a={sums.s2a:.6f} s2={sums.s2:.6f} "
                  f"gap={sums.gap:.6f}")
            print(f"||RVR||={norms.operator_norm:.3e} "
                  f"||RVR||_2={norms.hilbert_schmidt:.3e} "
                  f"||RVR||_1={norms.trace_norm:.3e}")
            print(f"Neumann contraction max ||(VR)^2|| = {te.contraction:.6f}"
                  " (Frobenius upper bound)")
            print(f"orders: {te.orders}")
            print(f"partial sums: {te.partial_sums}")
            print(f"eigenvalue estimate: {te.value:.12f}")
            print(f"dense lambda_n = {dense:.12f} "
                  f"|trace - dense| = {abs(te.value - dense):.3e}")
            return 0
    except (ValidationError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
