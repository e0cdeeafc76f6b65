"""The benchmark's workloads: seeded inputs, one pass of operations, gates.

Every workload builds its config document from the seed, sends it through
`cli.parse_config`, and then drives the functions the `oscspec` CLI runs,
in-process.  A pass is the workload's list of operations.  An operation
fails if it raises or misses its correctness gate; a failure is counted and
the pass goes on.

Package functions are looked up on their module at call time, so a tracer
that patched the module sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "references"

TOL = 1e-8                # doubling tolerance of every compute config
EIGEN_GATE = 1e-9         # a tenth of TOL
TRACE_GATE = 1e-6         # cross-method threshold of tests/test_acceptance.py
EPSILON = 0.5

COS_TERMS = [[1.0, 0.0, 0.5, 0.0], [-1.0, 0.0, 0.5, 0.0]]
COS_NMAX = 800

QUASI_NMAX = 600
QUASI_C0 = 0.25
# The phases are drawn from seed % QUASI_REF_SEEDS, so that every seed has a
# stored reference spectrum.
QUASI_REF_SEEDS = 16
# (a_x, a_xi) and |c_a| of each {a, -a} pair; the seed draws arg c_a
QUASI_PAIRS = (((1.0, 0.0), 0.5), ((math.sqrt(2.0), 0.0), 0.15),
               ((0.6, 0.8), 0.2), ((1.5, -1.2), 0.1))

# A trace at index n costs about basis_size(n)^4.5 seconds-units on a 2-CPU
# OpenBLAS host, so three indices drawn freely from 48..96 would make the pass
# time vary by a factor of three with the seed.  Drawing among the triples of
# distinct indices in 64..80 that sum to 216 (mean 72, the middle of 48..96)
# keeps the work of a pass within about 2% whatever the seed.
TRACE_INDEX_SUM = 216
TRACE_TRIPLES = [t for t in itertools.combinations(range(64, 81), 3)
                 if sum(t) == TRACE_INDEX_SUM]
TRACE_JMAX = 6

VERIFY_SUITES = ("bessel", "matelem", "window", "resolvent")

NAMES = ("compute_cos", "compute_quasi", "trace_cos", "verify_cos")


def cos_document() -> dict:
    return {"alpha": 1.0, "c0": 0.0, "terms": COS_TERMS, "nmax": COS_NMAX,
            "tol": TOL, "epsilon": EPSILON}


def quasi_phases(seed: int) -> list[float]:
    rng = np.random.default_rng(seed % QUASI_REF_SEEDS)
    return [float(p) for p in rng.uniform(0.0, 2.0 * math.pi,
                                          size=len(QUASI_PAIRS))]


def quasi_document(seed: int) -> dict:
    terms = []
    for ((ax, axi), amp), phi in zip(QUASI_PAIRS, quasi_phases(seed)):
        re, im = amp * math.cos(phi), amp * math.sin(phi)
        terms += [[ax, axi, re, im], [-ax, -axi, re, -im]]
    return {"alpha": 1.0, "c0": QUASI_C0, "terms": terms, "nmax": QUASI_NMAX,
            "tol": TOL, "epsilon": EPSILON}


def trace_indices(seed: int) -> tuple[int, int, int]:
    rng = np.random.default_rng(seed)
    return TRACE_TRIPLES[int(rng.integers(len(TRACE_TRIPLES)))]


def load_reference(name: str) -> dict:
    return json.loads((REF_DIR / f"{name}.json").read_text(encoding="utf-8"))


def read_compute_output(csv_path: Path) -> tuple[int, list[float]]:
    """trusted_max from the sidecar and lambda_numeric from the CSV."""
    sidecar = csv_path.with_suffix(csv_path.suffix + ".meta.json")
    trusted_max = json.loads(sidecar.read_text(encoding="utf-8"))["trusted_max"]
    rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
    return trusted_max, [float(r.split(",")[1]) for r in rows]


def compute_gate(csv_path: Path, nmax: int,
                 reference: list[float]) -> str | None:
    """None if the compute output passes, else why it fails: trusted_max ==
    nmax, finite eigenvalues, and every one within EIGEN_GATE of reference."""
    trusted_max, lam = read_compute_output(csv_path)
    if trusted_max != nmax or len(lam) != nmax + 1:
        return f"trusted_max {trusted_max} with {len(lam)} rows, want {nmax}"
    if not all(math.isfinite(v) for v in lam):
        return "non-finite eigenvalue"
    worst = max(abs(a - b) for a, b in zip(lam, reference))
    if not worst <= EIGEN_GATE:
        return f"max |lambda - reference| = {worst:.3e} > {EIGEN_GATE:g}"
    return None


def _attempt(op) -> str | None:
    """Run one operation; its gate message, or the exception it raised."""
    try:
        return op()
    except Exception as exc:  # any failure of the program counts, never aborts
        return f"{type(exc).__name__}: {exc}"


class Workload:
    """Parsed inputs of one workload and its pass."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        from oscspec import cli

        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        self.inputs: dict = {"workload": name, "seed": seed}
        if name == "compute_quasi":
            document = quasi_document(seed)
            ref_seed = seed % QUASI_REF_SEEDS
            self.inputs["phases"] = quasi_phases(seed)
            self.inputs["reference_seed"] = ref_seed
            entry = load_reference("compute_quasi")["seeds"][str(ref_seed)]
            self.reference = entry["lambda_numeric"]
        elif name in ("compute_cos", "trace_cos"):
            document = cos_document()
            self.reference = load_reference("compute_cos")["lambda_numeric"]
        elif name == "verify_cos":
            document = cos_document()
            self.reference = None
        else:
            raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
        if name == "trace_cos":
            self.indices = trace_indices(seed)
            self.inputs["indices"] = list(self.indices)
        self.config = cli.parse_config(json.dumps(document))

    def run_pass(self) -> tuple[int, list[str]]:
        """Run every operation once: (operations attempted, failure messages)."""
        ops = {
            "compute_cos": self._compute_ops,
            "compute_quasi": self._compute_ops,
            "trace_cos": self._trace_ops,
            "verify_cos": self._verify_ops,
        }[self.name]()
        failures = []
        for label, op in ops:
            message = _attempt(op)
            if message is not None:
                failures.append(f"{label}: {message}")
        return len(ops), failures

    def _compute_ops(self):
        from oscspec import cli

        def op():
            csv_path = self.out_dir / f"{self.name}.csv"
            cli.run_compute(self.config, csv_path)
            return compute_gate(csv_path, self.config.nmax, self.reference)

        return [("run_compute", op)]

    def _trace_ops(self):
        from oscspec import resolvent

        V, eps = self.config.potential, self.config.epsilon

        def op(n):
            # the sequence of `oscspec trace --n n`
            resolvent.resolvent_sums(n, eps, N=4 * n + 64, alpha=V.alpha,
                                     kappa=V.kappa())
            resolvent.rvr_norms(V, n, eps)
            te = resolvent.trace_eigenvalue(V, n, eps, jmax=TRACE_JMAX)
            err = abs(te.value - self.reference[n])
            if not err <= TRACE_GATE:
                return f"|trace - dense| = {err:.3e} > {TRACE_GATE:g}"
            return None

        return [(f"trace n={n}", lambda n=n: op(n)) for n in self.indices]

    def _verify_ops(self):
        from oscspec import cli

        def op(suite):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                ok = cli.run_verify(self.config, suite, self.seed)
            line = out.getvalue().strip()
            return None if ok and line.startswith("PASS") else line

        return [(f"verify {s}", lambda s=s: op(s)) for s in VERIFY_SUITES]
