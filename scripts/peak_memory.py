#!/usr/bin/env python3
"""Peak memory of one `spectrum` call, in bytes per entry of its basis.

    python3 scripts/peak_memory.py [--nmax 1500]

Run from the repository root; the package is imported from `src/` of the
checkout this file sits in.  Each potential is measured in a fresh child
process: a warm-up `spectrum(V, nmax=20)` loads every module the solve
uses, then the peak resident size (VmHWM of /proc/self/status) is read
before and after `spectrum(V, nmax)`, and its growth is printed in MB and
per entry of the N x N basis that certified, next to the plan of the
byte guard (`spectral._planned_bytes`) per entry.  These are the peaks
the `_planned_bytes` docstring cites.

The potentials take the three shapes of A_N:
  cos x   [[1,0,0.5,0],[-1,0,0.5,0]]: two real parity blocks
  quasi3  the `compute_quasi` benchmark potential of seed 3 (four pairs,
          complex c_a, two with a_xi != 0): one complex block
  sin x   [[1,0,0,-0.5],[-1,0,0,0.5]]: one real block
`--potential NAME` measures one of them in this process instead.

The peak is VmHWM, not ru_maxrss, which a child inherits from the
process that forked it.  Without /proc/self/status (not Linux) the
script says so and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from oscspec import spectral  # noqa: E402
from oscspec.cli import parse_config  # noqa: E402
from workloads import quasi_document  # noqa: E402

STATUS = Path("/proc/self/status")
DOCUMENTS = {
    "cos": {"alpha": 1.0, "terms": [[1, 0, 0.5, 0], [-1, 0, 0.5, 0]],
            "nmax": 1},
    "quasi3": quasi_document(3),
    "sin": {"alpha": 1.0, "terms": [[1, 0, 0, -0.5], [-1, 0, 0, 0.5]],
            "nmax": 1},
}


def peak_bytes() -> int:
    with STATUS.open() as f:
        line = next(line for line in f if line.startswith("VmHWM:"))
    return 1024 * int(line.split()[1])


def measure(name: str, nmax: int) -> dict:
    """One `spectrum` call's peak growth, in this process."""
    V = parse_config(json.dumps(DOCUMENTS[name])).potential
    spectral.spectrum(V, nmax=20)
    base = peak_bytes()
    spec = spectral.spectrum(V, nmax=nmax)
    growth = peak_bytes() - base
    N = spec.basis_size
    plan = spectral._planned_bytes(V, N, spec.coupling_band)
    return {"potential": name, "nmax": nmax, "N": N,
            "band": spec.coupling_band, "growth_mb": growth / 2**20,
            "per_entry": growth / N**2, "plan_per_entry": plan / N**2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nmax", type=int, default=1500)
    parser.add_argument("--potential", choices=DOCUMENTS,
                        help="measure this one potential in this process "
                             "and print its result as JSON")
    args = parser.parse_args(argv)
    if not STATUS.exists():
        print(f"peak_memory: {STATUS} is absent; the peak resident size "
              "(VmHWM) cannot be read here", file=sys.stderr)
        return 1
    if args.potential:
        print(json.dumps(measure(args.potential, args.nmax)))
        return 0
    print(f"{'potential':10} {'nmax':>6} {'N':>6} {'band':>5} "
          f"{'growth MB':>10} {'B/entry':>8} {'plan':>6}")
    for name in DOCUMENTS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--nmax",
             str(args.nmax), "--potential", name],
            check=True, capture_output=True, text=True)
        r = json.loads(done.stdout.splitlines()[-1])
        print(f"{name:10} {r['nmax']:>6} {r['N']:>6} {r['band']:>5} "
              f"{r['growth_mb']:>10.1f} {r['per_entry']:>8.1f} "
              f"{math.ceil(r['plan_per_entry']):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
