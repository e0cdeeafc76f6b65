#!/usr/bin/env python3
"""Time the fill of V's matrix elements, `matelem._v_blocks`, per row.

    python3 scripts/fill_timing.py [--seconds 0.5]

Run from the repository root; the package is imported from `src/` of the
checkout this file sits in.  Each fill is run once to warm up, then
repeated for about `--seconds` (at least 5 times), and the median time
is printed in microseconds per recurrence row: a fill of rows lo .. hi-1
runs the recurrence over all hi rows from row 0.  `width` is the number
of offsets the widest row writes.

The fills are those the benchmark's workloads run (the trace route's
blocks of cos x at n = 64, 72 and 80; `spectrum`'s blocks with their
couplings for cos x at nmax = 800 and the quasi-periodic potential of
seed 7 at nmax = 600), the three windows of the `window` verify suite,
and the windows of cos x at n = 10^4 and 10^5, alone and with their
coupling (a wide band: hundreds of offsets per row).
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from oscspec.matelem import _block_kinds, _reach, _v_blocks  # noqa: E402
from oscspec.model import PhasePoint, Potential  # noqa: E402


def quasi_potential(seed: int) -> Potential:
    """The four-pair potential of the `compute_quasi` workload."""
    pairs = (((1.0, 0.0), 0.5), ((2**0.5, 0.0), 0.15), ((0.6, 0.8), 0.2),
             ((1.5, -1.2), 0.1))
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=4)
    terms = []
    for ((ax, axi), amp), phi in zip(pairs, phases):
        c = complex(amp * math.cos(phi), amp * math.sin(phi))
        terms += [(PhasePoint(ax, axi), c),
                  (PhasePoint(-ax, -axi), c.conjugate())]
    return Potential(alpha=1.0, terms=tuple(terms), c0=0.25)


def window(V: Potential, n: int) -> tuple[int, int]:
    """The rows of `window_sup`'s window at index n."""
    half = int(math.floor(V.kappa() * math.sqrt(n)))
    return max(0, n - half), n + half + 1


def fills():
    cos = Potential.cosine(alpha=1.0)
    for n, hi in ((64, 256), (72, 276), (80, 296)):
        yield f"trace cos x n={n}", cos, 0, hi, False
    yield "spectrum cos x nmax=800", cos, 0, 935, True
    yield "spectrum quasi seed 7 nmax=600", quasi_potential(7), 0, 798, True
    for n in (64, 256, 1024):
        yield f"window cos x n={n}", cos, *window(cos, n), False
    # a window's rows and, as a wide band, the same rows with their coupling
    for n in (10**4, 10**5):
        yield f"window cos x n={n}", cos, *window(cos, n), False
        yield f"window cos x n={n}", cos, *window(cos, n), True


def seconds_per_fill(V, lo, hi, coupling, budget):
    _v_blocks(V, lo, hi, coupling)
    times = []
    start = time.perf_counter()
    while len(times) < 5 or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        _v_blocks(V, lo, hi, coupling)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=0.5,
                        help="time spent repeating each fill")
    args = parser.parse_args(argv)
    print(f"{'fill':32} {'rows':>14} {'coupling':>8} {'width':>6} "
          f"{'us/row':>8}")
    for name, V, lo, hi, coupling in fills():
        step = 2 if _block_kinds(V)[0] else 1
        reach = _reach(V, lo, hi)
        if not coupling:
            reach = np.minimum(reach, hi - 1 - np.arange(lo, hi))
        width = int(reach.max()) // step + 1
        s = seconds_per_fill(V, lo, hi, coupling, args.seconds)
        print(f"{name:32} {f'{lo}..{hi - 1}':>14} {str(coupling):>8} "
              f"{width:>6} {1e6 * s / hi:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
