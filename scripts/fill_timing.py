#!/usr/bin/env python3
"""Time the fill of V's matrix elements, `matelem._v_blocks`, per row.

    python3 scripts/fill_timing.py [--seconds 0.5]

Run from the repository root; the package is imported from `src/` of the
checkout this file sits in.  Each fill is run once to warm up, then
repeated for about `--seconds` (at least 5 times), and the median time
is printed in microseconds per recurrence row: a fill of rows lo .. hi-1
runs the recurrence over all hi rows from row 0.  `width` is the number
of offsets the widest row writes.

The fills are those the benchmark's workloads run, on the potentials
of their config documents (`perfbench/workloads.py`): the trace route's
blocks of cos x at n = 64, 72 and 80, and `spectrum`'s blocks with their
couplings for cos x at nmax = 800 and the quasi-periodic potential of
seed 7 at nmax = 600.  Then come the three windows of the `window`
verify suite, and the windows of cos x at n = 10^4 and 10^5, alone and
with their coupling (a wide band: hundreds of offsets per row).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from oscspec.cli import parse_config  # noqa: E402
from oscspec.matelem import _block_kinds, _reach, _v_blocks  # noqa: E402
from oscspec.model import Potential  # noqa: E402
from workloads import cos_document, quasi_document  # noqa: E402


def potential(document: dict) -> Potential:
    """The potential a workload's config document parses to."""
    return parse_config(json.dumps(document)).potential


def window(V: Potential, n: int) -> tuple[int, int]:
    """The rows of `window_sup`'s window at index n."""
    half = int(math.floor(V.kappa() * math.sqrt(n)))
    return max(0, n - half), n + half + 1


def fills():
    cos = potential(cos_document())
    for n, hi in ((64, 256), (72, 276), (80, 296)):
        yield f"trace cos x n={n}", cos, 0, hi, False
    yield "spectrum cos x nmax=800", cos, 0, 935, True
    quasi = potential(quasi_document(7))
    yield "spectrum quasi seed 7 nmax=600", quasi, 0, 798, True
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
