#!/usr/bin/env python3
"""Time each suite of `oscspec verify` on its own, and single elements.

    python3 scripts/suite_timing.py [--seconds 1.0]

Run from the repository root; the package is imported from `src/` of the
checkout this file sits in.  Each suite is run once to warm up, then
repeated for about `--seconds` (at least 5 times), each run on a fresh
generator of seed 0, and the median time is printed in milliseconds.
Then a single `u_element_oracle` call and a single `u_element` call
(a = (0.3, -0.7), alpha = 1) at (k, k') = (0, 0), (3, 7), (50, 50) and
(300, 290) are timed the same way, the oracle's rule already cached, and
their medians printed in microseconds: the one-element path, which the
suites no longer time.  Last, the matelem suite's 200 draws at seed 7 as
one `u_element` batch, in milliseconds.

Medians of one tree move by 1.5-2x between runs on a shared host, so
compare two trees by running this script on each in turn, alternating,
several rounds each, not one tree after the other.

The configs are the benchmark's own (`perfbench/workloads.py`): the cos x
config of its `verify_cos` workload and the quasi-periodic config of seed
3 of its `compute_quasi` workload (four pairs, c0 = 0.25).  `run_verify`
runs the four suites in one call, so the benchmark's pass time does not
split by suite.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from oscspec.cli import _SUITES, _matelem_draws, parse_config  # noqa: E402
from oscspec.matelem import u_element, u_element_oracle  # noqa: E402
from oscspec.model import PhasePoint  # noqa: E402
from workloads import cos_document, quasi_document  # noqa: E402


ELEMENTS = ((0, 0), (3, 7), (50, 50), (300, 290))


def median_seconds(run, budget):
    """The median time of run(), warmed up once, over about `budget`
    seconds and at least 5 runs."""
    run()
    times = []
    start = time.perf_counter()
    while len(times) < 5 or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="time spent repeating each suite or element")
    args = parser.parse_args(argv)
    configs = (("cos x", cos_document()), ("quasi seed 3", quasi_document(3)))
    print(f"{'config':14} {'suite':10} {'ms':>8}")
    for label, doc in configs:
        config = parse_config(json.dumps(doc))
        for name, suite in _SUITES.items():
            s = median_seconds(
                lambda: suite(config, np.random.default_rng(0)), args.seconds)
            print(f"{label:14} {name:10} {1e3 * s:>8.2f}")
    a = PhasePoint(0.3, -0.7)
    for label, route in (("oracle", u_element_oracle),
                         ("closed form", u_element)):
        print(f"\n{label + ' k, kp':20} {'us':>8}")
        for k, kp in ELEMENTS:
            s = median_seconds(lambda: route(a, 1.0, k, kp), args.seconds)
            print(f"{f'({k}, {kp})':20} {1e6 * s:>8.1f}")
    points, ks, kps = _matelem_draws(np.random.default_rng(7))
    s = median_seconds(lambda: u_element(points, 1.0, ks, kps), args.seconds)
    print(f"\n{'closed form, 200 suite draws (seed 7), ms':44} {1e3 * s:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
