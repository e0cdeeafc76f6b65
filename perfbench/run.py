#!/usr/bin/env python3
"""Run one oscspec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compute_cos --seed 0 --seconds 22 --trace 0

Run from the repository root.  The package is imported from `src/` of the
checkout this file sits in; without those sources the run exits with
status 1 and prints no result.

One run is one process.  It times set-up in separate child processes, then
repeats passes of the workload for about `--seconds`, and prints
as its last line one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are end-to-end (`wall_s`,
`setup_s`, `peak_rss_mb`).  With `--trace 1` untraced and traced passes
alternate, the tracer wraps the package's public functions from outside,
the metrics are per module (see layers.py), and the spans are written to
`perfbench/out/` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_PROBES = 16
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanTree, Tracer  # noqa: E402


def import_package():
    """Import oscspec from this checkout's sources, never from elsewhere."""
    package_dir = SRC / "oscspec"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no oscspec sources at {package_dir}")
    sys.path.insert(0, str(SRC))
    import oscspec
    if Path(oscspec.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"perfbench: oscspec imported from {oscspec.__file__}, "
                         f"not from {package_dir}")
    return oscspec


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a child process until its workload is ready:
    interpreter start, imports, config generation and parsing, references."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1]) - start


def run(args) -> dict:
    if not args.trace:
        setup_s = statistics.median(setup_probe(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES))

    tracer = Tracer("oscspec", observers=layers.OBSERVERS) if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if tracer:
            with tracer, tracer.span(layers.SETUP):
                workload = workloads.Workload(args.workload, args.seed, Path(tmp))
        else:
            workload = workloads.Workload(args.workload, args.seed, Path(tmp))
        print("inputs: " + json.dumps(workload.inputs), flush=True)

        untraced, traced = [], []
        attempted, failures = 0, []
        if tracer:
            # warm the caches, so that the first untraced pass is not the
            # only cold one when the two kinds are compared
            attempted, failures = workload.run_pass()
        deadline = time.perf_counter() + args.seconds
        while True:
            traced_pass = bool(tracer) and len(traced) < len(untraced)
            start = time.perf_counter()
            if traced_pass:
                with tracer, tracer.span(layers.PASS):
                    n_ops, failed = workload.run_pass()
            else:
                n_ops, failed = workload.run_pass()
            wall = time.perf_counter() - start
            (traced if traced_pass else untraced).append(wall)
            attempted += n_ops
            failures += failed
            # stop when another pass would end more than half a pass late,
            # so that a run lasts about --seconds whatever its pass time
            done = time.perf_counter() + 0.5 * wall >= deadline
            if done and (traced or not tracer):
                break

    env = envinfo.environment(ROOT)
    print("env: " + json.dumps(env), flush=True)
    print("passes: " + json.dumps({
        "untraced_wall_s": untraced, "traced_wall_s": traced,
        "ops_total": attempted, "ops_failed": len(failures),
        "failures": failures[:10]}), flush=True)

    if tracer:
        metrics = layers.layer_metrics(SpanTree(tracer.spans), traced, untraced)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps({
            "env": env, "inputs": workload.inputs,
            "spans": [[s.name, s.start, s.end, s.parent, s.info, s.error]
                      for s in tracer.spans]}), encoding="utf-8")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare the workload, print the monotonic clock "
                             "and exit (used to time set-up)")
    args = parser.parse_args(argv)

    if args.setup_only:
        import_package()
        workloads.Workload(args.workload, args.seed, OUT_DIR)
        print(repr(time.monotonic()))
        return 0

    import_package()   # fail fast, before any probe, without the sources
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
