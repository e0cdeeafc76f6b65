#!/usr/bin/env python3
"""Regenerate the benchmark's reference eigenvalues.

    python3 perfbench/make_references.py

Writes `perfbench/references/compute_cos.json` (lambda_0..lambda_800 of
`cos x`) and `compute_quasi.json` (lambda_0..lambda_600 of the quasi-periodic
potential for seeds 0..QUASI_REF_SEEDS-1), computed by `run_compute` of the
checked-out package.  References are meant to come from a commit whose outputs are
trusted; they record that commit.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def eigenvalues(document: dict, tmp: Path) -> list[float]:
    from oscspec import cli

    config = cli.parse_config(json.dumps(document))
    csv_path = tmp / "ref.csv"
    cli.run_compute(config, csv_path)
    trusted_max, lam = workloads.read_compute_output(csv_path)
    if trusted_max != config.nmax or len(lam) != config.nmax + 1:
        raise SystemExit(f"trusted_max {trusted_max} for {document}")
    return lam


def write(name: str, doc: dict) -> None:
    path = workloads.REF_DIR / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> int:
    run.import_package()
    commit = run.envinfo.git_commit(run.ROOT)
    workloads.REF_DIR.mkdir(exist_ok=True)
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        write("compute_cos", {
            "commit": commit, "document": workloads.cos_document(),
            "lambda_numeric": eigenvalues(workloads.cos_document(), Path(tmp))})
        seeds = {}
        for seed in range(workloads.QUASI_REF_SEEDS):
            seeds[str(seed)] = {
                "phases": workloads.quasi_phases(seed),
                "lambda_numeric": eigenvalues(workloads.quasi_document(seed),
                                              Path(tmp))}
            print(f"compute_quasi seed {seed} done", flush=True)
        write("compute_quasi", {"commit": commit, "nmax": workloads.QUASI_NMAX,
                                "seeds": seeds})
    return 0


if __name__ == "__main__":
    sys.exit(main())
