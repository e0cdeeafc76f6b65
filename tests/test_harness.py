"""The benchmark harness's own tests, run from tier-1.

perfbench's tracer wraps package functions by name (for example
`spectral.build_matrix` and `resolvent.v_matrix`), and tier-1 does not
collect `perfbench/tests`: a deleted or renamed name would pass tier-1
and break the benchmark.
"""

import subprocess
import sys
from pathlib import Path


def test_perfbench_tests_pass():
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "-p", "no:cacheprovider", "perfbench/tests"],
                          cwd=root, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
