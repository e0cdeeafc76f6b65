"""Record of the machine and libraries a benchmark run measured on.

`threadpoolctl` is not a dependency, so the BLAS thread count is read by
calling OpenBLAS's own `get_num_threads` through ctypes on each OpenBLAS
library the process has loaded.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _loaded_blas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def blas_threads() -> dict[str, int | None]:
    """Thread count of each loaded OpenBLAS library, by file name."""
    out = {}
    for path in _loaded_blas_libraries():
        count = None
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            lib = None
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                count = int(fn())
                break
        out[Path(path).name] = count
    return out


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(root: Path) -> dict:
    """nproc, Python/numpy/scipy versions, BLAS and its threads, git commit."""
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS too)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
    }
