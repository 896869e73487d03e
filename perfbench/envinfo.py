"""The environment record attached to every benchmark result.

It holds what the timings depend on beyond the code: CPU count, Python,
numpy and BLAS versions, the BLAS thread settings in effect, and the
thread count matdisc's CLI uses by default.  For example, disc_exact at
n = 20 with two CLI threads runs markedly slower under OpenBLAS's
default thread count than with OPENBLAS_NUM_THREADS=1 on a 2-CPU host,
and these fields are what tell two such runs apart.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
_OPENBLAS_QUERIES = ("openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads")


def _blas_info() -> dict:
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError, ValueError):
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration")}


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library this process loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at root, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over src/matdisc/*.py, names and contents, in name order."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "matdisc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    """Call after numpy is imported, so the loaded BLAS can be queried."""
    import numpy as np
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "sched_affinity_cpus": affinity,
        "cli_default_threads": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "blas_threads_effective": _openblas_threads(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "workload_seed": seed,
    }
