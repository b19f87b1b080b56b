"""Environment record printed with every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# BLAS is pinned to one thread before numpy is imported (see run.py).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_GET_THREADS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _loaded_blas_threads():
    """Thread count reported by every OpenBLAS library this process loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line.rsplit("/", 1)[-1]})
    except OSError:
        return {}
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _GET_THREADS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def _blas_version(config):
    try:
        blas = config["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return None


def _git_commit(root):
    """Commit of a git checkout, read from .git without running git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def record(root, seed):
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own OpenBLAS, so its threads are read too

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy.show_config(mode="dicts")),
        "scipy_blas": _blas_version(scipy.show_config(mode="dicts")),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_loaded": _loaded_blas_threads(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
