"""Machine facts recorded with every benchmark result.

Everything here is read only: no thread count, affinity or environment
variable is changed.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
    "mkl_get_max_threads", "bli_thread_get_num_threads",
)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> list:
    out = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            out.append({
                f: (idx / f).read_text().strip() for f in ("level", "type", "size")
            })
        except OSError:
            continue
    return out


def _blas_threads() -> dict:
    """Thread count reported by each BLAS library loaded in this process."""
    libs = set()
    try:
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            base = os.path.basename(path).lower()
            if base.startswith(("libopenblas", "libscipy_openblas", "libmkl_rt", "libblis")):
                libs.add(path)
    except OSError:
        return {}
    found = {}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(path)] = int(fn())
                break
    return found


def facts() -> dict:
    """Machine, BLAS and version facts; call after numpy and scipy load."""
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = _blas_threads()
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_within_nproc": all(t <= nproc for t in threads.values()),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
