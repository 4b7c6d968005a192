"""Machine context recorded with every benchmark result.

numpy and scipy each ship their own OpenBLAS build with its own thread
pool.  Their thread counts are read through ``ctypes`` from the libraries
already loaded into this process.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np
import scipy
import scipy.linalg  # noqa: F401 - loads scipy's OpenBLAS

#: variables that set BLAS threads or the sweep's worker cap; recorded, never set
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "NHMETRIC_MAX_WORKERS")


def _openblas(package, pattern: str, suffix: str) -> dict | None:
    """Version string and thread count of the OpenBLAS bundled with ``package``."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)), f"{package.__name__}.libs")
    for path in sorted(glob.glob(os.path.join(libdir, pattern))):
        lib = ctypes.CDLL(path)
        try:
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        except AttributeError:
            continue
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return {
            "library": os.path.basename(path),
            "config": get_config().decode(),
            "threads": get_threads(),
        }
    return None


def context(workload: str, seed: int, workers: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _openblas(np, "libscipy_openblas64_*.so", "64_"),
        "scipy_openblas": _openblas(scipy, "libscipy_openblas-*.so", ""),
        "env": {name: os.environ.get(name) for name in THREAD_ENV},
        "workers": workers,
        "workload": workload,
        "seed": seed,
    }
