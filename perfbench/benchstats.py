"""Small statistics and environment helpers shared by the benchmark."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles from `statistics.quantiles(values, n=4)`."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        raise ValueError("spread is undefined for a zero median")
    return (q3 - q1) / abs(med)


def summarize(values) -> dict:
    """Median, quartiles and spread of one metric over several runs."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread(values), "n": len(values)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(np_module):
    """Thread count OpenBLAS reports, asked through its own entry point;
    None when the library or the symbol cannot be found."""
    libdir = os.path.join(os.path.dirname(np_module.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np_module) -> dict:
    """Record of the software and hardware one result was measured on."""
    try:
        blas = np_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np_module.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(np_module),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
    }
