"""The environment record printed with every result, and the thread check.

Timings in this benchmark depend on how many threads the BLAS library
runs (``_score_all`` is one float32 matrix product per block), so the
record names the library and its thread count next to every number.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# OpenBLAS, as numpy's wheels bundle it; another BLAS is recorded with
# an unknown thread count, and the process's thread count still bounds it.
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    """Per-core cache sizes of CPU 0, as the kernel reports them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[name] = size
    return out


def _blas() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    info = deps.get("blas", {})
    record = {"name": info.get("name"), "version": info.get("version"),
              "library": None, "threads": None}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return record
    paths = sorted({line.split()[-1] for line in maps if "blas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["library"] = os.path.basename(path)
                record["threads"] = int(fn())
                return record
    return record


def _process_threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    """nproc, CPU, caches, Python, numpy, BLAS and the thread counts in use.

    Runs a small matrix product first so that the BLAS thread pool exists
    when the process's threads are counted.
    """
    warm = np.ones((256, 256), dtype=np.float32)
    float((warm @ warm)[0, 0])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_variables": {k: os.environ[k] for k in _THREAD_VARIABLES if k in os.environ},
        "process_threads": _process_threads(),
    }


def thread_violations(env: dict) -> list[str]:
    """Reasons the run would use more threads than ``nproc``; empty if none."""
    nproc = env["nproc"]
    problems = []
    blas_threads = env["blas"]["threads"]
    if blas_threads is not None and blas_threads > nproc:
        problems.append(f"BLAS runs {blas_threads} threads on {nproc} CPUs")
    for name, value in env["thread_variables"].items():
        if value.strip().isdigit() and int(value) > nproc:
            problems.append(f"{name}={value} exceeds {nproc} CPUs")
    threads = env["process_threads"]
    if threads is not None and threads > nproc:
        problems.append(f"the process has {threads} threads on {nproc} CPUs")
    return problems
