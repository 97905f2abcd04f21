"""Per-process OpenBLAS thread budget, set through the libraries' C API.

NumPy and SciPy wheels each bundle their own OpenBLAS, and each sizes its
thread pool to every usable CPU.  Idle OpenBLAS threads busy-wait before
they sleep, so N processes that each map both builds run up to
``2 * N * cpus`` BLAS threads on ``cpus`` cores.  :func:`set_blas_threads` finds every OpenBLAS mapped
into the process (``/proc/self/maps``) and calls its by-value
``openblas_set_num_threads`` entry point through :mod:`ctypes`.

Everything here is a silent no-op where it cannot apply: an unreadable maps
file (non-Linux) or no OpenBLAS mapped (MKL or Accelerate builds) yields
``{}``.
"""

from __future__ import annotations

import ctypes
import os
from typing import Dict, List, Optional

__all__ = ["THREAD_ENV_VARS", "blas_threads", "set_blas_threads", "thread_budget"]

#: Where a Linux process lists the shared objects it has mapped.
MAPS_PATH = "/proc/self/maps"

#: Environment variables through which a user sizes BLAS thread pools; when
#: any of them is set, the libraries are left as the user configured them.
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Symbol decorations of plain, 64-bit-integer and SciPy-bundled builds
#: (``scipy_openblas_set_num_threads64_``).  Only the by-value C entry
#: points are named; the Fortran ``..._num_threads_`` ones take a pointer.
_PREFIXES = ("openblas_", "scipy_openblas_")
_SUFFIXES = ("", "64_")


def _openblas_paths() -> List[str]:
    try:
        # surrogateescape: ctypes encodes the path back to the same bytes.
        with open(MAPS_PATH, encoding="utf-8", errors="surrogateescape") as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        fields = line.split(None, 5)
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5]):
            paths.add(fields[5].strip())
    return sorted(paths)


def _entry_point(library, action: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            function = getattr(library, f"{prefix}{action}_num_threads{suffix}", None)
            if function is not None:
                return function
    return None


def _libraries():
    """``(file name, setter, getter)`` of every mapped OpenBLAS."""
    found = []
    for path in _openblas_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        setter = _entry_point(library, "set")
        getter = _entry_point(library, "get")
        if setter is None or getter is None:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        found.append((os.path.basename(path), setter, getter))
    return found


def blas_threads() -> Dict[str, int]:
    """The thread count of every mapped OpenBLAS, keyed by file name."""
    return {name: getter() for name, _, getter in _libraries()}


def set_blas_threads(count: int) -> Dict[str, int]:
    """Size every mapped OpenBLAS to *count* threads; returns the counts
    read back from the libraries (as :func:`blas_threads`).

    In a forked child the call also re-creates the library's thread pool,
    which OpenBLAS otherwise does lazily at the first threaded BLAS call;
    its idle threads spin briefly, then sleep.
    """
    counts = {}
    for name, setter, getter in _libraries():
        setter(count)
        counts[name] = getter()
    return counts


def thread_budget(processes: int) -> Optional[int]:
    """BLAS threads per process when *processes* share the usable CPUs.

    ``max(1, usable_cpus // processes)``, where the usable CPUs are the
    process's affinity set (``os.cpu_count()`` where that is unknown).
    ``None`` -- leave the libraries alone -- when the user set any of
    :data:`THREAD_ENV_VARS`.
    """
    if any(name in os.environ for name in THREAD_ENV_VARS):
        return None
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return max(1, cpus // max(1, processes))
