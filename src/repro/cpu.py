"""How a serving process shares its cores: the CPU count and BLAS threads.

Serving parallelism comes from worker threads and shard processes, never
from BLAS: at the engine's and the IDCT's matrix sizes a second OpenBLAS
thread buys no wall time, and it spins on the cores the serving needs.
"""

import ctypes
import os

__all__ = ["available_cpus", "limit_blas_threads"]


def available_cpus():
    """CPUs this process may run on (affinity-aware; sharding helps only >=2).

    The throughput benchmark and its perf-smoke guard both use this to decide
    whether a sharded measurement is meaningful on the host.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _openblas():
    """numpy's bundled ``libscipy_openblas64_`` if this process mapped it."""
    try:
        with open("/proc/self/maps") as handle:
            for line in handle:
                path = line.split()[-1]
                if os.path.basename(path).startswith("libscipy_openblas64_"):
                    return ctypes.CDLL(path)
    except OSError:  # no /proc: not Linux
        pass
    return None


def limit_blas_threads():
    """Run this process's OpenBLAS on one thread; return its thread count.

    Idempotent.  Leaves the count alone when ``OPENBLAS_NUM_THREADS`` or
    ``OMP_NUM_THREADS`` is set, and returns ``None`` (doing nothing) when no
    OpenBLAS is mapped.
    """
    library = _openblas()
    if library is None:
        return None
    get_threads = library.scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    if get_threads() != 1 and not (os.environ.get("OPENBLAS_NUM_THREADS")
                                   or os.environ.get("OMP_NUM_THREADS")):
        set_threads = library.scipy_openblas_set_num_threads64_
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
    return get_threads()
