"""How a process shares its cores and keeps its memory.

Cores: the CPU count and BLAS threads.  Parallelism comes from worker
threads, shard processes and the reconstruction engine's chunk threads,
never from BLAS: at the engine's and the IDCT's matrix sizes a second
OpenBLAS thread buys little wall time, and under contention it spins on the
cores the other threads need.  So one rule covers library calls and
servers alike: the engine's first multi-chunk call
(:mod:`repro.core.batch_engine`) and every serving backend's start call
:func:`limit_blas_threads`, and the engine runs one chunk thread per CPU of
:func:`available_cpus`.

Memory: a serving process frees and reallocates frame-sized buffers on
every request (float64 frames: 1.5 MiB at 256x256 RGB, 2.1 MiB at 295x311
RGB).  By default glibc serves each from a fresh ``mmap`` and unmaps it on
``free``, or trims the heap top, so the next request faults every page in
again: ~990 minor faults per 256x256 RGB decode in a warm shard.
:func:`keep_freed_memory` makes glibc keep freed memory in the heap for
reuse.  Only serving backends call it, at start: a library call leaves its
host process's allocator alone.
"""

import ctypes
import os

__all__ = ["available_cpus", "keep_freed_memory", "limit_blas_threads"]


def available_cpus():
    """CPUs this process may run on (affinity-aware; sharding helps only >=2).

    The engine runs this many chunk threads per call.  The throughput
    benchmark and its perf-smoke guard use it to decide whether a sharded
    measurement is meaningful on the host.
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


#: ``mallopt`` parameters (glibc's ``malloc.h``) and the values the policy sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
#: glibc's largest mmap threshold on 64-bit hosts: frames up to 1024x1024 RGB
#: float64 (24 MiB) come from the heap.
_MMAP_THRESHOLD = 32 << 20
#: freed memory at the heap top is returned to the OS only beyond 1 GiB.
_TRIM_THRESHOLD = 1 << 30
#: a user's allocator settings, which win over the policy.
_USER_MALLOC_VARIABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def _glibc():
    """This process's C library if it is glibc (not musl, macOS or Windows)."""
    try:
        library = ctypes.CDLL(None)
        library.gnu_get_libc_version  # glibc only
        return library
    except (OSError, TypeError, AttributeError):  # TypeError: CDLL(None) on Windows
        return None


def keep_freed_memory():
    """Serve frames from the heap and keep freed memory there; return whether set.

    Calls glibc's ``mallopt`` to raise the mmap threshold to its 64-bit
    maximum and the trim threshold to 1 GiB, so a freed frame buffer is
    reused by the next request instead of being unmapped and faulted in
    again.  Idempotent.  Does nothing (returns ``False``) without glibc, or
    when the user set ``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_``
    or a ``glibc.malloc`` tunable in ``GLIBC_TUNABLES``.
    """
    if (any(os.environ.get(name) for name in _USER_MALLOC_VARIABLES)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    library = _glibc()
    if library is None:
        return False
    mallopt = library.mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # mallopt returns 1 on success; both calls run even if the first fails
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD),
                mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)])
