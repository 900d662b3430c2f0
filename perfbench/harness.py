"""Measurement helpers: process CPU and memory, percentiles, spans, host facts."""

from __future__ import annotations

import ctypes
import itertools
import json
import os
import platform
import signal
import time
from contextlib import contextmanager

import numpy as np

#: Thread settings the benchmark records but never sets (see NOTES.md).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _proc_cpu_seconds(pid):
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _peak_rss_kb(pid):
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _reset_peak_rss(pid):
    """Restart ``VmHWM`` from the current resident set (``clear_refs`` code 5)."""
    with open(f"/proc/{pid}/clear_refs", "w") as handle:
        handle.write("5")


class Meter:
    """CPU time and peak memory of this process plus server child processes."""

    def __init__(self, child_pids=()):
        self.child_pids = list(child_pids)
        self._start = None

    def _cpu(self):
        return time.process_time() + sum(_proc_cpu_seconds(pid) for pid in self.child_pids)

    def start(self):
        """Start counting CPU, and peak memory from the current resident sets.

        Resetting the peak keeps model training, input preparation and the
        reference decodes, which all run before the timed loop, out of
        :meth:`peak_rss_mb`.
        """
        for pid in [os.getpid()] + self.child_pids:
            _reset_peak_rss(pid)
        self._start = self._cpu()

    def cpu_seconds(self):
        """User + system seconds since :meth:`start`, children included."""
        return self._cpu() - self._start

    def peak_rss_mb(self):
        """Sum of each process's peak resident set (``VmHWM``) since :meth:`start`, in MiB."""
        pids = [os.getpid()] + self.child_pids
        return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0


#: ``prctl`` option that makes a process adopt its orphaned descendants.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans():
    """Become the reaper of every descendant whose own parent exits first.

    A set-up probe's helper processes (such as multiprocessing's resource
    tracker) outlive the probe by a moment; adopted, they stay this
    process's children, so :func:`end_child_processes` can wait for them.
    """
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _child_pids():
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            pids.append(int(entry))
    return pids


def end_child_processes(timeout=20.0):
    """Stop multiprocessing's resource tracker, then wait for every child.

    The tracker only exits once every holder of its pipe has closed it, and
    a tracker that outlives this process is left to whatever adopts it.
    Children still running at ``timeout`` are killed; all are reaped.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.01)


def percentile(values, q):
    """The ``q``-th percentile of ``values`` (0.0 for an empty sample)."""
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def mean(values):
    return float(np.mean(values)) if len(values) else 0.0


class Tracer:
    """In-memory spans: ``(id, name, start_ns, end_ns, parent, request)``.

    Nothing is written until :meth:`write`, so tracing costs one tuple
    append per span while the workload runs.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)

    def new_id(self):
        return next(self._ids)

    def record(self, name, start_ns, end_ns, parent=None, request=None, span_id=None):
        span_id = span_id if span_id is not None else next(self._ids)
        self.spans.append((span_id, name, start_ns, end_ns, parent, request))
        return span_id

    @contextmanager
    def span(self, name, parent=None, request=None):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.record(name, start, time.perf_counter_ns(), parent, request)

    def durations_ms(self, name):
        return [(end - start) / 1e6 for _, span_name, start, end, _, _ in self.spans
                if span_name == name]

    def accounting(self, root):
        """Mean root duration, mean per-root sum of its children, remainder (ms)."""
        roots = {span[0]: (span[3] - span[2]) / 1e6 for span in self.spans
                 if span[1] == root}
        children = dict.fromkeys(roots, 0.0)
        for _, _, start, end, parent, _ in self.spans:
            if parent in children:
                children[parent] += (end - start) / 1e6
        e2e = mean(list(roots.values()))
        layers = mean(list(children.values()))
        return e2e, layers, e2e - layers

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent,
                                         "request": request}) + "\n")


def _blas_threads():
    """Effective OpenBLAS thread count of every OpenBLAS this process mapped."""
    paths = set()
    with open("/proc/self/maps") as handle:
        for line in handle:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    threads = {}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                threads[os.path.basename(path)] = int(function())
                break
    return threads


def host_fingerprint():
    """Facts about the host and numeric stack that a measured figure depends on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = ""
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_model": cpu_model,
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_effective": _blas_threads(),
        "thread_env": {name: os.environ.get(name, "unset") for name in THREAD_VARS},
    }
