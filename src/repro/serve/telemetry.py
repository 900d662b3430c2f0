"""Serving telemetry: throughput, latency percentiles, service times, caches.

:class:`ServerStats` is the mutable telemetry object of a server's front
door (what it settles) and of each backend (the requests it serves).  All
updates take one lock and touch a few counters, so instrumentation stays
far off the hot path; :meth:`ServerStats.snapshot` renders everything into
plain types for logs, tests and the ``serve-bench`` CLI table.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque

import numpy as np

__all__ = ["LatencyWindow", "ServerStats", "aggregate_snapshots",
           "summarise_latency_ms"]


def summarise_latency_ms(samples_s):
    """p50/p99/mean (milliseconds) of latency samples given in seconds.

    The one place the "no completions → NaN, never a fake 0.0 ms" convention
    is implemented; the scenario harness and the CLI both report through it
    so their numbers stay comparable.
    """
    samples = np.asarray(list(samples_s), dtype=float)
    if samples.size == 0:
        nan = float("nan")
        return {"p50_ms": nan, "p99_ms": nan, "mean_ms": nan}
    return {
        "p50_ms": float(np.percentile(samples, 50)) * 1e3,
        "p99_ms": float(np.percentile(samples, 99)) * 1e3,
        "mean_ms": float(np.mean(samples)) * 1e3,
    }


class LatencyWindow:
    """A sliding window of latency samples with percentile queries."""

    def __init__(self, maxlen=4096):
        self._samples = deque(maxlen=maxlen)

    def record(self, seconds):
        self._samples.append(float(seconds))

    def __len__(self):
        return len(self._samples)

    def percentile(self, q):
        """The ``q``-th percentile (seconds) of the current window, 0 if empty."""
        if not self._samples:
            return 0.0
        return float(np.percentile(np.asarray(self._samples), q))

    def mean(self):
        if not self._samples:
            return 0.0
        return float(np.mean(np.asarray(self._samples)))


class ServerStats:
    """Telemetry of one server front door, or of one backend's services.

    The front door (:class:`repro.serve.server.FrontDoor`) counts what it
    settles: submissions, admission rejections, deadline sheds, failures,
    completions with their end-to-end latency, result-cache lookups and
    response transports.  A backend records each request it serves here
    (:meth:`record_service`): queue wait and service time.

    ``source`` is a callable returning a dict that :meth:`snapshot` merges:
    its ``"backends"`` entry is a list of ``(label, counters)`` pairs whose
    service counters are summed exactly (:func:`aggregate_snapshots`); every
    other entry is copied into the snapshot as is.  Latency percentiles
    always come from this object's own samples.
    """

    def __init__(self, latency_window=4096, source=None):
        self._lock = threading.Lock()
        self._started = time.perf_counter()
        self.submitted = 0  # guarded-by: _lock
        self.rejected = 0  # guarded-by: _lock
        self.completed = 0  # guarded-by: _lock
        self.failed = 0  # guarded-by: _lock
        self.batches = 0  # guarded-by: _lock
        self.service_seconds_total = 0.0  # guarded-by: _lock
        self.queue_wait_seconds_total = 0.0  # guarded-by: _lock
        self.busy_seconds_total = 0.0  # guarded-by: _lock
        self._busy_until = 0.0  # guarded-by: _lock
        self.queue_depth_peak = 0  # guarded-by: _lock
        self.latency = LatencyWindow(latency_window)  # guarded-by: _lock
        self.completed_cached = 0  # guarded-by: _lock
        self.deadline_shed = 0  # guarded-by: _lock
        self.result_cache_hits = 0  # guarded-by: _lock
        self.result_cache_misses = 0  # guarded-by: _lock
        self.response_transport = Counter()  # guarded-by: _lock
        self._source = source

    # ------------------------------------------------------------------ #
    def record_submitted(self):
        with self._lock:
            self.submitted += 1

    def record_rejected(self):
        with self._lock:
            self.rejected += 1

    def record_queue_depth(self, depth):
        with self._lock:
            if depth > self.queue_depth_peak:
                self.queue_depth_peak = depth

    def record_completed(self, latency_s, transport):
        """One request served by a backend, ``latency_s`` end to end."""
        with self._lock:
            self.completed += 1
            self.latency.record(latency_s)
            self.response_transport[transport] += 1

    def record_service(self, queue_wait_s, service_seconds):
        """One request a worker just served: its queue wait and service time.

        ``busy_seconds_total`` adds the wall time this service kept the
        backend busy that no earlier-finished service already covered:
        worker threads that overlap on one GIL must not count the same
        second twice.
        """
        finished = time.perf_counter()
        with self._lock:
            self.batches += 1
            self.service_seconds_total += service_seconds
            self.queue_wait_seconds_total += queue_wait_s
            self.busy_seconds_total += max(
                finished - max(finished - service_seconds, self._busy_until), 0.0)
            self._busy_until = max(self._busy_until, finished)

    def record_failure(self, count=1):
        with self._lock:
            self.failed += count

    def record_deadline_shed(self, count=1):
        """Requests dropped because their absolute deadline had already passed.

        Sheds are deliberately *not* counted in ``failed``: a deadline shed is
        the server doing the right thing (dropping work nobody is waiting
        for), and mixing it into the failure counter would make a correctly
        load-shedding server look broken in dashboards.
        """
        with self._lock:
            self.deadline_shed += count

    def record_result_cache(self, hit):
        """One cross-request result-cache lookup.

        Hits are tallied in ``completed_cached`` (and as ``"cache"``
        transport), deliberately *not* in ``completed``: the latter counts
        backend-served requests only, and service-time estimates divide by
        it, so zero-cost cache hits must stay out.
        """
        with self._lock:
            if hit:
                self.result_cache_hits += 1
                self.completed_cached += 1
                self.response_transport["cache"] += 1
            else:
                self.result_cache_misses += 1

    def counters(self):
        """The service counters a backend reports to its front door."""
        with self._lock:
            return {
                "batches": self.batches,
                "queue_wait_seconds_total": self.queue_wait_seconds_total,
                "service_seconds_total": self.service_seconds_total,
                "busy_seconds_total": self.busy_seconds_total,
            }

    # ------------------------------------------------------------------ #
    def snapshot(self):
        """Plain-dict view of every metric (safe to JSON-serialise)."""
        extra = {} if self._source is None else dict(self._source())
        backends = extra.pop("backends", None)
        counters = self.counters()
        with self._lock:
            elapsed = max(time.perf_counter() - self._started, 1e-9)
            snapshot = {
                "uptime_s": elapsed,
                "submitted": self.submitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "throughput_rps": self.completed / elapsed,
                "latency_p50_ms": self.latency.percentile(50) * 1e3,
                "latency_p99_ms": self.latency.percentile(99) * 1e3,
                "latency_mean_ms": self.latency.mean() * 1e3,
                "queue_depth_peak": self.queue_depth_peak,
                "completed_cached": self.completed_cached,
                "deadline_shed": self.deadline_shed,
                "response_transport": dict(sorted(self.response_transport.items())),
                "result_cache": {
                    "hits": self.result_cache_hits,
                    "misses": self.result_cache_misses,
                    "hit_rate": (self.result_cache_hits
                                 / max(self.result_cache_hits + self.result_cache_misses, 1)),
                },
                "caches": {},
            }
        if backends is not None:
            pooled = aggregate_snapshots([counters for _label, counters in backends],
                                         labels=[label for label, _counters in backends])
            counters = {key: pooled[key] for key in counters}
            snapshot["caches"] = pooled["caches"]
            snapshot["shards"] = pooled["shards"]
        snapshot.update(counters)
        # each service is one request: a batch of one
        snapshot["batch_size_histogram"] = {1: counters["batches"]} if counters["batches"] else {}
        served = max(counters["batches"], 1)
        snapshot["queue_wait_mean_ms"] = counters["queue_wait_seconds_total"] / served * 1e3
        snapshot["service_time_mean_ms"] = counters["service_seconds_total"] / served * 1e3
        snapshot.update(extra)
        return snapshot


#: Counters that :func:`aggregate_snapshots` adds across snapshots.
_SUMMED = ("submitted", "rejected", "completed", "failed", "batches",
           "completed_cached", "deadline_shed")
_SUMMED_SECONDS = ("service_seconds_total", "queue_wait_seconds_total",
                   "busy_seconds_total")


def aggregate_snapshots(snapshots, labels=None):
    """Sum the counters of several snapshots (or backend counter dicts) exactly.

    Counters, transport tallies and cumulative seconds add; percentiles do
    not, so none are produced — a pool's latency percentiles come from the
    samples its front door settled.  Each input's ``caches`` list is kept under its
    label, and the inputs themselves under ``"shards"``.
    """
    snapshots = list(snapshots)
    labels = list(labels) if labels is not None else [
        f"shard-{index}" for index in range(len(snapshots))]
    merged = {key: sum(snap.get(key, 0) for snap in snapshots) for key in _SUMMED}
    for key in _SUMMED_SECONDS:
        merged[key] = float(sum(snap.get(key, 0.0) for snap in snapshots))
    transports = Counter()
    for snap in snapshots:
        transports.update(snap.get("response_transport", {}))
    merged["response_transport"] = dict(sorted(transports.items()))
    merged["caches"] = {label: snap["caches"] for label, snap in zip(labels, snapshots)
                        if snap.get("caches")}
    merged["shards"] = [dict(snap) for snap in snapshots]
    return merged
