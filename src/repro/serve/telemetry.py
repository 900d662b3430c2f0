"""Serving telemetry: throughput, latency percentiles, batch shapes, caches.

:class:`ServerStats` is the single mutable telemetry object shared by the
admission queue, the batcher and the workers.  All updates take one lock and
touch a few counters, so instrumentation stays far off the hot path;
:meth:`ServerStats.snapshot` renders everything into plain types for logs,
tests and the ``serve-bench`` CLI table.
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
    """Aggregate telemetry for one :class:`repro.serve.CompressionServer`.

    Tracks everything the ISSUE's serving story needs to be observable:
    request throughput, end-to-end latency percentiles (p50/p99), the
    batch-size histogram the micro-batcher actually achieved, queue depth
    high-water mark, admission rejections, and cache hit rates.

    ``cache_source`` is a callable returning a list of cache-stat dicts
    (``name``/``hits``/``misses``); :meth:`snapshot` publishes it under
    ``caches["server"]``.
    """

    def __init__(self, latency_window=4096, cache_source=None):
        self._lock = threading.Lock()
        self._started = time.perf_counter()
        self.submitted = 0  # guarded-by: _lock
        self.rejected = 0  # guarded-by: _lock
        self.completed = 0  # guarded-by: _lock
        self.failed = 0  # guarded-by: _lock
        self.batches = 0  # guarded-by: _lock
        self.batch_sizes = Counter()  # guarded-by: _lock
        self.service_seconds_total = 0.0  # guarded-by: _lock
        self.queue_wait_seconds_total = 0.0  # guarded-by: _lock
        self.queue_depth_peak = 0  # guarded-by: _lock
        self.latency = LatencyWindow(latency_window)  # guarded-by: _lock
        self.queue_wait = LatencyWindow(latency_window)  # guarded-by: _lock
        self.service_time = LatencyWindow(latency_window)  # guarded-by: _lock
        self.completed_cached = 0  # guarded-by: _lock
        self.deadline_shed = 0  # guarded-by: _lock
        self.result_cache_hits = 0  # guarded-by: _lock
        self.result_cache_misses = 0  # guarded-by: _lock
        self.response_transport = Counter()  # guarded-by: _lock
        self._cache_source = cache_source

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

    def record_batch(self, size, queue_waits, latencies, service_seconds):
        """One processed batch: its size plus per-request wait/latency samples."""
        with self._lock:
            self.batches += 1
            self.batch_sizes[int(size)] += 1
            self.completed += size
            self.service_time.record(service_seconds)
            self.service_seconds_total += service_seconds
            for wait in queue_waits:
                self.queue_wait.record(wait)
                self.queue_wait_seconds_total += wait
            for latency in latencies:
                self.latency.record(latency)

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

        Hits are tallied in ``completed_cached``, deliberately *not* in
        ``completed``: the latter counts worker-served requests only, and
        service-time estimates divide by it, so zero-cost cache hits must
        stay out.
        """
        with self._lock:
            if hit:
                self.result_cache_hits += 1
                self.completed_cached += 1
            else:
                self.result_cache_misses += 1

    def record_response_transport(self, transport):
        """One response delivered via ``transport`` (queue / shm / cache / inline).

        The sharded server's parent records these: the shm-vs-queue split is
        how an operator sees the zero-copy ring actually being used (or
        silently falling back because responses outgrow its slots).
        """
        with self._lock:
            self.response_transport[str(transport)] += 1

    # ------------------------------------------------------------------ #
    def snapshot(self):
        """Plain-dict view of every metric (safe to JSON-serialise)."""
        caches = ({} if self._cache_source is None
                  else {"server": list(self._cache_source())})
        with self._lock:
            elapsed = max(time.perf_counter() - self._started, 1e-9)
            mean_batch = (
                sum(size * count for size, count in self.batch_sizes.items())
                / max(self.batches, 1)
            )
            return {
                "uptime_s": elapsed,
                "submitted": self.submitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "throughput_rps": self.completed / elapsed,
                "latency_p50_ms": self.latency.percentile(50) * 1e3,
                "latency_p99_ms": self.latency.percentile(99) * 1e3,
                "latency_mean_ms": self.latency.mean() * 1e3,
                "queue_wait_p50_ms": self.queue_wait.percentile(50) * 1e3,
                "queue_wait_mean_ms": self.queue_wait.mean() * 1e3,
                "service_time_mean_ms": self.service_time.mean() * 1e3,
                "batches": self.batches,
                "service_seconds_total": self.service_seconds_total,
                "queue_wait_seconds_total": self.queue_wait_seconds_total,
                "mean_batch_size": mean_batch,
                "batch_size_histogram": dict(sorted(self.batch_sizes.items())),
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
                "caches": caches,
            }


def aggregate_snapshots(snapshots, labels=None):
    """Merge per-shard :meth:`ServerStats.snapshot` dicts into one pool view.

    Counters, histograms and cumulative seconds add exactly; latency/wait
    percentiles cannot be merged exactly from percentiles alone, so they are
    approximated as completion-weighted averages of the per-shard values
    (exact when the shards see i.i.d. traffic, which consistent routing plus
    spill balancing approaches in practice).  The full per-shard snapshots are
    kept under ``"shards"`` for anyone needing the unmerged numbers.
    """
    snapshots = list(snapshots)
    if not snapshots:
        return {"shards": [], "completed": 0, "failed": 0, "submitted": 0,
                "rejected": 0, "batches": 0, "completed_cached": 0,
                "deadline_shed": 0,
                "service_seconds_total": 0.0, "queue_wait_seconds_total": 0.0,
                "batch_size_histogram": {}, "queue_depth_peak": 0,
                "response_transport": {},
                "throughput_rps": 0.0, "mean_batch_size": 0.0,
                "latency_p50_ms": 0.0, "latency_p99_ms": 0.0,
                "latency_mean_ms": 0.0, "queue_wait_mean_ms": 0.0,
                "service_time_mean_ms": 0.0, "uptime_s": 0.0, "caches": {}}
    labels = list(labels) if labels is not None else [
        f"shard-{index}" for index in range(len(snapshots))]
    merged = {
        "uptime_s": max(snap.get("uptime_s", 0.0) for snap in snapshots),
        "queue_depth_peak": max(snap.get("queue_depth_peak", 0) for snap in snapshots),
    }
    for key in ("submitted", "rejected", "completed", "failed", "batches",
                "completed_cached", "deadline_shed"):
        merged[key] = sum(snap.get(key, 0) for snap in snapshots)
    for key in ("service_seconds_total", "queue_wait_seconds_total",
                "throughput_rps"):
        merged[key] = float(sum(snap.get(key, 0.0) for snap in snapshots))
    histogram = Counter()
    for snap in snapshots:
        for size, count in snap.get("batch_size_histogram", {}).items():
            histogram[int(size)] += int(count)
    merged["batch_size_histogram"] = dict(sorted(histogram.items()))
    transports = Counter()
    for snap in snapshots:
        for transport, count in snap.get("response_transport", {}).items():
            transports[str(transport)] += int(count)
    merged["response_transport"] = dict(sorted(transports.items()))
    merged["mean_batch_size"] = (
        sum(size * count for size, count in histogram.items())
        / max(merged["batches"], 1))
    weights = [max(snap.get("completed", 0), 0) for snap in snapshots]
    total_weight = sum(weights)
    for key in ("latency_p50_ms", "latency_p99_ms", "latency_mean_ms",
                "queue_wait_mean_ms", "service_time_mean_ms"):
        if total_weight:
            merged[key] = sum(weight * snap.get(key, 0.0)
                              for weight, snap in zip(weights, snapshots)) / total_weight
        else:
            merged[key] = 0.0
    caches = {}
    for label, snap in zip(labels, snapshots):
        for worker, stats in snap.get("caches", {}).items():
            caches[f"{label}/{worker}"] = stats
    merged["caches"] = caches
    merged["shards"] = [dict(snap) for snap in snapshots]
    return merged
