"""Serving errors, deadline helpers and the thread-pool backend's FIFO.

Admission itself happens at the servers' front door
(:class:`repro.serve.server.FrontDoor`): a per-backend in-flight window
turns overload into an immediate :class:`ServerOverloadedError`, never a
wait — unbounded queues only convert overload into unbounded latency, which
the M/D/1 model in :mod:`repro.edge.fleet` makes precise.
:class:`AdmissionQueue` is the bounded FIFO the in-process backend's
workers pop one request at a time.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["ServerOverloadedError", "QueueClosedError", "DeadlineExceededError",
           "ShardFailedError", "AdmissionQueue", "deadline_after_ms",
           "deadline_expired", "deadline_remaining_s"]


class ServerOverloadedError(RuntimeError):
    """Raised when a request is denied admission (window or queue at capacity)."""


class QueueClosedError(RuntimeError):
    """Raised when submitting to a queue that has been closed."""


class ShardFailedError(RuntimeError):
    """A shard process died (or was restarted) before resolving a request."""


class DeadlineExceededError(RuntimeError):
    """A request's absolute deadline passed before (or while) it was served.

    Distinct from :class:`TimeoutError` (the *caller* gave up waiting) and
    from :class:`ServerOverloadedError` (admission refused the request): a
    deadline shed means the server itself decided the work was no longer
    worth doing — the response could only arrive after the client stopped
    caring — and dropped it *before* the expensive decode/reconstruct.
    Retrying a deadline shed is never useful, so the retry machinery in
    :mod:`repro.serve.resilience` classifies it as permanent.
    """


# --------------------------------------------------------------------------- #
# deadline propagation
# --------------------------------------------------------------------------- #
# Deadlines are absolute stamps on the ``time.monotonic`` clock, which on
# Linux is CLOCK_MONOTONIC and therefore shared by every process on the host
# — a deadline stamped in the parent stays meaningful after it crosses the
# sharded server's wire format into a worker process.

def deadline_after_ms(budget_ms, clock=time.monotonic):
    """Absolute monotonic deadline ``budget_ms`` from now (None passes through)."""
    if budget_ms is None:
        return None
    return clock() + float(budget_ms) * 1e-3


def deadline_expired(deadline_s, clock=time.monotonic):
    """True when an absolute deadline has passed (``None`` never expires)."""
    return deadline_s is not None and clock() >= deadline_s


def deadline_remaining_s(deadline_s, clock=time.monotonic):
    """Seconds left until the deadline, floored at 0 (``inf`` when none)."""
    if deadline_s is None:
        return float("inf")
    return max(deadline_s - clock(), 0.0)


class AdmissionQueue:
    """A thread-safe bounded FIFO.

    ``put`` beyond ``max_depth`` raises :class:`ServerOverloadedError`
    immediately; it never blocks the submitter.
    """

    def __init__(self, max_depth=64):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = int(max_depth)
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._items = deque()  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    @property
    def depth(self):
        """Current number of queued requests."""
        with self._lock:
            return len(self._items)

    def close(self):
        """Refuse new work and wake every waiter (shutdown path)."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    # ------------------------------------------------------------------ #
    def put(self, item):
        """Admit one request or raise (:class:`ServerOverloadedError` / closed).

        Returns the queue depth *after* admission so callers can surface it.
        """
        with self._lock:
            if self._closed:
                raise QueueClosedError("server is shut down")
            if len(self._items) >= self.max_depth:
                raise ServerOverloadedError(
                    f"queue at capacity ({self.max_depth}); request rejected")
            self._items.append(item)
            self._not_empty.notify()
            return len(self._items)

    def pop(self, timeout=None):
        """Remove and return the oldest request, or ``None`` on timeout/close."""
        with self._lock:
            if not self._items and not self._closed:
                self._not_empty.wait(timeout=timeout)
            if not self._items:
                return None
            return self._items.popleft()
