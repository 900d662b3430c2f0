"""Bounded request queue with admission control and backpressure.

The queue is the server's only admission point: when the fleet offers more
load than the workers can drain, the depth bound turns overload into an
explicit, immediate signal — either a :class:`ServerOverloadedError` (the
``"reject"`` policy, for callers that can drop or re-route frames) or a
bounded blocking wait (the ``"block"`` policy, classic backpressure for
callers that can stall the producer).  Unbounded queues only convert
overload into unbounded latency, which the M/D/1 model in
:mod:`repro.edge.fleet` makes precise.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["ServerOverloadedError", "QueueClosedError", "DeadlineExceededError",
           "AdmissionQueue", "deadline_after_ms", "deadline_expired",
           "deadline_remaining_s"]


class ServerOverloadedError(RuntimeError):
    """Raised when a request is denied admission (queue at capacity)."""


class QueueClosedError(RuntimeError):
    """Raised when submitting to a queue that has been closed."""


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
    """A thread-safe bounded FIFO with key-aware draining for the batcher.

    Parameters
    ----------
    max_depth:
        Admission bound.  ``put`` beyond this depth rejects (or blocks,
        per ``policy``).
    policy:
        ``"reject"`` raises :class:`ServerOverloadedError` immediately when
        full; ``"block"`` waits up to ``put_timeout`` seconds for space and
        only then raises.
    put_timeout:
        Backpressure bound for the ``"block"`` policy.
    """

    def __init__(self, max_depth=64, policy="reject", put_timeout=1.0):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if policy not in ("reject", "block"):
            raise ValueError("policy must be 'reject' or 'block'")
        self.max_depth = int(max_depth)
        self.policy = policy
        self.put_timeout = float(put_timeout)
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
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
            self._not_full.notify_all()

    # ------------------------------------------------------------------ #
    def put(self, item):
        """Admit one request or raise (:class:`ServerOverloadedError` / closed).

        Returns the queue depth *after* admission so callers can surface it.
        """
        with self._lock:
            if self._closed:
                raise QueueClosedError("server is shut down")
            if len(self._items) >= self.max_depth:
                if self.policy == "reject":
                    raise ServerOverloadedError(
                        f"queue at capacity ({self.max_depth}); request rejected"
                    )
                # absolute deadline: spurious wakeups (another producer wins
                # the freed slot) must not restart the backpressure budget
                deadline = time.monotonic() + self.put_timeout
                while len(self._items) >= self.max_depth and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._not_full.wait(timeout=remaining):
                        raise ServerOverloadedError(
                            f"queue full for {self.put_timeout:.2f}s; backpressure timeout"
                        )
                if self._closed:
                    raise QueueClosedError("server is shut down")
            self._items.append(item)
            depth = len(self._items)
            self._not_empty.notify()
            return depth

    def pop(self, timeout=None):
        """Remove and return the oldest request, or ``None`` on timeout/close."""
        with self._lock:
            if not self._items and not self._closed:
                self._not_empty.wait(timeout=timeout)
            if not self._items:
                return None
            item = self._items.popleft()
            self._not_full.notify()
            return item

    def take_matching(self, predicate, limit):
        """Remove up to ``limit`` queued requests satisfying ``predicate``.

        Requests that do not match keep their queue order — the batcher uses
        this to coalesce compatible requests without starving the rest.
        """
        if limit <= 0:
            return []
        taken = []
        with self._lock:
            kept = deque()
            while self._items:
                item = self._items.popleft()
                if len(taken) < limit and predicate(item):
                    taken.append(item)
                else:
                    kept.append(item)
            self._items = kept
            if taken:
                self._not_full.notify_all()
        return taken
