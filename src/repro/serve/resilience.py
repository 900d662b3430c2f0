"""Client-side resilience: retry budgets, retries, closed loops.

The serving stack up to PR 7 is *server-side* robust — crashed shards are
restarted, in-flight work is re-routed, damaged payloads fail gracefully —
but a client still sees every transient as a hard error: a shard dying
mid-request surfaces as :class:`~repro.serve.sharding.ShardFailedError`, an
admission rejection as :class:`~repro.serve.queueing.ServerOverloadedError`.
This module closes the loop on the client side of ``submit()``:

* :class:`RetryPolicy` — exponential backoff with full jitter, a hard
  attempt cap, and (crucially) a token-bucket :class:`RetryBudget` so
  retries can never amplify an overload into a metastable collapse: each
  first-attempt submission deposits a fraction of a token, each retry
  withdraws a whole one, so pool-wide retry traffic is bounded at
  ``ratio`` of the offered load no matter how many clients retry.
* :class:`ResilientClient` — the facade over ``server.submit()``: callers
  get back the same :class:`~repro.serve.server.PendingResult` surface, but
  transient infra errors are retried under the policy.  The exactly-once
  contract is preserved: one attempt is in flight at a time, the
  caller-visible future settles exactly once, and every retry is a fresh
  server-side request id (so the server's own exactly-once invariants are
  untouched).
* :class:`ClosedLoopClient` — a think-time client for the scenario harness:
  it keeps at most one request outstanding and backs off exponentially on
  rejection, which is what turns an overload into a self-limiting backlog
  instead of an arrival process that never relents.

Which errors retry?  The classification reuses the scenario runner's
taxonomy (:data:`repro.serve.scenarios.INFRA_ERRORS` /
``GRACEFUL_ERRORS``): *infrastructure* verdicts that a healthy pool could
absolve — :class:`ShardFailedError`, :class:`ServerOverloadedError`,
:class:`TimeoutError` — are retryable; everything the server *decided*
(graceful decode rejections, :class:`DeadlineExceededError`,
:class:`QueueClosedError` at shutdown) is permanent.
"""

from __future__ import annotations

import itertools
import random
import threading
import time

from .queueing import (DeadlineExceededError, QueueClosedError,
                       ServerOverloadedError, ShardFailedError, deadline_expired,
                       deadline_remaining_s)
from .server import PendingResult

__all__ = ["ClosedLoopClient", "DeadlineExceededError", "ResilientClient",
           "RetryBudget", "RetryPolicy"]

#: Transient infrastructure failures a retry against a healthy pool can fix.
#: ``QueueClosedError`` is deliberately absent: the server is shutting down,
#: so retrying only delays the caller's own shutdown.
RETRYABLE_ERRORS = (ShardFailedError, ServerOverloadedError, TimeoutError)


# --------------------------------------------------------------------------- #
# retry budget (token bucket)
# --------------------------------------------------------------------------- #
class RetryBudget:
    """Token-bucket bound on pool-wide retry traffic.

    Every first-attempt submission deposits ``ratio`` of a token; every
    retry withdraws one whole token.  Sustained retry throughput is
    therefore capped at ``ratio`` of the offered load, with ``burst`` tokens
    of headroom for short incidents — the standard defence against
    retry-amplified overload (each layer retrying 3x turns one failure into
    3^N requests; a 10% budget turns it into 1.1x).
    """

    def __init__(self, ratio=0.1, burst=10.0):
        if not ratio >= 0:
            raise ValueError("ratio must be non-negative")
        if not burst >= 1:
            raise ValueError("burst must be at least 1")
        self.ratio = float(ratio)
        self.burst = float(burst)
        self._lock = threading.Lock()
        self._tokens = float(burst)  # guarded-by: _lock
        self._deposited = 0  # guarded-by: _lock
        self._withdrawn = 0  # guarded-by: _lock
        self._denied = 0  # guarded-by: _lock

    def deposit(self, count=1):
        """Credit the bucket for ``count`` first-attempt submissions."""
        with self._lock:
            self._deposited += count
            self._tokens = min(self._tokens + count * self.ratio, self.burst)

    def withdraw(self):
        """Spend one token for a retry; False (and counted) when broke."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self._withdrawn += 1
                return True
            self._denied += 1
            return False

    def snapshot(self):
        with self._lock:
            return {"tokens": self._tokens, "ratio": self.ratio,
                    "burst": self.burst, "deposited": self._deposited,
                    "withdrawn": self._withdrawn, "denied": self._denied}


class RetryPolicy:
    """Exponential backoff with full jitter behind a retry budget.

    ``max_attempts`` counts the first attempt: 3 means at most 2 retries.
    Backoff for retry *k* is drawn uniformly from ``[0, min(base * 2^(k-1),
    cap)]`` ("full jitter" — synchronized retry waves are the other half of
    a retry storm).  ``budget=None`` disables the token bucket: every
    retryable error retries up to the attempt cap, which is exactly the
    configuration the ``retry-storm`` scenario demonstrates collapsing.
    """

    def __init__(self, max_attempts=3, base_backoff_s=0.02, max_backoff_s=0.5,
                 budget=None):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not base_backoff_s >= 0:
            raise ValueError("base_backoff_s must be non-negative")
        if max_backoff_s < base_backoff_s:
            raise ValueError("max_backoff_s must be >= base_backoff_s")
        if budget is not None and not isinstance(budget, RetryBudget):
            raise ValueError("budget must be a RetryBudget or None")
        self.max_attempts = int(max_attempts)
        self.base_backoff_s = float(base_backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self.budget = budget

    def retryable(self, error):
        """Whether a retry could plausibly absolve this error.

        Mirrors the scenario taxonomy: infra failures retry, server verdicts
        (graceful decode rejections, deadline sheds, shutdown) never do.
        """
        if isinstance(error, (DeadlineExceededError, QueueClosedError)):
            return False
        return isinstance(error, RETRYABLE_ERRORS)

    def backoff_s(self, attempt, rng):
        """Backoff before retry number ``attempt`` (1 = first retry)."""
        cap = min(self.base_backoff_s * (2.0 ** max(attempt - 1, 0)),
                  self.max_backoff_s)
        return rng.uniform(0.0, cap)


# --------------------------------------------------------------------------- #
# the resilient submit() facade
# --------------------------------------------------------------------------- #
class _RequestState:
    """Per-logical-request bookkeeping (all fields guarded by the client's lock).

    A logical request has at most one server-side attempt in flight: a retry
    is scheduled only after the previous attempt failed, so the chain of
    attempts is linear and the caller's future settles exactly once, at its
    end.
    """

    __slots__ = ("outer", "package", "kind", "deadline_s", "attempts")

    def __init__(self, outer, package, kind, deadline_s):
        self.outer = outer
        self.package = package
        self.kind = kind
        self.deadline_s = deadline_s
        self.attempts = 1


class ResilientClient:
    """Retrying facade over a server's ``submit()``.

    The returned future has the :class:`PendingResult` surface (``result``,
    ``done``, ``add_done_callback``) and settles **exactly once**: retries
    happen behind it, each as an independent server-side request, and only
    after the previous attempt failed.

    ``close()`` cancels outstanding backoff timers and rejects each request
    waiting on one with its last attempt's error; in-flight server attempts
    still settle their futures (the server owns those).
    """

    def __init__(self, server, retry_policy=None, seed=0, clock=time.monotonic):
        self.server = server
        self.policy = retry_policy or RetryPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._rng = random.Random(seed)  # guarded-by: _lock
        # backoff-pending requests: timer -> (state, last attempt's error)
        self._timers = {}  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._ids = itertools.count()
        self.submitted = 0  # guarded-by: _lock
        self.retries = 0  # guarded-by: _lock
        self.retry_successes = 0  # guarded-by: _lock
        self.budget_denied = 0  # guarded-by: _lock
        self.failures = 0  # guarded-by: _lock
        self.deadline_rejects = 0  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    def submit(self, package, kind="reconstruct", deadline_s=None):
        """Submit with retries; returns the caller-visible future."""
        state = _RequestState(PendingResult(next(self._ids)), package, kind,
                              deadline_s)
        with self._lock:
            self.submitted += 1
        if self.policy.budget is not None:
            self.policy.budget.deposit()
        self._launch(state)
        return state.outer

    def stats(self):
        """Counter snapshot (plain dict, JSON-safe)."""
        with self._lock:
            return {"submitted": self.submitted, "retries": self.retries,
                    "retry_successes": self.retry_successes,
                    "budget_denied": self.budget_denied,
                    "failures": self.failures,
                    "deadline_rejects": self.deadline_rejects}

    def close(self):
        """Cancel pending backoff timers and reject the requests behind them.

        Each backoff-pending request settles once, with its last attempt's
        error; a timer that fires anyway finds its entry gone and does
        nothing.  In-flight attempts still settle through the server.
        """
        with self._lock:
            self._closed = True
            pending = list(self._timers.items())
            self._timers.clear()
            self.failures += len(pending)
        for timer, (state, error) in pending:
            timer.cancel()
            state.outer._reject(error)

    # ------------------------------------------------------------------ #
    def _launch(self, state):
        """One server-side attempt (never raises; failures re-enter the policy)."""
        try:
            pending = self.server.submit(state.package, kind=state.kind,
                                         deadline_s=state.deadline_s)
        except Exception as error:  # noqa: BLE001 - sync rejection enters the retry path
            self._attempt_failed(state, error)
            return
        pending.add_done_callback(lambda inner: self._attempt_done(state, inner))

    def _attempt_done(self, state, inner):
        try:
            response = inner.result(timeout=0)
        except Exception as error:  # noqa: BLE001 - classified by the policy
            self._attempt_failed(state, error)
            return
        with self._lock:
            if state.attempts > 1:
                self.retry_successes += 1
        state.outer._resolve(response)

    def _attempt_failed(self, state, error):
        with self._lock:
            retry = (not self._closed
                     and self.policy.retryable(error)
                     and state.attempts < self.policy.max_attempts
                     and not deadline_expired(state.deadline_s, self._clock))
            if retry and self.policy.budget is not None:
                if not self.policy.budget.withdraw():
                    self.budget_denied += 1
                    retry = False
            if retry:
                state.attempts += 1
                self.retries += 1
                delay = self.policy.backoff_s(state.attempts - 1, self._rng)
                delay = min(delay, deadline_remaining_s(state.deadline_s,
                                                        self._clock))
                timer = threading.Timer(delay, self._retry_fire, args=(state,))
                timer.daemon = True
                self._timers[timer] = (state, error)
            else:
                self.failures += 1
                if isinstance(error, DeadlineExceededError):
                    self.deadline_rejects += 1
        if retry:
            timer.start()
        else:
            state.outer._reject(error)

    def _retry_fire(self, state):
        with self._lock:
            if self._timers.pop(threading.current_thread(), None) is None:
                return  # close() already rejected this request
        self._launch(state)


# --------------------------------------------------------------------------- #
# closed-loop clients
# --------------------------------------------------------------------------- #
class ClosedLoopClient(threading.Thread):
    """A think-time client: one outstanding request, backoff on rejection.

    Open-loop replay (the PR-7 scenario runner) keeps offering load no
    matter what the server says — realistic for sensors, but it cannot
    model the *recovering* half of a metastable failure, where clients
    slowing down is what lets the backlog drain.  A closed-loop client
    calls ``do_request`` (a callable returning True on acceptance, False on
    rejection), sleeps ``think_time_s`` between accepted requests, and on
    rejection backs off exponentially from ``backoff_base_s`` up to
    ``backoff_cap_s`` before trying again.

    Counters (``requests``, ``accepted``, ``backoffs``) are written only by
    the client's own thread and read after :meth:`threading.Thread.join`,
    so they need no lock.
    """

    def __init__(self, do_request, think_time_s=0.05, backoff_base_s=0.05,
                 backoff_cap_s=1.0, stop_event=None, name="closed-loop-client"):
        super().__init__(name=name, daemon=True)
        if not think_time_s >= 0:
            raise ValueError("think_time_s must be non-negative")
        if not backoff_base_s > 0:
            raise ValueError("backoff_base_s must be positive")
        if backoff_cap_s < backoff_base_s:
            raise ValueError("backoff_cap_s must be >= backoff_base_s")
        self.do_request = do_request
        self.think_time_s = float(think_time_s)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.stop_event = stop_event or threading.Event()
        self.requests = 0
        self.accepted = 0
        self.backoffs = 0

    def run(self):
        backoff_s = self.backoff_base_s
        while not self.stop_event.wait(self.think_time_s):
            self.requests += 1
            try:
                accepted = self.do_request(self)
            except Exception:  # noqa: BLE001 - a client bug must not kill the loop; treat as rejection
                accepted = False
            if accepted:
                self.accepted += 1
                backoff_s = self.backoff_base_s
            else:
                self.backoffs += 1
                if self.stop_event.wait(backoff_s):
                    return
                backoff_s = min(backoff_s * 2.0, self.backoff_cap_s)
