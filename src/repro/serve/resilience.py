"""Client-side resilience: retry budgets, circuit breakers, hedging, closed loops.

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
* :class:`CircuitBreaker` — per-shard closed/open/half-open state driven by
  an EWMA of the failure rate.  The sharded server consults the breakers in
  its consistent-routing step (an open shard's traffic spills to the
  least-loaded live shard) and resets them when the watchdog replaces a
  shard, so routing and recovery agree about which shards are trustworthy.
* :class:`ResilientClient` — the facade over ``server.submit()``: callers
  get back the same :class:`~repro.serve.server.PendingResult` surface, but
  transient infra errors are retried under the policy, and (optionally) a
  *hedge* request is launched after a p95 delay when the first attempt is
  slow.  The exactly-once contract is preserved: the caller-visible future
  settles exactly once, the hedge loser is deduplicated, and every retry or
  hedge is a fresh server-side request id (so the server's own exactly-once
  invariants are untouched).
* :class:`ClosedLoopClient` — a think-time client for the scenario harness:
  it keeps at most one request outstanding and backs off exponentially on
  rejection or an open circuit, which is what turns an overload into a
  self-limiting backlog instead of an arrival process that never relents.

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
from .telemetry import LatencyWindow

__all__ = ["CircuitBreaker", "ClosedLoopClient", "DeadlineExceededError",
           "ResilientClient", "RetryBudget", "RetryPolicy"]

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
    retry (or hedge) withdraws one whole token.  Sustained retry throughput
    is therefore capped at ``ratio`` of the offered load, with ``burst``
    tokens of headroom for short incidents — the standard defence against
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
                 jitter="full", budget=None):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not base_backoff_s >= 0:
            raise ValueError("base_backoff_s must be non-negative")
        if max_backoff_s < base_backoff_s:
            raise ValueError("max_backoff_s must be >= base_backoff_s")
        if jitter not in ("full", "none"):
            raise ValueError("jitter must be 'full' or 'none'")
        if budget is not None and not isinstance(budget, RetryBudget):
            raise ValueError("budget must be a RetryBudget or None")
        self.max_attempts = int(max_attempts)
        self.base_backoff_s = float(base_backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self.jitter = jitter
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
        if self.jitter == "full":
            return rng.uniform(0.0, cap)
        return cap


# --------------------------------------------------------------------------- #
# circuit breaker
# --------------------------------------------------------------------------- #
class CircuitBreaker:
    """Closed/open/half-open breaker on an EWMA failure rate.

    * **closed** — requests flow; outcomes feed the EWMA.  Once at least
      ``min_samples`` outcomes were seen and the EWMA exceeds
      ``failure_threshold``, the breaker opens.
    * **open** — :meth:`allow` returns False (the sharded router treats the
      shard as if it refused work and spills to the least-loaded live
      shard) until ``open_duration_s`` has elapsed.
    * **half-open** — up to ``half_open_probes`` requests are let through;
      the first success closes the breaker (EWMA reset), the first failure
      re-opens it for another ``open_duration_s``.

    :meth:`trip` forces the breaker open immediately (the reaper calls it
    when a shard process is found dead — no need to wait for the EWMA) and
    :meth:`reset` returns it to closed with a clean history (the watchdog
    calls it after a successful restart, so a freshly respawned shard is
    not punished for its predecessor's crimes).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, failure_threshold=0.5, ewma_alpha=0.3, min_samples=4,
                 open_duration_s=1.0, half_open_probes=1, clock=time.monotonic):
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        if not open_duration_s > 0:
            raise ValueError("open_duration_s must be positive")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be at least 1")
        self.failure_threshold = float(failure_threshold)
        self.ewma_alpha = float(ewma_alpha)
        self.min_samples = int(min_samples)
        self.open_duration_s = float(open_duration_s)
        self.half_open_probes = int(half_open_probes)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED  # guarded-by: _lock
        self._failure_ewma = 0.0  # guarded-by: _lock
        self._samples = 0  # guarded-by: _lock
        self._opened_at = 0.0  # guarded-by: _lock
        self._probes = 0  # guarded-by: _lock
        self._opened_total = 0  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    def _open_locked(self):
        self._state = self.OPEN
        self._opened_at = self._clock()
        self._opened_total += 1
        self._probes = 0

    def record_success(self):
        with self._lock:
            if self._state == self.HALF_OPEN:
                # probe succeeded: the shard earned a clean slate
                self._state = self.CLOSED
                self._failure_ewma = 0.0
                self._samples = 0
                return
            self._samples += 1
            self._failure_ewma += self.ewma_alpha * (0.0 - self._failure_ewma)

    def record_failure(self):
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._open_locked()  # probe failed: back to open, timer restarts
                return
            self._samples += 1
            self._failure_ewma += self.ewma_alpha * (1.0 - self._failure_ewma)
            if (self._state == self.CLOSED and self._samples >= self.min_samples
                    and self._failure_ewma > self.failure_threshold):
                self._open_locked()

    def trip(self):
        """Force the breaker open now (hard evidence, e.g. a dead process)."""
        with self._lock:
            if self._state != self.OPEN:
                self._open_locked()
            self._failure_ewma = 1.0

    def reset(self):
        """Back to closed with a clean history (e.g. after a shard restart)."""
        with self._lock:
            self._state = self.CLOSED
            self._failure_ewma = 0.0
            self._samples = 0
            self._probes = 0

    def allow(self):
        """Whether a request may be routed through right now."""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at < self.open_duration_s:
                    return False
                self._state = self.HALF_OPEN
                self._probes = 0
            if self._probes < self.half_open_probes:
                self._probes += 1
                return True
            return False

    @property
    def state(self):
        with self._lock:
            return self._state

    def snapshot(self):
        with self._lock:
            return {"state": self._state,
                    "failure_ewma": self._failure_ewma,
                    "samples": self._samples,
                    "opened_total": self._opened_total}


# --------------------------------------------------------------------------- #
# the resilient submit() facade
# --------------------------------------------------------------------------- #
class _RequestState:
    """Per-logical-request bookkeeping (all fields guarded by the client's lock)."""

    __slots__ = ("outer", "package", "kind", "deadline_s", "settled",
                 "outstanding", "attempts", "retry_scheduled", "hedged",
                 "last_error", "started_s")

    def __init__(self, outer, package, kind, deadline_s, started_s):
        self.outer = outer
        self.package = package
        self.kind = kind
        self.deadline_s = deadline_s
        self.settled = False
        self.outstanding = 0
        self.attempts = 0
        self.retry_scheduled = False
        self.hedged = False
        self.last_error = None
        self.started_s = started_s


class ResilientClient:
    """Retrying / hedging facade over a server's ``submit()``.

    The returned future has the :class:`PendingResult` surface (``result``,
    ``done``, ``add_done_callback``) and settles **exactly once**: retries
    and hedges happen behind it, each as an independent server-side request.
    A hedge is launched when the first attempt is still unresolved after
    ``hedge_after_ms`` (a number, or ``"p95"`` to track the client's own
    observed p95 latency; ``None`` disables hedging); the slower attempt's
    eventual resolution is absorbed silently, so the caller can never see a
    duplicate.  Hedges draw from the same retry budget as retries — a hedge
    is a speculative retry, and an overloaded pool must shed both alike.

    ``close()`` cancels outstanding backoff/hedge timers; in-flight server
    attempts still settle their futures (the server owns those).
    """

    def __init__(self, server, retry_policy=None, hedge_after_ms=None,
                 min_hedge_samples=8, seed=0, clock=time.monotonic):
        if hedge_after_ms is not None and hedge_after_ms != "p95":
            if not float(hedge_after_ms) > 0:
                raise ValueError("hedge_after_ms must be positive, 'p95' or None")
        self.server = server
        self.policy = retry_policy or RetryPolicy()
        self.hedge_after_ms = hedge_after_ms
        self.min_hedge_samples = int(min_hedge_samples)
        self._clock = clock
        self._lock = threading.Lock()
        self._rng = random.Random(seed)  # guarded-by: _lock
        self._latency = LatencyWindow(256)  # guarded-by: _lock
        self._timers = set()  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._ids = itertools.count()
        self.submitted = 0  # guarded-by: _lock
        self.retries = 0  # guarded-by: _lock
        self.retry_successes = 0  # guarded-by: _lock
        self.hedges = 0  # guarded-by: _lock
        self.hedge_wins = 0  # guarded-by: _lock
        self.budget_denied = 0  # guarded-by: _lock
        self.failures = 0  # guarded-by: _lock
        self.deadline_rejects = 0  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    def submit(self, package, kind="reconstruct", deadline_s=None):
        """Submit with retries/hedging; returns the caller-visible future."""
        outer = PendingResult(next(self._ids))
        state = _RequestState(outer, package, kind, deadline_s, self._clock())
        with self._lock:
            self.submitted += 1
            state.outstanding = 1
            state.attempts = 1
        if self.policy.budget is not None:
            self.policy.budget.deposit()
        self._launch(state, attempt=1, is_hedge=False)
        self._maybe_schedule_hedge(state)
        return outer

    def stats(self):
        """Counter snapshot (plain dict, JSON-safe)."""
        with self._lock:
            return {"submitted": self.submitted, "retries": self.retries,
                    "retry_successes": self.retry_successes,
                    "hedges": self.hedges, "hedge_wins": self.hedge_wins,
                    "budget_denied": self.budget_denied,
                    "failures": self.failures,
                    "deadline_rejects": self.deadline_rejects,
                    "latency_p95_ms": self._latency.percentile(95) * 1e3}

    def close(self):
        """Cancel pending backoff/hedge timers (in-flight attempts still settle)."""
        with self._lock:
            self._closed = True
            timers = list(self._timers)
            self._timers.clear()
        for timer in timers:
            timer.cancel()

    # ------------------------------------------------------------------ #
    def _launch(self, state, attempt, is_hedge):
        """One server-side attempt (never raises; failures re-enter the policy)."""
        try:
            pending = self.server.submit(state.package, kind=state.kind,
                                         deadline_s=state.deadline_s)
        except Exception as error:  # noqa: BLE001 - sync rejection enters the retry path
            self._attempt_failed(state, error, attempt, is_hedge)
            return
        pending.add_done_callback(
            lambda inner: self._attempt_done(state, inner, attempt, is_hedge))

    def _attempt_done(self, state, inner, attempt, is_hedge):
        try:
            response = inner.result(timeout=0)
        except Exception as error:  # noqa: BLE001 - classified by the policy
            self._attempt_failed(state, error, attempt, is_hedge)
            return
        with self._lock:
            if state.settled:
                return  # hedge loser: absorbed, the caller saw exactly one win
            state.settled = True
            self._latency.record(self._clock() - state.started_s)
            if is_hedge:
                self.hedge_wins += 1
            elif attempt > 1:
                self.retry_successes += 1
        state.outer._resolve(response)

    def _attempt_failed(self, state, error, attempt, is_hedge):
        settle = False
        with self._lock:
            if state.settled:
                return
            state.outstanding -= 1
            state.last_error = error
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
                state.retry_scheduled = True
                self.retries += 1
                delay = self.policy.backoff_s(state.attempts - 1, self._rng)
                delay = min(delay, deadline_remaining_s(state.deadline_s,
                                                        self._clock))
                timer = threading.Timer(delay, self._retry_fire,
                                        args=(state, state.attempts))
                timer.daemon = True
                self._timers.add(timer)
            elif state.outstanding == 0 and not state.retry_scheduled:
                state.settled = True
                settle = True
                self.failures += 1
                if isinstance(error, DeadlineExceededError):
                    self.deadline_rejects += 1
        if settle:
            state.outer._reject(error)
            return
        if retry:
            timer.start()

    def _retry_fire(self, state, attempt):
        with self._lock:
            self._timers.discard(threading.current_thread())
            state.retry_scheduled = False
            if state.settled or self._closed:
                return
            state.outstanding += 1
        self._launch(state, attempt=attempt, is_hedge=False)

    # ------------------------------------------------------------------ #
    def _hedge_delay_s(self):
        if self.hedge_after_ms is None:
            return None
        if self.hedge_after_ms == "p95":
            with self._lock:
                if len(self._latency) < self.min_hedge_samples:
                    return None  # not enough signal to hedge sensibly yet
                return max(self._latency.percentile(95), 1e-3)
        return float(self.hedge_after_ms) * 1e-3

    def _maybe_schedule_hedge(self, state):
        delay = self._hedge_delay_s()
        if delay is None:
            return
        timer = threading.Timer(delay, self._hedge_fire, args=(state,))
        timer.daemon = True
        with self._lock:
            if self._closed:
                return
            self._timers.add(timer)
        timer.start()

    def _hedge_fire(self, state):
        with self._lock:
            self._timers.discard(threading.current_thread())
            if (state.settled or state.hedged or self._closed
                    or deadline_expired(state.deadline_s, self._clock)):
                return
            if self.policy.budget is not None and not self.policy.budget.withdraw():
                self.budget_denied += 1
                return  # an overloaded pool must not pay for speculation
            state.hedged = True
            state.outstanding += 1
            self.hedges += 1
        self._launch(state, attempt=state.attempts, is_hedge=True)


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
    rejection / open circuit), sleeps ``think_time_s`` between accepted
    requests, and on rejection backs off exponentially from
    ``backoff_base_s`` up to ``backoff_cap_s`` before trying again.

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
