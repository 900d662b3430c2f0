"""Tests for client-side resilience (``repro.serve.resilience``) and the
end-to-end deadline-shedding path (front door → shard → worker)."""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import EaszConfig, EaszEncoder, EaszReconstructor
from repro.serve import (
    ClosedLoopClient,
    CompressionServer,
    DeadlineExceededError,
    QueueClosedError,
    ResilientClient,
    RetryBudget,
    RetryPolicy,
    ServerOverloadedError,
    ShardedCompressionServer,
    ShardFailedError,
    deadline_after_ms,
)
from repro.serve.queueing import deadline_expired, deadline_remaining_s
from repro.serve.server import PendingResult


@pytest.fixture(scope="module")
def serve_config():
    return EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1,
                      d_model=32, num_heads=4, encoder_blocks=2, decoder_blocks=2,
                      ffn_mult=2, loss_lambda=0.0)


@pytest.fixture(scope="module")
def serve_model(serve_config):
    model = EaszReconstructor(serve_config)
    model.eval()
    return model


@pytest.fixture(scope="module")
def package(serve_config):
    rng = np.random.default_rng(3)
    encoder = EaszEncoder(serve_config, seed=0)
    return encoder.encode(rng.random((32, 32, 3)), mask=encoder.generate_mask())


class FakeClock:
    def __init__(self, now=0.0):
        self.now = float(now)

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class FlakyServer:
    """``submit()`` fails the first ``fail_first`` attempts, then succeeds.

    ``sync_raise`` raises from ``submit`` itself (the admission-rejection
    shape); otherwise the returned future is rejected asynchronously (the
    shard-failure shape).
    """

    def __init__(self, fail_first=0, error_factory=None, sync_raise=False):
        self.fail_first = fail_first
        self.error_factory = error_factory or (lambda: ShardFailedError("boom"))
        self.sync_raise = sync_raise
        self.calls = 0
        self._lock = threading.Lock()

    def submit(self, package, kind="reconstruct", deadline_s=None):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call <= self.fail_first:
            if self.sync_raise:
                raise self.error_factory()
            pending = PendingResult(call)
            pending._reject(self.error_factory())
            return pending
        pending = PendingResult(call)
        pending._resolve(f"response-{call}")
        return pending


# --------------------------------------------------------------------------- #
# retry budget + policy
# --------------------------------------------------------------------------- #
class TestRetryBudget:
    def test_withdrawals_bounded_by_burst_plus_deposits(self):
        budget = RetryBudget(ratio=0.5, burst=2.0)
        assert budget.withdraw() and budget.withdraw()  # the initial burst
        assert not budget.withdraw()                    # broke
        budget.deposit(2)                               # 2 * 0.5 = 1 token
        assert budget.withdraw()
        assert not budget.withdraw()
        snap = budget.snapshot()
        assert snap["withdrawn"] == 3
        assert snap["denied"] == 2
        assert snap["deposited"] == 2

    def test_tokens_cap_at_burst(self):
        budget = RetryBudget(ratio=1.0, burst=3.0)
        budget.deposit(100)
        assert budget.snapshot()["tokens"] == 3.0

    def test_validation(self):
        with pytest.raises(ValueError, match="ratio"):
            RetryBudget(ratio=-0.1)
        with pytest.raises(ValueError, match="burst"):
            RetryBudget(burst=0.5)


class TestRetryPolicy:
    def test_infra_errors_retry_verdicts_do_not(self):
        policy = RetryPolicy()
        assert policy.retryable(ShardFailedError("x"))
        assert policy.retryable(ServerOverloadedError("x"))
        assert policy.retryable(TimeoutError("x"))
        assert not policy.retryable(DeadlineExceededError("x"))
        assert not policy.retryable(QueueClosedError("x"))
        assert not policy.retryable(ValueError("corrupt payload"))

    def test_backoff_grows_exponentially_and_caps(self):
        class TopOfRange:
            def uniform(self, low, high):
                return high

        policy = RetryPolicy(base_backoff_s=0.01, max_backoff_s=0.05)
        values = [policy.backoff_s(k, rng=TopOfRange()) for k in (1, 2, 3, 4, 5)]
        assert values == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_full_jitter_stays_inside_the_envelope(self):
        import random
        policy = RetryPolicy(base_backoff_s=0.01, max_backoff_s=0.05)
        rng = random.Random(0)
        for attempt in range(1, 6):
            cap = min(0.01 * 2 ** (attempt - 1), 0.05)
            for _ in range(20):
                assert 0.0 <= policy.backoff_s(attempt, rng) <= cap

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="max_backoff_s"):
            RetryPolicy(base_backoff_s=0.5, max_backoff_s=0.1)
        with pytest.raises(ValueError, match="budget"):
            RetryPolicy(budget=0.1)


# --------------------------------------------------------------------------- #
# resilient client (against a fake server: pure client-side semantics)
# --------------------------------------------------------------------------- #
class TestResilientClient:
    def _policy(self, **kwargs):
        defaults = dict(max_attempts=3, base_backoff_s=0.001,
                        max_backoff_s=0.002)
        defaults.update(kwargs)
        return RetryPolicy(**defaults)

    def test_healthy_submit_passes_through(self):
        server = FlakyServer()
        client = ResilientClient(server, retry_policy=self._policy())
        assert client.submit("pkg").result(timeout=1.0) == "response-1"
        stats = client.stats()
        assert stats["submitted"] == 1 and stats["retries"] == 0
        assert server.calls == 1

    def test_async_failure_retries_then_succeeds(self):
        server = FlakyServer(fail_first=2)
        client = ResilientClient(server, retry_policy=self._policy())
        assert client.submit("pkg").result(timeout=2.0) == "response-3"
        stats = client.stats()
        assert stats["retries"] == 2
        assert stats["retry_successes"] == 1
        assert stats["failures"] == 0

    def test_sync_rejection_enters_the_retry_path(self):
        server = FlakyServer(fail_first=1, sync_raise=True,
                             error_factory=lambda: ServerOverloadedError("full"))
        client = ResilientClient(server, retry_policy=self._policy())
        assert client.submit("pkg").result(timeout=2.0) == "response-2"
        assert client.stats()["retries"] == 1

    def test_permanent_error_never_retries(self):
        server = FlakyServer(fail_first=5,
                             error_factory=lambda: ValueError("corrupt"))
        client = ResilientClient(server, retry_policy=self._policy())
        with pytest.raises(ValueError):
            client.submit("pkg").result(timeout=1.0)
        assert server.calls == 1
        assert client.stats()["failures"] == 1

    def test_attempt_cap_surfaces_the_last_error(self):
        server = FlakyServer(fail_first=10)
        client = ResilientClient(server,
                                 retry_policy=self._policy(max_attempts=2))
        with pytest.raises(ShardFailedError):
            client.submit("pkg").result(timeout=2.0)
        assert server.calls == 2
        stats = client.stats()
        assert stats["retries"] == 1 and stats["failures"] == 1

    def test_broke_budget_denies_the_retry(self):
        budget = RetryBudget(ratio=0.0, burst=1.0)
        server = FlakyServer(fail_first=10)
        client = ResilientClient(
            server, retry_policy=self._policy(max_attempts=4, budget=budget))
        with pytest.raises(ShardFailedError):
            client.submit("pkg").result(timeout=2.0)
        # one token of burst bought one retry; the second was denied
        assert server.calls == 2
        stats = client.stats()
        assert stats["retries"] == 1 and stats["budget_denied"] == 1

    def test_expired_deadline_stops_retrying(self):
        server = FlakyServer(fail_first=10)
        client = ResilientClient(server, retry_policy=self._policy())
        pending = client.submit("pkg", deadline_s=time.monotonic() - 1.0)
        with pytest.raises(ShardFailedError):
            pending.result(timeout=1.0)
        assert server.calls == 1  # retrying past the deadline is pure waste

    def test_close_cancels_scheduled_retries(self):
        server = FlakyServer(fail_first=10)
        client = ResilientClient(
            server, retry_policy=self._policy(base_backoff_s=5.0,
                                              max_backoff_s=5.0))
        client.submit("pkg")
        time.sleep(0.05)  # the first failure schedules a far-future retry
        client.close()
        calls_at_close = server.calls
        time.sleep(0.05)
        assert server.calls == calls_at_close == 1

    def test_close_rejects_backoff_pending_requests(self):
        server = FlakyServer(fail_first=10)
        client = ResilientClient(
            server, retry_policy=self._policy(base_backoff_s=5.0,
                                              max_backoff_s=5.0))
        pending = client.submit("pkg")
        time.sleep(0.05)  # the first failure schedules a far-future retry
        started = time.monotonic()
        client.close()
        with pytest.raises(ShardFailedError):
            pending.result(timeout=1.0)
        assert time.monotonic() - started < 0.5
        assert client.stats()["failures"] == 1

    def test_timer_firing_after_close_settles_nothing(self, monkeypatch):
        # a timer whose cancel() lost the race still runs its callback
        monkeypatch.setattr(threading.Timer, "cancel", lambda timer: None)
        server = FlakyServer(fail_first=10)
        client = ResilientClient(
            server, retry_policy=self._policy(base_backoff_s=0.2,
                                              max_backoff_s=0.2))
        pending = client.submit("pkg")
        client.close()
        with pytest.raises(ShardFailedError) as first:
            pending.result(timeout=1.0)
        time.sleep(0.4)  # past the backoff: the timer has fired
        with pytest.raises(ShardFailedError) as again:
            pending.result(timeout=0)
        assert again.value is first.value
        assert server.calls == 1
        assert client.stats()["failures"] == 1


class TestClosedLoopClient:
    def test_think_loop_counts_and_stops(self):
        stop = threading.Event()
        def do_request(client):
            if client.requests >= 5:
                stop.set()
            return True
        client = ClosedLoopClient(do_request, think_time_s=0.001,
                                  stop_event=stop)
        client.start()
        client.join(timeout=5.0)
        assert not client.is_alive()
        assert client.requests >= 5
        assert client.accepted == client.requests
        assert client.backoffs == 0

    def test_rejections_back_off_exponentially(self):
        stop = threading.Event()
        waits = []
        def do_request(client):
            waits.append(time.monotonic())
            if len(waits) >= 3:
                stop.set()
            return False
        client = ClosedLoopClient(do_request, think_time_s=0.0,
                                  backoff_base_s=0.02, backoff_cap_s=0.1,
                                  stop_event=stop)
        client.start()
        client.join(timeout=5.0)
        assert client.accepted == 0 and client.backoffs >= 2
        # second gap (backoff 0.04) must exceed the first (backoff 0.02)
        gaps = np.diff(waits)
        assert gaps[1] > gaps[0]

    def test_do_request_exception_is_a_rejection(self):
        stop = threading.Event()
        def do_request(client):
            stop.set()
            raise RuntimeError("client bug")
        client = ClosedLoopClient(do_request, think_time_s=0.0,
                                  backoff_base_s=0.001, stop_event=stop)
        client.start()
        client.join(timeout=5.0)
        assert client.backoffs >= 1
        assert client.accepted == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="think_time_s"):
            ClosedLoopClient(lambda c: True, think_time_s=-1.0)
        with pytest.raises(ValueError, match="backoff_cap_s"):
            ClosedLoopClient(lambda c: True, backoff_base_s=1.0,
                             backoff_cap_s=0.5)


# --------------------------------------------------------------------------- #
# deadline helpers
# --------------------------------------------------------------------------- #
class TestDeadlineHelpers:
    def test_absolute_stamp_arithmetic(self):
        clock = FakeClock(100.0)
        deadline = deadline_after_ms(250.0, clock=clock)
        assert deadline == pytest.approx(100.25)
        assert not deadline_expired(deadline, clock)
        assert deadline_remaining_s(deadline, clock) == pytest.approx(0.25)
        clock.advance(0.5)
        assert deadline_expired(deadline, clock)
        assert deadline_remaining_s(deadline, clock) == 0.0

    def test_none_means_no_deadline(self):
        assert not deadline_expired(None)
        assert deadline_remaining_s(None) == float("inf")


# --------------------------------------------------------------------------- #
# deadline shedding at each pipeline stage (the four edge cases)
# --------------------------------------------------------------------------- #
class TestDeadlineShedding:
    def test_expired_at_submit_is_shed_before_the_queue(self, serve_model,
                                                        serve_config, package):
        with CompressionServer(model=serve_model, config=serve_config,
                               num_workers=1) as server:
            resolutions = []
            pending = server.submit(package,
                                    deadline_s=time.monotonic() - 0.1)
            pending.add_done_callback(lambda p: resolutions.append(p))
            with pytest.raises(DeadlineExceededError):
                pending.result(timeout=1.0)
            assert server.stats.snapshot()["deadline_shed"] == 1
        assert len(resolutions) == 1  # rejected exactly once

    def test_expired_while_queued_is_shed_by_the_worker(self, serve_model,
                                                        serve_config, package):
        # the worker is held while one request's deadline passes in the
        # queue; a live request queued behind it is still served
        server = CompressionServer(model=serve_model, config=serve_config,
                                   num_workers=1)
        release = threading.Event()
        pop = server.pool.queue.pop

        def held_pop(timeout=None):
            release.wait()
            return pop(timeout=timeout)

        server.pool.queue.pop = held_pop
        with server:
            deadline_s = time.monotonic() + 0.05
            expiring = server.submit(package, deadline_s=deadline_s)
            live = server.submit(package, deadline_s=time.monotonic() + 60.0)
            time.sleep(max(deadline_s - time.monotonic(), 0.0) + 0.01)
            release.set()
            with pytest.raises(DeadlineExceededError, match="before decode"):
                expiring.result(timeout=30.0)
            assert live.result(timeout=30.0).image.shape == package.original_shape
            snapshot = server.stats.snapshot()
        assert snapshot["deadline_shed"] == 1
        assert snapshot["batches"] == snapshot["completed"] == 1

    def test_expired_after_the_pop_is_shed_before_decode(self, serve_model,
                                                         serve_config, package):
        server = CompressionServer(model=serve_model, config=serve_config,
                                   num_workers=1)
        # the worker pops the request and only then does its deadline pass
        deadline_s = time.monotonic() + 0.05
        pop = server.pool.queue.pop

        def late_pop(timeout=None):
            request = pop(timeout=timeout)
            if request is not None:
                time.sleep(max(deadline_s - time.monotonic(), 0.0) + 0.01)
            return request

        server.pool.queue.pop = late_pop
        with server:
            pending = server.submit(package, deadline_s=deadline_s)
            with pytest.raises(DeadlineExceededError, match="before decode"):
                pending.result(timeout=30.0)
            snapshot = server.stats.snapshot()
        assert snapshot["deadline_shed"] == 1
        assert snapshot["batches"] == 0  # no decode was paid for

    def test_expired_on_a_shard_is_shed_before_unpack(self, serve_model,
                                                      serve_config, package):
        # freeze the only shard so the request's 100ms budget expires on the
        # wire; after thaw the shard must shed it pre-unpack and report the
        # shed through the merged telemetry
        with ShardedCompressionServer(model=serve_model, config=serve_config,
                                      num_shards=1, workers_per_shard=1) as server:
            warm = server.submit(package)
            warm.result(timeout=60.0)  # shard is up and serving
            pid = server._backends[0].process.pid
            os.kill(pid, signal.SIGSTOP)
            try:
                pending = server.submit(package,
                                        deadline_s=deadline_after_ms(100.0))
                time.sleep(0.3)
            finally:
                os.kill(pid, signal.SIGCONT)
            with pytest.raises(DeadlineExceededError):
                pending.result(timeout=30.0)
            assert server.stats.snapshot()["deadline_shed"] >= 1
