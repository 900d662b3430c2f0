"""Regression tests for the lock-discipline fixes in the serving stack.

Each test pins a concrete bug found by the ``# guarded-by`` audit:
torn ``ResultCache`` stats snapshots, queue-depth telemetry sampled
outside the routing lock, and stale ``_inflight`` state across a
stop()/start() cycle.  The module name starts with ``test_serve`` on
purpose — the autouse lock-order fixture in conftest records every lock
acquisition here too.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.codecs import JpegCodec
from repro.core import EaszConfig, EaszEncoder, EaszReconstructor
from repro.serve import ResultCache, ShardedCompressionServer


# --------------------------------------------------------------------------- #
# ResultCache: stats() and hit_rate must be internally consistent snapshots
# --------------------------------------------------------------------------- #
class TestResultCacheConsistency:
    def test_counters_match_single_threaded(self):
        cache = ResultCache(capacity=4)
        image = np.zeros((2, 2), dtype=np.float64)
        assert cache.lookup(b"a") is None
        cache.put(b"a", image)
        assert cache.lookup(b"a") is not None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_stats_snapshot_never_torn_under_concurrency(self):
        """hit_rate in a snapshot must equal hits/(hits+misses) of that
        same snapshot — the pre-fix stats() recomputed the rate outside
        the span that read the counters, so a concurrent lookup could
        land in between."""
        cache = ResultCache(capacity=8)
        image = np.zeros((2, 2), dtype=np.float64)
        cache.put(b"hot", image)
        stop = threading.Event()

        def hammer():
            toggle = 0
            while not stop.is_set():
                cache.lookup(b"hot" if toggle else b"cold")
                toggle ^= 1

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for worker in workers:
            worker.start()
        try:
            previous_total = 0
            for _ in range(300):
                stats = cache.stats()
                total = stats["hits"] + stats["misses"]
                expected = stats["hits"] / total if total else 0.0
                assert stats["hit_rate"] == pytest.approx(expected, abs=0.0)
                assert total >= previous_total  # counters only move forward
                previous_total = total
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=5.0)
        assert previous_total > 0

    def test_disabled_cache_is_all_misses(self):
        cache = ResultCache(capacity=0)
        assert cache.lookup(b"x") is None
        cache.put(b"x", np.zeros((1, 1)))
        assert cache.lookup(b"x") is None
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2
        assert stats["hit_rate"] == 0.0


# --------------------------------------------------------------------------- #
# ShardedCompressionServer: routing-state resets and locked telemetry
# --------------------------------------------------------------------------- #
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
def packages(serve_config):
    rng = np.random.default_rng(3)
    encoder = EaszEncoder(serve_config, seed=3)
    mask = encoder.generate_mask()
    images = [rng.random((48, 64, 3)) for _ in range(3)]
    return encoder.encode_batch(images, mask=mask)


class TestShardedRoutingState:
    def test_lifecycle_resets_inflight_and_records_queue_depth(
            self, serve_model, serve_config, packages):
        server = ShardedCompressionServer(
            model=serve_model, config=serve_config, num_shards=2,
            base_codec=JpegCodec(quality=75),
            max_batch_size=4)
        server.start()
        try:
            pendings = [server.submit(package) for package in packages]
            for pending in pendings:
                pending.result(timeout=300.0)
            # queue depth is sampled inside the routing-lock span that
            # inserted the entry, so a completed submit always registers
            merged = server.aggregate_snapshot()
            assert merged["queue_depth_peak"] >= 1
            assert merged["inflight"] == [0] * server.num_shards

            watchdog = server.watchdog_snapshot()
            assert watchdog["enabled"] is False
            assert watchdog["restarts_total"] == 0
            assert len(watchdog["backoff_s"]) == server.num_shards
            assert len(watchdog["heartbeat_age_s"]) == server.num_shards
        finally:
            server.stop(timeout=60.0)
        assert server._inflight == [0] * server.num_shards

        # restart: the routing state must come back clean, not carry the
        # old pool's counters
        server.start()
        try:
            assert server._inflight == [0] * server.num_shards
            response = server.submit(packages[0]).result(timeout=300.0)
            assert response.image.shape == packages[0].original_shape
        finally:
            server.stop(timeout=60.0)

    def test_submit_after_stop_is_rejected(self, serve_model, serve_config,
                                           packages):
        from repro.serve import QueueClosedError

        server = ShardedCompressionServer(
            model=serve_model, config=serve_config, num_shards=1,
            base_codec=JpegCodec(quality=75),
            max_batch_size=4)
        server.start()
        server.stop(timeout=60.0)
        with pytest.raises(QueueClosedError):
            server.submit(packages[0])
