"""Regression tests for the lock-discipline fixes in the serving stack.

Each test pins a concrete bug found by the ``# guarded-by`` audit:
queue-depth telemetry sampled outside the routing lock, and stale
``_inflight`` state across a stop()/start() cycle.  The module name starts with ``test_serve`` on
purpose — the autouse lock-order fixture in conftest records every lock
acquisition here too.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.core import EaszConfig, EaszEncoder, EaszReconstructor
from repro.serve import ShardedCompressionServer


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
            model=serve_model, config=serve_config, num_shards=2)
        server.start()
        try:
            pendings = [server.submit(package) for package in packages]
            for pending in pendings:
                pending.result(timeout=300.0)
            # queue depth is sampled inside the routing-lock span that
            # inserted the entry, so a completed submit always registers
            merged = server.stats.snapshot()
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
            model=serve_model, config=serve_config, num_shards=1)
        server.start()
        server.stop(timeout=60.0)
        with pytest.raises(QueueClosedError):
            server.submit(packages[0])
