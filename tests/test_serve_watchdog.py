"""Tests for the shard health watchdog and spill-aware mask affinity."""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.codecs import JpegCodec
from repro.core import EaszConfig, EaszDecoder, EaszEncoder, EaszReconstructor
from repro.serve import ShardedCompressionServer


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
    rng = np.random.default_rng(0)
    encoder = EaszEncoder(serve_config, seed=0)
    mask = encoder.generate_mask()
    images = [rng.random((48, 64, 3)) for _ in range(4)]
    return encoder.encode_batch(images, mask=mask)


@pytest.fixture(scope="module")
def decoder(serve_config, serve_model):
    return EaszDecoder(model=serve_model, config=serve_config,
                       base_codec=JpegCodec(quality=75))


def _sharded(serve_model, serve_config, **kwargs):
    kwargs.setdefault("num_shards", 2)
    return ShardedCompressionServer(model=serve_model, config=serve_config, **kwargs)


# --------------------------------------------------------------------------- #
# shard health watchdog
# --------------------------------------------------------------------------- #
class TestShardWatchdog:
    def test_interval_must_be_positive(self, serve_model, serve_config):
        with pytest.raises(ValueError, match="watchdog_interval_s"):
            ShardedCompressionServer(model=serve_model, config=serve_config,
                                     watchdog_interval_s=0.0)
        with pytest.raises(ValueError, match="watchdog_interval_s"):
            ShardedCompressionServer(model=serve_model, config=serve_config,
                                     watchdog_interval_s=-1.0)
        with pytest.raises(ValueError, match="watchdog_hang_timeout_s"):
            ShardedCompressionServer(model=serve_model, config=serve_config,
                                     watchdog_hang_timeout_s=0.0)
        with pytest.raises(ValueError, match="watchdog_backoff_s"):
            ShardedCompressionServer(model=serve_model, config=serve_config,
                                     watchdog_backoff_s=0.0)

    def test_kill_a_shard_mid_load_no_lost_or_duplicated_responses(
            self, serve_config, serve_model, packages, decoder):
        """The acceptance-criterion scenario: a shard dies under traffic, the
        watchdog restarts it, and every submitted request resolves exactly
        once with correct pixels (re-routed, not lost; never duplicated)."""
        references = [decoder.decode(package) for package in packages]
        with _sharded(serve_model, serve_config, watchdog_interval_s=0.1,
                      watchdog_backoff_s=0.05, queue_depth=128) as server:
            server.submit(packages[0]).result(timeout=300.0)  # warm both shards
            victim = server._backends[0]
            old_pid = victim.process.pid
            pendings = [server.submit(package) for package in packages * 3]
            victim.process.kill()
            responses = [pending.result(timeout=120.0) for pending in pendings]

            # watchdog replaces the dead shard in place
            deadline = time.perf_counter() + 60.0
            while time.perf_counter() < deadline:
                current = server._backends[0]
                if current.is_alive() and current.process.pid != old_pid:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("watchdog never restarted the killed shard")

            # the restarted shard serves new work
            revived = server.submit(packages[0]).result(timeout=300.0)
            snapshot = server.stats.snapshot()

        # no lost responses: every future resolved successfully ...
        assert len(responses) == len(pendings)
        for index, response in enumerate(responses):
            assert np.abs(response.image
                          - references[index % len(packages)]).max() < 1e-5
        # ... and none duplicated: request ids are unique across responses
        request_ids = [response.request_id for response in responses]
        assert len(set(request_ids)) == len(request_ids)
        assert revived.image.shape == packages[0].original_shape
        assert snapshot["watchdog"]["enabled"]
        assert snapshot["watchdog"]["restarts_total"] >= 1
        assert snapshot["watchdog"]["restarts_by_shard"].get(0, 0) >= 1

    def test_hang_timeout_defaults_on_with_opt_out(self, serve_model, serve_config):
        """``"auto"`` resolves to the conservative 30 s default; ``None``
        opts out; explicit values pass through."""
        server = ShardedCompressionServer(model=serve_model, config=serve_config)
        assert server.watchdog_hang_timeout_s == 30.0
        server = ShardedCompressionServer(model=serve_model, config=serve_config,
                                          watchdog_hang_timeout_s=None)
        assert server.watchdog_hang_timeout_s is None
        server = ShardedCompressionServer(model=serve_model, config=serve_config,
                                          watchdog_hang_timeout_s=5.0)
        assert server.watchdog_hang_timeout_s == 5.0

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                        reason="needs SIGSTOP to freeze a shard")
    def test_hung_but_alive_shard_is_restarted(self, serve_config, serve_model,
                                               packages):
        """A shard frozen with SIGSTOP stays alive but stops stamping its
        heartbeat; the hang timeout must get it killed and replaced, and the
        pool must serve again afterwards."""
        with _sharded(serve_model, serve_config, watchdog_interval_s=0.1,
                      watchdog_backoff_s=0.05, watchdog_hang_timeout_s=0.75,
                      queue_depth=128) as server:
            server.submit(packages[0]).result(timeout=300.0)
            victim = server._backends[0]
            old_pid = victim.process.pid
            os.kill(old_pid, signal.SIGSTOP)  # alive, but silent
            deadline = time.perf_counter() + 60.0
            while time.perf_counter() < deadline:
                current = server._backends[0]
                if current.is_alive() and current.process.pid != old_pid:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("watchdog never replaced the hung shard")
            response = server.submit(packages[0]).result(timeout=300.0)
            snapshot = server.stats.snapshot()
        assert response.image.shape == packages[0].original_shape
        assert snapshot["watchdog"]["restarts_total"] >= 1
        assert snapshot["watchdog"]["restarts_by_shard"].get(0, 0) >= 1

    def test_watchdog_reports_heartbeats_and_stays_quiet_on_a_healthy_pool(
            self, serve_config, serve_model, packages):
        with _sharded(serve_model, serve_config,
                      watchdog_interval_s=0.1) as server:
            server.submit(packages[0]).result(timeout=300.0)
            time.sleep(0.3)  # a few watchdog ticks over a healthy pool
            snapshot = server.stats.snapshot()
            pids = [shard.process.pid for shard in server._backends]
            response = server.submit(packages[0]).result(timeout=300.0)
            assert [shard.process.pid for shard in server._backends] == pids
        assert snapshot["watchdog"]["restarts_total"] == 0
        ages = snapshot["watchdog"]["heartbeat_age_s"]
        assert len(ages) == 2
        assert all(age is not None and age < 30.0 for age in ages)
        assert response.image.shape == packages[0].original_shape

    def test_backoff_spaces_restart_attempts(self, serve_model, serve_config):
        from repro.serve.sharding import _WATCHDOG_BACKOFF_CAP_S
        server = ShardedCompressionServer(model=serve_model, config=serve_config,
                                          watchdog_interval_s=0.5,
                                          watchdog_backoff_s=8.0)
        # pure bookkeeping check: the backoff doubles up to its 30 s cap
        backoff = server.watchdog_backoff_s
        seen = []
        for _ in range(5):
            seen.append(backoff)
            backoff = min(backoff * 2.0, _WATCHDOG_BACKOFF_CAP_S)
        assert seen == [8.0, 16.0, 30.0, 30.0, 30.0]
        snapshot_keys = server.watchdog_snapshot()
        assert snapshot_keys["enabled"]
        assert snapshot_keys["restarts_total"] == 0


# --------------------------------------------------------------------------- #
# spill-aware mask affinity
# --------------------------------------------------------------------------- #
class TestMaskAffinity:
    def _keys_for_two_geometries(self, serve_config):
        encoder = EaszEncoder(serve_config, seed=0)
        mask = encoder.generate_mask()
        rng = np.random.default_rng(1)
        wide = encoder.encode(rng.random((48, 64, 3)), mask=mask)
        tall = encoder.encode(rng.random((64, 48, 3)), mask=mask)
        return wide, tall

    def test_mask_mode_routes_all_geometries_of_one_mask_together(
            self, serve_model, serve_config):
        wide, tall = self._keys_for_two_geometries(serve_config)
        server = ShardedCompressionServer(model=serve_model, config=serve_config,
                                          num_shards=4)
        key_wide = server._batch_key(wide, "reconstruct")
        key_tall = server._batch_key(tall, "reconstruct")
        assert key_wide[2] != key_tall[2]  # genuinely different geometries
        assert (server._preferred_shard(key_wide, mask_only=True)
                == server._preferred_shard(key_tall, mask_only=True))

    def test_auto_mode_switches_after_second_geometry(self, serve_model,
                                                      serve_config):
        wide, tall = self._keys_for_two_geometries(serve_config)
        server = ShardedCompressionServer(model=serve_model, config=serve_config,
                                          num_shards=4)
        key_wide = server._batch_key(wide, "reconstruct")
        key_tall = server._batch_key(tall, "reconstruct")
        server._observe_geometry_locked(key_wide)
        assert not server._mask_affine_locked(key_wide)  # one geometry: full key
        server._observe_geometry_locked(key_tall)
        assert server._mask_affine_locked(key_wide)
        assert server._mask_affine_locked(key_tall)

    def test_multi_camera_fleet_lands_on_one_shard_end_to_end(
            self, serve_model, serve_config, decoder):
        # two cameras, same erase mask, different frame geometry: with auto
        # affinity the second camera's traffic joins the first one's shard
        # once the mask is known to span geometries
        wide, tall = self._keys_for_two_geometries(serve_config)
        with ShardedCompressionServer(
                model=serve_model, config=serve_config, num_shards=2) as server:
            server.submit(wide).result(timeout=300.0)
            server.submit(tall).result(timeout=300.0)  # flips the mask to affine
            workers = set()
            for package in (wide, tall, wide, tall):
                response = server.submit(package).result(timeout=300.0)
                workers.add(response.worker.split("/")[0])
        assert len(workers) == 1  # sequential singles below the spill threshold
