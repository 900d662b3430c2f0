"""Tests for the zero-copy shared-memory response path, the shard health
watchdog and spill-aware mask affinity."""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.codecs import JpegCodec
from repro.core import EaszConfig, EaszDecoder, EaszEncoder, EaszReconstructor
from repro.serve import (
    ShardedCompressionServer,
    ShmRing,
    shm_available,
)

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="host cannot create shared memory")


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
# the ring itself (single-process: lease/ack/reclaim protocol)
# --------------------------------------------------------------------------- #
class TestShmRing:
    def test_claim_write_read_release_cycle(self):
        ring = ShmRing(slot_bytes=1024, num_slots=2)
        try:
            slot, seq = ring.claim(owner_index=0)
            payload = np.arange(12.0).reshape(3, 4)
            nbytes = ring.write(slot, payload)
            assert nbytes == payload.nbytes
            view = ring.read(slot, nbytes)
            try:
                assert bytes(view) == payload.tobytes()
            finally:
                view.release()
            assert ring.leased_slots() == 1
            assert ring.release(slot, seq, owner_index=0)
            assert ring.leased_slots() == 0
        finally:
            ring.close()

    def test_full_ring_returns_none(self):
        ring = ShmRing(slot_bytes=64, num_slots=2)
        try:
            assert ring.claim(0) is not None
            assert ring.claim(1) is not None
            assert ring.claim(0) is None
        finally:
            ring.close()

    def test_release_refuses_wrong_owner_or_stale_seq(self):
        ring = ShmRing(slot_bytes=64, num_slots=1)
        try:
            slot, seq = ring.claim(owner_index=3)
            assert not ring.release(slot, seq, owner_index=1)  # wrong owner
            assert not ring.release(slot, seq + 1, owner_index=3)  # wrong seq
            assert ring.release(slot, seq, owner_index=3)
        finally:
            ring.close()

    def test_reclaim_frees_a_dead_owners_slots_and_staleness_protects(self):
        ring = ShmRing(slot_bytes=64, num_slots=3)
        try:
            leases = [ring.claim(owner_index=0) for _ in range(2)]
            ring.claim(owner_index=1)
            assert ring.reclaim(owner_index=0) == 2
            assert ring.leased_slots() == 1
            # a late ack from the dead owner's old lease must be inert,
            # even after the slot was re-leased by someone else
            slot, old_seq = leases[0]
            new_slot, new_seq = ring.claim(owner_index=2)
            assert new_slot == slot  # lowest free slot is re-issued
            assert not ring.release(slot, old_seq, owner_index=0)
            assert ring.release(new_slot, new_seq, owner_index=2)
        finally:
            ring.close()

    def test_oversized_write_raises(self):
        ring = ShmRing(slot_bytes=64, num_slots=1)
        try:
            slot, seq = ring.claim(0)
            with pytest.raises(ValueError, match="slots hold"):
                ring.write(slot, np.zeros(1024))
            ring.release(slot, seq, 0)
        finally:
            ring.close()

    def test_attach_shares_state_in_process(self):
        parent = ShmRing(slot_bytes=64, num_slots=2)
        try:
            child = ShmRing.attach(parent.descriptor())
            slot, seq = child.claim(owner_index=0)
            child.write(slot, np.arange(4, dtype=np.int64))
            view = parent.read(slot, 32)
            try:
                assert np.array_equal(np.frombuffer(view, dtype=np.int64),
                                      np.arange(4, dtype=np.int64))
            finally:
                view.release()
            assert parent.release(slot, seq, owner_index=0)
            child.close()
        finally:
            parent.close()

    def test_validation(self):
        with pytest.raises(ValueError, match="slot_bytes"):
            ShmRing(slot_bytes=0, num_slots=1)
        with pytest.raises(ValueError, match="num_slots"):
            ShmRing(slot_bytes=64, num_slots=0)


# --------------------------------------------------------------------------- #
# sharded server over the ring
# --------------------------------------------------------------------------- #
class TestShmServing:
    def test_responses_ride_shm_and_match_reference(self, serve_config, serve_model,
                                                    packages, decoder):
        references = [decoder.decode(package) for package in packages]
        with _sharded(serve_model, serve_config) as server:
            pendings = [server.submit(package) for package in packages]
            responses = [pending.result(timeout=300.0) for pending in pendings]
            snapshot = server.stats.snapshot()
        for response, reference in zip(responses, references):
            assert response.transport == "shm"
            assert np.abs(response.image - reference).max() < 1e-5
            assert response.image.flags.writeable  # caller owns its pixels
        assert snapshot["response_transport"].get("shm", 0) == len(packages)
        assert snapshot["shm"]["enabled"]
        assert snapshot["shm"]["leased"] == 0  # every lease was acked back

    def test_decode_kind_is_bit_exact_over_shm(self, serve_config, serve_model,
                                               packages, decoder):
        reference = decoder.decode(packages[0], reconstruct=False)
        with _sharded(serve_model, serve_config) as server:
            response = server.submit(packages[0], kind="decode").result(timeout=300.0)
        assert response.transport == "shm"
        assert np.array_equal(response.image, reference)

    def test_use_shm_false_keeps_the_queue_path(self, serve_config, serve_model,
                                                packages):
        with _sharded(serve_model, serve_config, use_shm=False) as server:
            response = server.submit(packages[0]).result(timeout=300.0)
            snapshot = server.stats.snapshot()
        assert response.transport == "queue"
        assert not snapshot["shm"]["enabled"]
        assert snapshot["response_transport"] == {"queue": 1}

    def test_oversized_response_falls_back_to_queue(self, serve_config, serve_model,
                                                    packages, decoder):
        # slots far smaller than a 48x64x3 float64 response: every response
        # must take the queue path, with identical pixels
        reference = decoder.decode(packages[0])
        with _sharded(serve_model, serve_config, shm_slot_bytes=1024) as server:
            response = server.submit(packages[0]).result(timeout=300.0)
            snapshot = server.stats.snapshot()
        assert response.transport == "queue"
        assert np.abs(response.image - reference).max() < 1e-5
        assert snapshot["response_transport"] == {"queue": 1}

    def test_exhausted_ring_spills_to_queue_without_loss(self, serve_config,
                                                         serve_model, packages):
        # one slot for the whole pool: under a burst some responses must fall
        # back; every future still resolves with correct pixels
        with _sharded(serve_model, serve_config, shm_slots=1,
                      queue_depth=64) as server:
            pendings = [server.submit(package) for package in packages * 4]
            responses = [pending.result(timeout=300.0) for pending in pendings]
            snapshot = server.stats.snapshot()
        assert len(responses) == len(pendings)
        transports = {response.transport for response in responses}
        assert transports <= {"shm", "queue"}
        total = sum(snapshot["response_transport"].values())
        assert total == len(pendings)
        assert snapshot["shm"]["leased"] == 0

    def test_result_cache_hits_count_as_cache_transport(self, serve_config,
                                                        serve_model, packages):
        with _sharded(serve_model, serve_config, result_cache_size=8) as server:
            first = server.submit(packages[0]).result(timeout=300.0)
            repeat = server.submit(packages[0]).result(timeout=300.0)
            snapshot = server.stats.snapshot()
        assert first.transport == "shm"
        assert repeat.transport == "cache" and repeat.cached
        assert np.array_equal(first.image, repeat.image)
        assert snapshot["response_transport"] == {"cache": 1, "shm": 1}

    def test_restart_shard_reclaims_its_leases(self, serve_config, serve_model,
                                               packages):
        with _sharded(serve_model, serve_config) as server:
            server.submit(packages[0]).result(timeout=300.0)
            server.restart_shard(0, graceful=False)
            snapshot = server.stats.snapshot()
            # pool still serves, ring fully reclaimed
            response = server.submit(packages[0]).result(timeout=300.0)
        assert snapshot["shm"]["leased"] == 0
        assert response.image.shape == packages[0].original_shape

    def test_shm_param_validation(self, serve_model, serve_config):
        with pytest.raises(ValueError, match="shm_slots"):
            ShardedCompressionServer(model=serve_model, config=serve_config,
                                     shm_slots=0)
        with pytest.raises(ValueError, match="shm_slot_bytes"):
            ShardedCompressionServer(model=serve_model, config=serve_config,
                                     shm_slot_bytes=0)


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
        assert snapshot["shm"]["leased"] == 0

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
