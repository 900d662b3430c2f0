"""Tests for process-sharded serving, the result cache and the M/D/c
queueing bridge."""

from __future__ import annotations

import math
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.codecs import JpegCodec
from repro.core import (EaszConfig, EaszDecoder, EaszEncoder, EaszReconstructor,
                        pack_package, unpack_package)
from repro.edge import erlang_c, md_c_wait_s
from repro.serve import (
    AdmissionQueue,
    CompressionServer,
    QueueClosedError,
    ResultCache,
    ServerOverloadedError,
    ServerStats,
    ShardedCompressionServer,
    ShardFailedError,
    aggregate_snapshots,
    sharding,
)
from repro.serve.sharding import _recv_frame, _send_frame


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
# queueing theory: Erlang-C and the M/D/c correction
# --------------------------------------------------------------------------- #
class TestMDc:
    def test_collapses_to_md1_at_c1(self):
        lam, service = 3.0, 0.2
        rho = lam * service
        expected = rho * service / (2.0 * (1.0 - rho))
        assert md_c_wait_s(lam, service, 1) == pytest.approx(expected, rel=1e-12)

    def test_erlang_c_known_values(self):
        # M/M/1: P(wait) == rho
        assert erlang_c(1, 0.5) == pytest.approx(0.5)
        # M/M/2 with a = 1: C = 1/3 (classic textbook value)
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0)
        assert erlang_c(4, 0.0) == 0.0
        assert erlang_c(2, 2.5) == 1.0  # at/over saturation every arrival waits

    def test_more_servers_wait_less(self):
        waits = [md_c_wait_s(4.0, 0.2, c) for c in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(waits, waits[1:]))
        assert waits[-1] > 0.0

    def test_pool_rescues_a_saturated_single_server(self):
        # lambda*S = 2 erlangs: one server diverges, three cope
        assert md_c_wait_s(10.0, 0.2, 1) == float("inf")
        assert md_c_wait_s(10.0, 0.2, 2) == float("inf")  # rho == 1 exactly
        assert math.isfinite(md_c_wait_s(10.0, 0.2, 3))

    def test_zero_load_and_validation(self):
        assert md_c_wait_s(0.0, 0.2, 2) == 0.0
        with pytest.raises(ValueError):
            md_c_wait_s(1.0, 0.1, 0)
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(2, -0.1)

    def test_fleet_evaluate_servers_parameter(self):
        from repro.edge import WirelessChannel
        channel = WirelessChannel(bandwidth_mbps=6.0, per_transfer_overhead_ms=50.0)
        nodes = [__import__("repro.edge", fromlist=["CameraNode"]).CameraNode(
            f"cam-{i}", images_per_hour=1200, bytes_per_image=20_000) for i in range(8)]
        from repro.edge import FleetSimulation
        fleet = FleetSimulation(channel, nodes)
        single = fleet.evaluate("jpeg", servers=1)
        pooled = fleet.evaluate("jpeg", servers=2)
        assert pooled.utilisation == pytest.approx(single.utilisation / 2.0)
        assert pooled.mean_queueing_delay_ms < single.mean_queueing_delay_ms


# --------------------------------------------------------------------------- #
# cross-request result cache
# --------------------------------------------------------------------------- #
class TestResultCache:
    def test_digest_distinguishes_payload_and_kind(self, packages):
        a = ResultCache.digest(packages[0], "reconstruct")
        assert a == ResultCache.digest(packages[0], "reconstruct")
        assert a != ResultCache.digest(packages[0], "decode")
        assert a != ResultCache.digest(packages[1], "reconstruct")

    def test_lookup_put_and_isolation(self):
        cache = ResultCache(capacity=2)
        image = np.arange(6.0).reshape(2, 3)
        assert cache.lookup(b"k") is None
        cache.put(b"k", image)
        image[0, 0] = 99.0  # caller mutates its array after the put
        hit = cache.lookup(b"k")
        assert hit[0, 0] == 0.0
        hit[0, 1] = 77.0  # consumer mutates its hit
        assert cache.lookup(b"k")[0, 1] == 1.0

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put(b"k", np.ones(3))
        assert cache.lookup(b"k") is None
        assert not cache.enabled

    def test_threaded_server_serves_repeats_from_cache(self, serve_config, serve_model,
                                                       packages, decoder):
        with CompressionServer(model=serve_model, config=serve_config, num_workers=1,
                               result_cache_size=8) as server:
            first = server.submit(packages[0]).result(timeout=120.0)
            second = server.submit(packages[0]).result(timeout=120.0)
            snapshot = server.stats.snapshot()
        assert not first.cached
        assert second.cached and second.worker == "result-cache"
        assert np.array_equal(first.image, second.image)
        reference = decoder.decode(packages[0])
        assert np.abs(second.image - reference).max() < 1e-5
        assert snapshot["result_cache"]["hits"] == 1
        assert snapshot["result_cache"]["misses"] == 1
        assert snapshot["completed_cached"] == 1
        assert snapshot["completed"] == 1  # only the first touched a worker

    def test_sharded_server_serves_repeats_from_cache(self, serve_config, serve_model,
                                                      packages):
        with _sharded(serve_model, serve_config, result_cache_size=8) as server:
            first = server.submit(packages[1]).result(timeout=120.0)
            repeats = [server.submit(packages[1]).result(timeout=120.0)
                       for _ in range(3)]
            snapshot = server.stats.snapshot()
        assert not first.cached
        assert all(response.cached for response in repeats)
        for response in repeats:
            assert np.array_equal(response.image, first.image)
        assert snapshot["result_cache"]["hits"] == 3
        assert snapshot["completed"] == 1

    def test_result_cache_hits_count_as_cache_transport(self, serve_config,
                                                        serve_model, packages):
        with _sharded(serve_model, serve_config, result_cache_size=8) as server:
            first = server.submit(packages[0]).result(timeout=300.0)
            repeat = server.submit(packages[0]).result(timeout=300.0)
            snapshot = server.stats.snapshot()
        assert first.transport == "queue"
        assert repeat.transport == "cache" and repeat.cached
        assert np.array_equal(first.image, repeat.image)
        assert snapshot["response_transport"] == {"cache": 1, "queue": 1}


# --------------------------------------------------------------------------- #
# the shard response channel
# --------------------------------------------------------------------------- #
class TestResponseFraming:
    @pytest.mark.parametrize("image", [
        np.random.default_rng(1).random((5, 7, 3)),
        np.arange(12, dtype=np.float32).reshape(3, 4)[:, ::2],  # not contiguous
        np.empty((0, 3)),
        None,  # a request frame: container bytes instead of pixels
    ], ids=["rgb-float64", "strided-float32", "empty", "request-container"])
    def test_pixels_arrive_bit_exact_and_writable(self, image, packages):
        reader, writer = socket.socketpair()
        with reader, writer:
            if image is None:
                blob = pack_package(packages[0])
                _send_frame(writer, ("req", 7, "decode", 12.5, len(blob)), blob)
            else:
                _send_frame(writer, ("ok", 1, 7, image.shape, str(image.dtype), "w"), image)
            long_message = "bad bytes " * 100  # runs on past the header block
            _send_frame(writer, ("err", 1, 8, "ValueError", long_message))
            _send_frame(writer, ("err", 1, 9, "ValueError", "bad bytes"))
            if image is None:
                tag, request_id, kind, deadline_s, received = _recv_frame(reader)
                assert (tag, request_id, kind, deadline_s) == ("req", 7, "decode", 12.5)
                assert received == blob
                assert pack_package(unpack_package(received)) == blob
            else:
                tag, index, request_id, received, worker = _recv_frame(reader)
                assert (tag, index, request_id, worker) == ("ok", 1, 7, "w")
                assert received.dtype == image.dtype
                assert np.array_equal(received, image)
                assert received.flags.writeable
            assert _recv_frame(reader) == ("err", 1, 8, "ValueError", long_message)
            assert _recv_frame(reader) == ("err", 1, 9, "ValueError", "bad bytes")

    def test_writer_gone_mid_response_is_eof(self):
        reader, writer = socket.socketpair()
        with reader:
            _send_frame(writer, ("ok", 0, 1, (64, 64), "float64", "w"))
            writer.sendall(bytes(100))  # a fraction of the 32 KiB of pixels
            writer.close()
            with pytest.raises(EOFError):
                _recv_frame(reader)


# --------------------------------------------------------------------------- #
# sharded server end-to-end
# --------------------------------------------------------------------------- #
class TestShardedCompressionServer:
    def test_reconstruct_matches_threaded_reference(self, serve_config, serve_model,
                                                    packages, decoder):
        references = [decoder.decode(package) for package in packages]
        with _sharded(serve_model, serve_config) as server:
            pendings = [server.submit(package) for package in packages]
            responses = [pending.result(timeout=300.0) for pending in pendings]
        for response, reference in zip(responses, references):
            assert response.image.shape == reference.shape
            assert np.abs(response.image - reference).max() < 1e-5
            assert response.worker.startswith("shard-")

    def test_responses_ride_the_shard_socket(self, serve_config, serve_model,
                                             packages, decoder):
        references = [decoder.decode(package) for package in packages]
        with _sharded(serve_model, serve_config) as server:
            pendings = [server.submit(package) for package in packages]
            responses = [pending.result(timeout=300.0) for pending in pendings]
            snapshot = server.stats.snapshot()
        for response, reference in zip(responses, references):
            assert response.transport == "queue"  # the shard's own socket
            assert np.abs(response.image - reference).max() < 1e-5
            assert response.image.flags.writeable  # caller owns its pixels
        assert snapshot["response_transport"] == {"queue": len(packages)}
        assert "shm" not in snapshot

    def test_shm_keywords_are_gone(self, serve_config, serve_model):
        for keyword, value in (("use_shm", False), ("shm_slots", 4),
                               ("shm_slot_bytes", 1024)):
            with pytest.raises(TypeError, match=keyword):
                _sharded(serve_model, serve_config, **{keyword: value})

    def test_decode_kind_is_bit_exact(self, serve_config, serve_model, packages,
                                      decoder):
        reference = decoder.decode(packages[0], reconstruct=False)
        with _sharded(serve_model, serve_config) as server:
            response = server.submit(packages[0], kind="decode").result(timeout=300.0)
        assert response.transport == "queue"
        assert np.array_equal(response.image, reference)

    def test_submit_bytes_over_the_wire(self, serve_config, serve_model, packages):
        with _sharded(serve_model, serve_config) as server:
            response = server.submit_bytes(pack_package(packages[0])).result(timeout=300.0)
        assert response.config_summary["base_codec"] == "jpeg-q75"
        assert response.image.shape == packages[0].original_shape

    def test_consistent_routing_keeps_a_key_on_one_shard(self, serve_config,
                                                         serve_model, packages):
        with _sharded(serve_model, serve_config) as server:
            shards = set()
            for _ in range(4):  # sequential singles: never past the spill threshold
                response = server.submit(packages[0]).result(timeout=300.0)
                shards.add(response.worker.split("/")[0])
        assert len(shards) == 1

    def test_predicted_shard_depth_is_a_live_shard(self, serve_config,
                                                   serve_model, packages):
        with _sharded(serve_model, serve_config) as server:
            server.submit(packages[0]).result(timeout=300.0)
            index, depth = server.predicted_shard_depth(packages[0])
            assert index in server.live_shard_indices()
            assert depth >= 0

    def test_corrupt_request_fails_alone(self, serve_config, serve_model, packages):
        import dataclasses
        healthy = packages[0]
        corrupt_payload = dataclasses.replace(
            healthy.codec_payload,
            payload=healthy.codec_payload.payload[:12] + b"\xff" * 6)
        corrupt = dataclasses.replace(healthy, codec_payload=corrupt_payload)
        with _sharded(serve_model, serve_config) as server:
            pending_corrupt = server.submit(corrupt)
            pending_healthy = server.submit(healthy)
            good = pending_healthy.result(timeout=300.0)
            with pytest.raises(ValueError):
                pending_corrupt.result(timeout=300.0)
            snapshot = server.stats.snapshot()
        assert good.image.shape == healthy.original_shape
        assert snapshot["failed"] >= 1

    def test_admission_rejects_synchronously_when_window_full(self, serve_config,
                                                              serve_model, packages):
        server = _sharded(serve_model, serve_config, num_shards=1, queue_depth=1)
        admitted, rejected = [], 0
        with server:
            for _ in range(30):
                try:
                    admitted.append(server.submit(packages[0]))
                except ServerOverloadedError:
                    rejected += 1
            for pending in admitted:
                pending.result(timeout=300.0)
            snapshot = server.stats.snapshot()
        assert rejected > 0
        assert snapshot["rejected"] == rejected
        assert snapshot["submitted"] == len(admitted)

    def test_stats_aggregate_across_shards(self, serve_config, serve_model, packages):
        with _sharded(serve_model, serve_config) as server:
            pendings = [server.submit(package) for package in packages * 2]
            for pending in pendings:
                pending.result(timeout=300.0)
            snapshot = server.stats.snapshot()
        assert snapshot["num_shards"] == 2
        assert snapshot["completed"] == len(pendings)
        assert snapshot["submitted"] == len(pendings)
        assert sum(size * count for size, count
                   in snapshot["batch_size_histogram"].items()) == len(pendings)
        assert len(snapshot["shards"]) == 2
        # one plan/codec cache entry per shard process, not per worker
        assert sorted(snapshot["caches"]) == ["shard-0/server", "shard-1/server"]

    def test_restart_shard_in_place(self, serve_config, serve_model, packages):
        with _sharded(serve_model, serve_config) as server:
            server.submit(packages[0]).result(timeout=300.0)
            completed_before = server.stats.snapshot()["completed"]
            old_process = server._backends[0].process
            server.restart_shard(0)
            assert not old_process.is_alive()
            assert server._backends[0].process.pid != old_process.pid
            # the retired generation's counters survive the restart
            assert server.stats.snapshot()["completed"] == completed_before
            response = server.submit(packages[0]).result(timeout=300.0)
        assert response.image.shape == packages[0].original_shape

    @pytest.mark.parametrize("graceful", [True, False], ids=["graceful", "forced"])
    def test_restart_leaves_one_new_reader(self, serve_config, serve_model, packages,
                                           graceful):
        with _sharded(serve_model, serve_config) as server:
            old = server._backends[1]._reader
            server.restart_shard(1, graceful=graceful)
            readers = [thread for thread in threading.enumerate()
                       if thread.name == "shard-1-reader"]
            response = server.submit(packages[0]).result(timeout=300.0)
        assert len(readers) == 1
        assert readers[0] is not old and not old.is_alive()
        assert response.image.shape == packages[0].original_shape

    def test_an_unreadable_response_fails_alone(self, serve_config, serve_model, packages,
                                                decoder, monkeypatch):
        """A response whose settlement raises fails its own request with
        ShardFailedError; the shard's reader goes on to serve the next one."""
        import dataclasses
        healthy = packages[0]
        corrupt = dataclasses.replace(healthy, codec_payload=dataclasses.replace(
            healthy.codec_payload, payload=healthy.codec_payload.payload[:12] + b"\xff" * 6))
        reference = decoder.decode(healthy, reconstruct=False)
        rebuild, calls = sharding._rebuild_error, []

        def raise_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("garbled error frame")
            return rebuild(*args)

        with _sharded(serve_model, serve_config, num_shards=1) as server:
            monkeypatch.setattr(sharding, "_rebuild_error", raise_once)
            with pytest.raises(ShardFailedError, match="unreadable response from shard 0"):
                server.submit(corrupt).result(timeout=300.0)
            response = server.submit(healthy, kind="decode").result(timeout=300.0)
        assert len(calls) == 1
        assert np.array_equal(response.image, reference)

    def test_hard_restart_keeps_the_pool_serving(self, serve_config, serve_model,
                                                 packages):
        with _sharded(serve_model, serve_config) as server:
            server.submit(packages[0]).result(timeout=300.0)
            server.restart_shard(0, graceful=False)
            response = server.submit(packages[0]).result(timeout=300.0)
        assert response.image.shape == packages[0].original_shape

    def test_pool_stats_count_every_completion_across_restarts(
            self, serve_config, serve_model, packages):
        # completions are counted where they settle, so neither a forced
        # restart nor a SIGKILL the watchdog repairs can drop them
        served = 0
        with _sharded(serve_model, serve_config, queue_depth=128) as server:
            def burst():
                nonlocal served
                pendings = [server.submit(package) for package in packages * 2]
                for pending in pendings:
                    try:
                        pending.result(timeout=120.0)
                        served += 1
                    except ShardFailedError:
                        pass

            burst()
            server.restart_shard(1, graceful=False)
            burst()
            victim = server._backends[0]
            old_pid = victim.process.pid
            victim.process.kill()
            deadline = time.perf_counter() + 60.0
            while not (victim.is_alive() and victim.process.pid != old_pid):
                assert time.perf_counter() < deadline, "watchdog never restarted the shard"
                time.sleep(0.05)
            burst()
            snapshot = server.stats.snapshot()
        assert served > 0
        assert snapshot["watchdog"]["restarts_total"] >= 1
        assert snapshot["completed"] == served
        # every completion came out of a batch the shards counted
        assert sum(size * count for size, count
                   in snapshot["batch_size_histogram"].items()) >= served

    @pytest.mark.parametrize("num_shards", [0, 2])
    def test_latency_percentiles_come_from_settled_responses(
            self, serve_config, serve_model, packages, num_shards):
        # the front door records the very latency it puts in each response,
        # so the pool percentiles are percentiles of those, not an average
        if num_shards:
            server = _sharded(serve_model, serve_config, num_shards=num_shards)
        else:
            server = CompressionServer(model=serve_model, config=serve_config,
                                       num_workers=1)
        with server:
            pendings = [server.submit(package) for package in packages * 3]
            latencies = [pending.result(timeout=300.0).latency_s for pending in pendings]
            snapshot = server.stats.snapshot()
        assert snapshot["completed"] == len(latencies)
        assert snapshot["latency_p50_ms"] == pytest.approx(
            np.percentile(latencies, 50) * 1e3, rel=1e-12)
        assert snapshot["latency_p99_ms"] == pytest.approx(
            np.percentile(latencies, 99) * 1e3, rel=1e-12)

    @pytest.mark.parametrize("num_shards", [0, 1])
    def test_backlog_is_served_one_frame_per_call(
            self, serve_config, serve_model, packages, decoder, num_shards):
        # hold the worker, queue four same-key requests behind it, release
        # it: each request is served on its own, never coalesced, and each
        # response is exactly what the library decoder returns
        if num_shards:
            server = _sharded(serve_model, serve_config, num_shards=num_shards)
        else:
            server = CompressionServer(model=serve_model, config=serve_config,
                                       num_workers=1)
            release = threading.Event()
            pop = server.pool.queue.pop

            def held_pop(timeout=None):
                release.wait()
                return pop(timeout=timeout)

            server.pool.queue.pop = held_pop
        with server:
            if num_shards:
                pid = server.shard_process(0).pid
                os.kill(pid, signal.SIGSTOP)
            try:
                pendings = [server.submit(package) for package in packages]
            finally:
                if num_shards:
                    os.kill(pid, signal.SIGCONT)
                else:
                    release.set()
            responses = [pending.result(timeout=300.0) for pending in pendings]
            snapshot = server.stats.snapshot()
        assert snapshot["batches"] == snapshot["completed"] == len(packages) == 4
        assert snapshot["batch_size_histogram"] == {1: 4}
        for package, response in zip(packages, responses):
            assert np.array_equal(response.image, decoder.decode(package))

    def test_crashed_shard_fails_or_reroutes_in_flight_futures(self, serve_config,
                                                               serve_model, packages):
        # a shard killed outside restart_shard() must not strand its callers
        # until their own result() timeout: the watchdog's reaper either
        # re-routes the request to a live shard or fails it promptly
        with _sharded(serve_model, serve_config) as server:
            server.submit(packages[0]).result(timeout=300.0)  # warm both paths
            victim = server._backends[0]
            pendings = [server.submit(package) for package in packages]
            victim.process.kill()
            outcomes = {"served": 0, "failed": 0}
            started = time.perf_counter()
            for pending in pendings:
                try:
                    pending.result(timeout=60.0)
                    outcomes["served"] += 1
                except ShardFailedError:
                    outcomes["failed"] += 1
            elapsed = time.perf_counter() - started
            assert outcomes["served"] + outcomes["failed"] == len(pendings)
            assert elapsed < 30.0, "crashed shard stranded futures until timeout"
            # the surviving shard keeps serving
            response = server.submit(packages[0]).result(timeout=300.0)
            assert response.image.shape == packages[0].original_shape

    def test_draining_shard_receives_no_new_work(self, serve_config, serve_model,
                                                 packages):
        # regression: a shard mid-drain is still is_alive() but has stopped
        # reading its request queue; routing to it stranded requests until
        # the restart timeout
        with _sharded(serve_model, serve_config) as server:
            home = server._route_locked(server._batch_key(packages[0], "reconstruct"))
            server._backends[home].draining = True
            rerouted = server._route_locked(server._batch_key(packages[0], "reconstruct"))
            assert rerouted != home
            response = server.submit(packages[0]).result(timeout=300.0)
            assert response.worker.startswith(f"shard-{rerouted}")
            server._backends[home].draining = False

    def test_graceful_restart_under_concurrent_traffic(self, serve_config,
                                                       serve_model, packages):
        with _sharded(serve_model, serve_config) as server:
            server.submit(packages[0]).result(timeout=300.0)  # warm
            stop_submitting = threading.Event()
            outcomes = []
            errors = []

            def submitter():
                while not stop_submitting.is_set():
                    try:
                        outcomes.append(server.submit(packages[0]).result(timeout=300.0))
                    except ServerOverloadedError:
                        pass
                    except Exception as error:  # noqa: BLE001 - fails the test
                        errors.append(error)
                        return
            thread = threading.Thread(target=submitter)
            thread.start()
            try:
                time.sleep(0.05)
                started = time.perf_counter()
                server.restart_shard(0, graceful=True, timeout=60.0)
                restart_s = time.perf_counter() - started
            finally:
                stop_submitting.set()
                thread.join(timeout=60.0)
            response = server.submit(packages[0]).result(timeout=300.0)
        assert not thread.is_alive()
        assert not errors, f"traffic failed during graceful restart: {errors[:3]}"
        assert outcomes, "no traffic flowed during the restart"
        assert restart_s < 30.0, "graceful restart burned its drain timeout"
        assert response.image.shape == packages[0].original_shape

    def test_package_codec_reaches_the_shards(self, serve_config, serve_model):
        # a shard decodes with the codec each package names, resolved
        # through the registry: no server-side codec is configured
        codec = JpegCodec(quality=30)
        package = EaszEncoder(serve_config, codec, seed=1).encode(
            np.random.default_rng(1).random((48, 64, 3)))
        reference = EaszDecoder(model=serve_model, config=serve_config,
                                base_codec=codec).decode(package, reconstruct=False)
        with _sharded(serve_model, serve_config, num_shards=1) as server:
            response = server.submit(package, kind="decode").result(timeout=300.0)
            caches = server.stats.snapshot()["caches"]["shard-0/server"]
        assert response.config_summary["base_codec"] == "jpeg-q30"
        assert np.array_equal(response.image, reference)
        assert {cache["name"]: cache["size"] for cache in caches}["codecs"] == 1

    def test_start_after_stop_reopens_admission(self, serve_config, serve_model,
                                                packages):
        # regression: stop() left _closed set, so a restarted pool rejected
        # every submit with QueueClosedError while leaking idle shards
        server = _sharded(serve_model, serve_config, num_shards=1)
        with server:
            server.submit(packages[0]).result(timeout=300.0)
        with pytest.raises(QueueClosedError):
            server.submit(packages[0])
        server.start()
        try:
            response = server.submit(packages[0]).result(timeout=300.0)
            assert response.image.shape == packages[0].original_shape
        finally:
            server.stop(timeout=300.0)

    def test_submit_requires_started_server(self, serve_config, serve_model, packages):
        server = _sharded(serve_model, serve_config)
        with pytest.raises(RuntimeError, match="not started"):
            server.submit(packages[0])

    def test_rejects_unknown_kind_and_bad_config(self, serve_config, serve_model,
                                                 packages):
        with pytest.raises(ValueError, match="num_shards"):
            ShardedCompressionServer(model=serve_model, config=serve_config,
                                     num_shards=0)
        with _sharded(serve_model, serve_config, num_shards=1) as server, \
                pytest.raises(ValueError, match="kind"):
            server.submit(packages[0], kind="transcode")

    def test_stop_of_crashed_pool_is_prompt(self, serve_config, serve_model, packages):
        # a shard killed just before stop() must not make shutdown sleep out
        # the whole drain deadline waiting for responses that can never come
        server = _sharded(serve_model, serve_config)
        server.start()
        server.submit(packages[0]).result(timeout=300.0)
        pendings = [server.submit(package) for package in packages]
        for shard in server._backends:
            shard.process.kill()
        started = time.perf_counter()
        server.stop(timeout=60.0)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, "stop() burned its drain deadline on a crashed pool"
        for pending in pendings:
            assert pending.done()
            with pytest.raises((ShardFailedError, QueueClosedError)):
                pending.result(timeout=0.0)

    def test_stop_drains_no_stranded_futures(self, serve_config, serve_model, packages):
        """Sharded shutdown: every submitted future resolves or gets a
        QueueClosedError — nothing left blocking forever."""
        server = _sharded(serve_model, serve_config)
        server.start()
        pendings = [server.submit(package) for package in packages * 3]
        server.stop(timeout=300.0)
        outcomes = {"ok": 0, "closed": 0}
        for pending in pendings:
            assert pending.done(), "stop() left a stranded PendingResult"
            try:
                pending.result(timeout=0.0)
                outcomes["ok"] += 1
            except QueueClosedError:
                outcomes["closed"] += 1
        assert outcomes["ok"] + outcomes["closed"] == len(pendings)
        with pytest.raises(QueueClosedError):
            server.submit(packages[0])


# --------------------------------------------------------------------------- #
# admission queue close/drain races (sharded shutdown path)
# --------------------------------------------------------------------------- #
class TestAdmissionQueueCloseRaces:
    def test_close_wakes_blocked_popper(self):
        queue = AdmissionQueue()
        results = []
        thread = threading.Thread(target=lambda: results.append(queue.pop(timeout=30.0)))
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert results == [None]

    def test_concurrent_close_and_put_storm_strands_nothing(self):
        queue = AdmissionQueue()
        admitted, refused = [], []

        def submitter(tag):
            try:
                queue.put(tag)
                admitted.append(tag)
            except QueueClosedError:
                refused.append(tag)

        threads = [threading.Thread(target=submitter, args=(index,))
                   for index in range(16)]
        for thread in threads:
            thread.start()
        time.sleep(0.02)
        queue.close()
        for thread in threads:
            thread.join(timeout=5.0)
        assert all(not thread.is_alive() for thread in threads)
        assert len(admitted) + len(refused) == 16
        drained = []
        while True:
            item = queue.pop(timeout=0.0)
            if item is None:
                break
            drained.append(item)
        assert sorted(drained) == sorted(admitted)


# --------------------------------------------------------------------------- #
# Poisson replay: failure collection, NaN reporting, M/D/c bridge
# --------------------------------------------------------------------------- #
class _AlwaysRejectingServer:
    """Stub whose admission queue is permanently full."""

    parallelism = 1

    def __init__(self):
        self.stats = ServerStats()

    def submit(self, package, kind="reconstruct", deadline_s=None):
        self.stats.record_rejected()
        raise ServerOverloadedError("queue at capacity")


class TestLoadGeneratorFixes:
    """The retired load generator's reporting fixes, re-asserted on one-tenant
    Poisson scenarios (:func:`repro.serve.scenarios.poisson_scenario`)."""

    def test_one_failed_request_does_not_lose_the_report(self, serve_config,
                                                         serve_model, packages,
                                                         poisson_run):
        import dataclasses
        healthy = packages[0]
        corrupt_payload = dataclasses.replace(
            healthy.codec_payload,
            payload=healthy.codec_payload.payload[:12] + b"\xff" * 6)
        corrupt = dataclasses.replace(healthy, codec_payload=corrupt_payload)
        with CompressionServer(model=serve_model, config=serve_config,
                               num_workers=1, queue_depth=64) as server:
            report, tenant = poisson_run(server, [healthy, corrupt], rate_rps=50.0,
                                         requests=6, seed=5)
        # every other arrival cycles onto the corrupt frame: counted, not raised
        assert tenant.offered >= 2
        assert tenant.graceful_rejections == tenant.offered // 2
        assert tenant.completed == tenant.offered - tenant.offered // 2
        assert tenant.latency_p50_ms > 0  # surviving latencies still reported
        assert tenant.completed + tenant.graceful_rejections == tenant.offered
        assert report.ok()

    def test_zero_completions_reports_nan_not_fake_zero(self, packages, poisson_run):
        report, tenant = poisson_run(_AlwaysRejectingServer(), packages[:1],
                                     rate_rps=100.0, requests=5, seed=6,
                                     warmup=False)
        assert tenant.offered > 0
        assert report.completed == 0
        assert tenant.admission_rejected == tenant.offered
        assert report.saturated  # everything rejected == overload by definition
        assert math.isnan(tenant.latency_p50_ms)
        assert math.isnan(tenant.latency_p99_ms)
        assert math.isnan(report.service_time_per_image_ms)
        assert math.isnan(report.utilisation)

    def test_cache_absorbed_run_reports_zero_wait_not_nan(self, serve_config,
                                                          serve_model, packages,
                                                          poisson_run):
        # a static scene fully served from the result cache did not queue at
        # all: utilisation and latency are genuinely zero, not "no data"
        with CompressionServer(model=serve_model, config=serve_config,
                               num_workers=1, result_cache_size=8) as server:
            # warmup populates the cache with the single distinct frame
            report, tenant = poisson_run(server, packages[:1], rate_rps=100.0,
                                         requests=4, seed=8)
            snapshot = server.stats.snapshot()
        assert tenant.offered > 0
        assert report.completed == tenant.offered
        assert snapshot["completed_cached"] == tenant.offered
        assert not report.saturated
        assert report.utilisation == 0.0
        assert tenant.latency_p50_ms == tenant.latency_p99_ms == 0.0

    def test_sharded_observed_wait_tracks_mdc_prediction(self, serve_config,
                                                         serve_model, packages,
                                                         poisson_run):
        # the sharded analogue of the M/D/1 light-load bracket: at low
        # utilisation both the observed wait and the M/D/c prediction sit far
        # below the per-image service time, with c = num_shards
        rate_rps = 4.0
        with _sharded(serve_model, serve_config, queue_depth=64) as server:
            report, tenant = poisson_run(server, packages[:2], rate_rps=rate_rps,
                                         requests=6, seed=4)
            snapshot = server.stats.snapshot()
        assert report.servers == 2
        assert not report.saturated
        assert report.utilisation < 0.5
        service_s = report.service_time_per_image_ms / 1e3
        assert md_c_wait_s(rate_rps, service_s, 2) < service_s
        assert md_c_wait_s(rate_rps, service_s, 2) <= md_c_wait_s(rate_rps, service_s, 1)
        assert snapshot["queue_wait_mean_ms"] < tenant.latency_mean_ms
        assert "on 2 server(s)" in report.headline()


# --------------------------------------------------------------------------- #
# snapshot aggregation
# --------------------------------------------------------------------------- #
class TestAggregateSnapshots:
    def test_counters_add(self):
        a = ServerStats()
        a.record_service(0.01, service_seconds=0.02)
        a.record_service(0.01, service_seconds=0.03)
        a.record_completed(0.1, "inline")
        a.record_completed(0.1, "inline")
        b = ServerStats()
        b.record_service(0.02, service_seconds=0.04)
        b.record_completed(0.3, "queue")
        merged = aggregate_snapshots([a.snapshot(), b.snapshot()])
        assert merged["completed"] == 3
        assert merged["batches"] == 3
        assert merged["service_seconds_total"] == pytest.approx(0.09)
        assert merged["queue_wait_seconds_total"] == pytest.approx(0.04)
        assert merged["response_transport"] == {"inline": 2, "queue": 1}
        # percentiles do not add: none are produced
        assert "latency_p50_ms" not in merged
        assert len(merged["shards"]) == 2

    def test_empty_is_well_formed(self):
        merged = aggregate_snapshots([])
        assert merged["completed"] == 0
        assert merged["shards"] == []
