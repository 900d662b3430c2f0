"""Tests for the ``repro.serve`` micro-batching service layer."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.codecs import JpegCodec
from repro.core import EaszConfig, EaszDecoder, EaszEncoder, EaszReconstructor
from repro.serve import (
    AdmissionQueue,
    CompressionServer,
    LRUCache,
    MicroBatcher,
    QueueClosedError,
    ServerOverloadedError,
    ServerStats,
)
from repro.edge import md_c_wait_s
from repro.experiments.cli import main as cli_main


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
    images = [rng.random((48, 64, 3)) for _ in range(4)] \
        + [rng.random((32, 32)) for _ in range(3)]
    return encoder.encode_batch(images, mask=mask)


# --------------------------------------------------------------------------- #
# LRU cache
# --------------------------------------------------------------------------- #
class TestLRUCache:
    def test_hit_miss_accounting_and_eviction(self):
        cache = LRUCache(capacity=2, name="plans")
        loads = []
        cache.get("a", lambda: loads.append("a") or 1)
        cache.get("a", lambda: loads.append("a2") or 2)
        cache.get("b", lambda: loads.append("b") or 3)
        cache.get("c", lambda: loads.append("c") or 4)  # evicts "a"
        cache.get("a", lambda: loads.append("a3") or 5)
        assert loads == ["a", "b", "c", "a3"]
        assert cache.hits == 1 and cache.misses == 4 and cache.evictions == 2
        assert 0.0 < cache.hit_rate < 1.0
        stats = cache.stats()
        assert stats["name"] == "plans" and stats["size"] == 2

    def test_lru_order_refreshes_on_hit(self):
        cache = LRUCache(capacity=2)
        cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
        cache.get("a", lambda: 0)  # refresh "a"
        cache.get("c", lambda: 3)  # should evict "b", not "a"
        assert "a" in cache and "b" not in cache

    def test_caches_none_values(self):
        cache = LRUCache(capacity=2)
        calls = []
        cache.get("k", lambda: calls.append(1))
        cache.get("k", lambda: calls.append(2))
        assert calls == [1]
        assert cache.hits == 1


# --------------------------------------------------------------------------- #
# admission queue
# --------------------------------------------------------------------------- #
class TestAdmissionQueue:
    def test_reject_policy_raises_when_full(self):
        queue = AdmissionQueue(max_depth=2, policy="reject")
        queue.put("a")
        queue.put("b")
        with pytest.raises(ServerOverloadedError):
            queue.put("c")
        assert queue.depth == 2

    def test_block_policy_times_out(self):
        queue = AdmissionQueue(max_depth=1, policy="block", put_timeout=0.05)
        queue.put("a")
        started = time.perf_counter()
        with pytest.raises(ServerOverloadedError):
            queue.put("b")
        assert time.perf_counter() - started >= 0.04

    def test_block_policy_admits_when_space_frees(self):
        queue = AdmissionQueue(max_depth=1, policy="block", put_timeout=2.0)
        queue.put("a")
        threading.Timer(0.02, queue.pop).start()
        assert queue.put("b") == 1

    def test_closed_queue_rejects_and_wakes(self):
        queue = AdmissionQueue(max_depth=4)
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.put("a")
        assert queue.pop(timeout=0.01) is None

    def test_take_matching_preserves_other_order(self):
        queue = AdmissionQueue(max_depth=8)
        for item in ["a1", "b1", "a2", "b2", "a3"]:
            queue.put(item)
        taken = queue.take_matching(lambda item: item.startswith("a"), limit=2)
        assert taken == ["a1", "a2"]
        remaining = [queue.pop(timeout=0.01) for _ in range(queue.depth)]
        assert remaining == ["b1", "b2", "a3"]


# --------------------------------------------------------------------------- #
# micro-batcher
# --------------------------------------------------------------------------- #
class _FakeRequest:
    def __init__(self, key, tag):
        self.batch_key = key
        self.tag = tag


class TestMicroBatcher:
    def test_groups_by_key_and_respects_cap(self):
        queue = AdmissionQueue(max_depth=16)
        batcher = MicroBatcher(queue, max_batch_size=3)
        for index in range(4):
            queue.put(_FakeRequest("k1", index))
        queue.put(_FakeRequest("k2", 99))
        batch = batcher.next_batch(timeout=0.01)
        assert [request.tag for request in batch] == [0, 1, 2]
        batch = batcher.next_batch(timeout=0.01)
        assert [request.tag for request in batch] == [3]
        batch = batcher.next_batch(timeout=0.01)
        assert [request.tag for request in batch] == [99]

    def test_idle_returns_none(self):
        queue = AdmissionQueue(max_depth=4)
        batcher = MicroBatcher(queue, max_batch_size=4)
        assert batcher.next_batch(timeout=0.01) is None

    def test_rejects_empty_batch_cap(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(AdmissionQueue(max_depth=4), max_batch_size=0)

    @pytest.mark.parametrize("cap", [1, 2, 3, 8])
    def test_never_waits_after_the_first_pop(self, monkeypatch, cap):
        """A batch is the queued same-key requests only: once the first
        request is popped, nothing may sleep or block for later arrivals."""
        queue = AdmissionQueue(max_depth=16)
        tags = [("a", 0), ("b", 1), ("a", 2), ("c", 3), ("a", 4), ("b", 5), ("a", 6)]
        for key, tag in tags:
            queue.put(_FakeRequest(key, tag))
        pop = queue.pop
        popped = []

        def pop_once(timeout=None):
            popped.append(True)
            return pop(timeout=timeout)

        real_sleep = time.sleep
        batcher_thread = threading.current_thread()

        def forbidden(*args, **kwargs):
            if popped and threading.current_thread() is batcher_thread:
                raise AssertionError("the batcher waited after its first pop")
            if args and isinstance(args[0], (int, float)):
                real_sleep(args[0])

        monkeypatch.setattr(queue, "pop", pop_once)
        monkeypatch.setattr(time, "sleep", forbidden)
        # raising=False: the queue no longer offers a blocking wait to patch
        monkeypatch.setattr(AdmissionQueue, "wait_nonempty", forbidden, raising=False)
        batch = MicroBatcher(queue, max_batch_size=cap).next_batch(timeout=0.01)
        same_key = [tag for key, tag in tags if key == "a"][:cap]
        assert [request.tag for request in batch] == same_key
        assert len(popped) == 1
        remaining = [pop(timeout=0.0).tag for _ in range(queue.depth)]
        assert remaining == [tag for _key, tag in tags if tag not in same_key]


# --------------------------------------------------------------------------- #
# telemetry
# --------------------------------------------------------------------------- #
class TestServerStats:
    def test_snapshot_percentiles_and_histogram(self):
        stats = ServerStats()
        stats.record_submitted()
        stats.record_queue_depth(3)
        stats.record_batch(2, queue_waits=[0.01, 0.02], latencies=[0.05, 0.15],
                           service_seconds=0.04)
        stats.record_batch(1, queue_waits=[0.0], latencies=[0.1], service_seconds=0.02)
        snapshot = stats.snapshot()
        assert snapshot["completed"] == 3
        assert snapshot["batch_size_histogram"] == {1: 1, 2: 1}
        assert snapshot["queue_depth_peak"] == 3
        assert snapshot["latency_p50_ms"] == pytest.approx(100.0)
        assert snapshot["latency_p99_ms"] <= 150.0 + 1e-6
        assert snapshot["service_seconds_total"] == pytest.approx(0.06)
        assert snapshot["mean_batch_size"] == pytest.approx(1.5)


# --------------------------------------------------------------------------- #
# end-to-end server
# --------------------------------------------------------------------------- #
class TestCompressionServer:
    def test_concurrent_submits_no_lost_or_duplicated_responses(
            self, serve_config, serve_model, packages):
        server = CompressionServer(
            model=serve_model, config=serve_config, num_workers=2, queue_depth=256,
            max_batch_size=4)
        decoder = EaszDecoder(model=serve_model, config=serve_config,
                              base_codec=JpegCodec(quality=75))
        results = {}
        errors = []
        repeats = 3

        def client(thread_id):
            try:
                pendings = []
                for repeat in range(repeats):
                    for index, package in enumerate(packages):
                        pendings.append(((repeat, index), server.submit(package)))
                for key, pending in pendings:
                    results[(thread_id, key)] = pending.result(timeout=120.0)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        with server:
            threads = [threading.Thread(target=client, args=(t,)) for t in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300.0)
            snapshot = server.stats.snapshot()

        assert not errors
        # every submission answered exactly once: 3 threads x repeats x packages
        assert len(results) == 3 * repeats * len(packages)
        request_ids = [response.request_id for response in results.values()]
        assert len(set(request_ids)) == len(request_ids)
        references = [decoder.decode(package) for package in packages]
        for (_thread_id, (_repeat, index)), response in results.items():
            assert response.image.shape == references[index].shape
            assert np.abs(response.image - references[index]).max() < 1e-5
        assert snapshot["completed"] == len(results)
        assert snapshot["failed"] == 0
        assert sum(size * count for size, count
                   in snapshot["batch_size_histogram"].items()) == len(results)
        # one entry per server, not per worker: the process-wide plan cache
        # and the server's codec cache
        caches = {cache["name"]: cache for cache in snapshot["caches"]["server"]}
        assert set(caches) == {"squeeze_plans", "codecs"}
        assert caches["codecs"]["hits"] > 0
        assert caches["squeeze_plans"]["hits"] > 0

    def test_decode_kind_matches_decoder_exactly(self, serve_config, serve_model, packages):
        decoder = EaszDecoder(model=serve_model, config=serve_config,
                              base_codec=JpegCodec(quality=75))
        with CompressionServer(model=serve_model, config=serve_config,
                               num_workers=1) as server:
            response = server.submit(packages[0], kind="decode").result(timeout=60.0)
        reference = decoder.decode(packages[0], reconstruct=False)
        assert np.array_equal(response.image, reference)

    def test_submit_bytes_echoes_config_summary(self, serve_config, serve_model, packages):
        from repro.core import pack_package
        with CompressionServer(model=serve_model, config=serve_config,
                               num_workers=1) as server:
            response = server.submit_bytes(pack_package(packages[0])).result(timeout=60.0)
        assert response.config_summary["base_codec"] == "jpeg-q75"
        assert response.config_summary["patch_size"] == serve_config.patch_size

    def test_admission_control_rejects_burst(self, serve_config, serve_model, packages):
        server = CompressionServer(model=serve_model, config=serve_config,
                                   num_workers=1, queue_depth=1,
                                   max_batch_size=1)
        admitted, rejected = [], 0
        with server:
            for _ in range(30):
                try:
                    admitted.append(server.submit(packages[0]))
                except ServerOverloadedError:
                    rejected += 1
            for pending in admitted:
                pending.result(timeout=60.0)
            snapshot = server.stats.snapshot()
        assert rejected > 0
        assert snapshot["rejected"] == rejected
        assert snapshot["completed"] == len(admitted)

    def test_corrupt_request_fails_alone_not_its_batch_mates(
            self, serve_config, serve_model, packages):
        import dataclasses
        healthy = packages[0]
        corrupt_payload = dataclasses.replace(
            healthy.codec_payload,
            payload=healthy.codec_payload.payload[:12] + b"\xff" * 6)
        corrupt = dataclasses.replace(healthy, codec_payload=corrupt_payload)
        # same mask/shape/codec -> both requests coalesce into one batch; the
        # worker is held back until both are queued, since the batcher only
        # takes what is already waiting
        server = CompressionServer(model=serve_model, config=serve_config,
                                   num_workers=1, max_batch_size=4)
        both_queued = threading.Event()
        next_batch = server.batcher.next_batch
        formed = []

        def gated_next_batch(timeout=0.1):
            both_queued.wait()
            batch = next_batch(timeout=timeout)
            if batch:
                formed.append(len(batch))
            return batch

        server.batcher.next_batch = gated_next_batch
        with server:
            pending_corrupt = server.submit(corrupt)
            pending_healthy = server.submit(healthy)
            both_queued.set()
            good = pending_healthy.result(timeout=120.0)
            with pytest.raises(ValueError):
                pending_corrupt.result(timeout=120.0)
            snapshot = server.stats.snapshot()
        assert formed[0] == 2
        assert good.image.shape == healthy.original_shape
        assert good.batch_size == 1  # the corrupt batch-mate dropped out alone
        assert snapshot["failed"] == 1

    def test_stop_rejects_stranded_requests(self, serve_config, serve_model, packages):
        from repro.serve import QueueClosedError
        server = CompressionServer(model=serve_model, config=serve_config, num_workers=1)
        server.start()
        server.stopping = True  # workers drain and exit on their next idle poll
        for worker in server.workers:
            worker.join(timeout=30.0)
        stranded = server.submit(packages[0])  # queue still open: admitted
        server.stop()
        with pytest.raises(QueueClosedError):
            stranded.result(timeout=5.0)

    def test_submit_requires_started_server(self, serve_config, serve_model, packages):
        server = CompressionServer(model=serve_model, config=serve_config)
        with pytest.raises(RuntimeError, match="not started"):
            server.submit(packages[0])

    def test_rejects_unknown_kind(self, serve_config, serve_model, packages):
        with CompressionServer(model=serve_model, config=serve_config) as server, \
                pytest.raises(ValueError, match="kind"):
            server.submit(packages[0], kind="transcode")

    def test_codec_for_parses_registry_names(self, serve_config, serve_model):
        server = CompressionServer(model=serve_model, config=serve_config)
        codec = server.codec_for("jpeg-q30")
        assert codec.name == "jpeg-q30"
        assert server.codec_for("jpeg-q30") is codec  # cached prototype
        assert server.codec_for("png").name == "png"  # quality-less names
        assert server.codec_for("bpg-qp32").name == "bpg-qp32"
        assert server.codec_for(server.base_codec.name) is server.base_codec

    def test_codec_for_rejects_unresolvable_names(self, serve_config, serve_model):
        # decoding with mismatched tables would be silently wrong; must raise
        server = CompressionServer(model=serve_model, config=serve_config)
        with pytest.raises(ValueError, match="cannot resolve"):
            server.codec_for("no-such-codec")
        with pytest.raises(ValueError, match="cannot resolve"):
            server.codec_for("jpeg")  # bare family name, quality unknown

    def test_codec_prototype_cache_is_bounded(self, serve_config, serve_model):
        server = CompressionServer(model=serve_model, config=serve_config)
        for quality in range(1, server._codec_prototypes_max + 10):
            server.codec_for(f"jpeg-q{quality}")
        assert len(server._codec_prototypes) <= server._codec_prototypes_max + 1
        # the configured fallback codec is never evicted
        assert server.base_codec.name in server._codec_prototypes


# --------------------------------------------------------------------------- #
# Poisson replay + M/D/1 validation (one-tenant scenarios)
# --------------------------------------------------------------------------- #
class TestPoissonLoadGenerator:
    """The checks of the retired Poisson load generator, run through
    :func:`run_scenario` with a one-tenant Poisson spec."""

    def test_replay_serves_everything_and_reports(self, serve_config, serve_model,
                                                  packages, poisson_run):
        with CompressionServer(model=serve_model, config=serve_config,
                               num_workers=1, queue_depth=256,
                               max_batch_size=4) as server:
            report, tenant = poisson_run(server, packages[:4], rate_rps=20.0,
                                         requests=12, seed=3)
        assert report.offered > 0
        assert report.completed == report.submitted == report.offered
        assert tenant.admission_rejected == 0
        assert tenant.latency_p99_ms >= tenant.latency_p50_ms > 0
        assert report.service_time_per_image_ms > 0
        assert 0 <= report.utilisation
        assert report.ok() and report.headline()

    def test_md1_prediction_brackets_light_load(self, serve_config, serve_model,
                                                packages, poisson_run):
        # at very light load both the observed wait and the M/D/1 prediction
        # must be far below the service time (sanity of the congestion bridge)
        rate_rps = 4.0
        with CompressionServer(model=serve_model, config=serve_config,
                               num_workers=1, queue_depth=64) as server:
            report, tenant = poisson_run(server, packages[:2], rate_rps=rate_rps,
                                         requests=6, seed=4)
            snapshot = server.stats.snapshot()
        assert report.servers == 1
        assert not report.saturated
        assert report.utilisation < 0.5
        service_s = report.service_time_per_image_ms / 1e3
        assert md_c_wait_s(rate_rps, service_s, 1) < service_s
        assert np.isfinite(tenant.predicted_wait_ms_mean)
        assert snapshot["queue_wait_mean_ms"] < tenant.latency_mean_ms

    def test_rejects_empty_and_bad_rate(self, capsys):
        # a bad replay fails fast, before the model is built
        for flags in (["--images", "0"], ["--rate", "0"], ["--requests", "0"]):
            assert cli_main(["serve-bench"] + flags) == 2
            assert "error" in capsys.readouterr().err
