"""Tests for the ``repro.serve`` service layer."""

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
# admission queue
# --------------------------------------------------------------------------- #
class TestAdmissionQueue:
    def test_closed_queue_rejects_and_wakes(self):
        queue = AdmissionQueue()
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.put("a")
        assert queue.pop(timeout=0.01) is None


# --------------------------------------------------------------------------- #
# telemetry
# --------------------------------------------------------------------------- #
class TestServerStats:
    def test_snapshot_percentiles_and_histogram(self):
        stats = ServerStats()
        stats.record_submitted()
        stats.record_queue_depth(3)
        stats.record_service(0.01, service_seconds=0.02)
        stats.record_service(0.02, service_seconds=0.02)
        stats.record_service(0.0, service_seconds=0.02)
        for latency in (0.05, 0.15, 0.1):
            stats.record_completed(latency, "inline")
        snapshot = stats.snapshot()
        assert snapshot["completed"] == 3
        # one service is a batch of one
        assert snapshot["batches"] == 3
        assert snapshot["batch_size_histogram"] == {1: 3}
        assert snapshot["queue_depth_peak"] == 3
        assert snapshot["latency_p50_ms"] == pytest.approx(100.0)
        assert snapshot["latency_p99_ms"] <= 150.0 + 1e-6
        assert snapshot["service_seconds_total"] == pytest.approx(0.06)
        assert snapshot["service_time_mean_ms"] == pytest.approx(20.0)
        assert snapshot["queue_wait_mean_ms"] == pytest.approx(10.0)
        assert snapshot["response_transport"] == {"inline": 3}

    def test_busy_time_counts_overlapping_batches_once(self, monkeypatch):
        stats = ServerStats()
        finish_times = iter([10.0, 12.0, 20.0])
        monkeypatch.setattr(time, "perf_counter", lambda: next(finish_times))
        stats.record_service(0.0, service_seconds=5.0)  # 5..10
        stats.record_service(0.0, service_seconds=4.0)  # 8..12
        stats.record_service(0.0, service_seconds=1.0)  # 19..20
        counters = stats.counters()
        assert counters["service_seconds_total"] == pytest.approx(10.0)
        assert counters["busy_seconds_total"] == pytest.approx(8.0)


# --------------------------------------------------------------------------- #
# end-to-end server
# --------------------------------------------------------------------------- #
class TestCompressionServer:
    def test_concurrent_submits_no_lost_or_duplicated_responses(
            self, serve_config, serve_model, packages):
        server = CompressionServer(
            model=serve_model, config=serve_config, num_workers=2, queue_depth=256)
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
            assert np.array_equal(response.image, references[index])
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
                                   num_workers=1, queue_depth=1)
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
        # the worker is held until the corrupt request and a healthy one
        # with the same mask/shape/codec are both in its backlog
        server = CompressionServer(model=serve_model, config=serve_config,
                                   num_workers=1)
        both_queued = threading.Event()
        pop = server.pool.queue.pop

        def held_pop(timeout=None):
            both_queued.wait()
            return pop(timeout=timeout)

        server.pool.queue.pop = held_pop
        with server:
            pending_corrupt = server.submit(corrupt)
            pending_healthy = server.submit(healthy)
            both_queued.set()
            good = pending_healthy.result(timeout=120.0)
            with pytest.raises(ValueError):
                pending_corrupt.result(timeout=120.0)
            snapshot = server.stats.snapshot()
        reference = EaszDecoder(model=serve_model, config=serve_config).decode(healthy)
        assert np.array_equal(good.image, reference)
        assert snapshot["failed"] == 1
        assert snapshot["completed"] == 1

    def test_stop_rejects_stranded_requests(self, serve_config, serve_model, packages):
        from repro.serve import QueueClosedError
        server = CompressionServer(model=serve_model, config=serve_config, num_workers=1)
        server.start()
        server.pool.stopping = True  # workers drain and exit on their next idle poll
        for worker in server.pool.workers:
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
        pool = CompressionServer(model=serve_model, config=serve_config).pool
        codec = pool.codec_for("jpeg-q30")
        assert codec.name == "jpeg-q30"
        assert pool.codec_for("jpeg-q30") is codec  # cached prototype
        assert pool.codec_for("png").name == "png"  # quality-less names
        assert pool.codec_for("bpg-qp32").name == "bpg-qp32"

    def test_codec_for_rejects_unresolvable_names(self, serve_config, serve_model):
        # decoding with mismatched tables would be silently wrong; must raise
        pool = CompressionServer(model=serve_model, config=serve_config).pool
        with pytest.raises(ValueError, match="cannot resolve"):
            pool.codec_for("no-such-codec")
        with pytest.raises(ValueError, match="cannot resolve"):
            pool.codec_for("jpeg")  # bare family name, quality unknown

    def test_codec_prototype_cache_is_bounded(self, serve_config, serve_model):
        from repro.serve.worker import _CODEC_CACHE_MAX
        pool = CompressionServer(model=serve_model, config=serve_config).pool
        for quality in range(1, _CODEC_CACHE_MAX + 10):
            pool.codec_for(f"jpeg-q{quality}")
        assert len(pool._codec_prototypes) == _CODEC_CACHE_MAX
        # the least recently used names go first
        assert "jpeg-q1" not in pool._codec_prototypes
        assert f"jpeg-q{_CODEC_CACHE_MAX + 9}" in pool._codec_prototypes


# --------------------------------------------------------------------------- #
# Poisson replay + M/D/1 validation (one-tenant scenarios)
# --------------------------------------------------------------------------- #
class TestPoissonLoadGenerator:
    """The checks of the retired Poisson load generator, run through
    :func:`run_scenario` with a one-tenant Poisson spec."""

    def test_replay_serves_everything_and_reports(self, serve_config, serve_model,
                                                  packages, poisson_run):
        with CompressionServer(model=serve_model, config=serve_config,
                               num_workers=1, queue_depth=256) as server:
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
