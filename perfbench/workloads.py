"""The benchmark workloads: a threaded server and a sharded pool under load.

Each workload builds its inputs from the seed, checks its outputs against
an in-process reference, and can run in two modes:

* :meth:`Workload.run` — the untraced, timed loop that gives the
  end-to-end metrics;
* :meth:`Workload.trace` — a short untraced phase (the overhead baseline)
  followed by a traced phase with a span around every call the benchmark
  makes into a layer; afterwards it composes the layer calls an operation
  makes internally and asserts the composed result equals the operation's
  own output.

Metric semantics, the layer table and the reasons for each workload are in
``NOTES.md`` next to this file.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.codecs import JpegCodec
from repro.core import (EaszCompressed, EaszDecoder, EaszEncoder,
                        deserialize_mask, get_squeeze_plan, pack_package,
                        proposed_mask, reconstruct_batch, reconstruct_image,
                        serialize_mask, unpack_package)
from repro.image import to_float
from repro.serve import CompressionServer, ShardedCompressionServer

from harness import Meter, mean, percentile
from inputs import (SCENES, bench_config, bits_per_pixel, crop_frame, kept_pixels, mix,
                    psnr_db)

#: Every per-layer metric and its unit; a workload reports 0 for layers it
#: never reaches.
PER_LAYER = {
    "mask.sample_ms_mean": "ms",
    "squeeze.plan_ms_mean": "ms",
    "squeeze.repeat_mask_share": "ratio",
    "jpeg.encode_ms_mean": "ms",
    "transport.pack_ms_mean": "ms",
    "transport.unpack_ms_mean": "ms",
    "jpeg.decode_ms_mean": "ms",
    "squeeze.unsqueeze_ms_mean": "ms",
    "reconstruct.batch_ms_per_image": "ms",
    "reconstruct.image_ms_mean": "ms",
    "admission.submit_us_p50": "us",
    "admission.rejected_ratio": "ratio",
    "batcher.queue_wait_ms_mean": "ms",
    "batcher.batch_size_mean": "count",
    "batcher.singleton_share": "ratio",
    "worker.service_ms_mean": "ms",
    "worker.busy_ratio": "ratio",
    "worker.plan_hit_ratio": "ratio",
    "worker.codec_hit_ratio": "ratio",
    "sharding.shm_share": "ratio",
    "sharding.redispatched": "count",
    "serve.unaccounted_ms_mean": "ms",
    "trace.e2e_ms_mean": "ms",
    "trace.layer_sum_ms_mean": "ms",
    "trace.unaccounted_ms_mean": "ms",
    "trace.overhead_ratio": "ratio",
    "loadgen.lateness_ms_p90": "ms",
}

#: Share of a traced run spent in the untraced baseline phase.
BASELINE_SHARE = 1.0 / 3.0
#: Tolerance for reconstructed pixels (float32 engine vs reference paths).
RECON_TOL = 1e-5
#: Longest wait for an open loop's outstanding requests once sending stops.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class Outcome:
    """What one timed loop observed, at the client."""

    latencies_s: list
    sent: int
    failed: int
    elapsed_s: float
    cpu_s: float
    rss_mb: float
    #: Input index behind each latency sample (same order).
    keys: list = field(default_factory=list)
    lateness_s: list = field(default_factory=list)
    #: Mask bytes of every request a traced loop submitted.
    masks: list = field(default_factory=list)

    @property
    def succeeded(self):
        return self.sent - self.failed


def _plan_layer(tracer, parent, request, mask, config):
    with tracer.span("squeeze.plan", parent, request):
        return get_squeeze_plan(mask, config.subpatch_size).require_patch_size(
            config.patch_size)


def compose_encode(tracer, parent, request, frame, level, quality, seed):
    """``EaszEncoder(seed=seed).encode`` + ``pack_package`` as layer calls, spanned."""
    config = bench_config(level)
    encoder = EaszEncoder(config, JpegCodec(quality=quality), seed=seed)
    grid = config.patch_size // config.subpatch_size
    with tracer.span("mask.sample", parent, request):
        mask = proposed_mask(grid, level, config.intra_row_min_distance, 0,
                             rng=np.random.default_rng(seed))
        mask_bytes = serialize_mask(mask)
    plan = _plan_layer(tracer, parent, request, mask, config)
    # the encoder converts the frame to float before the codec converts it again
    with tracer.span("image.to_float", parent, request):
        image = to_float(frame)
    with tracer.span("jpeg.encode", parent, request):
        compressed, grid_shape, squeezed_shape = encoder.base_codec.compress_squeezed(image, plan)
    # the encoder's own settings echo, so the container can match byte for byte
    package = EaszCompressed(compressed, mask_bytes, grid_shape, image.shape, squeezed_shape,
                             encoder._config_summary())
    with tracer.span("transport.pack", parent, request):
        return pack_package(package)


def compose_decode(tracer, parent, request, package, codec, config):
    """``EaszDecoder.decode(reconstruct=False)`` as its layer calls, spanned."""
    with tracer.span("mask.deserialize", parent, request):
        mask = deserialize_mask(package.mask_bytes)
    plan = _plan_layer(tracer, parent, request, mask, config)
    spatial = tuple(package.original_shape[:2])
    filled = None
    if len(package.original_shape) == 2:
        with tracer.span("jpeg.decode", parent, request):
            filled = codec.decompress_unsqueezed(package.codec_payload, plan, spatial)
    if filled is None:
        with tracer.span("jpeg.decode", parent, request):
            squeezed = codec.decompress(package.codec_payload)
        with tracer.span("squeeze.unsqueeze", parent, request):
            padded = tuple(size + (-size) % config.patch_size for size in spatial)
            filled = plan.unsqueeze_image(
                np.clip(squeezed, 0.0, 1.0), package.grid_shape,
                padded + tuple(package.original_shape[2:]))[:spatial[0], :spatial[1], ...]
    return mask, filled


def overhead_ratio(baseline, traced):
    """Traced over untraced mean latency, minus one.

    Both arguments are ``(input index, latency)`` pairs; means are matched
    per input so that a different mix of inputs in the two phases cancels.
    """
    groups = (defaultdict(list), defaultdict(list))
    for group, pairs in zip(groups, (baseline, traced)):
        for key, value in pairs:
            group[key].append(value)
    shared = groups[0].keys() & groups[1].keys()
    untraced = sum(mean(groups[0][key]) for key in shared)
    return sum(mean(groups[1][key]) for key in shared) / untraced - 1.0 if untraced else 0.0


def _repeat_share(masks):
    """Share of requests whose mask an earlier request already carried."""
    return 1.0 - len(set(masks)) / len(masks) if masks else 0.0


class Workload:
    """Common shape: seeded inputs, a server, a timed loop, a traced loop."""

    name = ""
    #: Fixed latency limit (ms) behind ``slo_attainment``.
    slo_ms = 0.0

    def __init__(self, seed, model, bank):
        self.model = model
        self.rng = np.random.default_rng(seed)
        self.bank = bank
        self.psnr_db = 0.0
        self.bpp = 0.0
        self.server = None
        self.prepare()

    def prepare(self):
        raise NotImplementedError

    @staticmethod
    def service(model):
        """Build and start the server this workload measures."""
        raise NotImplementedError

    def start(self):
        """Start the server and warm it up on every container."""
        raise NotImplementedError

    def stop(self):
        if self.server is not None:
            self.server.stop()

    def run(self, seconds):
        raise NotImplementedError

    def trace(self, seconds, tracer):
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# server workloads
# --------------------------------------------------------------------------- #
def _snapshot_delta(before, after):
    """Exact serve-side totals accumulated between two ``stats.snapshot()`` calls."""
    delta = {key: after[key] - before[key]
             for key in ("completed", "batches", "queue_wait_seconds_total",
                         "service_seconds_total", "rejected")}
    histogram = Counter({int(k): v for k, v in after["batch_size_histogram"].items()})
    histogram.subtract({int(k): v for k, v in before["batch_size_histogram"].items()})
    delta["histogram"] = {size: count for size, count in histogram.items() if count > 0}
    transports = Counter(after["response_transport"])
    transports.subtract(before["response_transport"])
    delta["transports"] = transports
    hits = Counter()
    for snapshot, sign in ((after, 1), (before, -1)):
        for stats in snapshot["caches"].values():
            for cache in stats:
                kind = "codec" if cache["name"] == "codecs" else "plan"
                hits[(kind, "hits")] += sign * cache["hits"]
                hits[(kind, "lookups")] += sign * (cache["hits"] + cache["misses"])
    delta["caches"] = hits
    delta["shard_submitted"] = (sum(shard["submitted"] for shard in after.get("shards", []))
                                - sum(shard["submitted"] for shard in before.get("shards", [])))
    delta["submitted"] = after["submitted"] - before["submitted"]
    return delta


def _serve_layers(delta, wall_s, channels, latencies_ms, submit_us):
    """Per-layer serve metrics from snapshot deltas plus client-side spans."""
    completed = max(delta["completed"], 1)
    batches = max(delta["batches"], 1)
    queue_wait = delta["queue_wait_seconds_total"] / completed * 1e3
    service = delta["service_seconds_total"] / batches * 1e3
    caches = delta["caches"]
    transports = delta["transports"]
    return {
        "admission.submit_us_p50": percentile(submit_us, 50),
        "batcher.queue_wait_ms_mean": queue_wait,
        "batcher.batch_size_mean": delta["completed"] / batches,
        "batcher.singleton_share": delta["histogram"].get(1, 0) / batches,
        "worker.service_ms_mean": service,
        "worker.busy_ratio": delta["service_seconds_total"] / (wall_s * channels),
        "worker.plan_hit_ratio": caches[("plan", "hits")] / max(caches[("plan", "lookups")], 1),
        "worker.codec_hit_ratio": (caches[("codec", "hits")]
                                   / max(caches[("codec", "lookups")], 1)),
        "sharding.shm_share": transports.get("shm", 0) / max(sum(transports.values()), 1),
        "serve.unaccounted_ms_mean": mean(latencies_ms) - queue_wait - service,
    }


class ServeReconstruct(Workload):
    name = "serve-reconstruct"
    slo_ms = 600.0
    CAMERAS = 3
    FRAMES_PER_CAMERA = 4
    LEVELS = (1, 2)
    WORKERS = 1

    def prepare(self):
        rng = self.rng
        config = bench_config()
        decoder = EaszDecoder(model=self.model, config=config)
        self.containers, self.references = [], []
        psnr, bpp = [], []
        for (level,) in mix(rng, self.CAMERAS, self.LEVELS):
            encoder = EaszEncoder(bench_config(level), JpegCodec(quality=75),
                                  seed=int(rng.integers(2**31)))
            mask = encoder.generate_mask()
            frames = [crop_frame(self.bank, rng, scene, 256, 256, True)
                      for scene in rng.permutation(self.FRAMES_PER_CAMERA) % len(SCENES)]
            packages = encoder.encode_batch(frames, mask=mask)
            for frame, package, image in zip(frames, packages,
                                             decoder.decode_batch(packages)):
                blob = pack_package(package)
                self.containers.append(blob)
                self.references.append(image)
                psnr.append(psnr_db(frame, image))
                bpp.append(bits_per_pixel(blob, frame.shape))
        self.psnr_db, self.bpp = mean(psnr), mean(bpp)
        self.clients = len(os.sched_getaffinity(0))
        self.client_seeds = [int(rng.integers(2**31)) for _ in range(self.clients)]

    @staticmethod
    def service(model):
        return CompressionServer(model=model, config=bench_config(),
                                 num_workers=ServeReconstruct.WORKERS).start()

    def start(self):
        self.server = self.service(self.model)
        for blob in self.containers:  # warm-up: caches, engine weights, BLAS pools
            self.server.submit_bytes(blob).result(timeout=120)

    def _client(self, index, seconds_left, result, tracer):
        rng = np.random.default_rng(self.client_seeds[index])
        order = rng.permutation(len(self.containers))
        latencies, keys, masks, submit_us, failed, count = [], [], [], [], 0, 0
        deadline = time.perf_counter() + seconds_left
        while time.perf_counter() < deadline:
            which = int(order[count % len(order)])
            request = (index, count)
            count += 1
            begin = time.perf_counter()
            try:
                if tracer is None:
                    pending = self.server.submit_bytes(self.containers[which])
                    image = pending.result(timeout=120).image
                else:
                    root = tracer.new_id()
                    start = time.perf_counter_ns()
                    with tracer.span("transport.unpack", root, request):
                        package = unpack_package(self.containers[which])
                    masks.append(package.mask_bytes)
                    submitted = time.perf_counter_ns()
                    pending = self.server.submit(package)
                    submit_us.append((time.perf_counter_ns() - submitted) / 1e3)
                    tracer.record("admission.submit", submitted, time.perf_counter_ns(),
                                  root, request)
                    with tracer.span("serve.wait", root, request):
                        image = pending.result(timeout=120).image
                    tracer.record("op", start, time.perf_counter_ns(), None, request,
                                  span_id=root)
            except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
                failed += 1
                continue
            elapsed = time.perf_counter() - begin
            # a wrong image is a failed operation: it adds no latency sample
            if float(np.max(np.abs(image - self.references[which]))) > RECON_TOL:
                failed += 1
                continue
            latencies.append(elapsed)
            keys.append(which)
        result.update(latencies=latencies, keys=keys, masks=masks, submit_us=submit_us,
                      failed=failed, sent=count, finished=time.perf_counter())

    def _closed_loop(self, seconds, tracer=None):
        """All clients for ``seconds``; returns the pooled outcome and submit times."""
        results = [{} for _ in range(self.clients)]
        threads = [threading.Thread(target=self._client, args=(i, seconds, results[i], tracer))
                   for i in range(self.clients)]
        meter = Meter()
        meter.start()
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = max(result["finished"] for result in results) - started

        def pooled(key):
            return [value for result in results for value in result[key]]

        outcome = Outcome(pooled("latencies"), sum(r["sent"] for r in results),
                          sum(r["failed"] for r in results), elapsed, meter.cpu_seconds(),
                          meter.peak_rss_mb(), pooled("keys"), masks=pooled("masks"))
        return outcome, pooled("submit_us")

    def run(self, seconds):
        return self._closed_loop(seconds)[0]

    def trace(self, seconds, tracer):
        baseline, _ = self._closed_loop(seconds * BASELINE_SHARE)
        before = self.server.stats.snapshot()
        outcome, submit_us = self._closed_loop(seconds * (1.0 - BASELINE_SHARE), tracer)
        delta = _snapshot_delta(before, self.server.stats.snapshot())
        latencies_ms = [value * 1e3 for value in outcome.latencies_s]
        layers = _serve_layers(delta, outcome.elapsed_s, self.WORKERS, latencies_ms, submit_us)
        failed = outcome.failed + self._trace_engine(tracer, delta["histogram"], layers)
        e2e = mean(latencies_ms)
        unpack = mean(tracer.durations_ms("transport.unpack"))
        layer_sum = (unpack + mean(submit_us) / 1e3 + layers["batcher.queue_wait_ms_mean"]
                     + layers["worker.service_ms_mean"])
        layers.update({
            "transport.unpack_ms_mean": unpack,
            "admission.rejected_ratio": delta["rejected"] / max(outcome.sent, 1),
            "squeeze.repeat_mask_share": _repeat_share(outcome.masks),
            "trace.e2e_ms_mean": e2e,
            "trace.layer_sum_ms_mean": layer_sum,
            "trace.unaccounted_ms_mean": e2e - layer_sum,
            "trace.overhead_ratio": overhead_ratio(zip(baseline.keys, baseline.latencies_s),
                                                   zip(outcome.keys, outcome.latencies_s)),
        })
        return outcome.sent + baseline.sent, failed + baseline.failed, layers

    def _trace_engine(self, tracer, histogram, layers):
        """Compose decode + ``reconstruct_batch`` at the observed batch sizes.

        Also times ``reconstruct_image``, the library path's per-image
        inference (``EaszDecoder.decode``), on the same frames.  Runs after
        the traced phase so it never competes with the server.  Returns the
        number of composed outputs that miss the references.
        """
        config = bench_config()
        jpeg = JpegCodec(quality=75)
        failed = 0
        per_image, weights = [], []
        frames_per_camera = self.FRAMES_PER_CAMERA
        for camera in range(self.CAMERAS):
            rows = range(camera * frames_per_camera, (camera + 1) * frames_per_camera)
            filled = []
            for row in rows:
                mask, image = compose_decode(tracer, None, ("engine", row),
                                             unpack_package(self.containers[row]), jpeg, config)
                filled.append(image)
                with tracer.span("reconstruct.image", None, ("engine", row)):
                    output = reconstruct_image(self.model, image, mask)
                failed += float(np.max(np.abs(output - self.references[row]))) > RECON_TOL
            for size, count in sorted(histogram.items()):
                batch = [filled[i % len(filled)] for i in range(size)]
                begin = time.perf_counter()
                outputs = reconstruct_batch(self.model, batch, mask)
                per_image.append((time.perf_counter() - begin) * 1e3 / size)
                weights.append(size * count)
                for i, output in enumerate(outputs):
                    reference = self.references[rows[i % len(rows)]]
                    failed += float(np.max(np.abs(output - reference))) > RECON_TOL
        layers["reconstruct.batch_ms_per_image"] = (
            float(np.average(per_image, weights=weights)) if per_image else 0.0)
        layers["reconstruct.image_ms_mean"] = mean(tracer.durations_ms("reconstruct.image"))
        layers["jpeg.decode_ms_mean"] = mean(tracer.durations_ms("jpeg.decode"))
        layers["squeeze.unsqueeze_ms_mean"] = mean(tracer.durations_ms("squeeze.unsqueeze"))
        return failed


class ShardedDecode(Workload):
    name = "sharded-decode"
    #: Open-loop arrival rate (requests/s), about a sixth of the pool's
    #: closed-loop capacity (see NOTES.md).
    RATE = 6.0
    #: Near the top of the recorded latency distribution, so attainment sits
    #: just below 1 and falls as the slow tail grows (see NOTES.md).
    slo_ms = 60.0
    #: A run whose generator p90 lateness exceeds this is invalid, not slow.
    LATENESS_LIMIT_MS = 20.0
    SHARDS = 2
    #: The ragged class's frame size: odd, so never block-aligned, and fixed,
    #: so the work per request does not change with the seed.
    RAGGED = (295, 311)
    PER_CLASS = 12
    LEVELS = (1, 2, 3)
    QUALITIES = (60, 90)

    def prepare(self):
        rng = self.rng
        self.containers, self.references, self.sources = [], [], []
        psnr, bpp = [], []
        for (height, width), color in (((256, 256), False), ((256, 256), True),
                                       (self.RAGGED, True)):
            for level, quality, scene in mix(rng, self.PER_CLASS, self.LEVELS,
                                             self.QUALITIES, range(len(SCENES))):
                frame = crop_frame(self.bank, rng, scene, height, width, color)
                seed = int(rng.integers(2**31))
                encoder = EaszEncoder(bench_config(level), JpegCodec(quality=quality), seed=seed)
                package = encoder.encode(frame)
                blob = pack_package(package)
                decoder = EaszDecoder(config=bench_config(),
                                      base_codec=JpegCodec(quality=quality))
                image = decoder.decode(package, reconstruct=False)
                kept = kept_pixels(deserialize_mask(package.mask_bytes), bench_config(),
                                   frame.shape)
                self.containers.append(blob)
                self.references.append(image)
                self.sources.append((frame, level, quality, seed))
                psnr.append(psnr_db(frame, image, kept))
                bpp.append(bits_per_pixel(blob, frame.shape))
        self.psnr_db, self.bpp = mean(psnr), mean(bpp)
        self.schedule_seed = int(rng.integers(2**31))

    @staticmethod
    def service(model):
        return ShardedCompressionServer(model=model, config=bench_config(),
                                        num_shards=ShardedDecode.SHARDS).start()

    def start(self):
        self.server = self.service(self.model)
        warm = [self.server.submit_bytes(blob, kind="decode") for blob in self.containers]
        for pending in warm:
            pending.result(timeout=120)

    def _schedule(self, seconds, salt):
        """Seeded Poisson arrivals: a fixed count, uniformly placed in the window.

        The count is rounded to whole passes over the pool and each pass
        sends every container once, so the class mix is the same every run.
        """
        rng = np.random.default_rng([self.schedule_seed, salt])
        pool = len(self.containers)
        passes = max(1, int(round(self.RATE * seconds / pool)))
        due = np.sort(rng.uniform(0.0, seconds, size=passes * pool))
        order = np.concatenate([rng.permutation(pool) for _ in range(passes)])
        return due, order

    def _open_loop(self, seconds, salt, tracer=None):
        due, order = self._schedule(seconds, salt)
        count = len(due)
        done = [None] * count
        bad = [False] * count
        lateness, submit_us, masks = [], [], []
        outstanding = threading.Semaphore(0)

        def on_done(i, which, root):
            def callback(pending):
                finished = time.perf_counter()
                try:
                    image = pending.result(timeout=0).image
                    bad[i] = not np.array_equal(image, self.references[which])
                except Exception:  # noqa: BLE001 - failed request, counted below
                    bad[i] = True
                done[i] = finished
                if tracer is not None:
                    tracer.record("request", int(due_at[i] * 1e9), int(finished * 1e9),
                                  None, i, span_id=root)
                outstanding.release()
            return callback

        meter = Meter(self.server.shard_process(index).pid for index in range(self.SHARDS))
        meter.start()
        origin = time.perf_counter() + 0.05
        due_at = origin + due
        submitted = 0
        for i in range(count):
            delay = due_at[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent_at = time.perf_counter()
            lateness.append(sent_at - due_at[i])
            which = int(order[i])
            root = tracer.new_id() if tracer is not None else None
            try:
                if tracer is None:
                    pending = self.server.submit_bytes(self.containers[which], kind="decode")
                else:
                    with tracer.span("transport.unpack", root, i):
                        package = unpack_package(self.containers[which])
                    masks.append(package.mask_bytes)
                    begin = time.perf_counter_ns()
                    pending = self.server.submit(package, kind="decode")
                    submit_us.append((time.perf_counter_ns() - begin) / 1e3)
                    tracer.record("admission.submit", begin, time.perf_counter_ns(), root, i)
            except Exception:  # noqa: BLE001 - refused request: a miss, counted below
                bad[i] = True
                continue
            submitted += 1
            pending.add_done_callback(on_done(i, which, root))
        give_up = time.perf_counter() + DRAIN_TIMEOUT_S
        for _ in range(submitted):
            if not outstanding.acquire(timeout=max(give_up - time.perf_counter(), 0.0)):
                break
        finished = [t for t in done if t is not None]
        elapsed = (max(finished) if finished else time.perf_counter()) - origin
        served = [i for i in range(count) if done[i] is not None and not bad[i]]
        return Outcome([done[i] - due_at[i] for i in served], count, count - len(served),
                       elapsed, meter.cpu_seconds(), meter.peak_rss_mb(),
                       [int(order[i]) for i in served], lateness, masks), submit_us

    def run(self, seconds):
        return self._open_loop(seconds, 0)[0]

    def trace(self, seconds, tracer):
        baseline, _ = self._open_loop(seconds * BASELINE_SHARE, 1)
        before = self.server.stats.snapshot()
        outcome, submit_us = self._open_loop(seconds * (1.0 - BASELINE_SHARE), 2, tracer)
        delta = _snapshot_delta(before, self.server.stats.snapshot())
        latencies_ms = [value * 1e3 for value in outcome.latencies_s]
        layers = _serve_layers(delta, outcome.elapsed_s, self.SHARDS, latencies_ms, submit_us)
        failed = outcome.failed
        # after the open loop, compose in-process the edge encode that made each
        # container and the shard-side decode that serves it
        config = bench_config()
        codecs = {quality: JpegCodec(quality=quality) for quality in self.QUALITIES}
        for index, (frame, level, quality, seed) in enumerate(self.sources):
            request = ("compose", index)
            root = tracer.new_id()
            start = time.perf_counter_ns()
            blob = compose_encode(tracer, root, request, frame, level, quality, seed)
            tracer.record("encode", start, time.perf_counter_ns(), None, request, span_id=root)
            failed += blob != self.containers[index]
            _, image = compose_decode(tracer, None, request, unpack_package(blob),
                                      codecs[quality], config)
            failed += not np.array_equal(image, self.references[index])
        e2e = mean(latencies_ms)
        unpack = mean(tracer.durations_ms("transport.unpack"))
        layer_sum = (unpack + mean(submit_us) / 1e3 + layers["batcher.queue_wait_ms_mean"]
                     + layers["worker.service_ms_mean"])
        layers.update({
            "transport.unpack_ms_mean": unpack,
            "mask.sample_ms_mean": mean(tracer.durations_ms("mask.sample")),
            "squeeze.repeat_mask_share": _repeat_share(outcome.masks),
            "jpeg.encode_ms_mean": mean(tracer.durations_ms("jpeg.encode")),
            "transport.pack_ms_mean": mean(tracer.durations_ms("transport.pack")),
            "jpeg.decode_ms_mean": mean(tracer.durations_ms("jpeg.decode")),
            "squeeze.unsqueeze_ms_mean": mean(tracer.durations_ms("squeeze.unsqueeze")),
            "squeeze.plan_ms_mean": mean(tracer.durations_ms("squeeze.plan")),
            "admission.rejected_ratio": delta["rejected"] / max(outcome.sent, 1),
            "sharding.redispatched": max(delta["shard_submitted"] - delta["submitted"], 0),
            "trace.e2e_ms_mean": e2e,
            "trace.layer_sum_ms_mean": layer_sum,
            "trace.unaccounted_ms_mean": e2e - layer_sum,
            "trace.overhead_ratio": overhead_ratio(zip(baseline.keys, baseline.latencies_s),
                                                   zip(outcome.keys, outcome.latencies_s)),
            "loadgen.lateness_ms_p90": percentile(outcome.lateness_s, 90) * 1e3,
        })
        return outcome.sent + baseline.sent, failed + baseline.failed, layers


WORKLOADS = {workload.name: workload for workload in (ServeReconstruct, ShardedDecode)}
