"""The in-process backend: a FIFO, the micro-batcher and worker threads.

:class:`ThreadPoolBackend` runs behind a server's front door (the threaded
:class:`~repro.serve.server.CompressionServer`) or directly inside a shard
process of :class:`~repro.serve.sharding.ShardedCompressionServer`.  A
:class:`ServeWorker` pulls a batch from the batcher, entropy-decodes and
unsqueezes it through :meth:`repro.core.EaszDecoder._unsqueeze_many` and
reconstructs it through :func:`repro.core.reconstruct_batch`, the same
engine the library path uses.  Squeeze plans come from the process-wide
:func:`repro.core.erase_squeeze.get_squeeze_plan` cache and base codecs from
the backend's bounded :meth:`ThreadPoolBackend.codec_for` cache.  The
reconstruction model is shared read-only across workers (inference only
touches immutable weights plus per-call buffers).

Every request leaves through the backend's ``settle`` callable, exactly
once: ``settle(request_id, image=..., batch_size=..., worker=...)`` with the
pixels, or ``settle(request_id, error=...)``.
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict

from ..codecs.jpeg import JpegCodec
from ..codecs.registry import create_codec
from ..core.erase_squeeze import get_squeeze_plan
from ..core.masks import deserialize_mask
from ..core.pipeline import EaszDecoder
from ..core.reconstruction import reconstruct_batch
from .batcher import MicroBatcher
from .queueing import (AdmissionQueue, DeadlineExceededError, QueueClosedError,
                       deadline_expired)
from .telemetry import ServerStats

__all__ = ["ServeWorker", "ThreadPoolBackend"]

_CODEC_NAME_PATTERN = re.compile(r"^(?P<base>[a-z0-9-]+?)-qp?(?P<quality>\d+)$")


class ServeWorker(threading.Thread):
    """One serving thread: pulls batches from the batcher, settles requests."""

    def __init__(self, backend, index):
        super().__init__(name=f"serve-worker-{index}", daemon=True)
        self._backend = backend
        self.index = index
        self.batches_processed = 0
        self.images_processed = 0

    def _process_batch(self, batch):
        backend = self._backend
        # last-chance deadline shed: drop anything already expired before
        # paying for the decode
        batch = [request for request in batch if not backend.shed_if_expired(request)]
        if not batch:
            return
        started = time.perf_counter()
        mask = deserialize_mask(batch[0].package.mask_bytes)
        codec = backend.codec_for(batch[0].package.codec_payload.codec_name)
        # the batched unsqueeze entropy-decodes per request (one corrupt
        # payload fails only its own future; healthy batch-mates keep going)
        # but runs a single fused IDCT across the whole micro-batch
        decoded = backend.decoder._unsqueeze_many(
            [request.package for request in batch], [mask] * len(batch),
            codec=codec, collect_errors=True)
        survivors = []
        filled = []
        for request, result in zip(batch, decoded):
            if isinstance(result, Exception):
                backend.settle(request.request_id, error=result)
            else:
                survivors.append(request)
                filled.append(result)
        if not survivors:
            return
        if survivors[0].kind == "reconstruct":
            outputs = reconstruct_batch(backend.model, filled, mask)
        else:
            outputs = filled
        finished = time.perf_counter()
        # counters first: whoever sees a settled response sees its batch too
        backend.stats.record_batch(
            len(survivors), [started - request.submitted_at for request in survivors],
            finished - started)
        self.batches_processed += 1
        self.images_processed += len(survivors)
        for request, image in zip(survivors, outputs):
            backend.settle(request.request_id, image=image,
                           batch_size=len(survivors), worker=self.name)

    # ------------------------------------------------------------------ #
    def run(self):
        backend = self._backend
        while True:
            batch = backend.batcher.next_batch(timeout=0.05)
            if batch is None:
                if backend.stopping:
                    return
                continue
            try:
                self._process_batch(batch)
            except Exception as error:  # noqa: BLE001 - settle the batch, keep serving
                for request in batch:
                    backend.settle(request.request_id, error=error)


class ThreadPoolBackend:
    """FIFO + :class:`MicroBatcher` + :class:`ServeWorker` threads in-process.

    Owns the decoder, the bounded base-codec cache (:meth:`codec_for`) and
    the batch, queue-wait, service and cache counters (:meth:`counters`).
    ``settle`` is called once per request with its outcome; a request that
    settles twice is a bug of the backend, not of the caller.
    """

    label = "server"

    def __init__(self, model, config, settle, base_codec=None, num_workers=2,
                 queue_depth=64, max_batch_size=8):
        self.model = model
        self.config = config
        self.settle = settle
        self.base_codec = base_codec if base_codec is not None else JpegCodec(quality=75)
        self.decoder = EaszDecoder(model=model, config=config, base_codec=self.base_codec)
        self.stats = ServerStats()
        self.queue = AdmissionQueue(max_depth=queue_depth)
        self.batcher = MicroBatcher(self.queue, max_batch_size=max_batch_size,
                                    on_expired=self._shed_expired)
        self.workers = [ServeWorker(self, index) for index in range(max(1, num_workers))]
        self.stopping = False
        self._started = False
        self._codec_lock = threading.Lock()
        # bounded: codec names arrive on the wire, so an adversarial fleet
        # must not be able to grow this without limit
        self._codec_prototypes = OrderedDict({self.base_codec.name: self.base_codec})  # guarded-by: _codec_lock
        self._codec_prototypes_max = 32
        self._codec_hits = 0  # guarded-by: _codec_lock
        self._codec_misses = 0  # guarded-by: _codec_lock

    # ------------------------------------------------------------------ #
    # the backend surface the front door uses
    # ------------------------------------------------------------------ #
    def start(self):
        """Start the worker threads (idempotent)."""
        if not self._started:
            self._started = True
            for worker in self.workers:
                worker.start()

    def accepts_work(self):
        return True

    def send(self, request):
        """Queue one admitted request (raises once the backend stopped)."""
        self.queue.put(request)

    def stop(self, deadline):
        """Close the queue, let the workers drain it, fail anything stranded."""
        self.stopping = True
        self.queue.close()
        for worker in self.workers:
            if worker.is_alive():
                worker.join(timeout=max(deadline - time.perf_counter(), 0.1))
        # a request that slipped in after the last worker checked the queue
        while True:
            request = self.queue.pop(timeout=0.0)
            if request is None:
                break
            self.settle(request.request_id,
                        error=QueueClosedError("server stopped before the request ran"))

    def counters(self):
        """Batch counters plus the plan and codec cache counters."""
        return dict(self.stats.counters(), caches=self._cache_stats())

    # ------------------------------------------------------------------ #
    # deadline shedding
    # ------------------------------------------------------------------ #
    def _shed_expired(self, request):
        """Reject an already-expired queued request (batcher ``on_expired`` hook)."""
        self.settle(request.request_id, error=DeadlineExceededError(
            f"request {request.request_id} expired while queued"))

    def shed_if_expired(self, request):
        """Shed ``request`` if its deadline passed; True when it was shed.

        Workers call this per batch member just before the entropy decode —
        the last cheap moment to notice the caller has already given up.
        """
        if not deadline_expired(request.deadline_s):
            return False
        self.settle(request.request_id, error=DeadlineExceededError(
            f"request {request.request_id} expired before decode"))
        return True

    # ------------------------------------------------------------------ #
    # codecs
    # ------------------------------------------------------------------ #
    def codec_for(self, codec_name):
        """Build (or reuse) a base codec matching a package's codec name.

        Names follow the registry convention (``jpeg-q75``, ``bpg-qp32``,
        quality-less names like ``png``).  A name that cannot be resolved to
        a codec whose own name round-trips raises ``ValueError`` — decoding
        with mismatched quantisation tables would produce silently wrong
        pixels, so the request's future gets the error instead.
        """
        with self._codec_lock:
            prototype = self._codec_prototypes.get(codec_name)
            if prototype is not None:
                self._codec_hits += 1
                self._codec_prototypes.move_to_end(codec_name)
                return prototype
            self._codec_misses += 1
            codec = None
            try:  # quality-less registry names ("png")
                codec = create_codec(codec_name)
            except KeyError:
                match = _CODEC_NAME_PATTERN.match(codec_name)
                if match is not None:
                    try:
                        codec = create_codec(match.group("base"),
                                             quality=int(match.group("quality")))
                    except (KeyError, TypeError, ValueError):
                        codec = None
            if codec is None or codec.name != codec_name:
                raise ValueError(
                    f"cannot resolve base codec {codec_name!r}; the registry "
                    "produced no codec with a matching name"
                )
            self._codec_prototypes[codec_name] = codec
            if len(self._codec_prototypes) > self._codec_prototypes_max:
                for key in self._codec_prototypes:
                    if key != self.base_codec.name:  # keep the configured fallback
                        del self._codec_prototypes[key]
                        break
            return codec

    def _cache_stats(self):
        """Plan- and codec-cache counters for ``stats.snapshot()["caches"]``."""
        plans = get_squeeze_plan.cache_info()
        with self._codec_lock:
            codecs = {"name": "codecs", "hits": self._codec_hits,
                      "misses": self._codec_misses,
                      "size": len(self._codec_prototypes)}
        return [{"name": "squeeze_plans", "hits": plans.hits,
                 "misses": plans.misses, "size": plans.currsize}, codecs]
