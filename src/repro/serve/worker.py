"""Serving workers: batch execution over the process-wide caches.

A worker pulls a batch from the batcher, entropy-decodes and unsqueezes it
through :meth:`repro.core.EaszDecoder._unsqueeze_many` and reconstructs it
through :func:`repro.core.reconstruct_batch`, the same engine the library
path uses.  Squeeze plans come from the process-wide
:func:`repro.core.erase_squeeze.get_squeeze_plan` cache and base codecs from
the server's bounded :meth:`CompressionServer.codec_for` cache, so workers
keep no caches of their own.  The reconstruction model is shared read-only
across workers (inference only touches immutable weights plus per-call
buffers).
"""

from __future__ import annotations

import threading
import time

from ..core.masks import deserialize_mask
from ..core.reconstruction import reconstruct_batch

__all__ = ["ServeWorker"]


class ServeWorker(threading.Thread):
    """One serving thread: pulls batches from the batcher, resolves futures."""

    def __init__(self, server, index):
        super().__init__(name=f"serve-worker-{index}", daemon=True)
        self._server = server
        self.index = index
        self.batches_processed = 0
        self.images_processed = 0

    def _process_batch(self, batch):
        server = self._server
        # last-chance deadline shed: drop anything already expired before
        # paying for the decode
        batch = [request for request in batch if not server.shed_if_expired(request)]
        if not batch:
            return
        started = time.perf_counter()
        mask = deserialize_mask(batch[0].package.mask_bytes)
        codec = server.codec_for(batch[0].package.codec_payload.codec_name)
        # the batched unsqueeze entropy-decodes per request (one corrupt
        # payload fails only its own future; healthy batch-mates keep going)
        # but runs a single fused IDCT across the whole micro-batch
        decoded = server.decoder._unsqueeze_many(
            [request.package for request in batch], [mask] * len(batch),
            codec=codec, collect_errors=True)
        survivors = []
        filled = []
        for request, result in zip(batch, decoded):
            if isinstance(result, Exception):
                server.stats.record_failure(1)
                request.reject(result)
            else:
                survivors.append(request)
                filled.append(result)
        if not survivors:
            return
        if survivors[0].kind == "reconstruct":
            outputs = reconstruct_batch(server.model, filled, mask)
        else:
            outputs = filled
        finished = time.perf_counter()
        queue_waits = [started - request.submitted_at for request in survivors]
        latencies = [finished - request.submitted_at for request in survivors]
        for request, image in zip(survivors, outputs):
            if request.cache_key is not None:
                server.result_cache.put(request.cache_key, image)
            request.resolve(image, batch_size=len(survivors), worker=self.name,
                            latency=finished - request.submitted_at)
        server.stats.record_batch(len(survivors), queue_waits, latencies,
                                  finished - started)
        self.batches_processed += 1
        self.images_processed += len(survivors)

    # ------------------------------------------------------------------ #
    def run(self):
        server = self._server
        while True:
            batch = server.batcher.next_batch(timeout=0.05)
            if batch is None:
                if server.stopping:
                    return
                continue
            try:
                self._process_batch(batch)
            except Exception as error:  # noqa: BLE001 - resolve futures, keep serving
                server.stats.record_failure(len(batch))
                for request in batch:
                    request.reject(error)
