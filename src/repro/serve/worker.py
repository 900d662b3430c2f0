"""Serving workers: batch execution with per-worker artefact caches.

Each worker thread owns two LRU caches with per-worker hit-rate telemetry:

* ``plans`` — :class:`repro.core.SqueezePlan` gather/scatter indices keyed on
  the package's mask bytes (the unsqueeze step);
* ``codecs`` — base-codec instances keyed by codec name (a codec constructor
  bakes the quality-scaled quantisation tables and Huffman LUT views, so this
  is the per-worker entropy-table cache).

Reconstruction goes through :func:`repro.core.reconstruct_batch`, the same
engine the library path uses; its pixel-index plans come from the
process-wide :func:`repro.core.get_pixel_plan` cache.  The reconstruction
model itself is shared read-only across workers (inference only touches
immutable weights plus per-call buffers).
"""

from __future__ import annotations

import threading
import time

from ..core.erase_squeeze import SqueezePlan
from ..core.masks import deserialize_mask
from ..core.reconstruction import reconstruct_batch
from .cache import LRUCache

__all__ = ["ServeWorker"]


class ServeWorker(threading.Thread):
    """One serving thread: pulls batches from the batcher, resolves futures."""

    def __init__(self, server, index, plan_cache_size=32, codec_cache_size=8):
        super().__init__(name=f"serve-worker-{index}", daemon=True)
        self._server = server
        self.index = index
        self.plans = LRUCache(plan_cache_size, name="squeeze_plans")
        self.codecs = LRUCache(codec_cache_size, name="codecs")
        self.batches_processed = 0
        self.images_processed = 0

    # ------------------------------------------------------------------ #
    # cached artefact lookups
    # ------------------------------------------------------------------ #
    def _squeeze_plan(self, mask_bytes, mask, subpatch_size, patch_size):
        plan = self.plans.get(
            (mask_bytes, int(subpatch_size)),
            lambda: SqueezePlan(mask, subpatch_size),
        )
        return plan.require_patch_size(patch_size)

    def _codec(self, codec_name):
        return self.codecs.get(codec_name, lambda: self._server.codec_for(codec_name))

    # ------------------------------------------------------------------ #
    def _unsqueeze(self, package, mask):
        """Per-package decode + unsqueeze, injecting worker-local caches
        into the decoder's single implementation."""
        cfg = self._server.config
        return self._server.decoder._unsqueeze_package(
            package, mask,
            codec=self._codec(package.codec_payload.codec_name),
            plan=self._squeeze_plan(package.mask_bytes, mask,
                                    cfg.subpatch_size, cfg.patch_size),
        )

    def _process_batch(self, batch):
        server = self._server
        # last-chance deadline shed: the batch may have waited in the batcher
        # window; drop anything already expired before paying for the decode
        batch = [request for request in batch if not server.shed_if_expired(request)]
        if not batch:
            return
        started = time.perf_counter()
        cfg = server.config
        mask = deserialize_mask(batch[0].package.mask_bytes)
        plan = self._squeeze_plan(batch[0].package.mask_bytes, mask,
                                  cfg.subpatch_size, cfg.patch_size)
        codec = self._codec(batch[0].package.codec_payload.codec_name)
        # the batched unsqueeze entropy-decodes per request (one corrupt
        # payload fails only its own future; healthy batch-mates keep going)
        # but runs a single fused IDCT across the whole micro-batch
        decoded = server.decoder._unsqueeze_many(
            [request.package for request in batch], [mask] * len(batch),
            codec=codec, plans=[plan] * len(batch), collect_errors=True)
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
        server.stats.update_cache_stats(
            self.name, [self.plans.stats(), self.codecs.stats()])

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
