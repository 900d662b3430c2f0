"""The in-process backend: a FIFO and worker threads.

:class:`ThreadPoolBackend` runs behind a server's front door (the threaded
:class:`~repro.serve.server.CompressionServer`) or directly inside a shard
process of :class:`~repro.serve.sharding.ShardedCompressionServer`.  A
:class:`ServeWorker` pops one request at a time and sheds it if its
deadline has passed.  Otherwise it serves the request through the same
single-frame path as :meth:`repro.core.EaszDecoder.decode`:
``_unsqueeze_package`` with the codec the package names, then
:func:`repro.core.reconstruct_image` for ``kind="reconstruct"``.  Squeeze
plans come from the process-wide
:func:`repro.core.erase_squeeze.get_squeeze_plan` cache and base codecs from
the backend's bounded :meth:`ThreadPoolBackend.codec_for` cache.  The
reconstruction model is shared read-only across workers (inference only
touches immutable weights plus per-call buffers).

Every request leaves through the backend's ``settle`` callable, exactly
once: ``settle(request_id, image=..., worker=...)`` with the pixels, or
``settle(request_id, error=...)``.

Thread and memory policy: parallelism comes from worker threads, shard
processes and the reconstruction engine's chunk threads, never from BLAS.
:meth:`ThreadPoolBackend.start` puts its process's OpenBLAS on one thread
(:func:`repro.cpu.limit_blas_threads`; a user's ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` wins) and keeps the count it reads back as
``blas_threads``.  It also makes glibc keep freed frame buffers in the heap
(:func:`repro.cpu.keep_freed_memory`; a user's ``MALLOC_MMAP_THRESHOLD_``,
``MALLOC_TRIM_THRESHOLD_`` or ``glibc.malloc`` tunable wins), so a request
reuses the last one's pages instead of faulting them in.  One call covers
the threaded server and every shard, each of which runs a backend of its
own; a library call keeps its host's allocator.  In the threaded server a
worker's reconstruction runs its frame's engine chunks on the worker and
on the process's engine helper threads (:mod:`repro.core.batch_engine`),
so one busy worker still uses every core; a call enlists helpers only for
CPUs that no other worker is reconstructing on.  Each shard runs its
engine on its one worker alone: there the shards are the parallelism.
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict

from ..codecs.registry import create_codec
from ..core.erase_squeeze import get_squeeze_plan
from ..core.masks import deserialize_mask
from ..core.pipeline import EaszDecoder
from ..core.reconstruction import reconstruct_image
from ..cpu import keep_freed_memory, limit_blas_threads
from .queueing import (AdmissionQueue, DeadlineExceededError, QueueClosedError,
                       deadline_expired)
from .telemetry import ServerStats

__all__ = ["ServeWorker", "ThreadPoolBackend"]

_CODEC_NAME_PATTERN = re.compile(r"^(?P<base>[a-z0-9-]+?)-qp?(?P<quality>\d+)$")

#: Base codecs one backend keeps built: codec names arrive on the wire, so an
#: adversarial fleet must not be able to grow the cache without limit.
_CODEC_CACHE_MAX = 32


class ServeWorker(threading.Thread):
    """One serving thread: pops requests one at a time and settles each."""

    def __init__(self, backend, index):
        super().__init__(name=f"serve-worker-{index}", daemon=True)
        self._backend = backend
        self.index = index

    def _serve(self, request):
        backend = self._backend
        # the last cheap moment to notice the caller has already given up
        if deadline_expired(request.deadline_s):
            backend.settle(request.request_id, error=DeadlineExceededError(
                f"request {request.request_id} expired before decode"))
            return
        started = time.perf_counter()
        package = request.package
        mask = deserialize_mask(package.mask_bytes)
        codec = backend.codec_for(package.codec_payload.codec_name)
        image = backend.decoder._unsqueeze_package(package, mask, codec)
        if request.kind == "reconstruct":
            image = reconstruct_image(backend.model, image, mask)
        # counters first: whoever sees a settled response sees its service too
        backend.stats.record_service(started - request.submitted_at,
                                     time.perf_counter() - started)
        backend.settle(request.request_id, image=image, worker=self.name)

    def run(self):
        backend = self._backend
        while True:
            request = backend.queue.pop(timeout=0.05)
            if request is None:
                if backend.stopping:
                    return
                continue
            try:
                self._serve(request)
            except Exception as error:  # noqa: BLE001 - fail this request, keep serving
                backend.settle(request.request_id, error=error)


class ThreadPoolBackend:
    """FIFO + :class:`ServeWorker` threads in-process.

    Owns the decoder, the bounded base-codec cache (:meth:`codec_for`) and
    the service, queue-wait and cache counters (:meth:`counters`).
    ``settle`` is called once per request with its outcome; a request that
    settles twice is a bug of the backend, not of the caller.
    """

    label = "server"

    def __init__(self, model, config, settle, num_workers=2):
        self.model = model
        self.config = config
        self.settle = settle
        self.decoder = EaszDecoder(model=model, config=config)
        self.stats = ServerStats()
        self.queue = AdmissionQueue()
        self.workers = [ServeWorker(self, index) for index in range(max(1, num_workers))]
        self.stopping = False
        self.blas_threads = None  # read back from this process at start()
        self._started = False
        self._codec_lock = threading.Lock()
        self._codec_prototypes = OrderedDict()  # guarded-by: _codec_lock
        self._codec_hits = 0  # guarded-by: _codec_lock
        self._codec_misses = 0  # guarded-by: _codec_lock

    # ------------------------------------------------------------------ #
    # the backend surface the front door uses
    # ------------------------------------------------------------------ #
    def start(self):
        """Set the process's thread and memory policy, start the workers (idempotent)."""
        if not self._started:
            self._started = True
            self.blas_threads = limit_blas_threads()
            keep_freed_memory()
            for worker in self.workers:
                worker.start()

    def accepts_work(self):
        return True

    def send(self, request):
        """Queue one admitted request (raises once the backend stopped)."""
        self.queue.put(request)

    def close(self):
        """Take no more work: the workers serve what is queued, then exit."""
        self.stopping = True
        self.queue.close()

    def stop(self, deadline):
        """Close the queue, let the workers drain it, fail anything stranded."""
        self.close()
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
        """Service counters plus the plan and codec cache counters."""
        return dict(self.stats.counters(), caches=self._cache_stats())

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
            if len(self._codec_prototypes) > _CODEC_CACHE_MAX:
                self._codec_prototypes.popitem(last=False)
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
