"""The micro-batching compression server.

:class:`CompressionServer` is the deployment story of the paper's Fig. 2
server half run at fleet scale: edge cameras ship ``EASZ`` transport
containers to a shared host, which must decode and reconstruct them as fast
as the hardware allows.  The server composes the pieces of this package —

* an :class:`~repro.serve.queueing.AdmissionQueue` bounds memory and turns
  overload into explicit backpressure;
* a :class:`~repro.serve.batcher.MicroBatcher` coalesces queued requests
  that share an erase mask and geometry;
* :class:`~repro.serve.worker.ServeWorker` threads execute batches through
  the fused batched decode/reconstruct APIs;
* :class:`~repro.serve.telemetry.ServerStats` records throughput, latency
  percentiles, batch sizes, queue depth and the plan/codec cache hit rates.

``submit`` is thread-safe and returns a :class:`PendingResult` future; the
caller blocks (or polls) only when it needs the pixels.
"""

from __future__ import annotations

import itertools
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..codecs.jpeg import JpegCodec
from ..codecs.registry import create_codec
from ..core.config import EaszConfig
from ..core.erase_squeeze import get_squeeze_plan
from ..core.pipeline import EaszCompressed, EaszDecoder
from ..core.reconstruction import EaszReconstructor
from ..core.transport import unpack_package
from .batcher import MicroBatcher
from .cache import ResultCache
from .queueing import (AdmissionQueue, DeadlineExceededError, QueueClosedError,
                       deadline_expired)
from .telemetry import ServerStats
from .worker import ServeWorker

__all__ = ["ServeRequest", "ServeResponse", "PendingResult", "CompressionServer",
           "try_resolve_from_result_cache"]

_CODEC_NAME_PATTERN = re.compile(r"^(?P<base>[a-z0-9-]+?)-qp?(?P<quality>\d+)$")


@dataclass
class ServeResponse:
    """What the server hands back for one request.

    ``transport`` names how the pixels reached the caller: ``"inline"``
    (same-process, the threaded server), ``"queue"`` (pickled over a
    multiprocessing queue from a shard), ``"shm"`` (written into the
    shared-memory ring by a shard) or ``"cache"`` (cross-request result
    cache, no work executed).
    """

    request_id: int
    image: object
    kind: str
    config_summary: dict = field(default_factory=dict)
    latency_s: float = 0.0
    batch_size: int = 1
    worker: str = ""
    cached: bool = False
    transport: str = "inline"


class PendingResult:
    """A minimal future resolved by a serving worker.

    Besides blocking via :meth:`result`, completion callbacks can be attached
    with :meth:`add_done_callback` — the sharded server uses this to marshal
    finished responses back over the process boundary without a
    thread-per-request.
    """

    def __init__(self, request_id):
        self.request_id = request_id
        self._event = threading.Event()
        self._response = None
        self._error = None
        self._cb_lock = threading.Lock()
        self._callbacks = []  # guarded-by: _cb_lock

    def done(self):
        """True once a worker resolved (or rejected) the request."""
        return self._event.is_set()

    def result(self, timeout=None):
        """Block for the :class:`ServeResponse` (raises the worker's error)."""
        if not self._event.wait(timeout=timeout):
            raise TimeoutError(f"request {self.request_id} not completed in time")
        if self._error is not None:
            raise self._error
        return self._response

    def add_done_callback(self, fn):
        """Call ``fn(self)`` once resolved/rejected (immediately if already done)."""
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    # worker-side hooks ------------------------------------------------- #
    def _finish(self):
        with self._cb_lock:
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def _resolve(self, response):
        self._response = response
        self._finish()

    def _reject(self, error):
        self._error = error
        self._finish()


def try_resolve_from_result_cache(result_cache, stats, package, kind, pending):
    """Shared cache-hit fast path of the threaded and sharded ``submit()``.

    Returns ``(cache_key, hit)``: the digest to store the eventual result
    under (``None`` when the cache is disabled), and whether ``pending`` was
    already resolved from a cached image (in which case the caller must not
    queue the request).
    """
    if not result_cache.enabled:
        return None, False
    cache_key = result_cache.digest(package, kind)
    image = result_cache.lookup(cache_key)
    stats.record_result_cache(hit=image is not None)
    if image is None:
        return cache_key, False
    pending._resolve(ServeResponse(
        request_id=pending.request_id,
        image=image,
        kind=kind,
        config_summary=dict(package.config_summary),
        latency_s=0.0,
        batch_size=1,
        worker="result-cache",
        cached=True,
        transport="cache",
    ))
    return cache_key, True


@dataclass
class ServeRequest:
    """One queued unit of work (a transport package plus its future).

    ``deadline_s`` is an absolute ``time.monotonic`` stamp (or ``None`` for
    no deadline).  Every stage of the pipeline that is about to spend real
    work on the request — batcher pop, worker pre-decode, shard-side
    pre-unpack — checks it first and sheds the request with a
    :class:`DeadlineExceededError` instead of computing an answer nobody is
    waiting for.
    """

    request_id: int
    package: EaszCompressed
    kind: str
    submitted_at: float
    pending: PendingResult
    cache_key: bytes = None
    deadline_s: float = None

    @property
    def batch_key(self):
        """Requests sharing this key can run in one fused batch."""
        return (self.kind, self.package.mask_bytes,
                tuple(self.package.original_shape),
                self.package.codec_payload.codec_name)

    def resolve(self, image, batch_size, worker, latency):
        self.pending._resolve(ServeResponse(
            request_id=self.request_id,
            image=image,
            kind=self.kind,
            config_summary=dict(self.package.config_summary),
            latency_s=latency,
            batch_size=batch_size,
            worker=worker,
        ))

    def reject(self, error):
        self.pending._reject(error)


class CompressionServer:
    """Thread-based micro-batching decode/reconstruct service.

    Parameters
    ----------
    model:
        A trained :class:`EaszReconstructor` shared (read-only) by all
        workers; a fresh one is built from ``config`` when omitted.
    config:
        :class:`EaszConfig`; defaults to the model's config.
    base_codec:
        Fallback base codec used when a package names a codec the registry
        cannot rebuild; defaults to JPEG quality 75.
    num_workers:
        Worker threads.  Even on a single core >1 worker keeps the pipeline
        busy while another worker waits in the batcher.
    queue_depth / admission_policy:
        Bounds for the :class:`AdmissionQueue` (``"reject"`` or ``"block"``).
    max_batch_size:
        Most requests one batch may hold; a batch only takes requests that
        are already queued (see :class:`MicroBatcher`).
    fill:
        Unsqueeze fill mode (as :class:`repro.core.EaszDecoder`).
    result_cache_size:
        Capacity of the cross-request :class:`~repro.serve.cache.ResultCache`
        keyed on payload digest.  ``0`` (the default) disables it; enable it
        for static-scene traffic where byte-identical frames repeat, so
        repeats resolve instantly without touching the queue.
    """

    #: Parallel service channels this server presents to the queueing model
    #: (threads share one GIL, so the M/D/1 view of a threaded server is c=1;
    #: :class:`repro.serve.sharding.ShardedCompressionServer` overrides this).
    parallelism = 1

    def __init__(self, model=None, config=None, base_codec=None, num_workers=2,
                 queue_depth=64, admission_policy="reject", max_batch_size=8,
                 fill="zero", result_cache_size=0):
        self.config = config or (model.config if model is not None else EaszConfig())
        self.model = model or EaszReconstructor(self.config)
        self.base_codec = base_codec if base_codec is not None else JpegCodec(quality=75)
        self.fill = fill
        self.decoder = EaszDecoder(model=self.model, config=self.config,
                                   base_codec=self.base_codec, fill=fill)
        self.stats = ServerStats(cache_source=self._cache_stats)
        self.result_cache = ResultCache(result_cache_size)
        self.queue = AdmissionQueue(max_depth=queue_depth, policy=admission_policy)
        self.batcher = MicroBatcher(self.queue, max_batch_size=max_batch_size,
                                    on_expired=self._shed_expired)
        self.workers = [ServeWorker(self, index) for index in range(max(1, num_workers))]
        self.stopping = False
        self._started = False
        self._ids = itertools.count()
        self._codec_lock = threading.Lock()
        # bounded: codec names arrive on the wire, so an adversarial fleet
        # must not be able to grow this without limit
        self._codec_prototypes = OrderedDict({self.base_codec.name: self.base_codec})  # guarded-by: _codec_lock
        self._codec_prototypes_max = 32
        self._codec_hits = 0  # guarded-by: _codec_lock
        self._codec_misses = 0  # guarded-by: _codec_lock

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self):
        """Start the worker pool (idempotent)."""
        if not self._started:
            self._started = True
            for worker in self.workers:
                worker.start()
        return self

    def stop(self, timeout=5.0):
        """Stop accepting work, join the workers, reject any stranded requests."""
        self.stopping = True
        self.queue.close()
        for worker in self.workers:
            if worker.is_alive():
                worker.join(timeout=timeout)
        # a submit() racing stop() can slip into the queue after the last
        # worker checked it; fail those futures instead of leaving callers
        # blocked until their own timeout
        while True:
            request = self.queue.pop(timeout=0.0)
            if request is None:
                break
            self.stats.record_failure(1)
            request.reject(QueueClosedError("server stopped before the request ran"))
        return self.stats.snapshot()

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False

    # ------------------------------------------------------------------ #
    # submission API
    # ------------------------------------------------------------------ #
    def submit(self, package, kind="reconstruct", deadline_s=None):
        """Queue one :class:`EaszCompressed` package; returns a future.

        Raises :class:`repro.serve.queueing.ServerOverloadedError` when the
        admission queue denies the request (backpressure), so edge callers
        can drop or re-route the frame instead of stacking latency.

        ``deadline_s`` is an absolute ``time.monotonic`` deadline (see
        :func:`repro.serve.queueing.deadline_after_ms`).  A request whose
        deadline has already passed is shed immediately: its future is
        rejected with :class:`DeadlineExceededError` (never raised
        synchronously, preserving exactly-once settlement) and the shed is
        counted in telemetry.
        """
        if kind not in ("reconstruct", "decode"):
            raise ValueError("kind must be 'reconstruct' or 'decode'")
        if not self._started:
            raise RuntimeError("server not started; use start() or a with-block")
        pending = PendingResult(next(self._ids))
        if deadline_expired(deadline_s):
            self.stats.record_deadline_shed()
            pending._reject(DeadlineExceededError(
                f"request {pending.request_id} expired before admission"))
            return pending
        cache_key, hit = try_resolve_from_result_cache(
            self.result_cache, self.stats, package, kind, pending)
        if hit:
            return pending
        request = ServeRequest(
            request_id=pending.request_id,
            package=package,
            kind=kind,
            submitted_at=time.perf_counter(),
            pending=pending,
            cache_key=cache_key,
            deadline_s=deadline_s,
        )
        try:
            depth = self.queue.put(request)
        except Exception:
            self.stats.record_rejected()
            raise
        self.stats.record_submitted()
        self.stats.record_queue_depth(depth)
        return pending

    def submit_bytes(self, data, kind="reconstruct", deadline_s=None):
        """Unpack a wire container (``EASZ`` magic) and queue it."""
        return self.submit(unpack_package(data), kind=kind, deadline_s=deadline_s)

    # ------------------------------------------------------------------ #
    # deadline shedding
    # ------------------------------------------------------------------ #
    def _shed_expired(self, request):
        """Reject an already-expired queued request (batcher ``on_expired`` hook)."""
        self.stats.record_deadline_shed()
        request.reject(DeadlineExceededError(
            f"request {request.request_id} expired while queued"))

    def shed_if_expired(self, request):
        """Shed ``request`` if its deadline passed; True when it was shed.

        Workers call this per batch member just before the entropy decode —
        the last cheap moment to notice the caller has already given up.
        """
        if not deadline_expired(request.deadline_s):
            return False
        self.stats.record_deadline_shed()
        request.reject(DeadlineExceededError(
            f"request {request.request_id} expired before decode"))
        return True

    def current_depth(self):
        """Requests currently queued (admission-control observability).

        Deadline-aware admission (:mod:`repro.serve.scenarios`) reads this to
        estimate the wait a new arrival would see without touching telemetry
        locks on the hot path.
        """
        return self.queue.depth

    # ------------------------------------------------------------------ #
    # worker support
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
