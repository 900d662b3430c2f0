"""One front door for both servers, and the threaded server.

:class:`CompressionServer` is the deployment story of the paper's Fig. 2
server half run at fleet scale: edge cameras ship ``EASZ`` transport
containers to a shared host, which must decode and reconstruct them as fast
as the hardware allows.

Both servers are a :class:`FrontDoor` over backends.  The front door owns
the one ``submit()``/``stop()``: kind and lifecycle checks, the
admission-time deadline shed, the result cache, a per-backend in-flight
window that rejects (never blocks) overload, routing (key hash with mask
affinity and load spill — backend 0 when there is only one), exactly-once
settlement with one re-route of a lost request, and one
:class:`~repro.serve.telemetry.ServerStats`.  The threaded server sits on
one in-process :class:`~repro.serve.worker.ThreadPoolBackend`; the sharded
server (:mod:`repro.serve.sharding`) on N shard processes.

``submit`` is thread-safe and returns a :class:`PendingResult` future; the
caller blocks (or polls) only when it needs the pixels.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from dataclasses import dataclass, field

from ..core.config import EaszConfig
from ..core.pipeline import EaszCompressed
from ..core.reconstruction import EaszReconstructor
from ..core.transport import unpack_package
from .cache import ResultCache
from .queueing import (DeadlineExceededError, QueueClosedError,
                       ServerOverloadedError, ShardFailedError, deadline_expired)
from .telemetry import ServerStats
from .worker import ThreadPoolBackend

__all__ = ["ServeRequest", "ServeResponse", "PendingResult", "FrontDoor",
           "CompressionServer"]

#: Erase masks whose observed geometries the router remembers (mask affinity).
_MASK_GEOMETRIES_MAX = 1024

#: Requests in flight on a backend before its traffic spills elsewhere.
_SPILL_THRESHOLD = 8


@dataclass
class ServeResponse:
    """What the server hands back for one request.

    ``transport`` names how the pixels reached the caller: ``"inline"``
    (same-process, the threaded server), ``"queue"`` (raw pixel bytes a
    shard sent over its own response socket) or ``"cache"`` (cross-request
    result cache, no work executed).
    """

    request_id: int
    image: object
    kind: str
    config_summary: dict = field(default_factory=dict)
    latency_s: float = 0.0
    worker: str = ""
    cached: bool = False
    transport: str = "inline"


class PendingResult:
    """A minimal future settled by a server's front door.

    Besides blocking via :meth:`result`, completion callbacks can be attached
    with :meth:`add_done_callback` (the scenario harness and the resilient
    client count resolutions through them).
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

    # front-door hooks -------------------------------------------------- #
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


@dataclass
class ServeRequest:
    """One admitted unit of work (a transport package plus its future).

    ``deadline_s`` is an absolute ``time.monotonic`` stamp (or ``None`` for
    no deadline).  Every stage of the pipeline that is about to spend real
    work on the request — front-door admission, shard-side pre-unpack,
    worker pre-decode — checks it first and sheds the request with a
    :class:`DeadlineExceededError` instead of computing an answer nobody is
    waiting for.  ``backend`` is the index of the backend holding the
    request; ``redispatched`` marks the one re-route a lost request gets.
    """

    request_id: int
    package: EaszCompressed
    kind: str
    submitted_at: float
    pending: PendingResult = None
    cache_key: bytes = None
    deadline_s: float = None
    backend: int = 0
    redispatched: bool = False


def batch_key(package, kind):
    """(kind, mask bytes, geometry, codec): the key the router hashes.

    Requests that share it share a squeeze plan and a base codec, so the
    router sends them to the same backend, whose caches are then warm.
    """
    return (kind, package.mask_bytes, tuple(package.original_shape),
            package.codec_payload.codec_name)


class FrontDoor:
    """The one ``submit()``/``stop()`` in front of a list of backends.

    A backend is any object with ``accepts_work()``, ``send(request)``,
    ``counters()``, a ``label`` and the ``blas_threads`` its process reads
    back once started; it reports each request's outcome
    through :meth:`_settle`, exactly once.  Subclasses build the backends;
    :meth:`_start_backends` / :meth:`_stop_backends` call each backend's
    ``start()`` / ``stop(deadline)`` unless overridden, and
    :meth:`_telemetry` may add snapshot entries.

    ``queue_depth`` is the in-flight window of each backend (admitted and
    not yet settled); a full window rejects with
    :class:`ServerOverloadedError`.  A request leaves its preferred backend
    once that one has ``_SPILL_THRESHOLD`` requests in flight.
    """

    def __init__(self, model, config, backends, queue_depth=64, result_cache_size=0):
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        self.config = config or (model.config if model is not None else EaszConfig())
        self.model = model or EaszReconstructor(self.config)
        self.queue_depth = int(queue_depth)
        self.result_cache = ResultCache(result_cache_size)
        self.stats = ServerStats(source=self._telemetry)
        self._backends = backends
        self._ids = itertools.count()
        self._started = False
        self._closed = False
        self._lock = threading.Lock()
        self._pending = {}  # guarded-by: _lock — request_id -> ServeRequest
        self._inflight = [0] * len(backends)  # guarded-by: _lock
        self._sent = [0] * len(backends)  # guarded-by: _lock — sends per backend, redispatches included
        self._mask_geometries = {}  # guarded-by: _lock — mask bytes -> observed geometries

    @property
    def parallelism(self):
        """Parallel service channels this server presents to the queueing model."""
        return len(self._backends)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self):
        """Start the backends and open admission (idempotent while running)."""
        if self._started:
            return self
        with self._lock:
            self._closed = False
            self._mask_geometries = {}
        self._start_backends()
        self._started = True
        return self

    def stop(self, timeout=30.0):
        """Close admission, drain the backends, fail anything stranded.

        Returns the final stats snapshot.
        """
        if not self._started:
            return self.stats.snapshot()
        with self._lock:
            self._closed = True
        self._stop_backends(time.perf_counter() + timeout)
        with self._lock:
            stranded = list(self._pending.values())
            self._pending.clear()
            self._inflight = [0] * len(self._backends)
        for request in stranded:
            self.stats.record_failure()
            request.pending._reject(QueueClosedError("server stopped before the request ran"))
        self._started = False
        return self.stats.snapshot()

    def _start_backends(self):
        for backend in self._backends:
            backend.start()

    def _stop_backends(self, deadline):
        for backend in self._backends:
            backend.stop(deadline)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, package, kind="reconstruct", deadline_s=None):
        """Admit one :class:`EaszCompressed` package; returns a future.

        Raises :class:`ServerOverloadedError` when the routed backend's
        in-flight window is full (backpressure: edge callers can drop or
        re-route the frame instead of stacking latency), and
        :class:`QueueClosedError` after :meth:`stop`.

        ``deadline_s`` is an absolute ``time.monotonic`` deadline (see
        :func:`repro.serve.queueing.deadline_after_ms`).  A request whose
        deadline has already passed is shed immediately: its future is
        rejected with :class:`DeadlineExceededError` (never raised
        synchronously, preserving exactly-once settlement) and the shed is
        counted in telemetry.
        """
        if kind not in ("reconstruct", "decode"):
            raise ValueError("kind must be 'reconstruct' or 'decode'")
        if self._closed:
            raise QueueClosedError("server is shut down")
        if not self._started:
            raise RuntimeError("server not started; use start() or a with-block")
        pending = PendingResult(next(self._ids))
        if deadline_expired(deadline_s):
            self.stats.record_deadline_shed()
            pending._reject(DeadlineExceededError(
                f"request {pending.request_id} expired before admission"))
            return pending
        cache_key = None
        if self.result_cache.enabled:
            cache_key = self.result_cache.digest(package, kind)
            image = self.result_cache.lookup(cache_key)
            self.stats.record_result_cache(hit=image is not None)
            if image is not None:
                pending._resolve(ServeResponse(
                    request_id=pending.request_id, image=image, kind=kind,
                    config_summary=dict(package.config_summary),
                    worker="result-cache", cached=True, transport="cache"))
                return pending
        request = ServeRequest(pending.request_id, package, kind, time.perf_counter(),
                               pending, cache_key, deadline_s)
        key = batch_key(package, kind)
        with self._lock:
            if self._closed:
                raise QueueClosedError("server is shut down")
            if len(self._backends) > 1:
                self._observe_geometry_locked(key)
            index = self._route_locked(key)
            admitted = self._inflight[index] < self.queue_depth
            if admitted:
                self._track_locked(request, index)
                depth = sum(self._inflight)
        if not admitted:
            self.stats.record_rejected()
            raise ServerOverloadedError(
                f"backend {index} window at capacity ({self.queue_depth}); "
                "request rejected")
        try:
            self._backends[index].send(request)
        except Exception:
            with self._lock:
                tracked = (not request.redispatched
                           and self._untrack_locked(request.request_id) is not None)
            if tracked:
                self.stats.record_rejected()
                raise
            return pending  # a reaper re-routed it while the send failed
        self.stats.record_submitted()
        self.stats.record_queue_depth(depth)
        return pending

    def submit_bytes(self, data, kind="reconstruct", deadline_s=None):
        """Unpack a wire container (``EASZ`` magic) and submit it."""
        return self.submit(unpack_package(data), kind=kind, deadline_s=deadline_s)

    def _track_locked(self, request, index):
        request.backend = index
        self._pending[request.request_id] = request
        self._inflight[index] += 1
        self._sent[index] += 1

    def _untrack_locked(self, request_id):
        request = self._pending.pop(request_id, None)
        if request is not None:
            self._inflight[request.backend] -= 1
        return request

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    _batch_key = staticmethod(batch_key)

    def _observe_geometry_locked(self, key):
        """Track which image geometries each erase mask arrives with.

        One geometry per mask means the full batch key and the mask agree on
        a home backend anyway; a second geometry (multi-camera fleet sharing
        a mask template) flips that mask to mask-only routing so every
        camera hits the same warm plan caches.  Bounded so adversarial mask
        churn cannot grow memory.
        """
        geometries = self._mask_geometries.get(key[1])
        if geometries is None:
            if len(self._mask_geometries) >= _MASK_GEOMETRIES_MAX:
                self._mask_geometries.pop(next(iter(self._mask_geometries)))
            geometries = self._mask_geometries[key[1]] = set()
        geometries.add(key[2])

    def _mask_affine_locked(self, key):
        """Whether routing for this key should use the mask digest alone."""
        return len(self._mask_geometries.get(key[1], ())) > 1

    def _preferred_shard(self, key, mask_only=False):
        hasher = hashlib.blake2b(digest_size=8)
        if not mask_only:
            hasher.update(repr((key[0], key[2], key[3])).encode("utf-8"))
        hasher.update(key[1])
        return int.from_bytes(hasher.digest(), "big") % len(self._backends)

    def _route_locked(self, key):
        """Pick a backend (caller holds the lock): sticky unless overloaded.

        The preferred backend keeps its caches hot for this key; once it has
        ``_SPILL_THRESHOLD`` requests in flight, the least-loaded
        live backend takes the overflow so one hot key saturates the whole
        pool instead of one process.
        """
        preferred = 0
        if len(self._backends) > 1:
            preferred = self._preferred_shard(key, self._mask_affine_locked(key))
        if (self._backends[preferred].accepts_work()
                and self._inflight[preferred] < _SPILL_THRESHOLD):
            return preferred
        candidates = [index for index, backend in enumerate(self._backends)
                      if backend.accepts_work()]
        if not candidates:
            raise ShardFailedError("no live shards")
        return min(candidates,
                   key=lambda index: (self._inflight[index], index != preferred))

    # ------------------------------------------------------------------ #
    # settlement
    # ------------------------------------------------------------------ #
    def _settle(self, request_id, image=None, error=None, worker="", transport="inline",
                lost=False):
        """Settle one admitted request exactly once; later calls are no-ops.

        ``lost`` marks a request its backend could not serve (the shard
        died or drained): it is re-routed once to another backend with
        window room, and fails with ``error`` only when none takes it.
        """
        with self._lock:
            request = self._untrack_locked(request_id)
        if request is None:
            return
        if lost and self._redispatch(request):
            return
        if error is not None:
            if isinstance(error, DeadlineExceededError):
                self.stats.record_deadline_shed()
            else:
                self.stats.record_failure()
            request.pending._reject(error)
            return
        latency = time.perf_counter() - request.submitted_at
        if request.cache_key is not None:
            self.result_cache.put(request.cache_key, image)
        self.stats.record_completed(latency, transport)
        request.pending._resolve(ServeResponse(
            request_id=request_id, image=image, kind=request.kind,
            config_summary=dict(request.package.config_summary),
            latency_s=latency, worker=worker, transport=transport))

    def _redispatch(self, request):
        """Re-route a lost request to another backend (once); True when taken."""
        with self._lock:
            if request.redispatched or self._closed:
                return False
            candidates = [index for index, backend in enumerate(self._backends)
                          if index != request.backend and backend.accepts_work()
                          and self._inflight[index] < self.queue_depth]
            if not candidates:
                return False
            request.redispatched = True
            self._track_locked(request, min(candidates, key=self._inflight.__getitem__))
        try:
            self._backends[request.backend].send(request)
        except Exception:  # noqa: BLE001 - the caller fails the future instead
            with self._lock:
                return self._untrack_locked(request.request_id) is None
        return True

    def _fail_backend(self, index, error):
        """Settle every request in flight on backend ``index`` as lost."""
        with self._lock:
            lost = [request_id for request_id, request in self._pending.items()
                    if request.backend == index]
        for request_id in lost:
            self._settle(request_id, error=error, lost=True)

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def _telemetry(self):
        """Backend counters and routing state merged into ``stats.snapshot()``."""
        with self._lock:
            sent = list(self._sent)
            inflight = list(self._inflight)
        return {
            "backends": [(backend.label, dict(backend.counters(), submitted=sent[index]))
                         for index, backend in enumerate(self._backends)],
            "inflight": inflight,
            "blas_threads": [backend.blas_threads for backend in self._backends],
        }


class CompressionServer(FrontDoor):
    """Thread-based decode/reconstruct service.

    The front door over one in-process
    :class:`~repro.serve.worker.ThreadPoolBackend` (``self.pool``).

    Parameters
    ----------
    model:
        A trained :class:`EaszReconstructor` shared (read-only) by all
        workers; a fresh one is built from ``config`` when omitted.
    config:
        :class:`EaszConfig`; defaults to the model's config.
    num_workers:
        Worker threads; each serves one request at a time.
    queue_depth:
        In-flight window: requests admitted and not yet settled.  A full
        window rejects with :class:`ServerOverloadedError`.
    result_cache_size:
        Capacity of the cross-request :class:`~repro.serve.cache.ResultCache`
        keyed on payload digest.  ``0`` (the default) disables it; enable it
        for static-scene traffic where byte-identical frames repeat, so
        repeats resolve instantly without touching the queue.
    """

    def __init__(self, model=None, config=None, num_workers=2, queue_depth=64,
                 result_cache_size=0):
        config = config or (model.config if model is not None else EaszConfig())
        model = model or EaszReconstructor(config)
        self.pool = ThreadPoolBackend(model, config, self._settle, num_workers=num_workers)
        super().__init__(model, config, [self.pool], queue_depth=queue_depth,
                         result_cache_size=result_cache_size)
