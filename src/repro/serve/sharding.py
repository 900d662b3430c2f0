"""Process-sharded serving: N worker processes behind one submission API.

The thread-based :class:`~repro.serve.server.CompressionServer` tops out at
one core: the elementwise stages of decode/reconstruct (dequantise, IDCT,
unsqueeze scatter, GELU) hold the GIL, so adding worker threads only
overlaps waiting, not compute.  :class:`ShardedCompressionServer` scales past
that by running *shards* — independent worker processes, each hosting its own
model weights, codec tables, plan caches and a full threaded
``CompressionServer`` — behind the same ``submit()``/``PendingResult`` API.

Design points:

* **pickle-light wire format** — requests cross the process boundary as the
  existing ``EASZ`` transport container bytes (:func:`repro.core.pack_package`)
  plus plain ints/strings; responses come back as raw pixel buffers with
  shape/dtype and a plain-dict metadata header.  No live objects, no class
  pickling, so a shard can be restarted (or version-skewed) without poisoning
  the parent.
* **consistent routing with load spill** — a request's batch key (kind, mask
  bytes, geometry, codec) hashes to a *preferred* shard so shard-local plan
  and codec caches stay hot; when the preferred shard already has a full
  batch of work in flight the request spills to the least-loaded shard, so a
  single hot key still uses the whole pool.
* **graceful lifecycle** — shards signal readiness before the server accepts
  work, ``stop()`` drains every in-flight request before shutting shards
  down, and :meth:`restart_shard` replaces a shard (gracefully or by force)
  while the rest of the pool keeps serving.
* **aggregated telemetry** — ``stats.snapshot()`` polls each shard's
  :class:`~repro.serve.telemetry.ServerStats` over its control pipe and
  merges them (:func:`repro.serve.telemetry.aggregate_snapshots`), alongside
  the parent-side admission counters and the cross-request result cache.
* **zero-copy responses** — with ``use_shm=True`` (the default) shards write
  finished pixels straight into a :class:`~repro.serve.shm.ShmRing` of
  shared-memory slots and send only a tiny lease descriptor over the queue;
  the per-response ``tobytes`` + queue-pickle copies disappear.  Responses
  that outgrow a slot, a full ring, or a host without shared memory all
  fall back to the queue path per response (``ServeResponse.transport``
  says which path served each request; telemetry counts both).
* **shard health watchdog** — ``watchdog_interval_s`` starts a parent-side
  thread that checks each shard's process liveness and heartbeat every
  interval and auto-``restart_shard()``\\ s crashed shards with exponential
  backoff; restart counts and backoff state are part of the snapshot.
* **spill-aware mask affinity** — routing normally hashes the full batch
  key, but when one erase mask is observed with several image geometries
  (a multi-camera fleet sharing a mask template), ``affinity="auto"``
  switches that mask to mask-digest-only routing so all its traffic lands
  on one shard's warm plan caches; the load-spill rule is unchanged.
"""

from __future__ import annotations

import builtins
import hashlib
import itertools
import multiprocessing
import os
import queue as queue_module
import threading
import time
from dataclasses import asdict

import numpy as np

from ..core.config import EaszConfig
from ..core.reconstruction import EaszReconstructor
from ..core.transport import pack_package, pixels_from_buffer, unpack_package
from .cache import ResultCache
from .queueing import (DeadlineExceededError, QueueClosedError,
                       ServerOverloadedError, deadline_expired)
from .server import (CompressionServer, PendingResult, ServeResponse,
                     try_resolve_from_result_cache)
from .shm import ShmRing, shm_available
from .telemetry import ServerStats, aggregate_snapshots

__all__ = ["ShardedCompressionServer", "ShardHandle", "ShardFailedError",
           "available_cpus"]

#: Default shared-memory ring geometry: slots sized for a 512² RGB float32
#: (or 256² RGB float64) response with headroom, kept modest so the ring fits
#: containers whose /dev/shm is capped at the Docker default of 64 MiB.
_DEFAULT_SHM_SLOT_BYTES = 4 << 20

# Default hang timeout when the watchdog runs (``watchdog_hang_timeout_s=
# "auto"``): shards stamp their heartbeat every loop iteration (<= 50 ms
# idle; batches never block the loop), so 30 s of silence from a live
# process means wedged, not busy — conservative by ~3 orders of magnitude.
_DEFAULT_HANG_TIMEOUT_S = 30.0


def available_cpus():
    """CPUs this process may run on (affinity-aware; sharding helps only >=2).

    The throughput benchmark and its perf-smoke guard both use this to decide
    whether a sharded measurement is meaningful on the host.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


class ShardFailedError(RuntimeError):
    """A shard process died (or was restarted) before resolving a request."""


# --------------------------------------------------------------------------- #
# shard-process side
# --------------------------------------------------------------------------- #
def _error_message(shard_index, request_id, error):
    return ("err", shard_index, request_id, type(error).__name__, str(error))


def _rebuild_error(type_name, message):
    """Best-effort reconstruction of a shard-side exception in the parent."""
    if type_name == "ServerOverloadedError":
        return ServerOverloadedError(message)
    if type_name == "QueueClosedError":
        return QueueClosedError(message)
    if type_name == "DeadlineExceededError":
        return DeadlineExceededError(message)
    candidate = getattr(builtins, type_name, None)
    if isinstance(candidate, type) and issubclass(candidate, Exception):
        try:
            return candidate(message)
        except Exception:  # noqa: BLE001 - constructor signature mismatch
            pass
    return ShardFailedError(f"{type_name}: {message}")


def _shard_main(shard_index, request_queue, response_queue, control_conn,
                config_kwargs, model_state, server_options, shm_descriptor,
                heartbeat):
    """Entry point of one shard process.

    Rebuilds the model from the shipped ``state_dict`` (start-method agnostic:
    works under ``fork`` and ``spawn`` alike), hosts a full threaded
    :class:`CompressionServer`, and bridges it to the parent: requests arrive
    as ``("req", id, kind, container_bytes, deadline_s)`` tuples on
    ``request_queue`` (``deadline_s`` an absolute CLOCK_MONOTONIC stamp or
    ``None``, checked *before* the container is unpacked),
    finished pixels leave either through the shared-memory ring (a tiny
    ``("shm", ...)`` lease descriptor on ``response_queue``) or as raw
    buffers in ``("ok", ...)`` queue messages, and the control pipe answers
    ``("stats",)`` probes and acknowledges the drain handshake.  The shard
    stamps ``heartbeat[shard_index]`` with the wall clock every loop
    iteration so the parent's watchdog can tell a busy shard from a hung one.
    """
    config = EaszConfig(**config_kwargs)
    model = EaszReconstructor(config)
    model.load_state_dict(model_state)
    model.eval()
    server = CompressionServer(model=model, config=config, **server_options)
    server.start()

    ring = None
    if shm_descriptor is not None:
        try:
            ring = ShmRing.attach(shm_descriptor)
        except Exception:  # noqa: BLE001 - ring is a fast path, not a requirement
            ring = None

    inflight_lock = threading.Lock()
    inflight = [0]

    def _completion_callback(request_id):
        def _on_done(pending):
            try:
                response = pending.result(timeout=0)
            except Exception as error:  # noqa: BLE001 - marshalled to parent
                message = _error_message(shard_index, request_id, error)
            else:
                image = np.ascontiguousarray(response.image)
                meta = {
                    "kind": response.kind,
                    "config_summary": response.config_summary,
                    "latency_s": response.latency_s,
                    "batch_size": response.batch_size,
                    "worker": response.worker,
                }
                message = None
                if ring is not None and image.nbytes <= ring.slot_bytes:
                    lease = ring.claim(shard_index)
                    if lease is not None:
                        slot, seq = lease
                        try:
                            ring.write(slot, image)
                        except Exception:  # noqa: BLE001 - fall back to the queue
                            ring.release(slot, seq, shard_index)
                        else:
                            message = ("shm", shard_index, request_id, slot, seq,
                                       image.nbytes, tuple(image.shape),
                                       str(image.dtype), meta)
                if message is None:  # ring off, full, or the response outgrew a slot
                    message = ("ok", shard_index, request_id, image.tobytes(),
                               tuple(image.shape), str(image.dtype), meta)
            response_queue.put(message)
            with inflight_lock:
                inflight[0] -= 1
        return _on_done

    def _beat():
        if heartbeat is not None:
            heartbeat[shard_index] = time.time()

    _beat()
    control_conn.send(("ready", shard_index))
    stopping = False
    try:
        while True:
            _beat()
            while control_conn.poll():
                command = control_conn.recv()
                if command and command[0] == "stats":
                    control_conn.send(("stats", shard_index, server.stats.snapshot()))
            if stopping:
                # a submit() racing the sentinel can land its request *after*
                # the stop message; fail those back immediately instead of
                # ignoring the queue and letting the parent wait out its
                # drain deadline
                try:
                    message = request_queue.get_nowait()
                except queue_module.Empty:
                    with inflight_lock:
                        drained = inflight[0] == 0
                    if drained:
                        break
                    time.sleep(0.002)
                    continue
                if message[0] == "req":
                    response_queue.put(("err", shard_index, message[1],
                                        "QueueClosedError",
                                        "shard stopped before the request ran"))
                continue
            try:
                message = request_queue.get(timeout=0.05)
            except queue_module.Empty:
                continue
            if message[0] == "stop":
                stopping = True
                continue
            _, request_id, kind, blob, deadline_s = message
            # deadlines ride the wire as absolute CLOCK_MONOTONIC stamps, so
            # this is the cheapest possible shed point on the shard: before
            # the container even gets unpacked
            if deadline_expired(deadline_s):
                server.stats.record_deadline_shed()
                response_queue.put(("err", shard_index, request_id,
                                    "DeadlineExceededError",
                                    f"request {request_id} expired before the "
                                    f"shard unpacked it"))
                continue
            try:
                package = unpack_package(blob)
            except Exception as error:  # noqa: BLE001 - bad wire bytes
                # count it here: the parent treats shard stats as the single
                # source of truth for failures to avoid double counting
                server.stats.record_failure(1)
                response_queue.put(_error_message(shard_index, request_id, error))
                continue
            with inflight_lock:
                inflight[0] += 1
            try:
                pending = server.submit(package, kind=kind, deadline_s=deadline_s)
            except Exception as error:  # noqa: BLE001 - admission/shutdown
                with inflight_lock:
                    inflight[0] -= 1
                response_queue.put(_error_message(shard_index, request_id, error))
                continue
            pending.add_done_callback(_completion_callback(request_id))
        final_snapshot = server.stop()
        control_conn.send(("stopped", shard_index, final_snapshot))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):  # parent went away
        server.stop()


# --------------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------------- #
class ShardHandle:
    """Parent-side view of one shard process (queues, control pipe, liveness)."""

    def __init__(self, index, process, request_queue, control_conn):
        self.index = index
        self.process = process
        self.request_queue = request_queue
        self.control_conn = control_conn
        self.draining = False  # drain handshake sent; stop routing new work here
        self.stopped_snapshot = None

    def is_alive(self):
        return self.process is not None and self.process.is_alive()

    def accepts_work(self):
        return self.is_alive() and not self.draining


class _PendingEntry:
    """Parent-side bookkeeping for one in-flight request.

    Keeps the wire blob so a request bounced by a shard that went into its
    drain handshake (or reaped after a crash) can be re-dispatched to a live
    shard instead of failing a healthy pool's caller.
    """

    __slots__ = ("pending", "shard", "cache_key", "submitted_at", "kind",
                 "blob", "deadline_s", "redispatched")

    def __init__(self, pending, shard, cache_key, submitted_at, kind, blob,
                 deadline_s=None):
        self.pending = pending
        self.shard = shard
        self.cache_key = cache_key
        self.submitted_at = submitted_at
        self.kind = kind
        self.blob = blob
        self.deadline_s = deadline_s
        self.redispatched = False


class _AggregateStatsView:
    """``.stats.snapshot()`` adapter matching the threaded server's surface."""

    def __init__(self, server):
        self._server = server

    def snapshot(self):
        return self._server.aggregate_snapshot()


class ShardedCompressionServer:
    """Micro-batching decode/reconstruct service sharded over N processes.

    Presents the same surface as :class:`CompressionServer` — ``submit`` /
    ``submit_bytes`` returning :class:`PendingResult` futures, a ``stats``
    object with ``snapshot()``, ``start``/``stop``/context-manager lifecycle —
    while executing on ``num_shards`` independent processes.

    Parameters mirror the threaded server where they share meaning;
    ``queue_depth`` bounds the *per-shard* in-flight window (the parent
    applies admission control before a request ever crosses the process
    boundary, so ``"reject"`` still raises synchronously), and
    ``result_cache_size`` enables the parent-side cross-request result cache
    keyed on payload digest.  ``base_codec`` seeds each shard's fallback
    codec exactly as on the threaded server (under ``start_method="spawn"``
    the codec instance must be picklable; registry-built codecs are).
    ``start_method`` picks the multiprocessing start method (platform default
    when ``None``; pass ``"spawn"`` to avoid fork-with-threads hazards at the
    cost of slower startup).

    Zero-copy and health knobs:

    ``use_shm``
        Serve responses through the shared-memory ring when the host
        supports it (default).  ``shm_slots`` / ``shm_slot_bytes`` size the
        ring (defaults: ``max(4, 2 * num_shards)`` slots of 4 MiB); anything
        that does not fit falls back to the queue path per response.
    ``watchdog_interval_s``
        When set (must be ``> 0``), a parent-side watchdog thread probes
        shard liveness (and heartbeat staleness, see
        ``watchdog_hang_timeout_s``) every interval and restarts dead shards
        in place, with exponential backoff from ``watchdog_backoff_s`` up to
        ``watchdog_backoff_cap_s`` for a shard that keeps dying.  ``None``
        (default) disables auto-restart; crashes still fail fast through the
        collector's reaper exactly as before.
    ``watchdog_hang_timeout_s``
        Hang detection for the watchdog: a shard that is *alive but silent*
        (no heartbeat stamp) for longer than this is killed and restarted
        exactly like a crashed one.  The default ``"auto"`` resolves to
        ``30.0`` seconds whenever the watchdog runs — a healthy shard stamps
        its heartbeat every loop iteration (≤ 50 ms idle, and long model
        batches never block the loop), so 30 s of silence means the process
        is wedged, not busy.  Pass ``None`` to opt out (liveness-only
        watchdog) or an explicit number of seconds to tune it.
    ``affinity``
        ``"key"`` routes on the full batch key (PR-3 behaviour), ``"mask"``
        on the mask digest alone, ``"auto"`` (default) starts on the full
        key and switches a mask to mask-only routing once it has been seen
        with more than one image geometry.
    """

    def __init__(self, model=None, config=None, num_shards=2, workers_per_shard=1,
                 base_codec=None, queue_depth=64, admission_policy="reject",
                 put_timeout=1.0, max_batch_size=8, fill="zero",
                 result_cache_size=0, start_method=None,
                 startup_timeout=120.0, spill_threshold=None, use_shm=True,
                 shm_slots=None, shm_slot_bytes=None, watchdog_interval_s=None,
                 watchdog_backoff_s=0.5, watchdog_backoff_cap_s=30.0,
                 watchdog_hang_timeout_s="auto", affinity="auto",
                 circuit_breakers=True, breaker_open_duration_s=1.0):
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if admission_policy not in ("reject", "block"):
            raise ValueError("admission_policy must be 'reject' or 'block'")
        if watchdog_interval_s is not None and not watchdog_interval_s > 0:
            raise ValueError("watchdog_interval_s must be positive")
        if watchdog_hang_timeout_s == "auto":
            watchdog_hang_timeout_s = _DEFAULT_HANG_TIMEOUT_S
        if watchdog_hang_timeout_s is not None and not watchdog_hang_timeout_s > 0:
            raise ValueError("watchdog_hang_timeout_s must be positive")
        if not watchdog_backoff_s > 0:
            raise ValueError("watchdog_backoff_s must be positive")
        if watchdog_backoff_cap_s < watchdog_backoff_s:
            raise ValueError("watchdog_backoff_cap_s must be >= watchdog_backoff_s")
        if affinity not in ("auto", "key", "mask"):
            raise ValueError("affinity must be 'auto', 'key' or 'mask'")
        if shm_slots is not None and int(shm_slots) < 1:
            raise ValueError("shm_slots must be positive")
        if shm_slot_bytes is not None and int(shm_slot_bytes) < 1:
            raise ValueError("shm_slot_bytes must be positive")
        self.config = config or (model.config if model is not None else EaszConfig())
        self.model = model or EaszReconstructor(self.config)
        self.num_shards = int(num_shards)
        self.parallelism = self.num_shards
        self.queue_depth = int(queue_depth)
        self.admission_policy = admission_policy
        self.put_timeout = float(put_timeout)
        self.max_batch_size = int(max_batch_size)
        self.spill_threshold = (int(spill_threshold) if spill_threshold is not None
                                else self.max_batch_size)
        self.result_cache = ResultCache(result_cache_size)
        self.local_stats = ServerStats()
        self.stats = _AggregateStatsView(self)
        self._server_options = {
            "base_codec": base_codec,
            "num_workers": max(1, int(workers_per_shard)),
            "queue_depth": self.queue_depth,
            "admission_policy": "reject",
            "max_batch_size": self.max_batch_size,
            "fill": fill,
            "result_cache_size": 0,  # the parent owns the one result cache
        }
        self._context = multiprocessing.get_context(start_method)
        self._startup_timeout = float(startup_timeout)
        self.use_shm = bool(use_shm)
        self.shm_slots = (int(shm_slots) if shm_slots is not None
                          else max(4, 2 * self.num_shards))
        self.shm_slot_bytes = (int(shm_slot_bytes) if shm_slot_bytes is not None
                               else _DEFAULT_SHM_SLOT_BYTES)
        self.watchdog_interval_s = (float(watchdog_interval_s)
                                    if watchdog_interval_s is not None else None)
        self.watchdog_backoff_s = float(watchdog_backoff_s)
        self.watchdog_backoff_cap_s = float(watchdog_backoff_cap_s)
        self.watchdog_hang_timeout_s = (float(watchdog_hang_timeout_s)
                                        if watchdog_hang_timeout_s is not None else None)
        self.affinity = affinity
        self._shards = []
        self._response_queue = None
        self._collector = None
        self._collector_stop = threading.Event()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._control_lock = threading.Lock()  # Connections are not thread-safe
        self._restart_lock = threading.Lock()  # one restart_shard at a time
        self._pending = {}  # guarded-by: _lock — request_id -> _PendingEntry
        self._retired_snapshots = []  # guarded-by: _lock — (index, snapshot) of replaced/drained shards
        self._inflight = []  # guarded-by: _lock — per-shard in-flight counts
        self._ids = itertools.count()
        self._started = False
        self._closed = False
        self._shm_ring = None
        self._shm_descriptor = None
        self._heartbeat = None
        self._watchdog = None
        self._watchdog_stop = threading.Event()
        self._watchdog_restarts = [0] * self.num_shards  # guarded-by: _lock
        self._watchdog_backoff = [self.watchdog_backoff_s] * self.num_shards  # guarded-by: _lock
        self._watchdog_next_allowed = [0.0] * self.num_shards  # guarded-by: _lock
        self._watchdog_last_restart = [None] * self.num_shards  # guarded-by: _lock
        self._mask_geometries = {}  # guarded-by: _lock — mask bytes -> set of observed geometries
        self._mask_geometries_max = 1024
        # per-shard circuit breakers (import deferred: resilience imports
        # ShardFailedError from this module).  Each breaker has its own leaf
        # lock; routing consults them while holding self._lock, so the only
        # cross-module order is _lock -> breaker lock, never the reverse.
        if not breaker_open_duration_s > 0:
            raise ValueError("breaker_open_duration_s must be positive")
        if circuit_breakers:
            from .resilience import CircuitBreaker
            self._breakers = [CircuitBreaker(open_duration_s=breaker_open_duration_s)
                              for _ in range(self.num_shards)]
        else:
            self._breakers = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _spawn_shard(self, index):
        request_queue = self._context.Queue()
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_shard_main,
            name=f"easz-shard-{index}",
            args=(index, request_queue, self._response_queue, child_conn,
                  asdict(self.config), dict(self.model.state_dict()),
                  self._server_options, self._shm_descriptor, self._heartbeat),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return ShardHandle(index, process, request_queue, parent_conn)

    def _create_ring(self):
        """Build the shared-memory response ring, or run without one.

        Any failure (no /dev/shm, quota, exotic platform) downgrades the pool
        to the queue path — zero-copy is a fast path, never a requirement.
        """
        self._shm_ring = None
        self._shm_descriptor = None
        if not self.use_shm or not shm_available():
            return
        try:
            self._shm_ring = ShmRing(self.shm_slot_bytes, self.shm_slots,
                                     context=self._context)
            self._shm_descriptor = self._shm_ring.descriptor()
        except Exception:  # noqa: BLE001 - fall back to the queue path
            self._shm_ring = None
            self._shm_descriptor = None

    def _release_ring(self):
        if self._shm_ring is not None:
            self._shm_ring.close()
        self._shm_ring = None
        self._shm_descriptor = None

    def _await_ready(self, shard):
        deadline = time.perf_counter() + self._startup_timeout
        while time.perf_counter() < deadline:
            with self._control_lock:
                ready = shard.control_conn.poll(0.05)
                message = shard.control_conn.recv() if ready else None
            if message and message[0] == "ready":
                return
            if not shard.process.is_alive():
                raise ShardFailedError(
                    f"shard {shard.index} died during startup "
                    f"(exit code {shard.process.exitcode})")
        raise ShardFailedError(f"shard {shard.index} not ready after "
                               f"{self._startup_timeout:.0f}s")

    def start(self):
        """Spawn the shard pool, wait for readiness, start the collector.

        Idempotent while running; after a ``stop()`` it brings up a fresh
        pool (new processes, new queues) and reopens admission.
        """
        if self._started:
            return self
        if self._watchdog is not None:
            # a previous stop() timed out on a watchdog stuck in a slow
            # restart; wait it out (it exits at its next _watchdog_stop
            # check) or clearing the event below would leave two loops alive
            self._watchdog.join()
            self._watchdog = None
        self._response_queue = self._context.Queue()
        self._create_ring()
        self._heartbeat = self._context.RawArray("d", self.num_shards)
        self._shards = []
        with self._lock:
            # every piece of lock-guarded routing state resets inside one
            # span: a submitter blocked since before a stop()/start() cycle
            # must never observe the old pool's counters
            self._inflight = [0] * self.num_shards
            self._closed = False
            self._retired_snapshots = []
            self._mask_geometries = {}
        try:
            for index in range(self.num_shards):
                self._shards.append(self._spawn_shard(index))
            for shard in self._shards:
                self._await_ready(shard)
        except Exception:
            for shard in self._shards:
                if shard.process.is_alive():
                    shard.process.terminate()
            self._release_ring()
            raise
        self._collector_stop.clear()
        self._collector = threading.Thread(target=self._collect_loop,
                                           name="shard-collector", daemon=True)
        self._collector.start()
        with self._lock:
            self._watchdog_restarts = [0] * self.num_shards
            self._watchdog_backoff = [self.watchdog_backoff_s] * self.num_shards
            self._watchdog_next_allowed = [0.0] * self.num_shards
            self._watchdog_last_restart = [None] * self.num_shards
        if self.watchdog_interval_s is not None:
            self._watchdog_stop.clear()
            self._watchdog = threading.Thread(target=self._watchdog_loop,
                                              name="shard-watchdog", daemon=True)
            self._watchdog.start()
        self._started = True
        return self

    def stop(self, timeout=30.0):
        """Drain every shard, reject anything stranded, return merged stats."""
        if not self._started:
            return self.aggregate_snapshot()
        # quiesce the watchdog first so no auto-restart races the shutdown
        # (a replacement spawned after the stop sentinels went out would leak)
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=30.0)
            if not self._watchdog.is_alive():
                self._watchdog = None
            # else: it is stuck inside a slow restart; keep the handle so the
            # next start() can wait it out, and rely on the _closed re-checks
            # in _restart_shard_locked to kill any replacement it spawns
        with self._lock:
            self._closed = True
            # wake blocking-mode submitters promptly: their wait loop
            # re-checks _closed and raises QueueClosedError instead of
            # stalling out the full put_timeout
            self._not_full.notify_all()
        deadline = time.perf_counter() + timeout
        final_snapshots = []
        for shard in self._shards:
            if shard.is_alive():
                shard.request_queue.put(("stop",))
        for shard in self._shards:
            snapshot = self._await_stopped(shard, deadline)
            if snapshot is not None:
                final_snapshots.append((shard.index, snapshot))
        # drained shards flushed their responses before acknowledging; give
        # the collector until the deadline to resolve the matching futures.
        # Entries owned by a shard that died *without* the handshake can
        # never resolve, so each pass prunes them (re-checked every tick:
        # is_alive() may lag a kill by a few milliseconds)
        while time.perf_counter() < deadline:
            crashed = []
            with self._lock:
                for request_id, entry in list(self._pending.items()):
                    shard = self._shards[entry.shard]
                    if not shard.is_alive() and not shard.stopped_snapshot:
                        crashed.append(entry)
                        del self._pending[request_id]
                drained = not self._pending
            for entry in crashed:
                self.local_stats.record_failure(1)
                entry.pending._reject(ShardFailedError(
                    f"shard {entry.shard} died before the request completed"))
            if drained:
                break
            time.sleep(0.01)
        with self._lock:
            stranded = list(self._pending.values())
            self._pending.clear()
            for index in range(len(self._inflight)):
                self._inflight[index] = 0
        for entry in stranded:
            self.local_stats.record_failure(1)
            entry.pending._reject(
                QueueClosedError("server stopped before the request ran"))
        for shard in self._shards:
            if shard.process is not None:
                shard.process.join(timeout=max(deadline - time.perf_counter(), 0.1))
                if shard.process.is_alive():
                    shard.process.terminate()
                    shard.process.join(timeout=1.0)
        self._collector_stop.set()
        if self._collector is not None:
            self._collector.join(timeout=5.0)
        self._started = False
        merged = self._merge_snapshots(final_snapshots)
        self._release_ring()  # after the collector: it may hold slot views
        return merged

    def _await_stopped(self, shard, deadline):
        if not shard.is_alive() and shard.stopped_snapshot is None:
            return None
        while time.perf_counter() < deadline:
            with self._control_lock:
                try:
                    message = (shard.control_conn.recv()
                               if shard.control_conn.poll(0.05) else None)
                except (EOFError, OSError):
                    return None
            if message is not None:
                if message and message[0] == "stopped":
                    shard.stopped_snapshot = message[2]
                    return message[2]
            elif not shard.process.is_alive():
                return shard.stopped_snapshot
        return shard.stopped_snapshot

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False

    # ------------------------------------------------------------------ #
    # routing + submission
    # ------------------------------------------------------------------ #
    @staticmethod
    def _batch_key(package, kind):
        return (kind, package.mask_bytes, tuple(package.original_shape),
                package.codec_payload.codec_name)

    def _observe_geometry_locked(self, key):
        """Track which image geometries each erase mask arrives with.

        Feeds the ``"auto"`` affinity mode: one geometry per mask means the
        full batch key and the mask agree on a home shard anyway; a second
        geometry (multi-camera fleet sharing a mask template) flips that mask
        to mask-only routing so every camera hits the same warm plan caches.
        Bounded so adversarial mask churn cannot grow parent memory.
        """
        if self.affinity != "auto":
            return
        geometries = self._mask_geometries.get(key[1])
        if geometries is None:
            if len(self._mask_geometries) >= self._mask_geometries_max:
                self._mask_geometries.pop(next(iter(self._mask_geometries)))
            geometries = set()
            self._mask_geometries[key[1]] = geometries
        geometries.add(key[2])

    def _mask_affine_locked(self, key):
        """Whether routing for this key should use the mask digest alone."""
        if self.affinity == "mask":
            return True
        if self.affinity == "key":
            return False
        return len(self._mask_geometries.get(key[1], ())) > 1

    def _preferred_shard(self, key, mask_only=False):
        hasher = hashlib.blake2b(digest_size=8)
        if not mask_only:
            hasher.update(repr((key[0], key[2], key[3])).encode("utf-8"))
        hasher.update(key[1])
        return int.from_bytes(hasher.digest(), "big") % self.num_shards

    def _breaker_allows(self, index):
        """Whether shard ``index``'s circuit breaker admits a request now."""
        return self._breakers is None or self._breakers[index].allow()

    def _route_locked(self, key):
        """Pick a shard (caller holds the lock): sticky unless overloaded.

        The preferred shard keeps its caches hot for this key; once it has a
        full batch of work in flight (``spill_threshold``), the least-loaded
        live shard takes the overflow so one hot key saturates the whole pool
        instead of one process.  A shard whose circuit breaker is open is
        treated exactly like an overloaded one — its traffic spills to the
        least-loaded live shard whose breaker admits work — unless *every*
        breaker is open, in which case the breakers are ignored (half of the
        pool guessing wrong must degrade to plain routing, not to an outage).
        """
        preferred = self._preferred_shard(key, mask_only=self._mask_affine_locked(key))
        if (self._shards[preferred].accepts_work()
                and self._inflight[preferred] < self.spill_threshold
                and self._breaker_allows(preferred)):
            return preferred
        candidates = [shard.index for shard in self._shards if shard.accepts_work()]
        if not candidates:
            raise ShardFailedError("no live shards")
        trusted = [index for index in candidates if self._breaker_allows(index)]
        return min(trusted or candidates,
                   key=lambda index: (self._inflight[index], index != preferred))

    def submit(self, package, kind="reconstruct", deadline_s=None):
        """Queue one :class:`EaszCompressed` package on a shard; returns a future.

        Admission control runs in the parent: with the ``"reject"`` policy a
        full per-shard window raises :class:`ServerOverloadedError`
        synchronously (as the threaded server does), with ``"block"`` the call
        waits up to ``put_timeout`` for in-flight work to drain.

        ``deadline_s`` (absolute ``time.monotonic``) crosses the wire with
        the request: an already-expired request is shed here without paying
        for ``pack_package``, and the shard re-checks before unpacking.
        """
        if kind not in ("reconstruct", "decode"):
            raise ValueError("kind must be 'reconstruct' or 'decode'")
        if self._closed:  # matches the threaded server's post-stop behaviour
            raise QueueClosedError("server is shut down")
        if not self._started:
            raise RuntimeError("server not started; use start() or a with-block")
        pending = PendingResult(next(self._ids))
        if deadline_expired(deadline_s):
            self.local_stats.record_deadline_shed()
            pending._reject(DeadlineExceededError(
                f"request {pending.request_id} expired before admission"))
            return pending
        cache_key, hit = try_resolve_from_result_cache(
            self.result_cache, self.local_stats, package, kind, pending)
        if hit:
            self.local_stats.record_response_transport("cache")
            return pending
        key = self._batch_key(package, kind)
        with self._lock:
            if self._closed:
                raise QueueClosedError("server is shut down")
            self._observe_geometry_locked(key)
            # route, then re-route after every condition wake: the shard that
            # was full before the wait may have crashed (and been reaped)
            # while the submitter slept — enqueueing onto its dead queue
            # would strand the future
            wait_deadline = None
            while True:
                shard_index = self._route_locked(key)
                if self._inflight[shard_index] < self.queue_depth:
                    break
                if self.admission_policy == "reject":
                    self.local_stats.record_rejected()
                    raise ServerOverloadedError(
                        f"shard {shard_index} window at capacity "
                        f"({self.queue_depth}); request rejected")
                if wait_deadline is None:
                    wait_deadline = time.monotonic() + self.put_timeout
                remaining = wait_deadline - time.monotonic()
                if remaining <= 0 or not self._not_full.wait(timeout=remaining):
                    self.local_stats.record_rejected()
                    raise ServerOverloadedError(
                        f"shard window full for {self.put_timeout:.2f}s; "
                        "backpressure timeout")
                if self._closed:
                    raise QueueClosedError("server is shut down")
            self._inflight[shard_index] += 1
        # serialise only after admission: a rejected burst must not pay the
        # full container pack cost on the load-shedding path
        try:
            blob = pack_package(package)
        except Exception:
            with self._lock:
                self._inflight[shard_index] = max(self._inflight[shard_index] - 1, 0)
                self._not_full.notify_all()
            raise
        with self._lock:
            self._pending[pending.request_id] = _PendingEntry(
                pending, shard_index, cache_key, time.perf_counter(), kind, blob,
                deadline_s=deadline_s)
            queue_depth = sum(self._inflight)
        try:
            self._shards[shard_index].request_queue.put(
                ("req", pending.request_id, kind, blob, deadline_s))
        except Exception:
            with self._lock:
                if self._pending.pop(pending.request_id, None) is not None:
                    self._inflight[shard_index] = max(self._inflight[shard_index] - 1, 0)
                self._not_full.notify_all()
            self.local_stats.record_rejected()
            raise
        self.local_stats.record_submitted()
        self.local_stats.record_queue_depth(queue_depth)
        if not self._shards[shard_index].is_alive():
            # the shard died inside our unlocked pack/put window, possibly
            # after the reaper's one-shot sweep retired it — recover the
            # entry ourselves or its future would hang
            with self._lock:
                entry = self._pending.pop(pending.request_id, None)
                if entry is not None:
                    self._inflight[shard_index] = max(self._inflight[shard_index] - 1, 0)
                    self._not_full.notify_all()
            if entry is not None and not self._redispatch(entry):
                self.local_stats.record_failure(1)
                entry.pending._reject(ShardFailedError(
                    f"shard {shard_index} died during submission"))
        return pending

    def submit_bytes(self, data, kind="reconstruct", deadline_s=None):
        """Unpack a wire container (``EASZ`` magic) and queue it."""
        return self.submit(unpack_package(data), kind=kind, deadline_s=deadline_s)

    def current_depth(self):
        """Total in-flight requests across all shards (admission observability)."""
        with self._lock:
            return sum(self._inflight)

    def predicted_shard_depth(self, package, kind="reconstruct"):
        """``(shard_index, inflight)`` the router would pick for this package.

        Deadline-aware admission (:mod:`repro.serve.scenarios`) calls this to
        base its breach prediction on the *routed shard's* queue rather than
        the pool aggregate — with consistent routing a single hot key can
        stack one shard's window while the pool average looks idle.  Purely
        observational: no geometry tracking, no counters move.  When no live
        shard can be routed the pool total is returned under ``(None, ...)``.
        """
        key = self._batch_key(package, kind)
        with self._lock:
            try:
                shard_index = self._route_locked(key)
            except ShardFailedError:
                return None, sum(self._inflight)
            return shard_index, self._inflight[shard_index]

    # ------------------------------------------------------------------ #
    # chaos-harness introspection
    # ------------------------------------------------------------------ #
    def live_shard_indices(self):
        """Indices of shards whose processes are currently alive.

        The chaos driver (:mod:`repro.serve.scenarios`) uses this to pick a
        victim; it is a point-in-time observation, not a guarantee — a shard
        may die (or be restarted by the watchdog) immediately after.
        """
        with self._lock:
            shards = list(self._shards)
        return [shard.index for shard in shards if shard.is_alive()]

    def shard_process(self, index):
        """The live :class:`multiprocessing.Process` behind shard ``index``.

        Exposed for fault injection (SIGKILL/SIGSTOP chaos) and diagnostics
        only — sending work to it directly bypasses routing and admission.
        Returns ``None`` while the slot is down between restarts.
        """
        if not 0 <= index < self.num_shards:
            raise ValueError(f"no shard {index}")
        with self._lock:
            shard = self._shards[index] if self._shards else None
        return shard.process if shard is not None else None

    def shm_ring(self):
        """The live response :class:`~repro.serve.shm.ShmRing` (None when off).

        Chaos scenarios lease slots through it (under a sentinel owner index)
        to exercise ring exhaustion; normal callers never need it.
        """
        return self._shm_ring

    # ------------------------------------------------------------------ #
    # response collection
    # ------------------------------------------------------------------ #
    def _collect_loop(self):
        last_reap = time.perf_counter()
        while True:
            try:
                message = self._response_queue.get(timeout=0.05)
            except queue_module.Empty:
                if self._collector_stop.is_set():
                    return
                now = time.perf_counter()
                if now - last_reap >= 0.25:
                    last_reap = now
                    self._reap_dead_shards()
                continue
            except (EOFError, OSError):
                return
            try:
                self._dispatch_response(message)
            except Exception:  # noqa: BLE001 - one bad message must not
                # kill the collector; every other in-flight future depends
                # on this thread staying alive
                self.local_stats.record_failure(1)

    def _reap_dead_shards(self):
        """Fail (or re-route) the in-flight futures of crashed shard processes.

        Without this, a shard that segfaults or is OOM-killed outside
        :meth:`restart_shard` would strand its callers until their own
        ``result()`` timeouts.  Shards that exited through the drain
        handshake have a ``stopped_snapshot`` and are skipped — their
        responses were flushed before exit.
        """
        if self._closed:
            return  # stop() owns the shutdown bookkeeping
        for shard in self._shards:
            if (shard.is_alive() or shard.draining
                    or shard.stopped_snapshot is not None):
                continue
            with self._lock:
                crashed = [entry for entry in self._pending.values()
                           if entry.shard == shard.index]
                for entry in crashed:
                    del self._pending[entry.pending.request_id]
                self._inflight[shard.index] = 0
                self._not_full.notify_all()
            # mark so the sweep (and telemetry) treats the handle as retired
            shard.stopped_snapshot = {}
            if self._breakers is not None:
                # a dead process is hard evidence — no need to wait for the
                # failure EWMA; routing stops trusting the slot immediately
                self._breakers[shard.index].trip()
            if self._shm_ring is not None:
                # free ring slots the dead shard still leased; any of its
                # responses still queued become stale (seq-bumped) and are
                # dropped safely by _read_shm_response
                self._shm_ring.reclaim(shard.index)
            for entry in crashed:
                error = ShardFailedError(
                    f"shard {shard.index} died (exit code "
                    f"{shard.process.exitcode}) with the request in flight")
                if not self._redispatch(entry):
                    self.local_stats.record_failure(1)
                    entry.pending._reject(error)

    def _redispatch(self, entry):
        """Route a bounced request to another live shard (once); True on success."""
        if entry.redispatched or self._closed:
            return False
        try:
            with self._lock:
                if self._closed:
                    return False
                # only shards with admission-window room: overflowing the
                # window would let the shard's inner queue bounce an
                # already-admitted request with a spurious overload error
                candidates = [shard.index for shard in self._shards
                              if shard.accepts_work() and shard.index != entry.shard
                              and self._inflight[shard.index] < self.queue_depth]
                if not candidates:
                    return False
                target = min(candidates, key=lambda index: self._inflight[index])
                entry.redispatched = True
                entry.shard = target
                self._inflight[target] += 1
                self._pending[entry.pending.request_id] = entry
            self._shards[target].request_queue.put(
                ("req", entry.pending.request_id, entry.kind, entry.blob,
                 entry.deadline_s))
            return True
        except Exception:  # noqa: BLE001 - fall back to failing the future
            with self._lock:
                if self._pending.pop(entry.pending.request_id, None) is not None:
                    self._inflight[entry.shard] = max(
                        self._inflight[entry.shard] - 1, 0)
                    self._not_full.notify_all()
            return False

    def _read_shm_response(self, message):
        """Copy the pixels out of a leased ring slot and ack the lease.

        Returns the image, or ``None`` when the lease is stale (the writing
        shard crashed and the reaper already reclaimed its slots — the slot
        may belong to someone else now, so neither read nor free it on the
        strength of this message).
        """
        _, shard_index, _, slot, seq, nbytes, shape, dtype_name, _ = message
        ring = self._shm_ring
        if ring is None:
            return None
        image = None
        try:
            slot_view = ring.read(slot, nbytes)
            try:
                # copy=True: the slot is recycled the moment we ack, so the
                # response must own its pixels (this is the single parent-side
                # copy of the zero-copy path)
                image = pixels_from_buffer(slot_view, shape, dtype_name, copy=True)
            finally:
                slot_view.release()
        except Exception:  # noqa: BLE001 - a malformed descriptor must not
            image = None   # wedge the collector; the lease is still acked below
        if not ring.release(slot, seq, shard_index):
            return None
        return image

    def _dispatch_response(self, message):
        tag, shard_index, request_id = message[0], message[1], message[2]
        with self._lock:
            entry = self._pending.pop(request_id, None)
            if entry is not None:
                self._inflight[entry.shard] = max(self._inflight[entry.shard] - 1, 0)
                self._not_full.notify_all()
        if tag == "shm" and entry is None:
            # shard restarted underneath it (future already failed), but the
            # lease may still be live — ack it so the slot is not stranded
            # until the reaper's reclaim
            _, _, _, slot, seq = message[:5]
            if self._shm_ring is not None:
                self._shm_ring.release(slot, seq, shard_index)
            return
        if entry is None:  # shard restarted underneath it, future already failed
            return
        if tag in ("ok", "shm"):
            if tag == "shm":
                meta = message[8]
                image = self._read_shm_response(message)
                if image is None:
                    # stale lease: the pixels are unreachable; treat like a
                    # crashed shard so the caller is re-routed or failed
                    if self._breakers is not None:
                        self._breakers[shard_index].record_failure()
                    if not self._redispatch(entry):
                        self.local_stats.record_failure(1)
                        entry.pending._reject(ShardFailedError(
                            f"shard {shard_index} lost its shm lease for "
                            f"request {request_id}"))
                    return
                if entry.cache_key is not None:
                    # the response copy stays private to the caller; the
                    # cache takes its own (lookup() also copies on hits)
                    self.result_cache.put(entry.cache_key, image, copy=True)
                response_image = image
            else:
                _, _, _, buffer, shape, dtype_name, meta = message
                view = pixels_from_buffer(buffer, shape, dtype_name)
                if entry.cache_key is not None:
                    # the read-only view aliases the immutable message bytes,
                    # so the cache can keep it without its defensive copy
                    # (lookup() still copies on every hit)
                    self.result_cache.put(entry.cache_key, view, copy=False)
                response_image = view.copy()
            if self._breakers is not None:
                # outside self._lock by design: breaker locks are leaves
                self._breakers[shard_index].record_success()
            self.local_stats.record_response_transport(
                "shm" if tag == "shm" else "queue")
            entry.pending._resolve(ServeResponse(
                request_id=request_id,
                image=response_image,
                kind=meta["kind"],
                config_summary=dict(meta["config_summary"]),
                # end-to-end from the parent's submit(), so threaded-vs-sharded
                # comparisons include the pack/queue-hop/dispatch overhead the
                # shard-internal clock cannot see
                latency_s=time.perf_counter() - entry.submitted_at,
                batch_size=meta["batch_size"],
                worker=f"shard-{shard_index}/{meta['worker']}",
                transport="shm" if tag == "shm" else "queue",
            ))
            return
        _, _, _, type_name, text = message
        if type_name == "QueueClosedError" and not self._closed:
            # the shard bounced the request because it was mid-drain (a
            # submit() raced restart_shard's stop sentinel); the pool itself
            # is healthy, so place the request on another shard instead of
            # surfacing a spurious shutdown error
            if self._redispatch(entry):
                return
            # a bounce nobody else accepted is a parent-side failure (the
            # shard never counted it)
            self.local_stats.record_failure(1)
        # shard-reported errors are already tallied in that shard's own
        # ServerStats (worker failures / unpack errors / rejected overloads),
        # which the aggregate merges — counting here again would double them
        entry.pending._reject(_rebuild_error(type_name, text))

    # ------------------------------------------------------------------ #
    # shard management
    # ------------------------------------------------------------------ #
    def restart_shard(self, index, graceful=True, timeout=30.0):
        """Replace one shard process while the rest of the pool keeps serving.

        ``graceful=True`` sends the drain handshake first so in-flight
        requests finish on the old process; ``graceful=False`` (or a drain
        timeout) terminates it and fails its in-flight futures with
        :class:`ShardFailedError`.
        """
        if not self._started:
            raise RuntimeError("server not started")
        if not 0 <= index < self.num_shards:
            raise ValueError(f"no shard {index}")
        with self._restart_lock:
            if self._closed:
                raise RuntimeError("server is stopping")
            return self._restart_shard_locked(index, graceful, timeout)

    def _restart_shard_locked(self, index, graceful, timeout):
        shard = self._shards[index]
        deadline = time.perf_counter() + timeout
        if graceful and shard.is_alive():
            # stop routing new work here *before* the drain handshake: the
            # shard ignores its request queue once it sees the stop sentinel,
            # so anything routed afterwards would strand until the timeout
            with self._lock:
                shard.draining = True
            shard.request_queue.put(("stop",))
            self._await_stopped(shard, deadline)
            while time.perf_counter() < deadline:
                with self._lock:
                    if not any(entry.shard == index
                               for entry in self._pending.values()):
                        break
                time.sleep(0.01)
        if shard.process.is_alive():
            shard.process.terminate()
        shard.process.join(timeout=5.0)
        if self._shm_ring is not None:
            # slots the old process still leased are unreachable now; free
            # them (seq bump makes any still-queued acks from it stale)
            self._shm_ring.reclaim(index)
        stranded = []
        with self._lock:
            for request_id, entry in list(self._pending.items()):
                if entry.shard == index:
                    stranded.append(entry)
                    del self._pending[request_id]
            self._inflight[index] = 0
            self._not_full.notify_all()
            if shard.stopped_snapshot:
                # keep the replaced generation's counters so pool totals
                # never go backwards across a restart
                self._retired_snapshots.append((index, shard.stopped_snapshot))
        for entry in stranded:
            error = ShardFailedError(
                f"shard {index} restarted before the request completed")
            if not self._redispatch(entry):
                self.local_stats.record_failure(1)
                entry.pending._reject(error)
        if self._closed:
            raise RuntimeError("server is stopping")
        replacement = self._spawn_shard(index)
        try:
            self._await_ready(replacement)
        except Exception:
            # never leak a half-started process; the slot stays down (the old
            # handle is drained/dead) but nothing orphaned keeps running
            if replacement.process.is_alive():
                replacement.process.terminate()
            replacement.process.join(timeout=1.0)
            raise
        if self._closed:
            # a stop() raced the spawn (it only waits 30s for a wedged
            # watchdog): never hand a live process to a shut-down pool
            replacement.process.terminate()
            replacement.process.join(timeout=1.0)
            raise RuntimeError("server stopped during shard restart")
        self._shards[index] = replacement
        if self._breakers is not None:
            # watchdog/restart coordination: the replacement process starts
            # with a clean slate — an open breaker would shun a healthy shard
            # for the rest of the open window
            self._breakers[index].reset()
        return replacement

    # ------------------------------------------------------------------ #
    # health watchdog
    # ------------------------------------------------------------------ #
    def _heartbeat_age_s(self, index):
        """Seconds since shard ``index`` last stamped its heartbeat (None unknown)."""
        if self._heartbeat is None:
            return None
        stamp = self._heartbeat[index]
        if not stamp:
            return None
        return max(time.time() - stamp, 0.0)

    def _watchdog_reset_s(self):
        """Stable uptime after which a shard's restart backoff resets."""
        return max(10.0 * self.watchdog_interval_s, 5.0)

    def _watchdog_tick(self):
        """One health pass: restart dead (or hung) shards with backoff.

        A shard that keeps dying gets exponentially spaced restart attempts
        (``watchdog_backoff_s`` doubling up to ``watchdog_backoff_cap_s``) so
        a crash loop cannot turn the watchdog into a fork bomb; surviving
        long enough (:meth:`_watchdog_reset_s`) earns the backoff back.
        """
        for index in range(self.num_shards):
            if self._closed or self._watchdog_stop.is_set():
                return
            shard = self._shards[index]
            if shard.draining:
                continue  # restart_shard owns this slot right now
            now = time.monotonic()
            if shard.is_alive():
                age = self._heartbeat_age_s(index)
                hung = (self.watchdog_hang_timeout_s is not None
                        and age is not None and age > self.watchdog_hang_timeout_s)
                if not hung:
                    with self._lock:
                        last = self._watchdog_last_restart[index]
                        if last is not None and now - last > self._watchdog_reset_s():
                            self._watchdog_backoff[index] = self.watchdog_backoff_s
                    continue
                # alive but silent past the hang timeout: treat as wedged
                shard.process.kill()
                shard.process.join(timeout=5.0)
            with self._lock:
                throttled = now < self._watchdog_next_allowed[index]
                backoff = self._watchdog_backoff[index]
            if throttled:
                continue
            restarted = False
            # _restart_lock before _lock is the pool's one sanctioned lock
            # order (_restart_shard_locked takes _lock internally); the
            # backoff reads above released _lock first, never the reverse
            try:
                with self._restart_lock:
                    if self._closed:
                        return
                    current = self._shards[index]
                    if current.process is not shard.process and current.is_alive():
                        continue  # a manual restart already replaced it
                    self._restart_shard_locked(index, graceful=False, timeout=30.0)
                restarted = True
            except Exception:  # noqa: BLE001 - spawn failure: back off, retry
                pass
            with self._lock:
                if restarted:
                    self._watchdog_restarts[index] += 1
                    self._watchdog_last_restart[index] = time.monotonic()
                self._watchdog_next_allowed[index] = time.monotonic() + backoff
                self._watchdog_backoff[index] = min(backoff * 2.0,
                                                    self.watchdog_backoff_cap_s)

    def _watchdog_loop(self):
        while not self._watchdog_stop.wait(self.watchdog_interval_s):
            if self._closed:
                return
            try:
                self._watchdog_tick()
            except Exception:  # noqa: BLE001 - one bad tick must not kill it
                continue

    def watchdog_snapshot(self):
        """Plain-dict watchdog state (part of the aggregate snapshot)."""
        with self._lock:
            restarts = list(self._watchdog_restarts)
            backoff = list(self._watchdog_backoff)
        return {
            "enabled": self.watchdog_interval_s is not None,
            "interval_s": self.watchdog_interval_s,
            "restarts_total": sum(restarts),
            "restarts_by_shard": {index: count for index, count
                                  in enumerate(restarts) if count},
            "backoff_s": backoff,
            "heartbeat_age_s": [self._heartbeat_age_s(index)
                                for index in range(self.num_shards)],
        }

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def shard_snapshots(self, timeout=5.0):
        """``(shard_index, ServerStats.snapshot())`` per reachable shard.

        Keyed by the shard's real index (not list position) so telemetry
        stays correctly attributed when a crashed shard yields no snapshot.
        """
        snapshots = []
        for shard in self._shards:
            if not shard.is_alive():
                if shard.stopped_snapshot is not None:
                    snapshots.append((shard.index, shard.stopped_snapshot))
                continue
            try:
                # one lock span per shard: a stats probe interleaving with a
                # concurrent stop()/restart recv on the same Connection would
                # corrupt the pickle stream (Connections are not thread-safe)
                with self._control_lock:
                    shard.control_conn.send(("stats",))
                    deadline = time.perf_counter() + timeout
                    while time.perf_counter() < deadline:
                        if shard.control_conn.poll(0.05):
                            message = shard.control_conn.recv()
                            if message and message[0] == "stats":
                                snapshots.append((shard.index, message[2]))
                                break
                            if message and message[0] == "stopped":
                                shard.stopped_snapshot = message[2]
                                snapshots.append((shard.index, message[2]))
                                break
                        elif not shard.process.is_alive():
                            break
            except (BrokenPipeError, OSError):
                continue
        return snapshots

    def _merge_snapshots(self, indexed_snapshots):
        """Merge ``(shard_index, snapshot)`` pairs plus the parent counters.

        Snapshots of retired shard generations (drained by
        :meth:`restart_shard`) are folded in so pool totals are monotone
        across restarts.
        """
        with self._lock:
            retired = list(self._retired_snapshots)
        labels = [f"shard-{index}-gen{position}"  # distinct from the live slot
                  for position, (index, _snapshot) in enumerate(retired)]
        labels += [f"shard-{index}" for index, _snapshot in indexed_snapshots]
        pairs = retired + list(indexed_snapshots)
        merged = aggregate_snapshots([snapshot for _index, snapshot in pairs],
                                     labels=labels)
        if retired:
            # summing rates across *generations* of one slot double-counts
            # (they never ran concurrently); the pool-level rate over the
            # whole uptime is the meaningful figure
            merged["throughput_rps"] = (merged["completed"]
                                        / max(merged.get("uptime_s", 0.0), 1e-9))
        local = self.local_stats.snapshot()
        merged["num_shards"] = self.num_shards
        # the parent is the caller-facing admission point: its submitted /
        # rejected counts are authoritative; shard-side counters only see
        # what was forwarded
        merged["submitted"] = local["submitted"]
        merged["rejected"] = merged.get("rejected", 0) + local["rejected"]
        merged["failed"] = merged.get("failed", 0) + local["failed"]
        # sheds happen on both sides of the wire: at the parent's admission
        # point (expired before pack) and on the shards (expired in transit
        # or while queued shard-side)
        merged["deadline_shed"] = (merged.get("deadline_shed", 0)
                                   + local["deadline_shed"])
        merged["completed_cached"] = local["completed_cached"]
        merged["result_cache"] = self.result_cache.stats()
        # the parent is the only observer of how responses crossed the
        # process boundary (shards don't know whether their lease was used)
        transports = dict(merged.get("response_transport", {}))
        for transport, count in local["response_transport"].items():
            transports[transport] = transports.get(transport, 0) + count
        merged["response_transport"] = dict(sorted(transports.items()))
        merged["shm"] = (self._shm_ring.stats() if self._shm_ring is not None
                         else {"enabled": False})
        merged["watchdog"] = self.watchdog_snapshot()
        merged["circuit_breakers"] = (
            [breaker.snapshot() for breaker in self._breakers]
            if self._breakers is not None else {"enabled": False})
        with self._lock:
            merged["inflight"] = list(self._inflight)
        return merged

    def aggregate_snapshot(self):
        """Merged cross-shard snapshot (same keys the threaded server exposes)."""
        return self._merge_snapshots(self.shard_snapshots())
