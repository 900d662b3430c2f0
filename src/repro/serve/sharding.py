"""Process-sharded serving: the front door over N shard processes.

The thread-based :class:`~repro.serve.server.CompressionServer` tops out at
one core: the elementwise stages of decode/reconstruct (dequantise, IDCT,
unsqueeze scatter, GELU) hold the GIL, so adding worker threads only
overlaps waiting, not compute.  :class:`ShardedCompressionServer` scales past
that with the same :class:`~repro.serve.server.FrontDoor` — one ``submit()``,
admission window, result cache, router and settlement path — over
:class:`ShardBackend` slots.  Each slot is one process that runs a
one-worker :class:`~repro.serve.worker.ThreadPoolBackend` directly, with its
own model weights, codec tables and plan caches.

Design points:

* **one framed channel per shard** — requests, the ready and drain
  handshakes and responses all cross one socket pair per shard, as frames:
  a small pickled header of plain ints/strings, then for a request its
  ``EASZ`` transport container bytes (:func:`repro.core.pack_package`) and
  for a response its raw pixel bytes.  No live objects, no class pickling,
  so a shard can be restarted without poisoning the parent, and a shard
  killed mid-write breaks only its own channel.  The parent receives the
  pixels straight into the response array in one ``MSG_WAITALL`` call,
  which does not need the GIL while the bytes arrive.  Frames stay in
  order, so a shard's drain acknowledgement arrives after its last response.
* **routing** — the front door hashes a request's routing key to a preferred
  shard (so shard-local caches stay hot), switches a mask to mask-only
  routing once it arrives with a second geometry, spills to the least-loaded
  shard once the preferred one has eight requests in flight, and skips
  shards that are dead, draining or restarting.
* **shared counter cells** — each slot owns one row of float64 cells in
  shared memory: its heartbeat stamp and its service/cache counters.  A shard
  publishes its counters before each response leaves, adding to what
  earlier processes of its slot left, so the pool's counters survive a
  restart or a SIGKILL without any stats round trip.
* **graceful lifecycle** — shards signal readiness before the server accepts
  work, ``stop()`` drains every in-flight request before shutting shards
  down (a shard whose heartbeat shows it frozen is killed instead of waited
  for), and :meth:`~ShardedCompressionServer.restart_shard` replaces a
  shard (gracefully or by force) while the rest of the pool keeps serving.
* **readers and supervisor** — each shard's channel has its own parent
  reader thread, which settles that shard's responses, so a shard frozen
  mid-response holds up no other shard's.  One watchdog thread ticks every
  0.25 s: it fails or re-routes (once) the in-flight requests of a shard
  process that died, then restarts dead shards and hung ones (alive, but no
  heartbeat stamp for 1 s), with exponential backoff for a shard that keeps
  dying.
"""

from __future__ import annotations

import builtins
import contextlib
import multiprocessing
import multiprocessing.connection
import pickle
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import asdict

import numpy as np

from ..core.config import EaszConfig
from ..core.reconstruction import EaszReconstructor
from ..core.transport import pack_package, unpack_package
from .queueing import (DeadlineExceededError, QueueClosedError, ShardFailedError,
                       deadline_expired)
from .server import FrontDoor, ServeRequest
from .worker import ThreadPoolBackend

__all__ = ["ShardedCompressionServer", "ShardBackend", "ShardFailedError"]

_STARTUP_TIMEOUT_S = 120.0
# The watchdog's tick, and the first restart backoff of a dying shard.
_WATCHDOG_INTERVAL_S = 0.25
_WATCHDOG_BACKOFF_CAP_S = 30.0
# A shard that lived this long since its last restart gets its backoff back.
_WATCHDOG_RESET_S = 5.0
# Shards stamp their heartbeat every loop iteration (<= 50 ms idle; serving
# and draining never block the loop).  The largest age a healthy shard showed on a
# saturated 2-vCPU pool, beside two busy loops too, was under 0.25 s, so 1 s
# of silence from a live process means wedged, not busy.
_HANG_TIMEOUT_S = 1.0

# One row of float64 cells per shard slot: the heartbeat stamp, the service
# counters, then (hits, misses, size) of the plan and codec caches.
_HEARTBEAT = 0
_COUNTERS = ("batches", "queue_wait_seconds_total", "service_seconds_total",
             "busy_seconds_total")
_CACHES = ("squeeze_plans", "codecs")
_CACHE_CELLS = 1 + len(_COUNTERS)
_SIZE_CELLS = [_CACHE_CELLS + 3 * position + 2 for position in range(len(_CACHES))]
_ROW_CELLS = _CACHE_CELLS + 3 * len(_CACHES)

# Each frame on a shard's channel starts with one fixed-size block: the
# pickled header's byte length, then the header (padded; a longer one, such
# as a long error message, runs on past the block), then an "ok"'s pixels or
# a "req"'s container bytes.  The fixed block lets the parent read a response
# in two receive calls; each call drops the GIL, and under load every
# reacquisition can cost the 5 ms switch interval.
_HEADER_SIZE = struct.Struct("!I")
_BLOCK_BYTES = 256


# --------------------------------------------------------------------------- #
# counter cells
# --------------------------------------------------------------------------- #
def _counter_cells(counters):
    """A backend's counters as one row of cells (heartbeat cell left at 0)."""
    cells = np.zeros(_ROW_CELLS)
    cells[1:_CACHE_CELLS] = [counters[name] for name in _COUNTERS]
    for position, cache in enumerate(counters["caches"]):
        first = _CACHE_CELLS + 3 * position
        cells[first:first + 3] = cache["hits"], cache["misses"], cache["size"]
    return cells


def _cells_counters(cells):
    """The inverse of :func:`_counter_cells`: a backend counters dict."""
    counters = {name: float(cells[1 + position]) for position, name in enumerate(_COUNTERS)}
    counters["batches"] = int(counters["batches"])
    counters["caches"] = []
    for position, name in enumerate(_CACHES):
        hits, misses, size = cells[_CACHE_CELLS + 3 * position:][:3]
        counters["caches"].append({"name": name, "hits": int(hits),
                                   "misses": int(misses), "size": int(size)})
    return counters


# --------------------------------------------------------------------------- #
# channel framing
# --------------------------------------------------------------------------- #
def _send_frame(sock, header, payload=None):
    """Write one frame: its header block, then ``payload``'s bytes, if any."""
    data = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER_SIZE.pack(len(data))
                 + data.ljust(_BLOCK_BYTES - _HEADER_SIZE.size, b"\0"))
    if payload is not None:  # an array's bytes go in C order, whatever its strides
        sock.sendall(np.ascontiguousarray(payload) if isinstance(payload, np.ndarray)
                     else payload)


def _recv_exact(sock, buffer):
    """Fill and return ``buffer`` from ``sock``; ``EOFError`` when the writer
    went away first."""
    view = memoryview(buffer)
    while len(view):
        received = sock.recv_into(view, len(view), socket.MSG_WAITALL)
        if not received:
            raise EOFError("shard channel closed mid-frame")
        view = view[received:]
    return buffer


def _recv_frame(sock):
    """Read one frame: the header tuple, with an ``"ok"``'s pixels in place
    of its shape and dtype, and a ``"req"``'s container bytes for its size."""
    block = _recv_exact(sock, bytearray(_BLOCK_BYTES))
    size = _HEADER_SIZE.unpack_from(block)[0]
    data = block[_HEADER_SIZE.size:_HEADER_SIZE.size + size]
    if len(data) < size:  # the header ran on past the block
        data += _recv_exact(sock, bytearray(size - len(data)))
    header = pickle.loads(data)
    if header[0] == "ok":
        tag, index, request_id, shape, dtype_name, worker = header
        image = np.empty(shape, dtype=dtype_name)
        _recv_exact(sock, image.reshape(-1).view(np.uint8))
        return tag, index, request_id, image, worker
    if header[0] == "req":
        return (*header[:-1], _recv_exact(sock, bytearray(header[-1])))
    return header


# --------------------------------------------------------------------------- #
# shard-process side
# --------------------------------------------------------------------------- #
def _rebuild_error(type_name, message):
    """Best-effort reconstruction of a shard-side exception in the parent."""
    known = {error.__name__: error for error in (QueueClosedError, DeadlineExceededError)}
    candidate = known.get(type_name, getattr(builtins, type_name, None))
    if isinstance(candidate, type) and issubclass(candidate, Exception):
        try:
            return candidate(message)
        except Exception:  # noqa: BLE001 - constructor signature mismatch
            pass
    return ShardFailedError(f"{type_name}: {message}")


def _shard_main(index, channel, config_kwargs, model_state, cells):
    """Entry point of one shard process.

    Rebuilds the model from the shipped ``state_dict``, sends the ready
    frame on ``channel`` and runs a one-worker :class:`ThreadPoolBackend`
    whose settle hook answers each ``("req", id, kind, deadline_s, size)``
    frame (``deadline_s`` a CLOCK_MONOTONIC stamp or ``None``, checked
    *before* the container is unpacked) with an ``"ok"`` or ``"err"`` frame;
    a stop frame is answered with ``"stopped"`` once the queue is served.
    The heartbeat cell (CLOCK_MONOTONIC, shared host-wide) is stamped every
    loop iteration so the parent's watchdog can tell busy from hung.
    """
    config = EaszConfig(**config_kwargs)
    model = EaszReconstructor(config)
    model.load_state_dict(model_state)
    model.eval()
    row = np.frombuffer(cells, dtype=np.float64).reshape(-1, _ROW_CELLS)[index]
    base = row.copy()  # what earlier processes of this slot published
    base[_SIZE_CELLS] = 0.0  # cache sizes are this process's own
    send_lock = threading.Lock()  # one reply at a time (none races ready/stopped)

    def reply(request_id, image=None, error=None, worker=""):
        with send_lock:
            if error is not None:
                _send_frame(channel, ("err", index, request_id, type(error).__name__, str(error)))
                return
            row[1:] = base[1:] + _counter_cells(backend.counters())[1:]
            header = ("ok", index, request_id, image.shape, str(image.dtype), worker)
            _send_frame(channel, header, image)

    backend = ThreadPoolBackend(model, config, reply, num_workers=1)
    backend.start()
    row[_HEARTBEAT] = time.monotonic()
    try:
        _send_frame(channel, ("ready", index, backend.blas_threads))
        # after the stop frame the worker serves what is queued, then exits; a
        # request routed here before the parent saw the drain meets the closed
        # queue, and its QueueClosedError makes the parent re-route it
        while not backend.stopping or backend.workers[0].is_alive():
            row[_HEARTBEAT] = time.monotonic()
            if backend.stopping:  # draining: a 50 ms join sees the worker's exit at once
                backend.workers[0].join(timeout=0.05)
            if not multiprocessing.connection.wait([channel], 0.0 if backend.stopping else 0.05):
                continue
            message = _recv_frame(channel)
            if message[0] == "stop":
                backend.close()
                continue
            _, request_id, kind, deadline_s, blob = message
            # deadlines ride the wire as absolute CLOCK_MONOTONIC stamps, so
            # this is the cheapest possible shed point on the shard: before
            # the container even gets unpacked
            if deadline_expired(deadline_s):
                reply(request_id, error=DeadlineExceededError(
                    f"request {request_id} expired before the shard unpacked it"))
                continue
            try:
                backend.send(ServeRequest(request_id, unpack_package(blob), kind,
                                          time.perf_counter(), deadline_s=deadline_s))
            except Exception as error:  # noqa: BLE001 - bad wire bytes, or drained
                reply(request_id, error=error)
        _send_frame(channel, ("stopped", index))
    except (EOFError, ConnectionError, KeyboardInterrupt):  # parent went away
        backend.stop(time.perf_counter() + 1.0)


# --------------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------------- #
class ShardBackend:
    """One shard slot, parent side: its process, channel and counter cells.

    The slot outlives its processes: a restart spawns a new process into the
    same object.  Each process's channel gets two threads: a sender
    (``shard-N-sender``) writes the frames queued by :meth:`send` and
    :meth:`drain`, and a reader (``shard-N-reader``) hands each response to
    ``settle`` — the front door's settlement hook — until the channel's EOF.
    ``draining`` stops routing here while a restart is under way; ``stopped``
    is set once the process acknowledged the drain.
    ``restarts`` (attempts) / ``backoff_s`` / ``next_restart_at`` /
    ``last_restart`` are the watchdog's bookkeeping, written by the watchdog
    thread only.
    """

    def __init__(self, index, settle):
        self.index = index
        self.settle = settle
        self.label = f"shard-{index}/server"
        self.process = None
        self.channel = None
        self.blas_threads = None  # as the process reported it when ready
        self.draining = False
        self.stopped = threading.Event()
        self.row = None
        self.shared = ()
        self._spawned = None  # (process, channel) until ready
        self._outbox_ready = threading.Condition(threading.Lock())
        self._outbox = None  # guarded-by: _outbox_ready — the sender's frames; None: retired
        self._sender = None
        self._reader = None
        self.restarts = 0
        self.backoff_s = _WATCHDOG_INTERVAL_S
        self.next_restart_at = 0.0
        self.last_restart = None

    # the backend surface the front door uses ---------------------------- #
    def accepts_work(self):
        return self.is_alive() and not self.draining

    def send(self, request):
        blob = pack_package(request.package)
        header = ("req", request.request_id, request.kind, request.deadline_s, len(blob))
        if not self._post(header, blob):
            raise ShardFailedError(f"shard {self.index} retired before the request was sent")

    def counters(self):
        return _cells_counters(self.row if self.row is not None else np.zeros(_ROW_CELLS))

    def _post(self, header, payload=None):
        """Queue one frame for the sender; False once the channel is retired."""
        with self._outbox_ready:
            if self._outbox is None:
                return False
            self._outbox.append((header, payload))
            self._outbox_ready.notify()
            return True

    def _send_loop(self, channel, outbox):
        """Write ``outbox``'s frames to ``channel`` until it is retired or breaks."""
        while True:
            with self._outbox_ready:
                while outbox is self._outbox and not outbox:
                    self._outbox_ready.wait()
                if outbox is not self._outbox:
                    return
                header, payload = outbox.popleft()
            try:
                _send_frame(channel, header, payload)
            except OSError:  # the process died, or kill() shut the channel
                return

    def _read_loop(self, channel, stopped):
        """Settle ``channel``'s responses until its EOF; the drain
        acknowledgement sets ``stopped``, the event of this process only."""
        while True:
            try:
                message = _recv_frame(channel)
            except (EOFError, OSError):  # the writing process is gone
                return
            if message[0] == "stopped":
                stopped.set()
                continue
            tag, index, request_id = message[:3]
            try:
                if tag == "err":
                    # a shard mid-drain bounces late requests: the pool itself
                    # is healthy, so they are re-routed rather than failed
                    self.settle(request_id, error=_rebuild_error(*message[3:]),
                                lost=message[3] == "QueueClosedError")
                else:
                    image, worker = message[3:]
                    self.settle(request_id, image=image, worker=f"shard-{index}/{worker}",
                                transport="queue")
            except Exception as error:  # noqa: BLE001 - one bad frame must not end the reader
                self.settle(request_id, error=ShardFailedError(
                    f"unreadable response from shard {index}: {error!r}"))

    # process lifecycle --------------------------------------------------- #
    def is_alive(self):
        return self.process is not None and self.process.is_alive()

    def crashed(self):
        """Dead without the drain handshake, and no restart under way."""
        return (self.process is not None and not self.process.is_alive()
                and not self.draining and not self.stopped.is_set())

    def hung(self):
        """Alive, but silent past the hang timeout: wedged, not busy."""
        return self.is_alive() and (self.heartbeat_age_s() or 0.0) > _HANG_TIMEOUT_S

    def spawn(self, context):
        """Start a new process for this slot; :meth:`await_ready` publishes it."""
        channel, child_end = socket.socketpair()
        process = context.Process(
            target=_shard_main, name=f"easz-shard-{self.index}",
            args=(self.index, child_end) + self.shared, daemon=True)
        process.start()
        child_end.close()  # the child holds the only other end
        self._spawned = (process, channel)

    def await_ready(self):
        """Read the spawned process's ready frame, then route to it."""
        process, channel = self._spawned
        self._spawned = None
        # only the process holds the other end: if it dies first, this is EOF
        channel.settimeout(_STARTUP_TIMEOUT_S)
        try:
            ready = _recv_frame(channel)
        except (EOFError, OSError):  # socket.timeout is an OSError
            ready = None
        channel.settimeout(None)
        if ready is None:
            process.terminate()
            process.join(timeout=5.0)
            channel.close()
            raise ShardFailedError(f"shard {self.index} not ready "
                                   f"(exit code {process.exitcode})")
        self.stopped = threading.Event()
        self.channel = channel
        outbox = deque()
        with self._outbox_ready:
            self._outbox = outbox
        self._sender = threading.Thread(target=self._send_loop, args=(channel, outbox),
                                        name=f"shard-{self.index}-sender", daemon=True)
        self._sender.start()
        self._reader = threading.Thread(target=self._read_loop, args=(channel, self.stopped),
                                        name=f"shard-{self.index}-reader", daemon=True)
        self._reader.start()
        self.process = process
        self.blas_threads = ready[2]

    def drain(self):
        """Queue the stop frame: the shard serves what it has, then exits."""
        self._post(("stop",))

    def await_stopped(self, deadline):
        """Wait for the drain acknowledgement, the reader's EOF or
        ``deadline``; kill a hung process, which never drains."""
        while (self._reader.is_alive() and time.perf_counter() < deadline
               and not self.stopped.wait(0.05)):
            if self.hung():
                self.kill()

    def kill(self, timeout=5.0):
        """Retire the channel, end the process (if alive) and its reader, and
        close the channel: the one place a ready channel ends.

        Retiring drops the queued frames and ends the sender: shutting the
        write side fails a send blocked on a frozen process at once, and what
        the process wrote stays readable.  A frozen (SIGSTOPped) process never
        acts on SIGTERM, and multiprocessing's exit handler would join it
        forever: SIGKILL it, at once when its heartbeat already shows it hung.
        The reaped process held the channel's only other end: the reader
        settles what it wrote, then meets EOF.
        """
        with self._outbox_ready:
            self._outbox = None
            self._outbox_ready.notify_all()
        with contextlib.suppress(OSError):  # an earlier kill() closed it
            self.channel.shutdown(socket.SHUT_WR)
        self._sender.join(timeout=5.0)
        if not self.hung():
            self.process.terminate()
            self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        self._reader.join(timeout=5.0)
        self.channel.close()

    def heartbeat_age_s(self):
        """Seconds since the shard last stamped its heartbeat (None unknown)."""
        stamp = self.row[_HEARTBEAT] if self.row is not None else 0.0
        return max(time.monotonic() - stamp, 0.0) if stamp else None


class ShardedCompressionServer(FrontDoor):
    """Decode/reconstruct service sharded over N processes.

    The same surface as :class:`~repro.serve.server.CompressionServer` —
    ``submit`` / ``submit_bytes`` returning futures, ``stats.snapshot()``,
    ``start``/``stop``/context-manager lifecycle — executed on ``num_shards``
    shard processes of one worker thread each.  ``queue_depth`` is the
    in-flight window of each shard; the front door rejects before a request
    ever crosses the process boundary.

    A started server always supervises its shards.  Every 0.25 s its
    watchdog thread fails or re-routes (once) the in-flight requests of a
    shard that died, then restarts in place every shard that is dead or
    *alive but silent* (no heartbeat stamp for 1 s), with exponential
    backoff from one tick up to 30 s for a shard that keeps dying.
    Restart counts and heartbeat ages are in ``stats.snapshot()["watchdog"]``.
    """

    def __init__(self, model=None, config=None, num_shards=2, queue_depth=64,
                 result_cache_size=0):
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = int(num_shards)
        super().__init__(model, config,
                         [ShardBackend(index, self._settle) for index in range(self.num_shards)],
                         queue_depth=queue_depth, result_cache_size=result_cache_size)
        self._context = multiprocessing.get_context()
        self._restart_lock = threading.Lock()  # one restart at a time
        self._cells = None
        self._watchdog = None
        self._watchdog_stop = threading.Event()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _start_backends(self):
        """Spawn the shard pool, wait for readiness, start the watchdog."""
        if self._watchdog is not None:
            # a previous stop() timed out on a watchdog stuck in a slow
            # restart; wait it out, or two watchdog loops would run
            self._watchdog.join()
            self._watchdog = None
        self._cells = self._context.RawArray("d", self.num_shards * _ROW_CELLS)
        rows = np.frombuffer(self._cells, dtype=np.float64).reshape(self.num_shards, _ROW_CELLS)
        shared = (asdict(self.config), dict(self.model.state_dict()), self._cells)
        try:
            for shard, row in zip(self._backends, rows):
                shard.row, shard.shared = row, shared
                shard.restarts, shard.backoff_s = 0, _WATCHDOG_INTERVAL_S
                shard.next_restart_at, shard.last_restart = 0.0, None
                shard.spawn(self._context)
            for shard in self._backends:
                shard.await_ready()
        except Exception:
            for shard in self._backends:
                if shard._spawned is not None:
                    shard._spawned[0].terminate()
                    shard._spawned[1].close()
                    shard._spawned = None
                if shard.process is not None:
                    shard.kill()
            raise
        self._watchdog_stop.clear()
        self._watchdog = threading.Thread(target=self._watchdog_loop,
                                          name="shard-watchdog", daemon=True)
        self._watchdog.start()

    def _stop_backends(self, deadline):
        """Drain every shard; fail the requests of shards that died instead."""
        # quiesce the watchdog first so no auto-restart races the shutdown
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=30.0)
            if not self._watchdog.is_alive():
                self._watchdog = None
            # else: it is stuck inside a slow restart; the next start() waits
            # it out, and _restart_locked kills any replacement it spawns
        for shard in self._backends:
            if shard.is_alive():
                shard.drain()
        for shard in self._backends:
            shard.await_stopped(deadline)
        # a shard's responses precede its acknowledgement (or its EOF) on its
        # channel, so its reader has settled them: reap what died with
        # requests unanswered, then end every process
        self._reap()
        for shard in self._backends:
            shard.kill(timeout=max(deadline - time.perf_counter(), 0.1))

    # ------------------------------------------------------------------ #
    # admission observability + chaos-harness introspection
    # ------------------------------------------------------------------ #
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
                index = self._route_locked(key)
            except ShardFailedError:
                return None, sum(self._inflight)
            return index, self._inflight[index]

    def live_shard_indices(self):
        """Indices of shards whose processes are currently alive.

        The chaos driver (:mod:`repro.serve.scenarios`) uses this to pick a
        victim; it is a point-in-time observation, not a guarantee — a shard
        may die (or be restarted by the watchdog) immediately after.
        """
        return [shard.index for shard in self._backends if shard.is_alive()]

    def shard_process(self, index):
        """The :class:`multiprocessing.Process` behind shard ``index``.

        Exposed for fault injection (SIGKILL/SIGSTOP chaos) and diagnostics
        only — sending work to it directly bypasses routing and admission.
        """
        if not 0 <= index < self.num_shards:
            raise ValueError(f"no shard {index}")
        return self._backends[index].process

    # ------------------------------------------------------------------ #
    # crash reaping
    # ------------------------------------------------------------------ #
    def _reap(self):
        """Fail (or re-route) the in-flight requests of crashed shard processes.

        Without this, a shard that segfaults or is OOM-killed outside
        :meth:`restart_shard` would strand its callers until their own
        ``result()`` timeouts.  The watchdog runs it every tick, and
        :meth:`_stop_backends` once the watchdog is quiesced.
        """
        for shard in self._backends:
            if not shard.crashed():
                continue
            self._fail_backend(shard.index, ShardFailedError(
                f"shard {shard.index} died (exit code {shard.process.exitcode}) "
                "with the request in flight"))

    # ------------------------------------------------------------------ #
    # shard management
    # ------------------------------------------------------------------ #
    def restart_shard(self, index, graceful=True, timeout=30.0):
        """Replace one shard process while the rest of the pool keeps serving.

        ``graceful=True`` sends the drain handshake first so in-flight
        requests finish on the old process; ``graceful=False`` (or a drain
        timeout) terminates it and re-routes its in-flight requests once
        (failing them with :class:`ShardFailedError` when no shard can take
        them).
        """
        if not self._started:
            raise RuntimeError("server not started")
        if not 0 <= index < self.num_shards:
            raise ValueError(f"no shard {index}")
        with self._restart_lock:
            if self._closed:
                raise RuntimeError("server is stopping")
            return self._restart_locked(index, graceful, timeout)

    def _restart_locked(self, index, graceful, timeout):
        shard = self._backends[index]
        deadline = time.perf_counter() + timeout
        # stop routing here *before* the drain handshake: the shard bounces
        # requests that arrive after the stop frame
        with self._lock:
            shard.draining = True
        try:
            if graceful and shard.is_alive():
                shard.drain()
                shard.await_stopped(deadline)
            shard.kill()
            self._fail_backend(index, ShardFailedError(
                f"shard {index} restarted before the request completed"))
            if self._closed:
                raise RuntimeError("server is stopping")
            shard.spawn(self._context)
            shard.await_ready()
            if self._closed:
                # a stop() raced the spawn: never hand a live process to a
                # shut-down pool
                shard.kill(timeout=1.0)
                raise RuntimeError("server stopped during shard restart")
        finally:
            with self._lock:
                shard.draining = False
        return shard

    # ------------------------------------------------------------------ #
    # health watchdog
    # ------------------------------------------------------------------ #
    def _watchdog_tick(self):
        """One health pass: reap, then restart dead (or hung) shards with backoff.

        A shard that keeps dying gets exponentially spaced restart attempts
        (one tick, doubling up to 30 s) so a crash loop cannot turn the
        watchdog into a fork bomb; surviving ``_WATCHDOG_RESET_S`` earns the
        backoff back.
        """
        self._reap()
        for index, shard in enumerate(self._backends):
            if self._closed or self._watchdog_stop.is_set():
                return
            if shard.draining:
                continue  # restart_shard owns this slot right now
            now = time.monotonic()
            if shard.is_alive():
                if not shard.hung():
                    if (shard.last_restart is not None
                            and now - shard.last_restart > _WATCHDOG_RESET_S):
                        shard.backoff_s = _WATCHDOG_INTERVAL_S
                    continue
                # alive but silent past the hang timeout: treat as wedged,
                # and re-route its requests now even if backoff delays the
                # restart
                shard.kill()
                self._reap()
            if now < shard.next_restart_at:
                continue
            backoff = shard.backoff_s
            try:
                with self._restart_lock:
                    if self._closed:
                        return
                    if shard.is_alive():
                        continue  # a manual restart already replaced it
                    # counted before the replacement becomes routable, so
                    # whoever sees the new process also sees the restart
                    shard.restarts += 1
                    shard.last_restart = time.monotonic()
                    self._restart_locked(index, graceful=False, timeout=30.0)
            except Exception:  # noqa: BLE001 - spawn failure: back off, retry
                pass
            shard.next_restart_at = time.monotonic() + backoff
            shard.backoff_s = min(backoff * 2.0, _WATCHDOG_BACKOFF_CAP_S)

    def _watchdog_loop(self):
        while not self._watchdog_stop.wait(_WATCHDOG_INTERVAL_S):
            if self._closed:
                return
            try:
                self._watchdog_tick()
            except Exception:  # noqa: BLE001 - one bad tick must not kill it
                continue

    def watchdog_snapshot(self):
        """Plain-dict watchdog state (part of ``stats.snapshot()``)."""
        restarts = [shard.restarts for shard in self._backends]
        return {
            "restarts_total": sum(restarts),
            "restarts_by_shard": {index: count for index, count
                                  in enumerate(restarts) if count},
            "backoff_s": [shard.backoff_s for shard in self._backends],
            "heartbeat_age_s": [shard.heartbeat_age_s() for shard in self._backends],
        }

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def _telemetry(self):
        view = super()._telemetry()
        view["num_shards"] = self.num_shards
        view["watchdog"] = self.watchdog_snapshot()
        return view
