"""Shared-memory response ring for the process-sharded server.

The queue path moves every finished image across the process boundary as
``image.tobytes()`` inside a pickled message: the shard copies the pixels
once into the bytes object, pickling copies them again, the pipe copies
them through the kernel in 64 KiB chunks, and the parent copies them a
fourth time out of the unpickled message.  At serving scale those copies — not the reconstruction compute —
become the marginal cost of every response (the 5GC²ache observation:
memory movement dominates once the kernel is fast).

:class:`ShmRing` removes the queue from the pixel path.  The parent creates
one ``multiprocessing.shared_memory`` segment sliced into fixed-size slots;
a shard *leases* a slot, writes the reconstructed pixels straight into it,
and sends only a tiny ``(slot, seq, shape, dtype)`` descriptor over its
response pipe.  The parent reads the pixels out of the slot and *acks* the
lease so the slot returns to the pool.  Two shared arrays make reclamation safe:

* ``owner[slot]`` — which shard holds the lease (0 = free).  Claims scan for
  a free slot under a cross-process lock; releases just clear the owner.
* ``seq[slot]`` — a per-slot generation counter bumped on every claim.  An
  ack must present the ``(owner, seq)`` pair it was issued; a stale message
  from a crashed-and-replaced shard can therefore never free (or corrupt) a
  slot that has already been reclaimed and re-leased.

When the ring is full, a response outgrows ``slot_bytes``, or shared memory
is unavailable on the host (tiny ``/dev/shm`` in a container, missing
``_posixshmem``), shards fall back to the PR-3 queue path per response —
the ring is a fast path, never a requirement.
"""

from __future__ import annotations

import multiprocessing

import numpy as np

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - stdlib module missing on exotic builds
    _shared_memory = None

__all__ = ["ShmRing", "shm_available"]

#: Slot boundaries are rounded up to this many bytes so every slot offset is
#: aligned for any numpy dtype (the zero-copy view path checks alignment).
_SLOT_ALIGN = 64


def _align_up(value, align=_SLOT_ALIGN):
    return ((int(value) + align - 1) // align) * align


def _attach_segment(name):
    """Attach to an existing segment created by the parent of this process tree.

    Shard processes share the parent's resource-tracker process (all
    multiprocessing start methods hand the tracker down), so a shard's attach
    at most re-registers the same name into the tracker's set — it must NOT
    unregister, which would delete the *parent's* registration and leak the
    segment if the parent later crashes before unlinking.
    """
    return _shared_memory.SharedMemory(name=name)


def shm_available():
    """True when the host can actually create a shared-memory segment."""
    if _shared_memory is None:
        return False
    try:
        probe = _shared_memory.SharedMemory(create=True, size=_SLOT_ALIGN)
    except Exception:  # noqa: BLE001 - no /dev/shm, permissions, quota, ...
        return False
    probe.close()
    try:
        probe.unlink()
    except Exception:  # noqa: BLE001 - already gone is fine
        pass
    return True


class ShmRing:
    """A ring of fixed-size shared-memory slots with lease/ack reclamation.

    The parent constructs the ring and ships :meth:`descriptor` to each shard
    process (the arrays and lock travel by multiprocessing inheritance, the
    segment by name); shards rebuild their view with :meth:`attach`.

    Roles are positional, not enforced: shards call :meth:`claim` /
    :meth:`write`, the parent calls :meth:`read` / :meth:`release` /
    :meth:`reclaim`.  All bookkeeping lives in the shared ``owner``/``seq``
    arrays, so either side crashing never wedges the other — the survivor
    can always reclaim by owner index.
    """

    def __init__(self, slot_bytes, num_slots, context=None):
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        if int(slot_bytes) < 1:
            raise ValueError("slot_bytes must be positive")
        if int(num_slots) < 1:
            raise ValueError("num_slots must be positive")
        context = context if context is not None else multiprocessing
        self.slot_bytes = _align_up(slot_bytes)
        self.num_slots = int(num_slots)
        self._segment = _shared_memory.SharedMemory(
            create=True, size=self.slot_bytes * self.num_slots)
        self.name = self._segment.name
        self._claim_lock = context.Lock()
        self._owner = context.RawArray("q", self.num_slots)  # guarded-by: _claim_lock — 0 free, else owner+1
        self._seq = context.RawArray("Q", self.num_slots)  # guarded-by: _claim_lock
        self._created = True

    # ------------------------------------------------------------------ #
    # cross-process plumbing
    # ------------------------------------------------------------------ #
    def descriptor(self):
        """Everything a shard needs to rebuild its view of the ring.

        Must be passed as a ``Process`` argument (the lock and arrays are
        shareable only through multiprocessing inheritance).
        """
        return (self.name, self.slot_bytes, self.num_slots,
                self._owner, self._seq, self._claim_lock)  # lint: allow RP101 - hands the shared arrays to the child; no element access

    @classmethod
    def attach(cls, descriptor):
        """Shard-side constructor from a parent :meth:`descriptor`."""
        name, slot_bytes, num_slots, owner, seq, claim_lock = descriptor
        ring = cls.__new__(cls)
        ring.name = name
        ring.slot_bytes = int(slot_bytes)
        ring.num_slots = int(num_slots)
        ring._segment = _attach_segment(name)
        ring._owner = owner
        ring._seq = seq
        ring._claim_lock = claim_lock
        ring._created = False
        return ring

    # ------------------------------------------------------------------ #
    # shard side: lease + write
    # ------------------------------------------------------------------ #
    def claim(self, owner_index):
        """Lease one free slot for ``owner_index``.

        Returns ``(slot, seq)`` — both must accompany the response message so
        the parent's ack can prove it refers to *this* lease — or ``None``
        when every slot is leased (caller falls back to the queue path).
        """
        owner_tag = int(owner_index) + 1
        with self._claim_lock:
            for slot in range(self.num_slots):
                if self._owner[slot] == 0:
                    self._owner[slot] = owner_tag
                    self._seq[slot] = self._seq[slot] + 1
                    return slot, self._seq[slot]
        return None

    def write(self, slot, array):
        """Copy ``array`` (C-contiguous view taken) into ``slot``; returns nbytes.

        This is the *single* producer-side copy of the zero-copy path — it
        replaces ``tobytes()`` + queue pickling + pipe chunking.
        """
        array = np.ascontiguousarray(array)
        nbytes = array.nbytes
        if nbytes > self.slot_bytes:
            raise ValueError(
                f"response needs {nbytes} bytes but ring slots hold {self.slot_bytes}")
        start = slot * self.slot_bytes
        destination = np.frombuffer(self._segment.buf, dtype=np.uint8,
                                    count=nbytes, offset=start)
        destination[:] = array.reshape(-1).view(np.uint8)
        return nbytes

    # ------------------------------------------------------------------ #
    # parent side: read + ack
    # ------------------------------------------------------------------ #
    def read(self, slot, nbytes):
        """Memoryview over the slot's first ``nbytes`` (no copy).

        The caller must ``release()`` the view before the ring is closed.
        """
        if not 0 <= int(slot) < self.num_slots:
            raise ValueError(f"no slot {slot}")
        if not 0 <= int(nbytes) <= self.slot_bytes:
            raise ValueError(f"slot holds at most {self.slot_bytes} bytes")
        start = int(slot) * self.slot_bytes
        return self._segment.buf[start:start + int(nbytes)]

    def release(self, slot, seq, owner_index):
        """Ack one response: free the slot iff the lease matches.

        A mismatched ``(owner, seq)`` pair means the lease was already
        reclaimed (its shard crashed) and possibly re-issued — freeing it
        now would hand one slot to two writers, so the stale ack is refused.
        Returns whether the slot was freed.
        """
        if not 0 <= int(slot) < self.num_slots:
            return False
        with self._claim_lock:
            if (self._owner[slot] == int(owner_index) + 1
                    and self._seq[slot] == int(seq)):
                self._owner[slot] = 0
                return True
        return False

    def reclaim(self, owner_index):
        """Free every slot leased by ``owner_index`` (a crashed shard).

        Safe to call while that shard's final responses are still queued: the
        seq bump on the next claim makes their acks stale (see
        :meth:`release`), so a reclaimed slot can never be double-freed.
        Returns the number of slots freed.
        """
        owner_tag = int(owner_index) + 1
        freed = 0
        with self._claim_lock:
            for slot in range(self.num_slots):
                if self._owner[slot] == owner_tag:
                    self._owner[slot] = 0
                    self._seq[slot] = self._seq[slot] + 1
                    freed += 1
        return freed

    # ------------------------------------------------------------------ #
    # telemetry + lifecycle
    # ------------------------------------------------------------------ #
    def leased_slots(self):
        with self._claim_lock:
            return sum(1 for owner in self._owner if owner)

    def stats(self):
        """Plain-dict view for the sharded server's telemetry snapshot."""
        return {
            "enabled": True,
            "num_slots": self.num_slots,
            "slot_bytes": self.slot_bytes,
            "leased": self.leased_slots(),
        }

    def close(self):
        """Detach; the creating side also destroys the segment."""
        try:
            self._segment.close()
        except BufferError:  # an un-released read() view still alive
            return
        if self._created:
            try:
                self._segment.unlink()
            except FileNotFoundError:
                pass
