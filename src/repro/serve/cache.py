"""Serving caches: a small LRU with hit/miss accounting, plus the result cache.

:class:`LRUCache` is a plain, unlocked least-recently-used map with hit,
miss and eviction counters for single-owner use.

:class:`ResultCache` is a *cross-request* cache keyed on the digest of the
request payload itself.  Static scenes (a parked wildlife camera at night,
an idle assembly line) ship byte-identical frames for minutes at a time;
decoding the same payload again is pure waste, so a digest hit returns the
finished pixels without touching the queue or the workers at all.  It is
shared by every submitter, hence locked, unlike :class:`LRUCache`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

__all__ = ["LRUCache", "ResultCache"]


class LRUCache:
    """A small least-recently-used cache with hit/miss statistics.

    Not thread-safe by design: the owner must not share it between threads.
    """

    def __init__(self, capacity=32, name="cache"):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries = OrderedDict()

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def get(self, key, loader):
        """Return the cached value for ``key``, calling ``loader()`` on a miss."""
        entry = self._entries.get(key)
        if entry is not None or key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        value = loader()
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return value

    @property
    def hit_rate(self):
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self):
        """Plain-dict snapshot for :class:`repro.serve.telemetry.ServerStats`."""
        return {
            "name": self.name,
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def clear(self):
        """Drop every entry (statistics are kept)."""
        self._entries.clear()


class ResultCache:
    """Thread-safe cross-request cache of finished images, keyed on payload digest.

    Every stored/returned image is copied so a caller mutating its response
    cannot corrupt what later cache hits see.  ``capacity == 0`` disables the
    cache entirely (every lookup misses, nothing is stored), which lets the
    servers keep one code path.
    """

    def __init__(self, capacity=256, name="results"):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self.name = name
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        self._entries = OrderedDict()  # guarded-by: _lock

    @staticmethod
    def digest(package, kind):
        """Stable digest of everything that determines a package's pixels.

        Covers the request kind, the erase mask, the base-codec payload and
        name/metadata, and the geometry.  Server-side constants (model
        weights, fill mode, config) are uniform per server instance, so they
        stay out of the key.
        """
        payload = package.codec_payload
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(kind.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(payload.codec_name.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(repr(sorted(payload.metadata.items())).encode("utf-8"))
        hasher.update(repr((tuple(package.grid_shape), tuple(package.original_shape),
                            tuple(package.squeezed_shape))).encode("utf-8"))
        hasher.update(package.mask_bytes)
        hasher.update(payload.payload)
        return hasher.digest()

    def __len__(self):
        with self._lock:
            return len(self._entries)

    @property
    def enabled(self):
        return self.capacity > 0

    def lookup(self, key):
        """Return a copy of the cached image for ``key``, or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key) if self.capacity else None
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return entry.copy()

    def put(self, key, image, copy=True):
        """Store ``image`` under ``key`` (no-op when disabled).

        The stored array is copied by default so a caller mutating its own
        reference cannot corrupt later hits; pass ``copy=False`` only when
        handing over an array no one else will write (e.g. a read-only view
        of immutable wire bytes) to skip the defensive copy.
        """
        if not self.capacity:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            self._entries[key] = image.copy() if copy else image
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def _hit_rate_locked(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def hit_rate(self):
        with self._lock:
            return self._hit_rate_locked()

    def stats(self):
        """Plain-dict snapshot for :class:`repro.serve.telemetry.ServerStats`.

        One lock span covers every counter so the snapshot is internally
        consistent (a concurrent lookup cannot land between the ``hits`` read
        and the ``hit_rate`` computation).
        """
        with self._lock:
            return {
                "name": self.name,
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self._hit_rate_locked(),
            }

    def clear(self):
        with self._lock:
            self._entries.clear()
