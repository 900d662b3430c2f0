"""The cross-request result cache, keyed on the digest of the payload itself.

Static scenes (a parked wildlife camera at night, an idle assembly line)
ship byte-identical frames for minutes at a time; decoding the same payload
again is pure waste, so a digest hit returns the finished pixels without
touching a backend at all.  It is shared by every submitter, hence locked.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

__all__ = ["ResultCache"]


class ResultCache:
    """Thread-safe cross-request cache of finished images, keyed on payload digest.

    Every stored/returned image is copied so a caller mutating its response
    cannot corrupt what later cache hits see.  ``capacity == 0`` disables the
    cache entirely (every lookup misses, nothing is stored), which lets the
    servers keep one code path.  Hits and misses are counted by the front
    door's :class:`~repro.serve.telemetry.ServerStats`, not here.
    """

    def __init__(self, capacity=256):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
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

    @property
    def enabled(self):
        return self.capacity > 0

    def lookup(self, key):
        """Return a copy of the cached image for ``key``, or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(key) if self.capacity else None
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry.copy()

    def put(self, key, image):
        """Store a copy of ``image`` under ``key`` (no-op when disabled).

        The copy keeps a caller mutating its own response from corrupting
        later hits.
        """
        if not self.capacity:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            self._entries[key] = image.copy()
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
