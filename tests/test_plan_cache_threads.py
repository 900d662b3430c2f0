"""The module-level plan caches must be safe to share between threads.

Serving workers, shard threads and library callers all look up
:func:`get_squeeze_plan` and :func:`get_pixel_plan` concurrently.  A
hand-rolled ``OrderedDict`` LRU (``get`` → ``move_to_end`` → ``popitem``)
raises ``KeyError`` when another thread evicts the key between two of those
steps; this test hammers both caches with more distinct masks than they hold
and a tiny GIL switch interval so the interleavings actually happen.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.core import get_pixel_plan, get_squeeze_plan, random_mask

_THREADS = 8
_LOOKUPS = 4000
_MASKS = 400
_GRID = 8
#: Generous bound on one hammering round (a few seconds on 2 CPUs).
_JOIN_TIMEOUT_S = 120.0


def _distinct_masks():
    rng = np.random.default_rng(0)
    masks, seen = [], set()
    while len(masks) < _MASKS:
        mask = random_mask(_GRID, 2, rng=rng)
        key = mask.tobytes()
        if key not in seen:
            seen.add(key)
            masks.append(mask)
    return masks


def _hammer(lookup, masks):
    """Run ``lookup(mask)`` from many threads; return every exception raised."""
    errors = []
    start = threading.Barrier(_THREADS)

    def worker(seed):
        order = np.random.default_rng(seed).integers(len(masks), size=_LOOKUPS)
        start.wait(timeout=_JOIN_TIMEOUT_S)
        try:
            for index in order:
                lookup(masks[index])
        except Exception as error:  # noqa: BLE001 - collected and asserted below
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=_JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads), "lookup threads hung"
    return errors


def test_squeeze_and_pixel_plan_caches_survive_concurrent_eviction():
    masks = _distinct_masks()
    squeeze_errors = _hammer(lambda mask: get_squeeze_plan(mask, 2), masks)
    pixel_errors = _hammer(lambda mask: get_pixel_plan(mask, (16, 16), 16, 2), masks)
    assert squeeze_errors == [] and pixel_errors == [], (
        f"get_squeeze_plan raised {squeeze_errors[:3]!r}, "
        f"get_pixel_plan raised {pixel_errors[:3]!r}")
    # the cache still answers with one shared plan per key
    assert get_squeeze_plan(masks[0], 2) is get_squeeze_plan(masks[0].copy(), 2)
    assert (get_pixel_plan(masks[0], (16, 16), 16, 2)
            is get_pixel_plan(masks[0].copy(), (16, 16), 16, 2))
