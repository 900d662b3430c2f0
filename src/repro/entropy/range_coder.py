"""Byte-oriented adaptive range coder (the entropy backend).

Entropy-codes the symbols of the BPG-proxy and learned codecs.  It replaced
the seed's bit-at-a-time Witten–Neal–Cleary coder, which now lives only in
``benchmarks/seed_reference.py`` as the measurement baseline.  The coder is
an LZMA-style carry-counting range coder:
renormalisation moves whole *bytes* between the 32-bit ``range`` register
and the output stream (the classic ``cache``/``cache_size`` pending-0xFF
technique resolves carries exactly), so coding a symbol costs a handful of
integer operations instead of one Python-level loop iteration per output
*bit*.

Adaptive-model semantics are identical to :class:`~repro.entropy.arithmetic.
AdaptiveModel` (Laplace-smoothed counts, +32 per coded symbol, halving when
the total saturates 2^16), so compression ratios match the seed coder to
within a few bytes.  Payloads carry a format tag — see
:func:`repro.entropy.arithmetic.encode_symbols`.

Two performance layers sit on top of the streaming API:

* **Fenwick shadow states** — the coder keeps a private Fenwick-tree mirror
  of every :class:`AdaptiveModel` it codes with (plain Python ints, built
  once per model).  Cumulative-frequency lookups and count updates are
  O(log K) list operations in the inner loop instead of numpy slice
  arithmetic; :meth:`RangeEncoder.finish` / :meth:`RangeDecoder.sync_models`
  write the final counts back so model state stays observable and matches
  the seed coder symbol-for-symbol.
* **symbol-array entry points** — :meth:`RangeEncoder.encode_array` and
  :meth:`RangeDecoder.decode_array` consume/produce whole numpy symbol
  arrays with the model and coder state bound to local variables, which is
  how the block codecs feed entire coefficient scans per call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RangeEncoder", "RangeDecoder"]

_TOP = 1 << 24          # renormalise while range < 2^24 (byte at a time)
_MASK32 = 0xFFFFFFFF
_MAX_TOTAL = 1 << 16    # AdaptiveModel's saturation bound
_INCREMENT = 32


class _ModelState:
    """Fenwick-tree shadow of one adaptive model (plain-Python hot state)."""

    __slots__ = ("model", "counts", "tree", "total", "msb", "num_symbols")

    def __init__(self, model):
        self.model = model
        self.num_symbols = model.num_symbols
        self.counts = [int(c) for c in model.counts]
        self.total = int(sum(self.counts))
        msb = 1
        while (msb << 1) <= self.num_symbols:
            msb <<= 1
        self.msb = msb
        self._build_tree()

    def _build_tree(self):
        n = self.num_symbols
        tree = [0] * (n + 1)
        counts = self.counts
        for index in range(n):
            j = index + 1
            tree[j] += counts[index]
            parent = j + (j & -j)
            if parent <= n:
                tree[parent] += tree[j]
        self.tree = tree

    def rescale(self):
        """Halve all counts (AdaptiveModel's saturation rule) and rebuild."""
        self.counts = [c // 2 if c > 1 else 1 for c in self.counts]
        self.total = sum(self.counts)
        self._build_tree()

    def sync_back(self):
        """Write the shadow counts back into the numpy model."""
        self.model.set_counts(self.counts)


class RangeEncoder:
    """Streaming range encoder: ``encode(model, symbol)`` codes one symbol
    under an :class:`~repro.entropy.arithmetic.AdaptiveModel`."""

    def __init__(self):
        self._out = bytearray()
        self._low = 0
        self._range = _MASK32
        self._cache = 0
        self._cache_size = 1
        self._states = {}

    # ------------------------------------------------------------------ #
    def _state(self, model):
        state = self._states.get(id(model))
        if state is None:
            state = _ModelState(model)
            self._states[id(model)] = state
        return state

    def _shift_low(self):
        low = self._low
        if low < 0xFF000000 or low > _MASK32:
            carry = low >> 32
            self._out.append((self._cache + carry) & 0xFF)
            if self._cache_size > 1:
                self._out.extend(((0xFF + carry) & 0xFF,) * (self._cache_size - 1))
            self._cache = (low >> 24) & 0xFF
            self._cache_size = 0
        self._cache_size += 1
        self._low = (low & 0xFFFFFF) << 8

    def encode(self, model, symbol):
        """Encode one ``symbol`` under ``model`` and update the model."""
        self.encode_array(model, (int(symbol),))

    def encode_array(self, model, symbols):
        """Encode a whole symbol sequence under one model (the fast path)."""
        state = self._state(model)
        counts = state.counts
        tree = state.tree
        total = state.total
        n = state.num_symbols
        low = self._low
        rng = self._range
        cache = self._cache
        cache_size = self._cache_size
        out = self._out
        append = out.append
        extend = out.extend
        if isinstance(symbols, np.ndarray):
            symbols = symbols.tolist()  # lint: allow RP004 - scalar Fenwick loop wants python ints, not numpy scalars
        for s in symbols:
            s = int(s)
            # Fenwick prefix sum: cumulative count of symbols < s
            cum_low = 0
            j = s
            while j > 0:
                cum_low += tree[j]
                j &= j - 1
            freq = counts[s]
            r = rng // total
            low += cum_low * r
            rng = r * freq
            while rng < _TOP:
                if low < 0xFF000000 or low > _MASK32:
                    carry = low >> 32
                    append((cache + carry) & 0xFF)
                    if cache_size > 1:
                        extend(((0xFF + carry) & 0xFF,) * (cache_size - 1))
                    cache = (low >> 24) & 0xFF
                    cache_size = 0
                cache_size += 1
                rng <<= 8
                low = (low & 0xFFFFFF) << 8
            # adaptive update (AdaptiveModel semantics: +32, halve past 2^16)
            counts[s] += _INCREMENT
            j = s + 1
            while j <= n:
                tree[j] += _INCREMENT
                j += j & -j
            total += _INCREMENT
            if total > _MAX_TOTAL:
                state.rescale()
                counts = state.counts
                tree = state.tree
                total = state.total
        state.total = total
        self._low = low
        self._range = rng
        self._cache = cache
        self._cache_size = cache_size

    def finish(self):
        """Flush the coder, sync model shadows back, return the payload."""
        for _ in range(5):
            self._shift_low()
        self.sync_models()
        return bytes(self._out)

    def sync_models(self):
        """Write every shadow state back into its numpy model."""
        for state in self._states.values():
            state.sync_back()


class RangeDecoder:
    """Streaming range decoder mirroring :class:`RangeEncoder`."""

    def __init__(self, payload):
        self._data = bytes(payload)
        self._pos = 1  # the first byte is the encoder's initial zero cache
        code = 0
        data = self._data
        for _ in range(4):
            code = (code << 8) | (data[self._pos] if self._pos < len(data) else 0)
            self._pos += 1
        self._code = code
        self._range = _MASK32
        self._states = {}

    def _state(self, model):
        state = self._states.get(id(model))
        if state is None:
            state = _ModelState(model)
            self._states[id(model)] = state
        return state

    def decode(self, model):
        """Decode the next symbol under ``model`` and update the model."""
        return int(self.decode_array(model, 1)[0])

    def decode_array(self, model, count):
        """Decode ``count`` symbols under one model; returns a Python list."""
        state = self._state(model)
        counts = state.counts
        tree = state.tree
        total = state.total
        n = state.num_symbols
        msb = state.msb
        code = self._code
        rng = self._range
        pos = self._pos
        data = self._data
        size = len(data)
        out = []
        append = out.append
        for _ in range(count):
            r = rng // total
            scaled = code // r
            if scaled >= total:
                scaled = total - 1
            # Fenwick descent: largest s with prefix(s) <= scaled
            idx = 0
            rem = scaled
            bit = msb
            while bit:
                nxt = idx + bit
                if nxt <= n and tree[nxt] <= rem:
                    idx = nxt
                    rem -= tree[nxt]
                bit >>= 1
            cum_low = scaled - rem
            freq = counts[idx]
            code -= cum_low * r
            rng = r * freq
            while rng < _TOP:
                rng <<= 8
                code = ((code << 8) | (data[pos] if pos < size else 0)) & 0xFFFFFFFFFF
                pos += 1
            append(idx)
            counts[idx] += _INCREMENT
            j = idx + 1
            while j <= n:
                tree[j] += _INCREMENT
                j += j & -j
            total += _INCREMENT
            if total > _MAX_TOTAL:
                state.rescale()
                counts = state.counts
                tree = state.tree
                total = state.total
        state.total = total
        self._code = code
        self._range = rng
        self._pos = pos
        return out

    def sync_models(self):
        """Write every shadow state back into its numpy model."""
        for state in self._states.values():
            state.sync_back()
