"""Adaptive multi-symbol entropy coding: the shared frequency model and
the tagged symbol-stream wrappers.

Used by the BPG-proxy codec (:mod:`repro.codecs.bpg`) and by the learned
codec baselines for entropy-coding quantised latents.  :class:`AdaptiveModel`
is the frequency model; :class:`repro.entropy.range_coder.RangeEncoder` /
``RangeDecoder`` code symbols under it.  :func:`encode_symbols` /
:func:`decode_symbols` wrap the range coder behind a one-byte format tag so
payloads are self-describing.
"""

from __future__ import annotations

import numpy as np

from .range_coder import RangeDecoder, RangeEncoder

__all__ = ["AdaptiveModel", "encode_symbols", "decode_symbols", "FORMAT_RANGE"]

#: Payload format tag written by :func:`encode_symbols` (and the codec
#: containers) for the byte-oriented range coder.  Tag 0 belonged to a
#: retired bit-at-a-time coder and is rejected like any unknown tag.
FORMAT_RANGE = 1

_MAX_TOTAL = 1 << 16


class AdaptiveModel:
    """Adaptive frequency model over a fixed alphabet ``{0..num_symbols-1}``.

    Frequencies start at one (Laplace smoothing) and are incremented after
    each coded symbol; when the total exceeds ``_MAX_TOTAL`` all counts are
    halved, which keeps the model responsive to local statistics.
    """

    def __init__(self, num_symbols):
        if num_symbols < 1:
            raise ValueError("num_symbols must be >= 1")
        self.num_symbols = num_symbols
        self.counts = np.ones(num_symbols, dtype=np.int64)
        self.rebuilds = 0  # full cumulative-table rebuilds (regression guard)
        self._rebuild()

    def _rebuild(self):
        self.cumulative = np.concatenate(([0], np.cumsum(self.counts)))
        self.total = int(self.cumulative[-1])
        self.rebuilds += 1

    def interval(self, symbol):
        """Return ``(low_count, high_count, total)`` for ``symbol``."""
        return int(self.cumulative[symbol]), int(self.cumulative[symbol + 1]), self.total

    def symbol_from_count(self, scaled):
        """Find the symbol whose cumulative interval contains ``scaled``."""
        return int(np.searchsorted(self.cumulative, scaled, side="right") - 1)

    def update(self, symbol):
        """Increment the count of ``symbol`` (and rescale when saturated).

        The common case is a single in-place slice add on the cumulative
        table — the full O(K) rebuild only runs on the rare saturation
        rescale, which keeps long symbol streams cheap (see
        ``tests/test_entropy.py::test_update_is_incremental``).
        """
        self.counts[symbol] += 32
        if self.total + 32 > _MAX_TOTAL:
            self.counts = np.maximum(1, self.counts // 2)
            self._rebuild()
        else:
            self.cumulative[symbol + 1:] += 32
            self.total += 32

    def set_counts(self, counts):
        """Replace the frequency counts wholesale (coder shadow write-back)."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.num_symbols,):
            raise ValueError(f"expected {self.num_symbols} counts, got {counts.shape}")
        self.counts = counts
        self._rebuild()


def encode_symbols(symbols, num_symbols):
    """Encode an integer symbol sequence with a fresh adaptive model.

    The payload starts with the one-byte format tag :data:`FORMAT_RANGE`,
    which :func:`decode_symbols` checks.
    """
    encoder = RangeEncoder()
    encoder.encode_array(AdaptiveModel(num_symbols), symbols)
    return bytes([FORMAT_RANGE]) + encoder.finish()


def decode_symbols(payload, count, num_symbols):
    """Decode ``count`` symbols encoded with :func:`encode_symbols`."""
    payload = bytes(payload)
    if not payload:
        raise ValueError("empty entropy payload (missing format tag)")
    tag, body = payload[0], payload[1:]
    if tag != FORMAT_RANGE:
        raise ValueError(f"unknown entropy payload format tag {tag}")
    decoder = RangeDecoder(body)
    symbols = decoder.decode_array(AdaptiveModel(num_symbols), count)
    decoder.sync_models()
    return symbols
