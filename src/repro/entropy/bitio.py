"""Bit-level I/O used by the JPEG entropy coder.

The JPEG encoder serialises its Huffman symbol streams through
:class:`BitWriter`, which packs bits MSB-first into a ``bytes`` object;
:class:`BitReader` reads such a stream back field by field.  The JPEG
decoder does not read through it: it looks up the 16-bit window at every bit
position at once (``repro.codecs.jpeg._bit_windows``).

Both classes operate on masked integer accumulators rather than per-bit
loops: :meth:`BitWriter.write_bits` shifts whole fields into a pending
integer and flushes complete bytes in bulk, :meth:`BitReader.read_bits`
extracts whole fields from a byte-slice in one ``int.from_bytes`` call, and
:meth:`BitWriter.write_tokens` packs an entire numpy ``(value, length)``
symbol stream in a handful of vectorized operations — the fast path the
table-driven JPEG entropy coder relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitWriter", "BitReader"]

# Flush the pending accumulator once it holds this many bits; keeps the
# Python ints small so shift/or stay O(1) amortised.
_FLUSH_BITS = 4096


class BitWriter:
    """Accumulates individual bits and bit-fields into a byte string."""

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0  # pending bits, oldest at the most-significant end
        self._nbits = 0

    def _flush(self):
        """Move all complete bytes from the accumulator into the buffer."""
        whole = self._nbits >> 3
        if whole:
            rem = self._nbits & 7
            self._bytes += (self._acc >> rem).to_bytes(whole, "big")
            self._acc &= (1 << rem) - 1
            self._nbits = rem

    def write_bit(self, bit):
        """Append a single bit (0 or 1)."""
        self._acc = (self._acc << 1) | (1 if bit else 0)
        self._nbits += 1
        if self._nbits >= _FLUSH_BITS:
            self._flush()

    def write_bits(self, value, num_bits):
        """Append ``num_bits`` bits of ``value``, most significant bit first."""
        if num_bits < 0:
            raise ValueError("num_bits must be non-negative")
        if num_bits == 0:
            return
        self._acc = (self._acc << num_bits) | (int(value) & ((1 << num_bits) - 1))
        self._nbits += num_bits
        if self._nbits >= _FLUSH_BITS:
            self._flush()

    def write_tokens(self, values, lengths):
        """Append a whole stream of MSB-first bit-fields in one vectorized op.

        ``values`` and ``lengths`` are equal-length integer arrays; token ``i``
        contributes the low ``lengths[i]`` bits of ``values[i]``, exactly as a
        sequence of :meth:`write_bits` calls would.  Each length must be at
        most 64 (JPEG tokens never exceed 27 bits).
        """
        values = np.asarray(values, dtype=np.uint64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if values.size == 0:
            return
        total = int(lengths.sum())
        if total == 0:
            return
        ends = np.cumsum(lengths)
        starts = ends - lengths
        # expand every token into its bits: bit j of the stream belongs to
        # token ``owner[j]`` at (MSB-first) offset ``j - starts[owner[j]]``
        owner = np.repeat(np.arange(values.size, dtype=np.int64), lengths)
        offsets = np.arange(total, dtype=np.int64) - starts[owner]
        shifts = (lengths[owner] - 1 - offsets).astype(np.uint64)
        bits = ((values[owner] >> shifts) & np.uint64(1)).astype(np.uint8)
        if self._nbits:
            pending = np.frombuffer(
                self._acc.to_bytes((self._nbits + 7) >> 3, "big"), dtype=np.uint8
            )
            bits = np.concatenate([np.unpackbits(pending)[-self._nbits:], bits])
            total += self._nbits
        whole = total >> 3
        rem = total & 7
        if whole:
            self._bytes += np.packbits(bits[: whole * 8]).tobytes()
        if rem:
            self._acc = int(np.packbits(bits[whole * 8:])[0]) >> (8 - rem)
        else:
            self._acc = 0
        self._nbits = rem

    @property
    def bit_length(self):
        """Number of bits written so far (before padding)."""
        return len(self._bytes) * 8 + self._nbits

    def getvalue(self):
        """Return the bytes written so far, zero-padding the final byte."""
        data = bytearray(self._bytes)
        if self._nbits:
            nbytes = (self._nbits + 7) >> 3
            data += (self._acc << (nbytes * 8 - self._nbits)).to_bytes(nbytes, "big")
        return bytes(data)


class BitReader:
    """Reads bits MSB-first from a byte string produced by :class:`BitWriter`."""

    def __init__(self, data):
        self._data = bytes(data)
        self._total = len(self._data) * 8
        self._pos = 0  # bit position

    def read_bit(self):
        """Read one bit; returns 0 past the end of the buffer."""
        pos = self._pos
        if pos >= self._total:
            return 0
        bit = (self._data[pos >> 3] >> (7 - (pos & 7))) & 1
        self._pos = pos + 1
        return bit

    def _extract(self, pos, num_bits):
        """Field of ``num_bits`` bits starting at bit ``pos`` (zero-padded)."""
        end = pos + num_bits
        first = pos >> 3
        last = (end + 7) >> 3
        chunk = self._data[first:last]
        value = int.from_bytes(chunk, "big")
        span = (last - first) * 8
        short = span - len(chunk) * 8
        if short:
            value <<= short  # bits past the end read as zero
        return (value >> (span - (end - first * 8))) & ((1 << num_bits) - 1)

    def read_bits(self, num_bits):
        """Read ``num_bits`` bits as an unsigned integer (MSB first)."""
        if num_bits <= 0:
            return 0
        value = self._extract(self._pos, num_bits)
        end = self._pos + num_bits
        self._pos = end if end <= self._total else self._total
        return value

    def peek_bits(self, num_bits):
        """Like :meth:`read_bits` but without consuming any input."""
        if num_bits <= 0:
            return 0
        return self._extract(self._pos, num_bits)
