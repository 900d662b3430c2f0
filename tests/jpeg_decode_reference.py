"""The token-at-a-time JPEG entropy decoder, frozen as a test reference.

:meth:`repro.codecs.jpeg.JpegCodec._decode_channels` scans per-bit-position
tables built once per payload.  This is the scan it replaced, kept verbatim
in behaviour: one Python iteration per Huffman token over per-window list
LUTs, each channel resuming where the previous one stopped (clamped to the
end of the data), then a bulk amplitude pass per channel.  Its LUTs are
built here from :func:`repro.codecs.jpeg._build_code_table`, so the
reference shares no decoder table with the code under test.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.jpeg import _build_code_table
from repro.codecs.jpeg_tables import (
    STANDARD_AC_CHROMINANCE,
    STANDARD_AC_LUMINANCE,
    STANDARD_DC_CHROMINANCE,
    STANDARD_DC_LUMINANCE,
    ZIGZAG_ORDER,
)

_EOB = 0x00


def _decode_lut(codes):
    """16-bit window -> (symbol, code length) as Python lists."""
    symbols = np.zeros(1 << 16, dtype=np.int64)
    lengths = np.zeros(1 << 16, dtype=np.int64)
    for symbol, (code, length) in codes.items():
        lo = code << (16 - length)
        hi = (code + 1) << (16 - length)
        symbols[lo:hi] = symbol
        lengths[lo:hi] = length
    return symbols.tolist(), lengths.tolist()


def _ac_decode_lut(codes):
    """AC view: (symbols, lengths, sizes, runs, steps) per 16-bit window."""
    symbols, lengths = _decode_lut(codes)
    sym = np.asarray(symbols, dtype=np.int64)
    length = np.asarray(lengths, dtype=np.int64)
    size = sym & 15
    run = sym >> 4
    step = np.where(length > 0, length + size, 0)
    return (symbols, lengths, size.tolist(), run.tolist(), step.tolist())


_DC_LUTS = {True: _decode_lut(_build_code_table(STANDARD_DC_LUMINANCE)),
            False: _decode_lut(_build_code_table(STANDARD_DC_CHROMINANCE))}
_AC_LUTS = {True: _ac_decode_lut(_build_code_table(STANDARD_AC_LUMINANCE)),
            False: _ac_decode_lut(_build_code_table(STANDARD_AC_CHROMINANCE))}


def _word_array(data):
    """``words[i]`` holds stream bits ``8i .. 8i+32`` (zero-padded)."""
    padded = np.frombuffer(bytes(data) + b"\x00" * 8, dtype=np.uint8)
    as32 = padded.astype(np.int64)
    return (as32[:-3] << 24) | (as32[1:-2] << 16) | (as32[2:-1] << 8) | as32[3:]


def _decode_channel(word_array, words, total_bits, pos, num_blocks, is_luma):
    """Decode one channel starting at bit ``pos``: ``(blocks, next_pos)``."""
    dc_symbols, dc_lengths = _DC_LUTS[is_luma]
    ac_symbols, ac_lengths, ac_sizes, ac_runs, ac_steps = _AC_LUTS[is_luma]
    dc_positions = []
    dc_size_list = []
    ac_positions = []
    ac_size_list = []
    ac_slots = []
    for block_index in range(num_blocks):
        if pos > total_bits:
            raise ValueError("corrupt JPEG stream: out of data")
        window = (words[pos >> 3] >> (16 - (pos & 7))) & 0xFFFF
        length = dc_lengths[window]
        if length == 0:
            raise ValueError("corrupt JPEG stream: invalid Huffman code")
        dc_positions.append(pos + length)
        dc_size_list.append(dc_symbols[window])
        pos += length + dc_symbols[window]
        index = 1
        base = block_index << 6
        while index < 64:
            if pos > total_bits:
                raise ValueError("corrupt JPEG stream: out of data")
            window = (words[pos >> 3] >> (16 - (pos & 7))) & 0xFFFF
            step = ac_steps[window]
            if step == 0:
                raise ValueError("corrupt JPEG stream: invalid Huffman code")
            size = ac_sizes[window]
            if size:
                index += ac_runs[window]
                if index >= 64:
                    raise ValueError("corrupt JPEG stream: AC index out of range")
                ac_positions.append(pos + ac_lengths[window])
                ac_size_list.append(size)
                ac_slots.append(base + index)
                index += 1
                pos += step
            else:
                pos += step
                if ac_symbols[window] == _EOB:
                    break
                index += 16  # ZRL
    next_pos = min(pos, total_bits)

    one = np.int64(1)
    flat = np.zeros(num_blocks * 64, dtype=np.int64)
    dc_pos = np.asarray(dc_positions, dtype=np.int64)
    dc_size = np.asarray(dc_size_list, dtype=np.int64)
    amp = (word_array[dc_pos >> 3] >> (32 - dc_size - (dc_pos & 7))) & ((one << dc_size) - 1)
    negative = (amp >> np.maximum(dc_size - 1, 0)) == 0
    diffs = np.where(negative, amp - (one << dc_size) + 1, amp)
    flat[0::64] = np.cumsum(diffs)
    if ac_positions:
        ac_pos = np.asarray(ac_positions, dtype=np.int64)
        ac_size = np.asarray(ac_size_list, dtype=np.int64)
        amp = (word_array[ac_pos >> 3] >> (32 - ac_size - (ac_pos & 7))) & ((one << ac_size) - 1)
        values = np.where((amp >> (ac_size - 1)) > 0, amp, amp - (one << ac_size) + 1)
        flat[np.asarray(ac_slots, dtype=np.int64)] = values
    out = np.zeros((num_blocks, 64), dtype=np.int32)
    out[:, ZIGZAG_ORDER] = flat.reshape(num_blocks, 64)
    return out.reshape(num_blocks, 8, 8), next_pos


def reference_decode_channels(data, channels):
    """Decode ``channels`` (``(num_blocks, is_luma)`` each) in stream order."""
    word_array = _word_array(data)
    words = word_array.tolist()
    decoded = []
    pos = 0
    for num_blocks, is_luma in channels:
        blocks, pos = _decode_channel(word_array, words, len(data) * 8, pos,
                                      num_blocks, is_luma)
        decoded.append(blocks)
    return decoded
