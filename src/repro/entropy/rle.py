"""Run-length encoding behind the binary erase-mask serialiser.

Binary erase masks are mostly smooth, so run lengths with varint counts
compact them well below the paper's "128 bytes for a 32×32 mask" bound.
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_length_encode", "encode_binary_mask", "decode_binary_mask"]


def run_length_encode(values):
    """Encode an iterable of hashable values as ``[(value, run_length), ...]``."""
    runs = []
    current = None
    count = 0
    for value in values:
        if current is not None and value == current:
            count += 1
        else:
            if current is not None:
                runs.append((current, count))
            current = value
            count = 1
    if current is not None:
        runs.append((current, count))
    return runs


_MODE_RLE = 0
_MODE_PACKED = 1


def _encode_mask_rle(flat):
    """Varint run-length body for a flat 0/1 sequence."""
    runs = run_length_encode(flat.tolist())  # lint: allow RP004 - run_length_encode consumes a python sequence
    body = bytearray()
    body.append(int(runs[0][0]) if runs else 0)
    for _, count in runs:
        # varint: 7 bits per byte, MSB = continuation
        while True:
            byte = count & 0x7F
            count >>= 7
            if count:
                body.append(byte | 0x80)
            else:
                body.append(byte)
                break
    return bytes(body)


def encode_binary_mask(mask):
    """Serialise a binary mask into a compact byte string.

    Two encodings are tried and the smaller one is emitted (a mode byte in
    the header says which): run-length with varint counts (wins for
    structured masks) and plain bit packing (wins for fine-grained masks and
    bounds the size at ``ceil(H·W/8)`` bytes — the paper's "128 bytes for a
    32×32 mask" worst case).
    """
    mask = np.asarray(mask).astype(np.uint8)
    if mask.ndim != 2:
        raise ValueError("mask must be 2-D")
    flat = mask.reshape(-1)
    rle_body = _encode_mask_rle(flat)
    packed_body = np.packbits(flat).tobytes()
    mode, body = ((_MODE_RLE, rle_body) if len(rle_body) <= len(packed_body)
                  else (_MODE_PACKED, packed_body))
    header = bytearray()
    header += int(mask.shape[0]).to_bytes(2, "big")
    header += int(mask.shape[1]).to_bytes(2, "big")
    header.append(mode)
    return bytes(header) + body


def decode_binary_mask(payload):
    """Inverse of :func:`encode_binary_mask`; returns a uint8 2-D array."""
    height = int.from_bytes(payload[0:2], "big")
    width = int.from_bytes(payload[2:4], "big")
    mode = payload[4]
    body = payload[5:]
    if mode == _MODE_PACKED:
        flat = np.unpackbits(np.frombuffer(body, dtype=np.uint8))[: height * width]
        return flat.astype(np.uint8).reshape(height, width)
    value = body[0]
    pos = 1
    flat = []
    while pos < len(body) and len(flat) < height * width:
        count = 0
        shift = 0
        while True:
            byte = body[pos]
            pos += 1
            count |= (byte & 0x7F) << shift
            shift += 7
            if not byte & 0x80:
                break
        flat.extend([value] * count)
        value = 1 - value
    flat = flat[: height * width]
    return np.asarray(flat, dtype=np.uint8).reshape(height, width)
