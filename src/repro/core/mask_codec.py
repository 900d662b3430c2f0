"""Compact transmission formats for erase masks.

The paper argues the mask side-channel is cheap ("a binary mask at dimensions
32 × 32 occupies only 128 bytes").  This module implements the three natural
encodings of that side information and picks the smallest one per mask:

* **bit-packed** — one bit per grid cell (the paper's 128-byte figure);
* **run-length** — the RLE coder from :mod:`repro.entropy`, smaller for the
  highly structured masks the row-conditional sampler produces;
* **seed spec** — when both sides run the same sampler implementation, only
  the sampler parameters and the RNG seed need to travel (a few bytes,
  independent of grid size).  This is the format the edge/server deployment
  would actually use and is what makes per-image mask refresh essentially
  free.

Every payload starts with a one-byte format tag so :func:`decode_mask`
dispatches without external context.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..entropy.rle import decode_binary_mask, encode_binary_mask
from .sampler import RowConditionalSampler

__all__ = [
    "MaskSpec",
    "pack_mask_bits",
    "unpack_mask_bits",
    "encode_mask",
    "decode_mask",
]

_FORMAT_BITPACK = 0x42  # 'B'
_FORMAT_RLE = 0x52      # 'R'
_FORMAT_SEED = 0x53     # 'S'


@dataclass(frozen=True)
class MaskSpec:
    """Sampler parameters that deterministically regenerate a mask.

    Attributes
    ----------
    grid_size, erase_per_row, intra_row_min_distance, inter_row_min_distance:
        The :class:`RowConditionalSampler` parameters (``n/b``, ``T``, ``δ``,
        ``Δ``).
    seed:
        RNG seed; the sampler is deterministic given the seed, so the receiver
        rebuilds the exact same mask.
    """

    grid_size: int
    erase_per_row: int
    intra_row_min_distance: int = 1
    inter_row_min_distance: int = 0
    seed: int = 0

    def generate(self):
        """Regenerate the mask this spec describes."""
        if self.erase_per_row == 0:
            return np.ones((self.grid_size, self.grid_size), dtype=np.uint8)
        sampler = RowConditionalSampler(
            self.grid_size, self.erase_per_row,
            self.intra_row_min_distance, self.inter_row_min_distance,
        )
        return sampler.sample_mask(seed=self.seed)

    def encode(self):
        """Serialise the spec to its 10-byte wire format."""
        if not 0 <= self.seed < 2 ** 32:
            raise ValueError("seed must fit in 32 bits for the wire format")
        payload = bytearray([_FORMAT_SEED])
        payload += int(self.grid_size).to_bytes(2, "big")
        payload.append(int(self.erase_per_row))
        payload.append(int(self.intra_row_min_distance))
        payload.append(int(self.inter_row_min_distance))
        payload += int(self.seed).to_bytes(4, "big")
        return bytes(payload)

    @classmethod
    def decode(cls, payload):
        """Inverse of :meth:`encode`."""
        if len(payload) != 10 or payload[0] != _FORMAT_SEED:
            raise ValueError("not a seed-spec mask payload")
        return cls(
            grid_size=int.from_bytes(payload[1:3], "big"),
            erase_per_row=payload[3],
            intra_row_min_distance=payload[4],
            inter_row_min_distance=payload[5],
            seed=int.from_bytes(payload[6:10], "big"),
        )


def pack_mask_bits(mask):
    """Bit-pack a binary mask: tag, grid dimensions, then one bit per cell.

    A 32×32 mask costs 2 + 4 + 128 = 134 bytes — the paper's "only 128 bytes"
    plus a tiny header.
    """
    mask = np.asarray(mask, dtype=np.uint8)
    if mask.ndim != 2:
        raise ValueError("mask must be a 2-D array")
    rows, cols = mask.shape
    header = bytearray([_FORMAT_BITPACK])
    header += int(rows).to_bytes(2, "big")
    header += int(cols).to_bytes(2, "big")
    packed = np.packbits(mask.reshape(-1))
    return bytes(header) + packed.tobytes()


def unpack_mask_bits(payload):
    """Inverse of :func:`pack_mask_bits`."""
    if not payload or payload[0] != _FORMAT_BITPACK:
        raise ValueError("not a bit-packed mask payload")
    rows = int.from_bytes(payload[1:3], "big")
    cols = int.from_bytes(payload[3:5], "big")
    bits = np.unpackbits(np.frombuffer(payload[5:], dtype=np.uint8), count=rows * cols)
    return bits.reshape(rows, cols).astype(np.uint8)


def encode_mask(mask, spec=None, method="auto"):
    """Encode a mask for transmission, choosing the smallest representation.

    Parameters
    ----------
    mask:
        The binary erase mask (1 = keep, 0 = erase).
    spec:
        Optional :class:`MaskSpec`.  When given (and it regenerates exactly
        ``mask``), the seed-spec format becomes available — typically the
        smallest by an order of magnitude.
    method:
        ``"auto"`` (default, smallest wins), ``"bitpack"``, ``"rle"`` or
        ``"seed"`` to force a specific format.
    """
    mask = np.asarray(mask, dtype=np.uint8)
    candidates = {}
    candidates["bitpack"] = pack_mask_bits(mask)
    candidates["rle"] = bytes([_FORMAT_RLE]) + encode_binary_mask(mask)
    if spec is not None:
        if not np.array_equal(spec.generate(), mask):
            raise ValueError("spec does not regenerate the provided mask")
        candidates["seed"] = spec.encode()
    if method != "auto":
        if method not in candidates:
            available = sorted(candidates)
            raise ValueError(f"mask encoding {method!r} unavailable; choose from {available}")
        return candidates[method]
    return min(candidates.values(), key=len)


def decode_mask(payload):
    """Decode any payload produced by :func:`encode_mask`."""
    if not payload:
        raise ValueError("empty mask payload")
    tag = payload[0]
    if tag == _FORMAT_BITPACK:
        return unpack_mask_bits(payload)
    if tag == _FORMAT_RLE:
        return decode_binary_mask(payload[1:])
    if tag == _FORMAT_SEED:
        return MaskSpec.decode(payload).generate()
    raise ValueError(f"unknown mask payload tag 0x{tag:02x}")


