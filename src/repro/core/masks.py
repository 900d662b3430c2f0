"""Erase-mask generation strategies.

Masks are uint8 arrays over the sub-patch grid of one patch where **1 means
the sub-patch is kept** and **0 means it is erased**.  The paper's proposed
strategy is the row-based conditional sampler; the alternatives implemented
here (pure random, diagonal, uniform/super-resolution) are the comparison
points of Fig. 2/3 and Fig. 7a-b.
"""

from __future__ import annotations

import numpy as np

from ..entropy.rle import decode_binary_mask, encode_binary_mask
from .sampler import RowConditionalSampler

__all__ = [
    "proposed_mask",
    "random_mask",
    "diagonal_mask",
    "uniform_mask",
    "mask_erase_ratio",
    "serialize_mask",
    "deserialize_mask",
]


def proposed_mask(grid_size, erase_per_row, intra_row_min_distance=1,
                  inter_row_min_distance=0, rng=None, seed=None):
    """The paper's row-based conditional erase mask (1 = keep, 0 = erase)."""
    sampler = RowConditionalSampler(grid_size, erase_per_row,
                                    intra_row_min_distance, inter_row_min_distance)
    return sampler.sample_mask(rng=rng, seed=seed)


def random_mask(grid_size, erase_per_row, rng=None, seed=None, balanced_rows=True):
    """Unconstrained random erase mask (the paper's "random" baseline).

    With ``balanced_rows=True`` the same *number* of sub-patches is erased in
    every row (so the squeeze step still produces a rectangle) but positions
    are chosen without any distance constraint, which allows the large
    contiguous holes the paper shows in Fig. 2(a).  With ``balanced_rows=
    False`` the positions are free across the whole grid.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    mask = np.ones((grid_size, grid_size), dtype=np.uint8)
    if balanced_rows:
        for row in range(grid_size):
            columns = rng.choice(grid_size, size=erase_per_row, replace=False)
            mask[row, columns] = 0
    else:
        total = erase_per_row * grid_size
        flat = rng.choice(grid_size * grid_size, size=total, replace=False)
        mask.reshape(-1)[flat] = 0
    return mask


def diagonal_mask(grid_size, erase_per_row=1, offset=0):
    """Deterministic diagonal erase mask (paper Fig. 2(b)).

    Erases ``erase_per_row`` sub-patches per row at evenly spaced diagonal
    positions — the special case of the row-based sampler the paper uses to
    motivate the generalised definition.
    """
    mask = np.ones((grid_size, grid_size), dtype=np.uint8)
    stride = max(1, grid_size // max(1, erase_per_row))
    for row in range(grid_size):
        for k in range(erase_per_row):
            column = (row + offset + k * stride) % grid_size
            mask[row, column] = 0
    return mask


def uniform_mask(grid_size, factor=2):
    """Uniform down-sampling mask: keep one sub-patch out of every ``factor``.

    With ``factor=2`` and 1×1 sub-patches this is exactly the pixel lattice a
    2× super-resolution pipeline transmits, which is the degenerate case the
    paper compares against in Table I.
    """
    mask = np.zeros((grid_size, grid_size), dtype=np.uint8)
    mask[::1, ::factor] = 1
    # alternate the kept column phase between rows to mimic quincunx sampling
    for row in range(grid_size):
        if row % factor:
            mask[row] = np.roll(mask[row], row % factor)
    return mask


def mask_erase_ratio(mask):
    """Fraction of erased (zero) entries in a mask."""
    mask = np.asarray(mask)
    return float(1.0 - mask.mean())


def serialize_mask(mask):
    """Serialise a mask to compact bytes for transmission.

    The paper notes a 32×32 binary mask costs at most 128 bytes; the RLE
    encoding used here is typically smaller for structured masks.
    """
    return encode_binary_mask(mask)


def deserialize_mask(payload):
    """Inverse of :func:`serialize_mask`."""
    return decode_binary_mask(payload)


