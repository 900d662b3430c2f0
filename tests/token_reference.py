"""Batched patch tokenizer kept as a test reference.

``test_batch_apis.reference_reconstruct`` builds its float64 reference
reconstruction from these two reshapes; the library's engine has its own
gather/scatter, so the reference stays independent of it.
``test_vectorized_fast_paths`` checks them against the per-patch helpers of
:mod:`repro.core.patchify`.
"""

from __future__ import annotations

import numpy as np


def patches_to_tokens(patches, subpatch_size):
    """Tokenize a whole batch of patches with one reshape/transpose.

    ``patches`` has shape ``(count, n, n[, channels])``; the result has shape
    ``(count, (n/b)², b²·channels)`` and matches applying
    ``patch_to_subpatches`` + ``subpatches_to_tokens`` per patch.
    """
    patches = np.asarray(patches)
    count, n = patches.shape[0], patches.shape[1]
    if n % subpatch_size != 0:
        raise ValueError(f"patch size {n} not divisible by subpatch size {subpatch_size}")
    grid, b = n // subpatch_size, subpatch_size
    if patches.ndim == 4:
        channels = patches.shape[3]
        sub = patches.reshape(count, grid, b, grid, b, channels).transpose(0, 1, 3, 2, 4, 5)
        return sub.reshape(count, grid * grid, b * b * channels)
    sub = patches.reshape(count, grid, b, grid, b).transpose(0, 1, 3, 2, 4)
    return sub.reshape(count, grid * grid, b * b)


def tokens_to_patches(tokens, grid_size, subpatch_size, channels=1):
    """Inverse of :func:`patches_to_tokens` for a whole batch at once."""
    tokens = np.asarray(tokens)
    count, grid, b = tokens.shape[0], grid_size, subpatch_size
    if channels > 1:
        sub = tokens.reshape(count, grid, grid, b, b, channels).transpose(0, 1, 3, 2, 4, 5)
        return sub.reshape(count, grid * b, grid * b, channels)
    sub = tokens.reshape(count, grid, grid, b, b).transpose(0, 1, 3, 2, 4)
    return sub.reshape(count, grid * b, grid * b)
