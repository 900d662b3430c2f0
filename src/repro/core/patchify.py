"""Two-stage image patchify (paper Section III-B).

Stage one splits the image into non-overlapping ``n×n`` patches; stage two
splits every patch into ``b×b`` sub-patches.  Erasure, squeezing and
reconstruction all operate at the sub-patch level, while transformer
attention is confined within one patch — this is what reduces attention
complexity from ``O((hw)²·d)`` to ``O(hw·n²/b⁴·d)``.

All functions support grayscale ``(h, w)`` and colour ``(h, w, 3)`` inputs.
"""

from __future__ import annotations

import numpy as np

from ..image import pad_to_multiple

__all__ = [
    "image_to_patches",
    "patches_to_image",
    "patch_to_subpatches",
    "subpatches_to_patch",
    "subpatches_to_tokens",
    "tokens_to_subpatches",
    "attention_complexity",
]


def image_to_patches(image, patch_size):
    """Split an image into non-overlapping ``patch_size``² patches.

    The image is edge-padded up to a multiple of ``patch_size`` first.

    Returns
    -------
    (patches, grid_shape, original_shape):
        ``patches`` has shape ``(count, n, n[, channels])``; ``grid_shape``
        is ``(rows, cols)`` of the patch grid; ``original_shape`` is the
        unpadded image shape needed by :func:`patches_to_image`.
    """
    image = np.asarray(image, dtype=np.float64)
    padded, original_shape = pad_to_multiple(image, patch_size)
    height, width = padded.shape[:2]
    rows, cols = height // patch_size, width // patch_size
    if padded.ndim == 3:
        channels = padded.shape[2]
        patches = padded.reshape(rows, patch_size, cols, patch_size, channels)
        patches = patches.transpose(0, 2, 1, 3, 4).reshape(rows * cols, patch_size, patch_size, channels)
    else:
        patches = padded.reshape(rows, patch_size, cols, patch_size)
        patches = patches.transpose(0, 2, 1, 3).reshape(rows * cols, patch_size, patch_size)
    return patches, (rows, cols), original_shape


def patches_to_image(patches, grid_shape, original_shape):
    """Inverse of :func:`image_to_patches` (crops padding back off)."""
    patches = np.asarray(patches)
    rows, cols = grid_shape
    patch_size = patches.shape[1]
    if patches.ndim == 4:
        channels = patches.shape[3]
        grid = patches.reshape(rows, cols, patch_size, patch_size, channels)
        image = grid.transpose(0, 2, 1, 3, 4).reshape(rows * patch_size, cols * patch_size, channels)
    else:
        grid = patches.reshape(rows, cols, patch_size, patch_size)
        image = grid.transpose(0, 2, 1, 3).reshape(rows * patch_size, cols * patch_size)
    return image[: original_shape[0], : original_shape[1], ...]


def patch_to_subpatches(patch, subpatch_size):
    """Split one ``n×n`` patch into its ``(n/b, n/b)`` grid of ``b×b`` sub-patches.

    Returns an array of shape ``(grid, grid, b, b[, channels])``.
    """
    patch = np.asarray(patch)
    n = patch.shape[0]
    if n % subpatch_size != 0:
        raise ValueError(f"patch size {n} not divisible by subpatch size {subpatch_size}")
    grid = n // subpatch_size
    if patch.ndim == 3:
        channels = patch.shape[2]
        sub = patch.reshape(grid, subpatch_size, grid, subpatch_size, channels)
        return sub.transpose(0, 2, 1, 3, 4)
    sub = patch.reshape(grid, subpatch_size, grid, subpatch_size)
    return sub.transpose(0, 2, 1, 3)


def subpatches_to_patch(subpatches):
    """Inverse of :func:`patch_to_subpatches`."""
    subpatches = np.asarray(subpatches)
    grid = subpatches.shape[0]
    b = subpatches.shape[2]
    if subpatches.ndim == 5:
        channels = subpatches.shape[4]
        patch = subpatches.transpose(0, 2, 1, 3, 4).reshape(grid * b, grid * b, channels)
    else:
        patch = subpatches.transpose(0, 2, 1, 3).reshape(grid * b, grid * b)
    return patch


def subpatches_to_tokens(subpatches):
    """Flatten a sub-patch grid into transformer tokens ``(grid², b²·C)``."""
    subpatches = np.asarray(subpatches)
    grid = subpatches.shape[0]
    return subpatches.reshape(grid * grid, -1)


def tokens_to_subpatches(tokens, grid_size, subpatch_size, channels=1):
    """Inverse of :func:`subpatches_to_tokens`."""
    tokens = np.asarray(tokens)
    if channels > 1:
        shape = (grid_size, grid_size, subpatch_size, subpatch_size, channels)
    else:
        shape = (grid_size, grid_size, subpatch_size, subpatch_size)
    return tokens.reshape(shape)


def attention_complexity(height, width, patch_size=None, subpatch_size=1, d_model=1):
    """Attention MAC count for an image under the two-stage patchify.

    With ``patch_size=None`` the naive single-stage cost ``O((hw/b²)² · d)``
    is returned (the quantity the paper reports as infeasible for 256×256
    pixel-token prediction); otherwise the patch-confined cost
    ``O(hw·n²/b⁴ · d)``.
    """
    pixels = height * width
    if patch_size is None:
        tokens = pixels / (subpatch_size ** 2)
        return float(tokens ** 2 * d_model)
    tokens_per_patch = (patch_size / subpatch_size) ** 2
    num_patches = pixels / (patch_size ** 2)
    return float(num_patches * tokens_per_patch ** 2 * d_model)
