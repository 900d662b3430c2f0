"""Erase-and-squeeze operations (paper Section III-A).

Given an erase mask over the sub-patch grid (1 = keep, 0 = erase), the edge
device drops the erased sub-patches and horizontally packs the survivors of
each sub-patch row next to each other ("squeeze"), producing a smaller
rectangular patch — and, applied to every patch of an image, a smaller image
that any off-the-shelf codec can compress.  On the server side the inverse
("unsqueeze") scatters the transmitted sub-patches back to their original
grid positions, filling the erased slots with zeros or a neighbouring
sub-patch before transformer reconstruction.

The squeeze requires the mask to erase the *same number* of sub-patches in
every row (which the row-based conditional sampler guarantees); masks that do
not satisfy this are rejected with a clear error.

Because one mask is shared by every patch of an image (and typically by many
images), all per-mask decisions are made **once** in a cached
:class:`SqueezePlan` holding gather/scatter index arrays; applying the plan
is a single fancy-index operation over the full
``(num_patches, grid, grid, b, b[, C])`` sub-patch tensor — no Python loop
over patches or rows ever runs on the hot path.
"""

from __future__ import annotations

import functools

import numpy as np

from ..image import pad_to_multiple
from .patchify import (
    image_to_patches,
    patch_to_subpatches,
    patches_to_image,
    subpatches_to_patch,
)

__all__ = [
    "SqueezePlan",
    "BlockGatherPlan",
    "get_squeeze_plan",
    "validate_balanced_mask",
    "erase_patch",
    "squeeze_patch",
    "unsqueeze_patch",
    "erase_and_squeeze_image",
    "unsqueeze_image",
    "squeezed_shape",
]

_FILLS = ("zero", "neighbor", "mean")


def validate_balanced_mask(mask):
    """Check the mask erases the same number of sub-patches in every row.

    Returns the per-row kept count on success.
    """
    mask = np.asarray(mask)
    kept_per_row = mask.sum(axis=1)
    if not np.all(kept_per_row == kept_per_row[0]):
        raise ValueError(
            "squeeze requires a row-balanced mask (same number of erased sub-patches "
            f"per row); got per-row kept counts {kept_per_row.tolist()}"  # lint: allow RP004 - error-message formatting
        )
    return int(kept_per_row[0])


class SqueezePlan:
    """Precomputed gather/scatter indices for one ``(mask, geometry)`` pair.

    Construction is the only place decisions depend on mask *content*; every
    ``apply`` method below is a fixed sequence of reshapes, transposes and a
    single fancy-index gather/scatter over the batched sub-patch tensor.
    Plans are cached by :func:`get_squeeze_plan`, keyed on the mask bytes and
    geometry, so repeated images with a shared mask pay the planning cost
    once.
    """

    def __init__(self, mask, subpatch_size, direction="horizontal"):
        if direction not in ("horizontal", "vertical"):
            raise ValueError("direction must be 'horizontal' or 'vertical'")
        mask = np.asarray(mask, dtype=bool)
        # internally the plan always works in the horizontal frame; vertical
        # squeezes transpose the patch in and out and use the transposed mask
        work = mask.T if direction == "vertical" else mask
        self.mask = mask
        self.direction = direction
        self.subpatch_size = int(subpatch_size)
        self.kept_per_row = validate_balanced_mask(work)
        self.grid = int(work.shape[0])
        self.patch_size = self.grid * self.subpatch_size

        grid, kept = self.grid, self.kept_per_row
        # kept columns of each row in ascending order: (grid, kept)
        self._kept_cols = np.ascontiguousarray(
            np.argsort(~work, axis=1, kind="stable")[:, :kept]
        )
        self._row_index = np.arange(grid)[:, None]
        self._erased_rows, self._erased_cols = np.nonzero(~work)
        # neighbour fill: for every grid position, the packed slot to copy —
        # kept positions map to themselves, erased ones to the nearest kept
        # column of the same row (ties break to the smaller column, matching
        # the scalar argmin semantics of the original implementation)
        if kept:
            distance = np.abs(self._kept_cols[:, None, :] - np.arange(grid)[None, :, None])
            self._neighbor_slot = distance.argmin(axis=2)  # (grid, grid)
        else:
            self._neighbor_slot = None

    def require_patch_size(self, patch_size):
        """Raise unless this plan's mask covers ``patch_size``-pixel patches.

        Callers that pair a mask with an externally-configured patch size
        (the pipeline, the functional wrappers) use this single guard
        instead of re-deriving the geometry check.
        """
        if self.patch_size != patch_size:
            raise ValueError(
                f"mask grid {self.grid} with subpatch size {self.subpatch_size} "
                f"covers {self.patch_size}-pixel patches, not {patch_size}"
            )
        return self

    # ------------------------------------------------------------------ #
    # batched patch-level apply
    # ------------------------------------------------------------------ #
    def squeeze_patches(self, patches):
        """Squeeze a batch of patches ``(P, n, n[, C])`` in one gather."""
        patches = np.asarray(patches)
        if self.direction == "vertical":
            patches = patches.swapaxes(1, 2)
        count = patches.shape[0]
        b, grid, kept = self.subpatch_size, self.grid, self.kept_per_row
        if patches.ndim == 4:
            channels = patches.shape[3]
            sub = patches.reshape(count, grid, b, grid, b, channels).transpose(0, 1, 3, 2, 4, 5)
            packed = sub[:, self._row_index, self._kept_cols]
            out = packed.transpose(0, 1, 3, 2, 4, 5).reshape(count, grid * b, kept * b, channels)
        else:
            sub = patches.reshape(count, grid, b, grid, b).transpose(0, 1, 3, 2, 4)
            packed = sub[:, self._row_index, self._kept_cols]
            out = packed.transpose(0, 1, 3, 2, 4).reshape(count, grid * b, kept * b)
        if self.direction == "vertical":
            out = out.swapaxes(1, 2)
        return out

    def unsqueeze_patches(self, squeezed, fill="zero"):
        """Scatter a batch of squeezed patches back to full patches.

        ``fill`` controls the content of erased positions before
        reconstruction: ``"zero"`` (paper default — the reconstructor
        receives zero vectors), ``"neighbor"`` (copy the nearest kept
        sub-patch in the same row, the alternative shown in Fig. 2(b)
        right), or ``"mean"`` (row mean).
        """
        if fill not in _FILLS:
            raise ValueError("fill must be 'zero', 'neighbor' or 'mean'")
        squeezed = np.asarray(squeezed, dtype=np.float64)
        if self.direction == "vertical":
            squeezed = squeezed.swapaxes(1, 2)
        count = squeezed.shape[0]
        b, grid, kept = self.subpatch_size, self.grid, self.kept_per_row
        color = squeezed.ndim == 4
        tail = (squeezed.shape[3],) if color else ()
        if color:
            packed = squeezed.reshape(count, grid, b, kept, b, *tail).transpose(0, 1, 3, 2, 4, 5)
        else:
            packed = squeezed.reshape(count, grid, b, kept, b).transpose(0, 1, 3, 2, 4)
        if kept and fill == "neighbor":
            sub = packed[:, self._row_index, self._neighbor_slot]
        else:
            sub = np.zeros((count, grid, grid, b, b) + tail)
            if kept:
                sub[:, self._row_index, self._kept_cols] = packed
                if fill == "mean":
                    row_means = packed.mean(axis=2)  # (P, grid, b, b[, C])
                    sub[:, self._erased_rows, self._erased_cols] = row_means[:, self._erased_rows]
        if color:
            out = sub.transpose(0, 1, 3, 2, 4, 5).reshape(count, grid * b, grid * b, *tail)
        else:
            out = sub.transpose(0, 1, 3, 2, 4).reshape(count, grid * b, grid * b)
        if self.direction == "vertical":
            out = out.swapaxes(1, 2)
        return out

    # ------------------------------------------------------------------ #
    # image-level apply
    # ------------------------------------------------------------------ #
    def squeeze_image(self, image):
        """Erase-and-squeeze every patch of ``image`` with the shared mask.

        Returns ``(squeezed_image, grid_shape, original_shape)`` — the
        latter two are needed by :meth:`unsqueeze_image`.
        """
        patches, grid_shape, original_shape = image_to_patches(image, self.patch_size)
        squeezed = self.squeeze_patches(patches)
        rows, cols = grid_shape
        ph, pw = squeezed.shape[1], squeezed.shape[2]
        if squeezed.ndim == 4:
            channels = squeezed.shape[3]
            grid = squeezed.reshape(rows, cols, ph, pw, channels)
            merged = grid.transpose(0, 2, 1, 3, 4).reshape(rows * ph, cols * pw, channels)
        else:
            grid = squeezed.reshape(rows, cols, ph, pw)
            merged = grid.transpose(0, 2, 1, 3).reshape(rows * ph, cols * pw)
        return merged, grid_shape, original_shape

    def unsqueeze_image(self, squeezed, grid_shape, original_shape, fill="zero"):
        """Inverse of :meth:`squeeze_image` (erased slots filled per ``fill``)."""
        if fill not in _FILLS:
            raise ValueError("fill must be 'zero', 'neighbor' or 'mean'")
        squeezed = np.asarray(squeezed)
        rows, cols = grid_shape
        b, kept = self.subpatch_size, self.kept_per_row
        if self.direction == "horizontal":
            ph, pw = self.patch_size, kept * b
        else:
            ph, pw = kept * b, self.patch_size
        if squeezed.ndim == 3:
            channels = squeezed.shape[2]
            patches = squeezed.reshape(rows, ph, cols, pw, channels).transpose(0, 2, 1, 3, 4)
            patches = patches.reshape(rows * cols, ph, pw, channels)
        else:
            patches = squeezed.reshape(rows, ph, cols, pw).transpose(0, 2, 1, 3)
            patches = patches.reshape(rows * cols, ph, pw)
        restored = self.unsqueeze_patches(patches, fill=fill)
        return patches_to_image(restored, grid_shape, original_shape)

    # ------------------------------------------------------------------ #
    # fused block-codec view
    # ------------------------------------------------------------------ #
    def block_plan(self, spatial_shape, block=8):
        """Cached :class:`BlockGatherPlan` for one image geometry.

        Block codecs (JPEG) use it to gather DCT-ready blocks of the
        squeezed image straight from the original pixels — the erased
        sub-patches are never materialised, padded or blocked.  Plans are
        cached per ``(height, width, block)`` on the squeeze plan, which is
        itself cached per mask, so repeated images with a shared mask pay
        the index planning once.
        """
        key = (int(spatial_shape[0]), int(spatial_shape[1]), int(block))
        plans = getattr(self, "_block_plans", None)
        if plans is None:
            plans = self._block_plans = {}
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = BlockGatherPlan(self, key[0], key[1], block)
        return plan


class BlockGatherPlan:
    """Fused squeeze→block-codec index plan for one image geometry.

    Composes the whole reference index chain — edge-pad the original to the
    patch grid, erase-and-squeeze every patch, edge-pad the squeezed image
    to the codec block size, split into ``block×block`` blocks — into one
    gather, by running that exact chain over an index image (exact in
    float64 for any realistic image size).  The resulting plans are pure
    fancy-index applications:

    * :meth:`gather_blocks` — original channel → DCT-ready blocks of the
      padded squeezed channel (the encode fast path);
    * :meth:`squeeze_pixels` — original channel → squeezed channel (used
      for chroma that must be resampled before blocking);
    * :meth:`scatter_blocks` — decoded block pixels → zero-filled
      unsqueezed channel (the grayscale decode fast path, ``fill="zero"``
      semantics).

    Because every step of the reference chain is a gather (edge padding
    replicates existing pixels), the fused results are bit-identical to the
    unfused ``squeeze_image`` → ``pad`` → ``blocks`` pipeline.
    """

    def __init__(self, plan, height, width, block=8):
        self.block = int(block)
        self.spatial_shape = (int(height), int(width))
        patch = plan.patch_size
        padded_h = height + (-height) % patch
        padded_w = width + (-width) % patch
        self.padded_original = (padded_h, padded_w)
        # edge-pad composition: padded-original pixel -> original flat index
        row_src = np.minimum(np.arange(padded_h), height - 1)
        col_src = np.minimum(np.arange(padded_w), width - 1)
        index_image = (row_src[:, None] * width + col_src[None, :]).astype(np.float64)
        squeezed_index, grid_shape, _ = plan.squeeze_image(index_image)
        self.grid_shape = grid_shape
        self.squeezed_shape = squeezed_index.shape
        jpeg_padded, _ = pad_to_multiple(squeezed_index, self.block)
        self.padded_squeezed_shape = jpeg_padded.shape
        jh, jw = jpeg_padded.shape
        b = self.block
        blocked = jpeg_padded.reshape(jh // b, b, jw // b, b).transpose(0, 2, 1, 3)
        # flat-index form: np.take on the raveled channel is ~4x faster than
        # two-array fancy indexing at these sizes
        self._gather_flat = np.ascontiguousarray(blocked.reshape(-1)).astype(np.intp)
        self.num_blocks = self._gather_flat.size // (b * b)
        self._pixel_flat = np.ascontiguousarray(squeezed_index.reshape(-1)).astype(np.intp)
        # decode scatter: which decoded block pixel feeds each kept output
        # pixel of the zero-filled, unsqueezed, cropped channel
        block_ids = np.arange(self.num_blocks * b * b, dtype=np.float64)
        grid = block_ids.reshape(jh // b, jw // b, b, b).transpose(0, 2, 1, 3)
        in_padded = grid.reshape(jh, jw)
        in_squeezed = in_padded[: self.squeezed_shape[0], : self.squeezed_shape[1]]
        filled_src = plan.unsqueeze_image(in_squeezed + 1.0, grid_shape,
                                          self.padded_original, fill="zero")
        flat_src = filled_src[:height, :width].reshape(-1)
        kept = flat_src > 0
        self._scatter_dest = np.flatnonzero(kept)
        self._scatter_src = (flat_src[kept] - 1.0).astype(np.intp)

    def gather_blocks(self, channel):
        """Gather the padded squeezed channel as ``(num_blocks, b, b)`` blocks."""
        channel = np.ascontiguousarray(channel)
        b = self.block
        return np.take(channel.reshape(-1), self._gather_flat).reshape(-1, b, b)

    def squeeze_pixels(self, image):
        """Gather the squeezed image (no codec padding) from the original.

        Accepts a 2-D channel or a 3-D ``(H, W, C)`` image; the channel axis
        rides along (one row-gather instead of the reshape/transpose chain of
        ``SqueezePlan.squeeze_image``, same values bit-for-bit).
        """
        image = np.ascontiguousarray(image)
        height, width = self.squeezed_shape
        if image.ndim == 3:
            channels = image.shape[2]
            flat = np.take(image.reshape(-1, channels), self._pixel_flat, axis=0)
            return flat.reshape(height, width, channels)
        return np.take(image.reshape(-1), self._pixel_flat).reshape(height, width)

    def scatter_blocks(self, block_values, channels=None):
        """Scatter decoded block pixels into a zero-filled unsqueezed channel.

        ``block_values`` is the decoded ``(num_blocks, b, b)[, C]`` pixel
        array; the result is the cropped ``fill="zero"`` unsqueezed image of
        :attr:`spatial_shape` (plus a channel axis when ``channels`` is
        given).
        """
        height, width = self.spatial_shape
        if channels:
            flat = block_values.reshape(-1, channels)
            out = np.zeros((height * width, channels))
            out[self._scatter_dest] = flat[self._scatter_src]
            return out.reshape(height, width, channels)
        flat = block_values.reshape(-1)
        out = np.zeros(height * width)
        out[self._scatter_dest] = flat[self._scatter_src]
        return out.reshape(height, width)


# ---------------------------------------------------------------------- #
# plan cache
# ---------------------------------------------------------------------- #
def get_squeeze_plan(mask, subpatch_size, direction="horizontal"):
    """Return the (cached) :class:`SqueezePlan` for a mask and geometry.

    Plans are keyed on the mask bytes, mask shape, sub-patch size and
    direction; the cache holds the most recent ``128`` plans and is safe to
    share between threads.
    """
    mask = np.asarray(mask, dtype=bool)
    return _cached_squeeze_plan(mask.tobytes(), mask.shape, int(subpatch_size), direction)


@functools.lru_cache(maxsize=128)
def _cached_squeeze_plan(mask_bytes, shape, subpatch_size, direction):
    mask = np.frombuffer(mask_bytes, dtype=bool).reshape(shape)
    return SqueezePlan(mask, subpatch_size, direction)


#: Hit/miss counters of the plan cache (``functools`` ``CacheInfo``); the
#: servers publish them in their telemetry snapshot.
get_squeeze_plan.cache_info = _cached_squeeze_plan.cache_info


# ---------------------------------------------------------------------- #
# functional API (thin wrappers over cached plans)
# ---------------------------------------------------------------------- #
def erase_patch(patch, mask, subpatch_size, fill_value=0.0):
    """Zero out the erased sub-patches of a patch (no squeezing).

    Useful for visualisation and for measuring what a codec does to a
    partially-erased (but not packed) image.
    """
    subpatches = patch_to_subpatches(patch, subpatch_size).copy()
    mask = np.asarray(mask, dtype=bool)
    subpatches[~mask] = fill_value
    return subpatches_to_patch(subpatches)


def squeeze_patch(patch, mask, subpatch_size, direction="horizontal"):
    """Remove erased sub-patches and pack the survivors of each row together.

    Parameters
    ----------
    direction:
        ``"horizontal"`` packs survivors within each sub-patch row (output is
        ``n × kept·b``); ``"vertical"`` operates on columns instead.
    """
    plan = get_squeeze_plan(mask, subpatch_size, direction)
    return plan.squeeze_patches(np.asarray(patch)[None])[0]


def unsqueeze_patch(squeezed, mask, subpatch_size, fill="zero"):
    """Scatter squeezed sub-patches back to their original grid positions.

    See :meth:`SqueezePlan.unsqueeze_patches` for the ``fill`` semantics.
    """
    if fill not in _FILLS:
        raise ValueError("fill must be 'zero', 'neighbor' or 'mean'")
    plan = get_squeeze_plan(mask, subpatch_size)
    return plan.unsqueeze_patches(np.asarray(squeezed)[None], fill=fill)[0]


def squeezed_shape(image_shape, patch_size, subpatch_size, erase_per_row,
                   direction="horizontal"):
    """Shape of the squeezed image produced by :func:`erase_and_squeeze_image`."""
    height, width = image_shape[:2]
    padded_h = height + (-height) % patch_size
    padded_w = width + (-width) % patch_size
    grid = patch_size // subpatch_size
    kept = grid - erase_per_row
    if direction == "horizontal":
        new_w = padded_w * kept // grid
        spatial = (padded_h, new_w)
    else:
        new_h = padded_h * kept // grid
        spatial = (new_h, padded_w)
    if len(image_shape) == 3:
        return spatial + (image_shape[2],)
    return spatial


def erase_and_squeeze_image(image, mask, patch_size, subpatch_size, direction="horizontal"):
    """Apply erase-and-squeeze with a shared mask to every patch of an image.

    Returns ``(squeezed_image, grid_shape, original_shape)`` — the latter two
    are needed by :func:`unsqueeze_image`.
    """
    plan = get_squeeze_plan(mask, subpatch_size, direction).require_patch_size(patch_size)
    return plan.squeeze_image(image)


def unsqueeze_image(squeezed, mask, patch_size, subpatch_size, grid_shape, original_shape,
                    fill="zero", direction="horizontal"):
    """Inverse of :func:`erase_and_squeeze_image` (erased slots filled per ``fill``)."""
    plan = get_squeeze_plan(mask, subpatch_size, direction).require_patch_size(patch_size)
    return plan.unsqueeze_image(squeezed, grid_shape, original_shape, fill=fill)
