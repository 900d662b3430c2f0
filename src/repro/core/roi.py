"""Region-of-interest (ROI) aware erase-and-squeeze.

The paper's related-work section motivates ROI prioritisation on the edge
(HiRISE-style in-sensor selection) and Easz's erase ratio is a per-patch
knob, so the two compose naturally: patches with little visual content can be
erased aggressively while salient patches keep more sub-patches.  This module
implements that extension on top of the standard Easz machinery:

* a cheap, model-free per-patch saliency estimate (local contrast + gradient
  energy — something an MCU-class ISP could compute);
* an allocator that converts the saliency map and a global erase-ratio budget
  into a per-patch erase level;
* :class:`RoiEaszEncoder` / :class:`RoiEaszDecoder`, which group patches by
  erase level, squeeze and compress each group as a strip, and reconstruct
  each group with the *same* shared transformer model (one model serves all
  levels — the Easz agility property carries over unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..codecs.base import CompressedImage
from ..codecs.jpeg import JpegCodec
from ..image import image_num_pixels, to_float
from .config import EaszConfig
from .erase_squeeze import get_squeeze_plan
from .masks import proposed_mask
from .patchify import image_to_patches, patches_to_image
from .reconstruction import EaszReconstructor, reconstruct_image

__all__ = [
    "saliency_map",
    "allocate_erase_levels",
    "RoiCompressed",
    "RoiEaszEncoder",
    "RoiEaszDecoder",
    "RoiEaszCodec",
]


def saliency_map(image, patch_size):
    """Per-patch saliency in ``[0, 1]`` from local contrast and gradient energy.

    Returns an array of shape ``(rows, cols)`` matching the patch grid of
    :func:`repro.core.patchify.image_to_patches`.  The estimate is intentionally
    simple — a couple of passes over the pixels — so it adds nothing to the
    edge-side cost story.
    """
    image = to_float(image)
    if image.ndim == 3:
        image = image.mean(axis=-1)
    patches, grid_shape, _ = image_to_patches(image, patch_size)
    scores = np.empty(len(patches))
    for index, patch in enumerate(patches):
        contrast = patch.std()
        grad_y = np.abs(np.diff(patch, axis=0)).mean()
        grad_x = np.abs(np.diff(patch, axis=1)).mean()
        scores[index] = contrast + grad_y + grad_x
    low, high = scores.min(), scores.max()
    if high - low < 1e-12:
        normalised = np.zeros_like(scores)
    else:
        normalised = (scores - low) / (high - low)
    return normalised.reshape(grid_shape)


def allocate_erase_levels(saliency, config, target_ratio=None, min_erase=0, max_erase=None):
    """Convert a saliency map into per-patch erase levels.

    Parameters
    ----------
    saliency:
        ``(rows, cols)`` array in ``[0, 1]`` (1 = most salient, erase least).
    config:
        :class:`EaszConfig` defining the grid size (levels range over
        ``[min_erase, max_erase]`` sub-patches per row).
    target_ratio:
        Optional average erase ratio to hit across the image; the allocation
        is shifted level-by-level (most/least salient patches first) until
        the mean matches the budget as closely as the integer levels allow.
    min_erase, max_erase:
        Per-patch clamp on the erase level.

    Returns an integer array with the same shape as ``saliency``.
    """
    saliency = np.asarray(saliency, dtype=np.float64)
    grid = config.grid_size
    max_erase = grid - 1 if max_erase is None else min(grid - 1, max_erase)
    if min_erase > max_erase:
        raise ValueError(f"min_erase {min_erase} exceeds max_erase {max_erase}")
    span = max_erase - min_erase
    levels = np.round(min_erase + (1.0 - saliency) * span).astype(int)
    levels = np.clip(levels, min_erase, max_erase)
    if target_ratio is None:
        return levels
    target_level = target_ratio * grid
    # Shift the allocation one patch at a time towards the budget, spending
    # the adjustment on the patches where it costs the least: erase more in
    # the least salient patches, erase less in the most salient ones.
    flat_levels = levels.reshape(-1)
    flat_saliency = saliency.reshape(-1)
    order_low_saliency = np.argsort(flat_saliency)
    order_high_saliency = order_low_saliency[::-1]
    for _ in range(flat_levels.size * span + 1):
        mean_level = flat_levels.mean()
        if abs(mean_level - target_level) < 0.5 / flat_levels.size:
            break
        if mean_level < target_level:
            adjustable = [i for i in order_low_saliency if flat_levels[i] < max_erase]
            if not adjustable:
                break
            flat_levels[adjustable[0]] += 1
        else:
            adjustable = [i for i in order_high_saliency if flat_levels[i] > min_erase]
            if not adjustable:
                break
            flat_levels[adjustable[0]] -= 1
    return flat_levels.reshape(saliency.shape)


@dataclass
class RoiCompressed:
    """Wire format of one ROI-coded image: one strip per erase level."""

    level_payloads: dict
    level_masks: dict
    assignments: np.ndarray
    grid_shape: tuple
    original_shape: tuple
    patch_size: int
    subpatch_size: int
    config_summary: dict = field(default_factory=dict)

    @property
    def num_bytes(self):
        """Total transmitted bytes: strips, masks, and the assignment map."""
        payload = sum(c.num_bytes for c in self.level_payloads.values())
        masks = sum(len(m) for m in self.level_masks.values())
        assignment_bytes = int(np.ceil(self.assignments.size * 0.5))  # 4 bits/patch
        return payload + masks + assignment_bytes

    def bpp(self):
        """Bits per pixel relative to the original image."""
        return 8.0 * self.num_bytes / image_num_pixels(self.original_shape)

class RoiEaszEncoder:
    """Edge-side ROI encoder: per-patch erase levels, one squeezed strip per level."""

    def __init__(self, config=None, base_codec=None, min_erase=0, max_erase=None,
                 target_ratio=None, seed=0):
        self.config = config or EaszConfig()
        self.base_codec = base_codec if base_codec is not None else JpegCodec(quality=75)
        self.min_erase = min_erase
        grid = self.config.grid_size
        self.max_erase = grid - 1 if max_erase is None else min(grid - 1, max_erase)
        self.target_ratio = target_ratio
        self.seed = seed

    def masks_for_levels(self, levels):
        """One shared proposed mask per distinct erase level (level 0 = keep all)."""
        cfg = self.config
        masks = {}
        for level in sorted(set(int(v) for v in np.asarray(levels).reshape(-1))):
            if level == 0:
                masks[level] = np.ones((cfg.grid_size, cfg.grid_size), dtype=np.uint8)
                continue
            delta = cfg.intra_row_min_distance
            if level * (delta + 1) > cfg.grid_size:
                delta = 0
            masks[level] = proposed_mask(
                cfg.grid_size, level, delta, cfg.inter_row_min_distance,
                seed=self.seed + level,
            )
        return masks

    def encode(self, image, saliency=None, levels=None):
        """Compress ``image`` with per-patch erase levels.

        ``saliency`` (or explicit ``levels``) may be supplied; otherwise the
        built-in :func:`saliency_map` is used.
        """
        cfg = self.config
        image = to_float(image)
        patches, grid_shape, original_shape = image_to_patches(image, cfg.patch_size)
        if levels is None:
            if saliency is None:
                saliency = saliency_map(image, cfg.patch_size)
            levels = allocate_erase_levels(saliency, cfg, target_ratio=self.target_ratio,
                                           min_erase=self.min_erase, max_erase=self.max_erase)
        levels = np.asarray(levels, dtype=int)
        if levels.shape != grid_shape:
            raise ValueError(f"levels shape {levels.shape} does not match patch grid {grid_shape}")
        masks = self.masks_for_levels(levels)

        from .mask_codec import encode_mask  # local import to avoid cycle at module load

        flat_levels = levels.reshape(-1)
        level_payloads = {}
        level_masks = {}
        for level, mask in masks.items():
            member_indices = np.flatnonzero(flat_levels == level)
            if member_indices.size == 0:
                continue
            plan = get_squeeze_plan(mask, cfg.subpatch_size).require_patch_size(cfg.patch_size)
            squeezed = plan.squeeze_patches(patches[member_indices])
            # lay the group's squeezed patches side by side as one strip
            if squeezed.ndim == 4:
                strip = squeezed.transpose(1, 0, 2, 3).reshape(
                    squeezed.shape[1], -1, squeezed.shape[3])
            else:
                strip = squeezed.transpose(1, 0, 2).reshape(squeezed.shape[1], -1)
            level_payloads[level] = self.base_codec.compress(strip)
            level_masks[level] = encode_mask(mask)
        return RoiCompressed(
            level_payloads=level_payloads,
            level_masks=level_masks,
            assignments=levels,
            grid_shape=grid_shape,
            original_shape=image.shape,
            patch_size=cfg.patch_size,
            subpatch_size=cfg.subpatch_size,
            config_summary={
                "base_codec": self.base_codec.name,
                "min_erase": self.min_erase,
                "max_erase": self.max_erase,
                "target_ratio": self.target_ratio,
            },
        )


class RoiEaszDecoder:
    """Server-side ROI decoder: per-level unsqueeze + shared-model reconstruction."""

    def __init__(self, model=None, config=None, base_codec=None, fill="zero"):
        self.config = config or (model.config if model is not None else EaszConfig())
        self.model = model or EaszReconstructor(self.config)
        self.base_codec = base_codec if base_codec is not None else JpegCodec(quality=75)
        self.fill = fill

    def decode(self, compressed, reconstruct=True):
        """Recover the full image from a :class:`RoiCompressed` package."""
        from .mask_codec import decode_mask

        cfg = self.config
        flat_levels = compressed.assignments.reshape(-1)
        rows, cols = compressed.grid_shape
        n = compressed.patch_size
        sample_shape = (n, n) + tuple(compressed.original_shape[2:])
        filled_patches = np.zeros((flat_levels.size,) + sample_shape)

        level_masks = {}
        for level, payload in compressed.level_payloads.items():
            mask = decode_mask(compressed.level_masks[level])
            level_masks[level] = mask
            strip = np.clip(np.asarray(self.base_codec.decompress(payload)), 0.0, 1.0)
            plan = get_squeeze_plan(mask, compressed.subpatch_size)
            plan.require_patch_size(compressed.patch_size)
            width = plan.kept_per_row * compressed.subpatch_size
            member_indices = np.flatnonzero(flat_levels == level)
            # split the strip back into the group's squeezed patches and
            # unsqueeze the whole group in one batched scatter
            if strip.ndim == 3:
                blocks = strip.reshape(strip.shape[0], member_indices.size, width,
                                       strip.shape[2]).transpose(1, 0, 2, 3)
            else:
                blocks = strip.reshape(strip.shape[0], member_indices.size, width)
                blocks = blocks.transpose(1, 0, 2)
            filled_patches[member_indices] = plan.unsqueeze_patches(blocks, fill=self.fill)

        padded_shape = (rows * n, cols * n) + tuple(compressed.original_shape[2:])
        filled = patches_to_image(filled_patches, compressed.grid_shape, padded_shape)
        if reconstruct:
            filled = self._reconstruct_groups(filled_patches, flat_levels, level_masks,
                                              compressed, padded_shape)
        return filled[: compressed.original_shape[0], : compressed.original_shape[1], ...]

    def _reconstruct_groups(self, filled_patches, flat_levels, level_masks,
                            compressed, padded_shape):
        """Run the shared reconstructor once per erase level."""
        reconstructed = np.array(filled_patches)
        for level, mask in level_masks.items():
            if level == 0:
                continue
            member_indices = np.flatnonzero(flat_levels == level)
            if member_indices.size == 0:
                continue
            # Lay the group's patches out in a row so reconstruct_image's
            # patchify recovers exactly these patches (keeps colour handling
            # and per-channel processing in one place).
            group = np.concatenate([filled_patches[i] for i in member_indices], axis=1)
            restored = reconstruct_image(self.model, group, mask)
            n = compressed.patch_size
            for position, patch_index in enumerate(member_indices):
                reconstructed[patch_index] = restored[:, position * n:(position + 1) * n, ...]
        return patches_to_image(reconstructed, compressed.grid_shape, padded_shape)


class RoiEaszCodec:
    """ROI-aware Easz wrapped behind the standard codec interface."""

    is_neural = False

    def __init__(self, config=None, base_codec=None, model=None, min_erase=0,
                 max_erase=None, target_ratio=None, fill="zero", seed=0):
        self.config = config or EaszConfig()
        base_codec = base_codec if base_codec is not None else JpegCodec(quality=75)
        self.encoder = RoiEaszEncoder(self.config, base_codec, min_erase=min_erase,
                                      max_erase=max_erase, target_ratio=target_ratio,
                                      seed=seed)
        self.decoder = RoiEaszDecoder(model=model, config=self.config, base_codec=base_codec,
                                      fill=fill)
        self.name = f"{base_codec.name}+easz-roi"

    def compress(self, image):
        """Edge-side ROI encode; returns a :class:`CompressedImage` facade."""
        package = self.encoder.encode(image)
        return CompressedImage(
            payload=b"",
            original_shape=package.original_shape,
            codec_name=self.name,
            metadata={"roi_package": package},
            extra_bytes=package.num_bytes,
        )

    def decompress(self, compressed):
        """Server-side decode + per-level reconstruction."""
        return self.decoder.decode(compressed.metadata["roi_package"])

    def roundtrip(self, image):
        """Compress then decompress; returns ``(reconstruction, compressed)``."""
        compressed = self.compress(image)
        return self.decompress(compressed), compressed

