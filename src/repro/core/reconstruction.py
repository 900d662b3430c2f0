"""Lightweight transformer reconstruction network (paper Section III-B, Fig. 5).

The reconstructor is a masked auto-encoder over sub-patch tokens:

* every *kept* sub-patch is flattened, linearly projected to ``d_model`` and
  summed with a learned positional embedding for its grid position;
* a two-block transformer **encoder** turns the kept tokens into features;
* zero vectors are inserted at the erased grid positions (plus their
  positional embeddings) and the combined sequence runs through a two-block
  transformer **decoder**;
* a linear head projects every token back to ``b²·channels`` pixels.

Because attention is confined to one patch, the same (small) model serves any
erase ratio and any image size — the "agility" of Easz.

:meth:`EaszReconstructor.forward` is the float64 autograd path used for
training.  All inference — :func:`reconstruct_image`,
:func:`reconstruct_batch` and :meth:`EaszReconstructor.reconstruct_tokens` —
runs through the model's float32 :class:`FusedBatchEngine`.
"""

from __future__ import annotations

import functools

import numpy as np

from .. import nn
from ..image import is_color, pad_to_multiple, to_float
from .batch_engine import FusedBatchEngine
from .config import EaszConfig

__all__ = [
    "EaszReconstructor",
    "reconstruct_image",
    "reconstruct_batch",
    "PixelIndexPlan",
    "get_pixel_plan",
]


class EaszReconstructor(nn.Module):
    """Transformer masked auto-encoder for erased sub-patch reconstruction."""

    def __init__(self, config=None, rng=None):
        super().__init__()
        self.config = config or EaszConfig()
        rng = rng or np.random.default_rng(self.config.seed)
        cfg = self.config
        self.input_projection = nn.Linear(cfg.token_dim, cfg.d_model, rng=rng)
        self.positional_embedding = nn.Parameter(
            nn.init.normal((cfg.tokens_per_patch, cfg.d_model), rng, std=0.02)
        )
        self.encoder = nn.TransformerStack(cfg.encoder_blocks, cfg.d_model, cfg.num_heads,
                                           cfg.ffn_mult, cfg.dropout, rng=rng)
        self.decoder = nn.TransformerStack(cfg.decoder_blocks, cfg.d_model, cfg.num_heads,
                                           cfg.ffn_mult, cfg.dropout, rng=rng)
        self.output_projection = nn.Linear(cfg.d_model, cfg.token_dim, rng=rng)
        # per-mask plan cache: kept indices + (tokens, kept) scatter matrix,
        # keyed on the mask bytes so repeated calls with a shared mask skip
        # both the flatnonzero and the scatter-matrix rebuild
        self._mask_plan_cache = {}

    # ------------------------------------------------------------------ #
    def _mask_plan(self, mask):
        """Cached ``(kept_indices, scatter_tensor)`` for a shared mask."""
        flat_mask = np.asarray(mask, dtype=bool).reshape(-1)
        if flat_mask.size != self.config.tokens_per_patch:
            raise ValueError(
                f"mask has {flat_mask.size} entries, expected {self.config.tokens_per_patch}"
            )
        key = flat_mask.tobytes()
        plan = self._mask_plan_cache.get(key)
        if plan is None:
            kept_indices = np.flatnonzero(flat_mask)  # lint: allow RP001 - plan builder, cached per mask bytes
            scatter = np.zeros((flat_mask.size, kept_indices.size))
            scatter[kept_indices, np.arange(kept_indices.size)] = 1.0
            plan = (kept_indices, nn.Tensor(scatter))
            if len(self._mask_plan_cache) >= 64:
                self._mask_plan_cache.clear()
            self._mask_plan_cache[key] = plan
        return plan

    # ------------------------------------------------------------------ #
    def forward(self, tokens, mask):
        """Reconstruct all sub-patch tokens of a batch of patches.

        Parameters
        ----------
        tokens:
            Array or tensor of shape ``(batch, tokens_per_patch, token_dim)``
            holding **all** sub-patch tokens in grid order; the values at
            erased positions are ignored (the encoder never sees them).
        mask:
            ``(grid, grid)`` or flattened ``(tokens_per_patch,)`` binary mask
            shared by the whole batch (1 = kept, 0 = erased).

        Returns
        -------
        Tensor of shape ``(batch, tokens_per_patch, token_dim)`` with pixel
        values in ``[0, 1]`` for every position (kept positions are also
        re-predicted; callers typically keep the original kept pixels).
        """
        tokens = nn.as_tensor(tokens)
        kept_indices, scatter = self._mask_plan(mask)

        kept_tokens = tokens[:, kept_indices, :]
        embedded = self.input_projection(kept_tokens) + self.positional_embedding[kept_indices]
        encoded = self.encoder(embedded)

        # Scatter encoded features back to their grid positions; erased
        # positions receive zero vectors (plus positional embeddings), as in
        # the paper's Fig. 5.
        full_features = scatter @ encoded  # (batch, tokens, d_model) via broadcasting
        full_features = full_features + self.positional_embedding
        decoded = self.decoder(full_features)
        return self.output_projection(decoded).sigmoid()

    # ------------------------------------------------------------------ #
    def reconstruct_tokens(self, tokens, mask, keep_original=True):
        """Numpy inference over token batches (no gradients).

        Runs every grid position of ``tokens`` through :meth:`batch_engine`.
        When ``keep_original`` is true the returned array keeps the original
        values at kept positions and only substitutes predictions at erased
        positions (this is how the server-side pipeline uses the model).
        """
        tokens = np.asarray(tokens)
        kept_indices, _ = self._mask_plan(mask)
        predicted = self.batch_engine().predict(
            tokens[:, kept_indices, :], kept_indices,
            np.arange(self.config.tokens_per_patch)).astype(np.float64)
        if keep_original:
            predicted[:, kept_indices, :] = tokens[:, kept_indices, :]
        return predicted

    def batch_engine(self):
        """The (cached) :class:`FusedBatchEngine` compiled from this model.

        Every inference path runs through it.  Rebuilt automatically when
        the parameter fingerprint changes (optimizer step,
        ``load_state_dict``, in-place mutation).
        """
        engine = self.__dict__.get("_batch_engine_cache")
        if engine is None or not engine.is_current():
            engine = FusedBatchEngine(self)
            self.__dict__["_batch_engine_cache"] = engine
        return engine

    # ------------------------------------------------------------------ #
    def model_size_bytes(self, bytes_per_param=4):
        """Serialized model size (fp32), comparable to the paper's 8.7 MB."""
        return self.size_bytes(bytes_per_param)

    def reconstruction_flops(self, image_shape):
        """Approximate MACs to reconstruct an image of ``image_shape``."""
        cfg = self.config
        height, width = image_shape[:2]
        padded_h = height + (-height) % cfg.patch_size
        padded_w = width + (-width) % cfg.patch_size
        num_patches = (padded_h // cfg.patch_size) * (padded_w // cfg.patch_size)
        tokens = cfg.tokens_per_patch
        per_patch = self.encoder.flops(tokens) + self.decoder.flops(tokens)
        per_patch += 2 * tokens * cfg.token_dim * cfg.d_model * 2
        channels = image_shape[2] if len(image_shape) == 3 and cfg.channels == 1 else 1
        return float(num_patches * per_patch * channels)


class PixelIndexPlan:
    """Pixel-level gather/scatter indices for one ``(mask, padded shape)``.

    Reconstruction skips the patchify→tokenize→reassemble copy chain
    entirely: kept sub-patch tokens are gathered straight from the (padded)
    image with one fancy index, and predictions are scattered straight back
    into a copy of it.  Plans are cached process-wide by
    :func:`get_pixel_plan`.

    Index array shapes are ``(num_patches, positions, subpatch_pixels)``;
    ``kept_*`` cover the kept grid positions (model input), ``erased_*`` the
    erased ones (scatter targets when original pixels are kept), ``all_*``
    every position (full re-prediction).
    """

    def __init__(self, flat_mask, padded_shape, patch_size, subpatch_size):
        grid = patch_size // subpatch_size
        height, width = padded_shape
        if height % patch_size or width % patch_size:
            raise ValueError(f"padded shape {padded_shape} is not a multiple of {patch_size}")
        rows, cols = height // patch_size, width // patch_size
        num_patches = rows * cols
        patch = np.arange(num_patches, dtype=np.int32)
        patch_row, patch_col = patch // cols, patch % cols
        token = np.arange(grid * grid, dtype=np.int32)
        grid_row, grid_col = token // grid, token % grid
        pixel = np.arange(subpatch_size * subpatch_size, dtype=np.int32)
        sub_row, sub_col = pixel // subpatch_size, pixel % subpatch_size
        y = (patch_row[:, None, None] * patch_size
             + grid_row[None, :, None] * subpatch_size + sub_row[None, None, :])
        x = (patch_col[:, None, None] * patch_size
             + grid_col[None, :, None] * subpatch_size + sub_col[None, None, :])
        self.kept_indices = np.flatnonzero(flat_mask)  # lint: allow RP001 - plan builder
        self.erased_indices = np.flatnonzero(~flat_mask)  # lint: allow RP001 - plan builder
        self.all_indices = np.arange(flat_mask.size)
        self.kept_y, self.kept_x = y[:, self.kept_indices], x[:, self.kept_indices]
        self.erased_y, self.erased_x = y[:, self.erased_indices], x[:, self.erased_indices]
        self.all_y, self.all_x = y, x
        self.num_patches = num_patches


def get_pixel_plan(mask, padded_shape, patch_size, subpatch_size):
    """Cached :class:`PixelIndexPlan` for a mask and padded image geometry."""
    flat_mask = np.asarray(mask, dtype=bool).reshape(-1)
    return _cached_pixel_plan(flat_mask.tobytes(), tuple(padded_shape),
                              int(patch_size), int(subpatch_size))


@functools.lru_cache(maxsize=32)
def _cached_pixel_plan(mask_bytes, padded_shape, patch_size, subpatch_size):
    flat_mask = np.frombuffer(mask_bytes, dtype=bool)
    return PixelIndexPlan(flat_mask, padded_shape, patch_size, subpatch_size)


def reconstruct_image(model, filled_image, mask, keep_original=True):
    """Reconstruct the erased sub-patches of a zero-filled (unsqueezed) image.

    Parameters
    ----------
    model:
        A trained :class:`EaszReconstructor`.
    filled_image:
        The unsqueezed image (erased sub-patches present but zero/neighbour
        filled), grayscale or RGB.
    mask:
        The shared sub-patch mask used on the edge side (1 = kept).

    A batch of one through :func:`reconstruct_batch`, so the library path
    and the serving path run the same engine and return the same pixels.
    """
    return reconstruct_batch(model, [filled_image], mask, keep_original)[0]


def reconstruct_batch(model, filled_images, mask, keep_original=True):
    """Reconstruct N images sharing one erase mask in fused transformer calls.

    Tokens from every image are gathered straight from the padded images
    (one fancy index per shape group, see :class:`PixelIndexPlan`), stacked
    into one patch batch and run through the model's
    :class:`FusedBatchEngine`, so fixed per-call costs are amortised across
    the whole batch.  Images may mix shapes and gray/RGB — they are
    grouped internally and each group is processed in one stacked call.
    RGB images are folded channel-major into the batch when the model was
    built with ``channels=1`` (the default), otherwise tokenised jointly.

    Parameters
    ----------
    model:
        A trained :class:`EaszReconstructor`.
    filled_images:
        Sequence of unsqueezed images (erased sub-patches zero/neighbour
        filled), each grayscale or RGB.
    mask:
        The shared sub-patch mask (1 = kept), as in :func:`reconstruct_image`.
    keep_original:
        Keep the transmitted pixels and substitute predictions only at
        erased positions (the serving default).

    Returns the reconstructions as a list in input order, clipped to
    ``[0, 1]``.  Kept pixels are the input pixels bit for bit; predicted
    pixels agree with the float64 autograd :meth:`EaszReconstructor.forward`
    to float32 tolerance (~1e-6, far below one 8-bit quantisation step).
    """
    cfg = model.config
    images = [to_float(image) for image in filled_images]
    if not images:
        return []
    flat_mask = np.asarray(mask, dtype=bool).reshape(-1)
    if flat_mask.size != cfg.tokens_per_patch:
        raise ValueError(
            f"mask has {flat_mask.size} entries, expected {cfg.tokens_per_patch}"
        )
    engine = model.batch_engine()
    results = [None] * len(images)
    groups = {}
    for position, image in enumerate(images):
        color = is_color(image)
        if not color and cfg.channels == 3:
            raise ValueError("model expects RGB tokens but received a grayscale image")
        groups.setdefault((image.shape, color), []).append(position)

    for (shape, color), members in groups.items():
        padded_images = [pad_to_multiple(images[i], cfg.patch_size)[0] for i in members]
        plan = get_pixel_plan(flat_mask, padded_images[0].shape[:2], cfg.patch_size,
                              cfg.subpatch_size)
        fold = color and cfg.channels == 1
        kept_tokens = _gather_tokens(np.stack(padded_images), plan, color, fold)
        out_indices = plan.erased_indices if keep_original else plan.all_indices
        predictions = engine.predict(kept_tokens, plan.kept_indices, out_indices)
        rows_per_image = predictions.shape[0] // len(members)
        for offset, position in enumerate(members):
            block = predictions[offset * rows_per_image:(offset + 1) * rows_per_image]
            results[position] = _scatter_frame(block, padded_images[offset], shape, plan,
                                               color, fold, keep_original)
    return results


def _gather_tokens(stack, plan, color, fold):
    """Kept-position tokens of a stacked shape group, ``(rows, kept, token_dim)``.

    One row per patch, or per patch and channel when ``fold`` folds RGB
    channels into the batch (channel-major per image).
    """
    gathered = stack[:, plan.kept_y, plan.kept_x]  # (N, P, kept, b²[, 3])
    num_kept = plan.kept_indices.size
    if fold:
        return gathered.transpose(0, 4, 1, 2, 3).reshape(-1, num_kept, gathered.shape[3])
    if color:
        return gathered.reshape(-1, num_kept, gathered.shape[3] * 3)
    return gathered.reshape(-1, num_kept, gathered.shape[3])


def _scatter_frame(block, padded, shape, plan, color, fold, keep_original):
    """One output frame from its rows of float32 predictions.

    The predictions are cast to float64 as they are scattered into a copy of
    ``padded`` (kept pixels stay bit for bit) or into zeros, then the frame
    is cropped to ``shape`` and clipped to ``[0, 1]``.
    """
    out_y = plan.erased_y if keep_original else plan.all_y
    out_x = plan.erased_x if keep_original else plan.all_x
    patches, num_out, subpixels = out_y.shape
    output = padded.copy() if keep_original else np.zeros_like(padded)
    if fold:
        output[out_y, out_x, :] = block.reshape(3, patches, num_out, subpixels).transpose(
            1, 2, 3, 0)
    elif color:
        output[out_y, out_x, :] = block.reshape(patches, num_out, subpixels, 3)
    else:
        output[out_y, out_x] = block.reshape(patches, num_out, subpixels)
    output = output[: shape[0], : shape[1], ...]
    np.clip(output, 0.0, 1.0, out=output)
    return output
