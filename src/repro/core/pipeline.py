"""End-to-end Easz pipeline: edge-side encoder, server-side decoder, codec wrapper.

This is the system of the paper's Fig. 2 (left):

* **edge / sender** (:class:`EaszEncoder`): generate an erase mask with the
  row-based conditional sampler, erase-and-squeeze the image, compress the
  squeezed image with *any* base codec (JPEG, BPG, MBT, Cheng — or none), and
  emit the payload plus the serialised mask;
* **server / receiver** (:class:`EaszDecoder`): decompress the squeezed
  image, scatter the sub-patches back (zero fill), and reconstruct the erased
  content with the lightweight transformer;
* :class:`EaszCodec` wraps both halves behind the common
  :class:`repro.codecs.base.Codec` interface so the benchmark harness can
  treat "JPEG+Easz" exactly like any other compressor.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..codecs.base import Codec, ComplexityProfile, CompressedImage
from ..codecs.jpeg import JpegCodec
from ..image import image_num_pixels, to_float
from .config import EaszConfig
from .erase_squeeze import get_squeeze_plan
from .masks import deserialize_mask, proposed_mask, random_mask, serialize_mask
from .reconstruction import EaszReconstructor, reconstruct_batch, reconstruct_image

__all__ = ["EaszCompressed", "EaszEncoder", "EaszDecoder", "EaszCodec"]


@dataclass
class EaszCompressed:
    """Everything the edge transmits for one image."""

    codec_payload: CompressedImage
    mask_bytes: bytes
    grid_shape: tuple
    original_shape: tuple
    squeezed_shape: tuple
    config_summary: dict = field(default_factory=dict)

    @property
    def num_bytes(self):
        """Total transmitted bytes: base-codec payload + erase mask."""
        return self.codec_payload.num_bytes + len(self.mask_bytes)

    def bpp(self):
        """Bits per pixel relative to the *original* (pre-erase) image."""
        return 8.0 * self.num_bytes / image_num_pixels(self.original_shape)


class EaszEncoder:
    """Edge-side half of Easz: erase-and-squeeze + base-codec compression.

    Parameters
    ----------
    config:
        :class:`EaszConfig` controlling patch/sub-patch geometry and the
        sampler constraints.
    base_codec:
        Any :class:`repro.codecs.base.Codec`; defaults to JPEG quality 75.
        Pass ``None`` to transmit the squeezed image losslessly (Easz
        "functioning independently").
    mask_strategy:
        ``"proposed"`` (row-based conditional sampler) or ``"random"``
        (ablation baseline).
    """

    def __init__(self, config=None, base_codec=None, mask_strategy="proposed", seed=None):
        self.config = config or EaszConfig()
        if base_codec is None:
            base_codec = JpegCodec(quality=75)
        self.base_codec = base_codec
        if mask_strategy not in ("proposed", "random"):
            raise ValueError("mask_strategy must be 'proposed' or 'random'")
        self.mask_strategy = mask_strategy
        self._rng = np.random.default_rng(self.config.seed if seed is None else seed)

    def generate_mask(self):
        """Draw one shared erase mask according to the configured strategy."""
        cfg = self.config
        if cfg.erase_per_row == 0:
            return np.ones((cfg.grid_size, cfg.grid_size), dtype=np.uint8)
        if self.mask_strategy == "proposed":
            return proposed_mask(cfg.grid_size, cfg.erase_per_row,
                                 cfg.intra_row_min_distance, cfg.inter_row_min_distance,
                                 rng=self._rng)
        return random_mask(cfg.grid_size, cfg.erase_per_row, rng=self._rng)

    def _config_summary(self):
        """Encoder settings echoed to the receiver with every package."""
        cfg = self.config
        return {
            "patch_size": cfg.patch_size,
            "subpatch_size": cfg.subpatch_size,
            "erase_per_row": cfg.erase_per_row,
            "mask_strategy": self.mask_strategy,
            "base_codec": self.base_codec.name,
        }

    def _encode_with_plan(self, image, plan, mask_bytes, summary):
        """Squeeze + compress + package one image with precomputed mask state.

        Codecs advertising ``supports_fused_squeeze`` (JPEG) compress through
        the plan's block gather, so the squeezed image is never materialised;
        everyone else gets the classic squeeze-then-compress pipeline.  The
        two paths produce bit-identical payloads.
        """
        image = to_float(image)
        if getattr(self.base_codec, "supports_fused_squeeze", False):
            compressed, grid_shape, squeezed_shape = \
                self.base_codec.compress_squeezed(image, plan)
        else:
            squeezed, grid_shape, _ = plan.squeeze_image(image)
            compressed = self.base_codec.compress(squeezed)
            squeezed_shape = squeezed.shape
        return EaszCompressed(
            codec_payload=compressed,
            mask_bytes=mask_bytes,
            grid_shape=grid_shape,
            original_shape=image.shape,
            squeezed_shape=squeezed_shape,
            config_summary=summary,
        )

    def encode(self, image, mask=None):
        """Erase-and-squeeze ``image``, compress it, and package the result."""
        cfg = self.config
        if mask is None:
            mask = self.generate_mask()
        plan = get_squeeze_plan(mask, cfg.subpatch_size).require_patch_size(cfg.patch_size)
        return self._encode_with_plan(image, plan, serialize_mask(mask),
                                      self._config_summary())

    def encode_batch(self, images, mask=None):
        """Encode several images, byte-identical to sequential :meth:`encode` calls.

        Without an explicit ``mask`` every image draws its own mask from the
        encoder RNG in submission order — exactly the masks sequential
        :meth:`encode` calls would produce.  With a shared ``mask`` the
        squeeze plan and the serialised mask bytes are computed once and
        amortised across the whole batch (the serving encode path).
        """
        if mask is None:
            return [self.encode(image) for image in images]
        cfg = self.config
        plan = get_squeeze_plan(mask, cfg.subpatch_size).require_patch_size(cfg.patch_size)
        mask_bytes = serialize_mask(np.asarray(mask))
        summary = self._config_summary()
        return [self._encode_with_plan(image, plan, mask_bytes, dict(summary))
                for image in images]

    def complexity(self, shape):
        """Edge-side cost: erase-and-squeeze (memory moves) + base-codec encode.

        The erase-and-squeeze itself is a gather operation — a handful of
        operations per pixel and no model weights, which is why the paper
        measures it at 0.7 % of end-to-end latency.
        """
        cfg = self.config
        pixels = image_num_pixels(shape)
        squeeze = ComplexityProfile(macs=4.0 * pixels, model_bytes=0.0,
                                    working_memory_bytes=8.0 * pixels, uses_gpu=False)
        kept_fraction = 1.0 - cfg.erase_ratio
        squeezed = (shape[0], int(shape[1] * kept_fraction)) + tuple(shape[2:])
        return squeeze, self.base_codec.encode_complexity(squeezed)


class EaszDecoder:
    """Server-side half of Easz: base-codec decode + transformer reconstruction."""

    def __init__(self, model=None, config=None, base_codec=None, fill="zero"):
        self.config = config or (model.config if model is not None else EaszConfig())
        self.model = model or EaszReconstructor(self.config)
        if base_codec is None:
            base_codec = JpegCodec(quality=75)
        self.base_codec = base_codec
        self.fill = fill

    def _plan(self, mask):
        cfg = self.config
        return get_squeeze_plan(mask, cfg.subpatch_size).require_patch_size(cfg.patch_size)

    def _fused_unsqueeze(self, compressed, codec, plan):
        """Squeeze-fused decode when the codec supports it, else ``None``.

        Grayscale ``fill="zero"`` packages decode straight into the
        unsqueezed frame (one scatter, no squeezed-image materialisation);
        anything else falls back to the generic decompress-then-unsqueeze
        path.
        """
        if self.fill != "zero" or not hasattr(codec, "decompress_unsqueezed"):
            return None
        if len(compressed.original_shape) != 2:
            return None
        return codec.decompress_unsqueezed(
            compressed.codec_payload, plan, tuple(compressed.original_shape[:2]))

    def _finish_unsqueeze(self, compressed, squeezed, plan):
        """Clamp + unsqueeze + crop one decoded squeezed image."""
        cfg = self.config
        # The codec may hand back a slightly different dtype/range; clamp.
        squeezed = np.clip(np.asarray(squeezed), 0.0, 1.0)
        original_spatial = compressed.original_shape[:2]
        padded_original = (
            original_spatial[0] + (-original_spatial[0]) % cfg.patch_size,
            original_spatial[1] + (-original_spatial[1]) % cfg.patch_size,
        )
        filled = plan.unsqueeze_image(
            squeezed, compressed.grid_shape,
            padded_original + tuple(compressed.original_shape[2:]),
            fill=self.fill,
        )
        return filled[: original_spatial[0], : original_spatial[1], ...]

    def _unsqueeze_package(self, compressed, mask):
        """Base-codec decode + unsqueeze one package (no reconstruction)."""
        codec = self.base_codec
        plan = self._plan(mask)
        filled = self._fused_unsqueeze(compressed, codec, plan)
        if filled is not None:
            return filled
        squeezed = codec.decompress(compressed.codec_payload)
        return self._finish_unsqueeze(compressed, squeezed, plan)

    def _unsqueeze_many(self, packages, masks, codec=None, collect_errors=False):
        """Decode + unsqueeze N packages with one fused IDCT across the batch.

        The sequential entropy decode runs per package (with
        ``collect_errors=True`` a corrupt payload yields its exception in
        the result list and its batch-mates keep going — the serving
        contract); the inverse DCT of every surviving payload runs as a
        single batched call when the codec exposes ``decompress_many``.
        ``codec`` defaults to the decoder's base codec; servers pass the
        codec a package names.  Squeeze plans come from the process-wide
        :func:`~repro.core.erase_squeeze.get_squeeze_plan` cache.
        """
        codec = codec if codec is not None else self.base_codec
        packages = list(packages)
        resolved = [self._plan(mask) for mask in masks]
        results = [None] * len(packages)
        pending = []
        for index, package in enumerate(packages):
            try:
                filled = self._fused_unsqueeze(package, codec, resolved[index])
            except Exception as error:  # noqa: BLE001 - isolate per package
                if not collect_errors:
                    raise
                results[index] = error
                continue
            if filled is not None:
                results[index] = filled
            else:
                pending.append(index)
        if pending:
            if hasattr(codec, "decompress_many"):
                decoded = codec.decompress_many(
                    [packages[index].codec_payload for index in pending],
                    on_error="collect" if collect_errors else "raise")
            else:
                decoded = []
                for index in pending:
                    try:
                        decoded.append(codec.decompress(packages[index].codec_payload))
                    except Exception as error:  # noqa: BLE001
                        if not collect_errors:
                            raise
                        decoded.append(error)
            for index, squeezed in zip(pending, decoded):
                if isinstance(squeezed, Exception):
                    results[index] = squeezed
                    continue
                try:
                    results[index] = self._finish_unsqueeze(
                        packages[index], squeezed, resolved[index])
                except Exception as error:  # noqa: BLE001
                    if not collect_errors:
                        raise
                    results[index] = error
        return results

    def decode(self, compressed, reconstruct=True):
        """Recover the full image from an :class:`EaszCompressed` package."""
        mask = deserialize_mask(compressed.mask_bytes)
        filled = self._unsqueeze_package(compressed, mask)
        if not reconstruct:
            return filled
        return reconstruct_image(self.model, filled, mask)

    def decode_batch(self, packages, reconstruct=True):
        """Decode N packages, fusing the reconstruction of shared-mask groups.

        Base-codec entropy decoding runs per package (entropy streams are
        sequential by nature); the transformer reconstruction — the dominant
        server-side cost — is batched through
        :func:`repro.core.reconstruction.reconstruct_batch` for every group
        of packages sharing one erase mask.  Results keep submission order.
        :meth:`decode` is a batch of one through the same engine, so
        ``decode_batch([p])[0]`` equals ``decode(p)`` bit for bit; in larger
        batches predicted pixels agree with per-package calls to float32
        tolerance.
        """
        packages = list(packages)
        masks = [deserialize_mask(package.mask_bytes) for package in packages]
        filled_images = self._unsqueeze_many(packages, masks)
        groups = OrderedDict()
        for position, package in enumerate(packages):
            group = groups.get(package.mask_bytes)
            if group is None:
                groups[package.mask_bytes] = (masks[position], [position])
            else:
                group[1].append(position)
        if not reconstruct:
            return filled_images
        results = [None] * len(packages)
        for mask, positions in groups.values():
            reconstructed = reconstruct_batch(
                self.model, [filled_images[p] for p in positions], mask)
            for position, image in zip(positions, reconstructed):
                results[position] = image
        return results

    def complexity(self, shape):
        """Server-side cost: base-codec decode + transformer reconstruction."""
        decode = self.base_codec.decode_complexity(shape)
        reconstruction = ComplexityProfile(
            macs=self.model.reconstruction_flops(shape),
            model_bytes=self.model.model_size_bytes(),
            working_memory_bytes=64.0 * image_num_pixels(shape),
            uses_gpu=True,
        )
        return decode, reconstruction


class EaszCodec(Codec):
    """Easz wrapped as a standard codec ("<base>+easz" in tables and figures)."""

    is_neural = False  # nothing neural runs on the edge

    def __init__(self, config=None, base_codec=None, model=None, mask_strategy="proposed",
                 fill="zero", seed=None):
        self.config = config or EaszConfig()
        base_codec = base_codec if base_codec is not None else JpegCodec(quality=75)
        self.encoder = EaszEncoder(self.config, base_codec, mask_strategy, seed=seed)
        self.decoder = EaszDecoder(model=model, config=self.config, base_codec=base_codec,
                                   fill=fill)
        self.name = f"{base_codec.name}+easz"

    @property
    def model(self):
        """The reconstruction network used on the server side."""
        return self.decoder.model

    @property
    def base_codec(self):
        """The wrapped base compressor."""
        return self.encoder.base_codec

    def compress(self, image):
        """Edge-side encode; returns a :class:`CompressedImage` facade."""
        package = self.encoder.encode(image)
        return CompressedImage(
            payload=package.codec_payload.payload,
            original_shape=package.original_shape,
            codec_name=self.name,
            metadata={"easz_package": package,
                      "base_metadata": package.codec_payload.metadata},
            extra_bytes=len(package.mask_bytes) + package.codec_payload.extra_bytes,
        )

    def decompress(self, compressed):
        """Server-side decode + reconstruction."""
        package = compressed.metadata["easz_package"]
        return self.decoder.decode(package)

    def compress_batch(self, images, mask=None):
        """Batched :meth:`compress`: byte-identical payloads, shared plans."""
        packages = self.encoder.encode_batch(images, mask=mask)
        return [
            CompressedImage(
                payload=package.codec_payload.payload,
                original_shape=package.original_shape,
                codec_name=self.name,
                metadata={"easz_package": package,
                          "base_metadata": package.codec_payload.metadata},
                extra_bytes=len(package.mask_bytes) + package.codec_payload.extra_bytes,
            )
            for package in packages
        ]

    def decompress_batch(self, compressed_list):
        """Batched :meth:`decompress` with fused shared-mask reconstruction."""
        packages = [compressed.metadata["easz_package"] for compressed in compressed_list]
        return self.decoder.decode_batch(packages)

    def encode_complexity(self, shape):
        """Edge cost = erase-and-squeeze + base-codec encode of the squeezed image."""
        squeeze, base = self.encoder.complexity(shape)
        return ComplexityProfile(
            macs=squeeze.macs + base.macs,
            model_bytes=base.model_bytes,
            working_memory_bytes=max(squeeze.working_memory_bytes, base.working_memory_bytes),
            uses_gpu=base.uses_gpu,
        )

    def decode_complexity(self, shape):
        """Server cost = base-codec decode + transformer reconstruction."""
        decode, reconstruction = self.decoder.complexity(shape)
        return ComplexityProfile(
            macs=decode.macs + reconstruction.macs,
            model_bytes=decode.model_bytes + reconstruction.model_bytes,
            working_memory_bytes=decode.working_memory_bytes + reconstruction.working_memory_bytes,
            uses_gpu=True,
        )
