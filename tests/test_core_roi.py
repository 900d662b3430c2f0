"""Tests for region-of-interest aware erase-and-squeeze."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs import JpegCodec, PngCodec
from repro.core import (
    EaszConfig,
    RoiEaszCodec,
    RoiEaszDecoder,
    RoiEaszEncoder,
    allocate_erase_levels,
    saliency_map,
)
from repro.metrics import psnr


@pytest.fixture(scope="module")
def roi_config():
    return EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1,
                      d_model=16, num_heads=2, encoder_blocks=1, decoder_blocks=1,
                      ffn_mult=2, loss_lambda=0.0)


@pytest.fixture(scope="module")
def structured_image():
    """Flat background with a textured square: an unambiguous ROI."""
    rng = np.random.default_rng(3)
    image = np.full((64, 96), 0.5)
    image[16:48, 32:64] = 0.5 + 0.4 * rng.standard_normal((32, 32))
    return np.clip(image, 0.0, 1.0)


class TestSaliencyMap:
    def test_shape_matches_patch_grid(self, structured_image):
        saliency = saliency_map(structured_image, patch_size=16)
        assert saliency.shape == (4, 6)

    def test_values_are_normalised(self, structured_image):
        saliency = saliency_map(structured_image, patch_size=16)
        assert saliency.min() >= 0.0 and saliency.max() <= 1.0
        assert saliency.max() == pytest.approx(1.0)

    def test_textured_region_scores_higher_than_flat(self, structured_image):
        saliency = saliency_map(structured_image, patch_size=16)
        textured = saliency[1:3, 2:4].mean()
        flat = saliency[0, 0]
        assert textured > flat

    def test_constant_image_gives_zero_saliency(self):
        saliency = saliency_map(np.full((32, 32), 0.3), patch_size=16)
        assert np.allclose(saliency, 0.0)

    def test_color_images_are_supported(self, kodak_small):
        saliency = saliency_map(kodak_small[0], patch_size=16)
        assert saliency.ndim == 2
        assert np.isfinite(saliency).all()


class TestAllocateEraseLevels:
    def test_levels_respect_bounds(self, roi_config, structured_image):
        saliency = saliency_map(structured_image, 16)
        levels = allocate_erase_levels(saliency, roi_config, min_erase=1, max_erase=3)
        assert levels.min() >= 1 and levels.max() <= 3

    def test_salient_patches_get_less_erasure(self, roi_config, structured_image):
        saliency = saliency_map(structured_image, 16)
        levels = allocate_erase_levels(saliency, roi_config)
        most_salient = np.unravel_index(np.argmax(saliency), saliency.shape)
        least_salient = np.unravel_index(np.argmin(saliency), saliency.shape)
        assert levels[most_salient] <= levels[least_salient]

    def test_target_ratio_is_hit_on_average(self, roi_config, structured_image):
        saliency = saliency_map(structured_image, 16)
        levels = allocate_erase_levels(saliency, roi_config, target_ratio=0.5)
        achieved = levels.mean() / roi_config.grid_size
        assert achieved == pytest.approx(0.5, abs=0.13)

    def test_zero_target_means_no_erasure(self, roi_config, structured_image):
        saliency = saliency_map(structured_image, 16)
        levels = allocate_erase_levels(saliency, roi_config, target_ratio=0.0)
        assert levels.max() == 0

    def test_invalid_bounds_are_rejected(self, roi_config):
        with pytest.raises(ValueError):
            allocate_erase_levels(np.zeros((2, 2)), roi_config, min_erase=3, max_erase=1)


class TestRoiCodec:
    def test_roundtrip_preserves_shape_and_range(self, roi_config, kodak_small):
        codec = RoiEaszCodec(config=roi_config, base_codec=JpegCodec(quality=85),
                             target_ratio=0.25, seed=1)
        image = kodak_small[0]
        reconstruction, compressed = codec.roundtrip(image)
        assert reconstruction.shape == image.shape
        assert reconstruction.min() >= 0.0 and reconstruction.max() <= 1.0
        assert compressed.bpp() > 0

    def test_grayscale_roundtrip(self, roi_config, gray_image):
        codec = RoiEaszCodec(config=roi_config, base_codec=JpegCodec(quality=85),
                             target_ratio=0.25, seed=1)
        reconstruction, _ = codec.roundtrip(gray_image)
        assert reconstruction.shape == gray_image.shape

    def test_higher_target_ratio_lowers_bpp(self, roi_config, kodak_small):
        image = kodak_small[0]
        light = RoiEaszCodec(config=roi_config, base_codec=JpegCodec(quality=85),
                             target_ratio=0.0, seed=1)
        heavy = RoiEaszCodec(config=roi_config, base_codec=JpegCodec(quality=85),
                             model=light.decoder.model, target_ratio=0.5, seed=1)
        assert heavy.compress(image).bpp() < light.compress(image).bpp()

    def test_mismatched_levels_shape_is_rejected(self, roi_config, kodak_small):
        encoder = RoiEaszEncoder(roi_config, JpegCodec(quality=85))
        with pytest.raises(ValueError, match="levels shape"):
            encoder.encode(kodak_small[0], levels=np.zeros((1, 1), dtype=int))

    def test_explicit_levels_are_respected(self, roi_config, gray_image):
        encoder = RoiEaszEncoder(roi_config, PngCodec())
        levels = np.zeros((4, 5), dtype=int)  # 64x80 image -> 4x5 patch grid
        levels[0, :] = 2
        package = encoder.encode(gray_image, levels=levels)
        levels_used, counts = np.unique(package.assignments, return_counts=True)
        assert dict(zip(levels_used.tolist(), counts.tolist())) == {0: 15, 2: 5}

    def test_lossless_base_and_zero_erase_is_exact(self, roi_config, gray_image):
        """With no erasure and a lossless base codec the ROI pipeline is identity.

        The PNG-style codec stores 8-bit samples, so "exact" means exact up to
        one half quantisation step.
        """
        encoder = RoiEaszEncoder(roi_config, PngCodec(), target_ratio=0.0)
        decoder = RoiEaszDecoder(config=roi_config, base_codec=PngCodec())
        package = encoder.encode(gray_image)
        restored = decoder.decode(package, reconstruct=False)
        assert np.allclose(restored, gray_image, atol=0.5 / 255 + 1e-9)

    def test_reconstruction_beats_unfilled_holes(self, roi_config, gray_image,
                                                 trained_tiny_model):
        """Transformer inpainting must improve over leaving erased blocks at zero."""
        config = trained_tiny_model.config
        encoder = RoiEaszEncoder(config, PngCodec(), min_erase=1, max_erase=2, seed=2)
        decoder = RoiEaszDecoder(model=trained_tiny_model, config=config,
                                 base_codec=PngCodec())
        package = encoder.encode(gray_image)
        holes = decoder.decode(package, reconstruct=False)
        reconstructed = decoder.decode(package, reconstruct=True)
        assert psnr(gray_image, reconstructed) > psnr(gray_image, holes)

    def test_saliency_guided_beats_inverted_allocation(self, roi_config, structured_image,
                                                       trained_tiny_model):
        """Protecting salient patches must beat erasing them preferentially."""
        config = trained_tiny_model.config
        saliency = saliency_map(structured_image, config.patch_size)
        good_levels = allocate_erase_levels(saliency, config, target_ratio=0.35)
        bad_levels = allocate_erase_levels(1.0 - saliency, config, target_ratio=0.35)
        encoder = RoiEaszEncoder(config, PngCodec(), seed=3)
        decoder = RoiEaszDecoder(model=trained_tiny_model, config=config,
                                 base_codec=PngCodec())
        good = decoder.decode(encoder.encode(structured_image, levels=good_levels))
        bad = decoder.decode(encoder.encode(structured_image, levels=bad_levels))
        assert psnr(structured_image, good) >= psnr(structured_image, bad)

    def test_num_bytes_accounts_for_all_side_information(self, roi_config, gray_image):
        encoder = RoiEaszEncoder(roi_config, PngCodec(), target_ratio=0.25, seed=1)
        package = encoder.encode(gray_image)
        payload = sum(c.num_bytes for c in package.level_payloads.values())
        masks = sum(len(m) for m in package.level_masks.values())
        assert package.num_bytes >= payload + masks
