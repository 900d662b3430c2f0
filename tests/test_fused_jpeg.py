"""Equivalence suite: squeeze-fused JPEG block path vs the unfused pipeline.

The fused path (``JpegCodec.compress_squeezed`` / ``decompress_unsqueezed``
over ``SqueezePlan.block_plan``) must produce bit-identical payloads and
pixel-identical decodes to compressing the materialised squeezed image —
across gray/RGB, ragged sizes, and the degenerate all-erased / none-erased
masks.  The batched DCT entry point must be exact against the
per-channel transform.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.jpeg import (
    JpegCodec,
    dct2,
    dct2_batched,
    idct2,
    idct2_batched,
)
from repro.core import EaszCodec, EaszConfig, EaszDecoder, EaszEncoder
from repro.core.erase_squeeze import get_squeeze_plan

_SUBPATCH = 4
_GRID = 4


def _balanced_mask(rng, erase_per_row):
    mask = np.ones((_GRID, _GRID), dtype=bool)
    for row in range(_GRID):
        erased = rng.choice(_GRID, size=erase_per_row, replace=False)
        mask[row, erased] = False
    return mask


@st.composite
def _mask_and_shape(draw):
    seed = draw(st.integers(0, 2 ** 31 - 1))
    erase = draw(st.integers(0, _GRID - 1))
    height = draw(st.integers(16, 96))
    width = draw(st.integers(16, 96))
    color = draw(st.booleans())
    rng = np.random.default_rng(seed)
    mask = _balanced_mask(rng, erase)
    shape = (height, width, 3) if color else (height, width)
    return mask, rng.random(shape)


class TestFusedEncode:
    @given(_mask_and_shape(), st.sampled_from([25, 75, 95]), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_payload_bit_identical_to_unfused(self, mask_image, quality, subsample):
        mask, image = mask_image
        codec = JpegCodec(quality=quality, subsample_chroma=subsample)
        plan = get_squeeze_plan(mask, _SUBPATCH)
        squeezed, grid_shape, _ = plan.squeeze_image(image)
        reference = codec.compress(squeezed)
        fused, fused_grid, fused_shape = codec.compress_squeezed(image, plan)
        assert fused.payload == reference.payload
        assert fused.metadata == reference.metadata
        assert tuple(fused.original_shape) == tuple(squeezed.shape)
        assert fused_grid == grid_shape
        assert tuple(fused_shape) == tuple(squeezed.shape)

    @pytest.mark.parametrize("color", [False, True])
    def test_none_erased_mask(self, color):
        rng = np.random.default_rng(0)
        image = rng.random((48, 64, 3) if color else (48, 64))
        plan = get_squeeze_plan(np.ones((_GRID, _GRID), bool), _SUBPATCH)
        codec = JpegCodec(quality=75)
        reference = codec.compress(plan.squeeze_image(image)[0])
        fused, _, _ = codec.compress_squeezed(image, plan)
        assert fused.payload == reference.payload

    def test_all_erased_mask_matches_unfused_behaviour(self):
        """kept=0 squeezes to a zero-width image; fused and unfused must
        behave identically (bit-identical payloads, or the same failure)."""
        rng = np.random.default_rng(1)
        plan = get_squeeze_plan(np.zeros((_GRID, _GRID), bool), _SUBPATCH)
        codec = JpegCodec(quality=75)
        image = rng.random((32, 32))
        reference = codec.compress(plan.squeeze_image(image)[0])
        fused, _, fused_shape = codec.compress_squeezed(image, plan)
        assert fused.payload == reference.payload
        assert fused_shape == (32, 0)

    def test_easz_encoder_uses_fused_path_transparently(self):
        """EaszEncoder output must be byte-identical whether or not the base
        codec advertises the fused path."""
        rng = np.random.default_rng(2)
        config = EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1)
        image = rng.random((70, 53, 3))
        mask = EaszEncoder(config, seed=0).generate_mask()

        fused_encoder = EaszEncoder(config, base_codec=JpegCodec(quality=75), seed=0)
        package = fused_encoder.encode(image, mask=mask)

        unfused_codec = JpegCodec(quality=75)
        plan = get_squeeze_plan(mask, config.subpatch_size)
        squeezed, grid_shape, _ = plan.squeeze_image(np.asarray(image, dtype=np.float64))
        reference = unfused_codec.compress(squeezed)
        assert package.codec_payload.payload == reference.payload
        assert package.grid_shape == grid_shape
        assert tuple(package.squeezed_shape) == tuple(squeezed.shape)


class TestFusedDecode:
    @given(_mask_and_shape(), st.sampled_from([25, 75]))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_pixels_identical_to_unfused(self, mask_image, quality):
        mask, image = mask_image
        config = EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=0)
        codec = JpegCodec(quality=quality)
        encoder = EaszEncoder(config, base_codec=codec, seed=0)
        decoder = EaszDecoder(config=config, base_codec=codec)
        package = encoder.encode(image, mask=mask)
        filled = decoder.decode(package, reconstruct=False)

        # reference: unfused decompress + clamp + unsqueeze + crop
        squeezed = np.clip(np.asarray(codec.decompress(package.codec_payload)), 0, 1)
        plan = get_squeeze_plan(mask, _SUBPATCH)
        spatial = image.shape[:2]
        padded = (spatial[0] + (-spatial[0]) % 16, spatial[1] + (-spatial[1]) % 16)
        reference = plan.unsqueeze_image(
            squeezed, package.grid_shape, padded + tuple(image.shape[2:]),
            fill="zero")[: spatial[0], : spatial[1]]
        assert np.array_equal(filled, reference)

    def test_non_zero_fill_falls_back_to_generic_path(self):
        rng = np.random.default_rng(3)
        config = EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1)
        codec = JpegCodec(quality=75)
        image = rng.random((48, 48))
        encoder = EaszEncoder(config, base_codec=codec, seed=0)
        mask = encoder.generate_mask()
        package = encoder.encode(image, mask=mask)
        filled_zero = EaszDecoder(config=config, base_codec=codec,
                                  fill="zero").decode(package, reconstruct=False)
        filled_neighbor = EaszDecoder(config=config, base_codec=codec,
                                      fill="neighbor").decode(package, reconstruct=False)
        assert filled_zero.shape == filled_neighbor.shape
        erased = filled_zero == 0
        assert erased.any() and not (filled_neighbor[erased] == 0).all()


class TestBatchedDecode:
    def test_decode_batch_equals_sequential_decode(self):
        rng = np.random.default_rng(6)
        config = EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1)
        codec = EaszCodec(config=config, base_codec=JpegCodec(quality=75), seed=0)
        images = [rng.random((48, 64, 3)) for _ in range(3)]
        images.append(rng.random((48, 64)))  # mixed gray into the batch
        packages = [codec.encoder.encode(image) for image in images]
        batched = codec.decoder.decode_batch(packages, reconstruct=False)
        for package, filled in zip(packages, batched):
            assert np.array_equal(codec.decoder.decode(package, reconstruct=False),
                                  filled)


class TestBatchedDct:
    def test_matches_reference_dct_to_float_tolerance(self):
        rng = np.random.default_rng(7)
        blocks = rng.random((257, 8, 8)) * 255.0 - 128.0
        assert np.allclose(dct2_batched(blocks), dct2(blocks), atol=1e-10)
        coeffs = dct2_batched(blocks)
        assert np.allclose(idct2_batched(coeffs), idct2(coeffs), atol=1e-10)
        assert np.allclose(idct2_batched(coeffs), blocks, atol=1e-9)

    def test_empty_batch(self):
        empty = np.zeros((0, 8, 8))
        assert dct2_batched(empty).shape == (0, 8, 8)
        assert idct2_batched(empty).shape == (0, 8, 8)
