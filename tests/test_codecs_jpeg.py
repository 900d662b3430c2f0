"""Tests for the from-scratch baseline JPEG codec."""

import numpy as np
import pytest

from repro.codecs.jpeg import JpegCodec, dct2, dct_matrix, idct2
from repro.codecs.jpeg_tables import (
    CHROMINANCE_QUANT_TABLE,
    INVERSE_ZIGZAG_ORDER,
    LUMINANCE_QUANT_TABLE,
    STANDARD_AC_LUMINANCE,
    STANDARD_DC_LUMINANCE,
    ZIGZAG_ORDER,
    quality_scaled_table,
)
from repro.metrics import psnr


class TestDctAndTables:
    def test_dct_matrix_is_orthonormal(self):
        d = dct_matrix(8)
        assert np.allclose(d @ d.T, np.eye(8), atol=1e-12)

    def test_dct_idct_roundtrip(self):
        rng = np.random.default_rng(0)
        blocks = rng.normal(size=(10, 8, 8))
        assert np.allclose(idct2(dct2(blocks)), blocks, atol=1e-10)

    def test_dct_of_constant_block_is_dc_only(self):
        block = np.full((1, 8, 8), 3.0)
        coeffs = dct2(block)[0]
        assert coeffs[0, 0] == pytest.approx(24.0)
        assert np.abs(coeffs).sum() == pytest.approx(24.0)

    def test_zigzag_is_a_permutation(self):
        assert sorted(ZIGZAG_ORDER.tolist()) == list(range(64))
        assert np.array_equal(ZIGZAG_ORDER[INVERSE_ZIGZAG_ORDER], np.arange(64))

    def test_zigzag_starts_with_low_frequencies(self):
        assert ZIGZAG_ORDER[0] == 0
        assert set(ZIGZAG_ORDER[:3].tolist()) == {0, 1, 8}

    def test_quant_tables_shape_and_positivity(self):
        assert LUMINANCE_QUANT_TABLE.shape == (8, 8)
        assert CHROMINANCE_QUANT_TABLE.shape == (8, 8)
        assert LUMINANCE_QUANT_TABLE.min() > 0

    def test_quality_scaling_monotone(self):
        coarse = quality_scaled_table(LUMINANCE_QUANT_TABLE, 10)
        fine = quality_scaled_table(LUMINANCE_QUANT_TABLE, 90)
        assert np.all(coarse >= fine)
        assert fine.min() >= 1

    def test_quality_clipped_to_valid_range(self):
        table = quality_scaled_table(LUMINANCE_QUANT_TABLE, 1000)
        assert np.all(table >= 1) and np.all(table <= 255)

    def test_standard_huffman_specs_consistent(self):
        for spec in (STANDARD_DC_LUMINANCE, STANDARD_AC_LUMINANCE):
            bits, values = spec
            assert sum(bits) == len(values)
            assert len(set(values)) == len(values)
            # BITS[i] codes of length i + 1: the Kraft sum of a prefix code
            kraft = sum(count * 2.0 ** -(i + 1) for i, count in enumerate(bits))
            assert kraft <= 1.0 + 1e-12


class TestJpegRoundtrip:
    def test_grayscale_roundtrip_quality(self, gray_image):
        codec = JpegCodec(quality=85)
        reconstruction, compressed = codec.roundtrip(gray_image)
        assert reconstruction.shape == gray_image.shape
        assert psnr(gray_image, reconstruction) > 28.0
        assert compressed.bpp() < 8.0

    def test_color_roundtrip_quality(self, rgb_image):
        codec = JpegCodec(quality=85)
        reconstruction, compressed = codec.roundtrip(rgb_image)
        assert reconstruction.shape == rgb_image.shape
        assert psnr(rgb_image, reconstruction) > 25.0

    def test_reconstruction_in_valid_range(self, rgb_image):
        reconstruction, _ = JpegCodec(quality=30).roundtrip(rgb_image)
        assert reconstruction.min() >= 0.0 and reconstruction.max() <= 1.0

    def test_higher_quality_more_bits_better_psnr(self, gray_image):
        low = JpegCodec(quality=20)
        high = JpegCodec(quality=90)
        rec_low, comp_low = low.roundtrip(gray_image)
        rec_high, comp_high = high.roundtrip(gray_image)
        assert comp_high.num_bytes > comp_low.num_bytes
        assert psnr(gray_image, rec_high) > psnr(gray_image, rec_low)

    def test_non_multiple_of_eight_dimensions(self):
        rng = np.random.default_rng(0)
        image = rng.random((37, 53))
        reconstruction, _ = JpegCodec(quality=80).roundtrip(image)
        assert reconstruction.shape == (37, 53)

    def test_disable_chroma_subsampling_increases_fidelity(self, rgb_image):
        sub = JpegCodec(quality=85, subsample_chroma=True)
        full = JpegCodec(quality=85, subsample_chroma=False)
        rec_sub, comp_sub = sub.roundtrip(rgb_image)
        rec_full, comp_full = full.roundtrip(rgb_image)
        assert comp_full.num_bytes >= comp_sub.num_bytes
        assert psnr(rgb_image, rec_full) >= psnr(rgb_image, rec_sub) - 0.2

    def test_constant_image_compresses_tiny(self):
        image = np.full((64, 64), 0.5)
        compressed = JpegCodec(quality=75).compress(image)
        assert compressed.bpp() < 0.2

    def test_decompress_rejects_foreign_payload(self, gray_image):
        codec = JpegCodec()
        compressed = codec.compress(gray_image)
        compressed.payload = b"XXXX" + compressed.payload[4:]
        with pytest.raises(ValueError):
            codec.decompress(compressed)

    def test_payload_header_records_dimensions(self, gray_image):
        compressed = JpegCodec().compress(gray_image)
        assert int.from_bytes(compressed.payload[4:6], "big") == gray_image.shape[0]
        assert int.from_bytes(compressed.payload[6:8], "big") == gray_image.shape[1]

    def test_codec_name_includes_quality(self):
        assert JpegCodec(quality=42).name == "jpeg-q42"

    def test_bpp_accounts_for_payload_size(self, gray_image):
        compressed = JpegCodec(quality=60).compress(gray_image)
        expected = 8.0 * compressed.num_bytes / (gray_image.shape[0] * gray_image.shape[1])
        assert compressed.bpp() == pytest.approx(expected)


class TestJpegComplexity:
    def test_encode_complexity_scales_with_pixels(self):
        codec = JpegCodec()
        small = codec.encode_complexity((64, 64))
        large = codec.encode_complexity((128, 128))
        assert large.macs == pytest.approx(4 * small.macs)

    def test_no_model_and_no_gpu(self):
        profile = JpegCodec().encode_complexity((64, 64, 3))
        assert profile.model_bytes == 0
        assert not profile.uses_gpu
