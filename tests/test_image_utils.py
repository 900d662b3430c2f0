"""Tests for repro.image helpers (colour spaces, resizing, padding)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import image as im


class TestDtypeConversions:
    def test_to_float_from_uint8(self):
        arr = np.array([[0, 128, 255]], dtype=np.uint8)
        out = im.to_float(arr)
        assert out.dtype == np.float64
        assert out.min() == 0.0 and out.max() == 1.0

    def test_to_float_clips_floats(self):
        assert im.to_float(np.array([[-0.5, 1.5]])).tolist() == [[0.0, 1.0]]

    def test_to_uint8_rounds(self):
        assert im.to_uint8(np.array([[0.499 / 255, 0.501 / 255]])).tolist() == [[0, 1]]

    def test_roundtrip_uint8(self):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        assert np.array_equal(im.to_uint8(im.to_float(arr)), arr)


class TestColorSpaces:
    def test_is_color_detection(self, rgb_image, gray_image):
        assert im.is_color(rgb_image)
        assert not im.is_color(gray_image)

    def test_ensure_color_replicates_gray(self, gray_image):
        out = im.ensure_color(gray_image)
        assert out.shape == gray_image.shape + (3,)
        assert np.allclose(out[..., 0], out[..., 2])

    def test_ensure_gray_of_gray_is_identity(self, gray_image):
        assert im.ensure_gray(gray_image) is gray_image

    def test_ensure_color_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            im.ensure_color(np.zeros((2, 2, 4)))

    def test_rgb_gray_weights_sum_to_one(self):
        white = np.ones((2, 2, 3))
        assert np.allclose(im.rgb_to_gray(white), 1.0)

    def test_ycbcr_roundtrip(self, rgb_image):
        recovered = im.ycbcr_to_rgb(im.rgb_to_ycbcr(rgb_image))
        assert np.abs(recovered - rgb_image).max() < 1e-3

    def test_gray_image_has_neutral_chroma(self):
        gray_rgb = np.repeat(np.linspace(0, 1, 16).reshape(4, 4, 1), 3, axis=2)
        ycbcr = im.rgb_to_ycbcr(gray_rgb)
        assert np.allclose(ycbcr[..., 1], 0.5, atol=1e-6)
        assert np.allclose(ycbcr[..., 2], 0.5, atol=1e-6)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_ycbcr_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        rgb = rng.random((6, 7, 3))
        assert np.abs(im.ycbcr_to_rgb(im.rgb_to_ycbcr(rgb)) - rgb).max() < 1e-3


class TestPaddingAndCropping:
    def test_pad_to_multiple_shapes(self):
        padded, original = im.pad_to_multiple(np.zeros((10, 13)), 8)
        assert padded.shape == (16, 16)
        assert original == (10, 13)

    def test_pad_no_op_when_aligned(self):
        arr = np.zeros((16, 8))
        padded, original = im.pad_to_multiple(arr, 8)
        assert padded.shape == (16, 8)
        assert padded is arr

    def test_pad_color_image_keeps_channels(self):
        padded, _ = im.pad_to_multiple(np.zeros((5, 5, 3)), 4)
        assert padded.shape == (8, 8, 3)

    def test_crop_back_to_original(self):
        arr = np.arange(10 * 13, dtype=float).reshape(10, 13)
        padded, original = im.pad_to_multiple(arr, 8)
        assert np.array_equal(padded[: original[0], : original[1]], arr)

    def test_edge_padding_replicates_border(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        padded, _ = im.pad_to_multiple(arr, 4)
        assert padded[0, 3] == 2.0
        assert padded[3, 0] == 3.0


class TestResampling:
    def test_bilinear_constant_image_unchanged(self):
        out = im.resize_bilinear(np.full((8, 8), 0.3), 16, 12)
        assert out.shape == (16, 12)
        assert np.allclose(out, 0.3)

    @settings(max_examples=200, deadline=None)
    @given(height=st.integers(1, 40), width=st.integers(1, 40),
           new_height=st.integers(1, 80), new_width=st.integers(1, 80),
           channels=st.sampled_from([None, 1, 3]), seed=st.integers(0, 2**32 - 1))
    def test_bilinear_matches_the_two_row_formula_bit_for_bit(
            self, height, width, new_height, new_width, channels, seed):
        # the reference gathers rows, then columns, for both source rows of
        # every output row; resize_bilinear may gather in another order but
        # must compute the same products and sums in the same order
        shape = (height, width) if channels is None else (height, width, channels)
        image = np.random.default_rng(seed).random(shape)
        ys = np.clip(im._resample_axis(height, new_height), 0, height - 1)
        xs = np.clip(im._resample_axis(width, new_width), 0, width - 1)
        y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
        y1, x1 = np.minimum(y0 + 1, height - 1), np.minimum(x0 + 1, width - 1)
        wy, wx = (ys - y0).reshape(-1, 1), (xs - x0).reshape(1, -1)
        if image.ndim == 3:
            wy, wx = wy[..., None], wx[..., None]
        top = image[y0][:, x0] * (1 - wx) + image[y0][:, x1] * wx
        bottom = image[y1][:, x0] * (1 - wx) + image[y1][:, x1] * wx
        expected = top * (1 - wy) + bottom * wy
        assert np.array_equal(im.resize_bilinear(image, new_height, new_width), expected)

    def test_bicubic_constant_image_unchanged(self):
        out = im.resize_bicubic(np.full((8, 8), 0.6), 17, 5)
        assert out.shape == (17, 5)
        assert np.allclose(out, 0.6, atol=1e-9)

    def test_bilinear_color_image_shape(self, rgb_image):
        out = im.resize_bilinear(rgb_image, 32, 40)
        assert out.shape == (32, 40, 3)

    def test_bicubic_preserves_range(self, gray_image):
        out = im.resize_bicubic(gray_image, 100, 120)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_bicubic_sharper_than_bilinear_on_edges(self):
        edge = np.zeros((32, 32))
        edge[:, 16:] = 1.0
        small = im.downsample_box(edge, 2)
        up_bi = im.resize_bilinear(small, 32, 32)
        up_bc = im.resize_bicubic(small, 32, 32)
        # bicubic should track the step edge at least as closely
        assert np.abs(up_bc - edge).mean() <= np.abs(up_bi - edge).mean() + 1e-6

    def test_downsample_box_averages(self):
        arr = np.arange(16, dtype=float).reshape(4, 4)
        out = im.downsample_box(arr, 2)
        assert out.shape == (2, 2)
        assert out[0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_downsample_box_color(self, rgb_image):
        out = im.downsample_box(rgb_image, 2)
        assert out.shape == (rgb_image.shape[0] // 2, rgb_image.shape[1] // 2, 3)

    def test_image_num_pixels(self):
        assert im.image_num_pixels(np.zeros((4, 5, 3))) == 20
        assert im.image_num_pixels((7, 9)) == 63
