"""Tests for the two-stage patchify and erase-and-squeeze operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    attention_complexity,
    erase_and_squeeze_image,
    get_squeeze_plan,
    image_to_patches,
    patch_to_subpatches,
    patches_to_image,
    proposed_mask,
    squeezed_shape,
    subpatches_to_patch,
    subpatches_to_tokens,
    tokens_to_subpatches,
    unsqueeze_image,
    validate_balanced_mask,
)


class TestPatchify:
    def test_image_to_patches_counts(self, gray_image):
        patches, grid, original = image_to_patches(gray_image, 16)
        assert patches.shape == (4 * 5, 16, 16)
        assert grid == (4, 5)
        assert original == gray_image.shape

    def test_patches_roundtrip_gray(self, gray_image):
        patches, grid, original = image_to_patches(gray_image, 16)
        assert np.allclose(patches_to_image(patches, grid, original), gray_image)

    def test_patches_roundtrip_color(self, rgb_image):
        patches, grid, original = image_to_patches(rgb_image, 16)
        assert patches.shape[-1] == 3
        assert np.allclose(patches_to_image(patches, grid, original), rgb_image)

    def test_padding_applied_for_odd_sizes(self):
        image = np.random.default_rng(0).random((30, 45))
        patches, grid, original = image_to_patches(image, 16)
        assert grid == (2, 3)
        assert np.allclose(patches_to_image(patches, grid, original), image)

    def test_subpatch_grid_shapes(self):
        patch = np.arange(16 * 16, dtype=float).reshape(16, 16)
        sub = patch_to_subpatches(patch, 4)
        assert sub.shape == (4, 4, 4, 4)
        assert np.allclose(subpatches_to_patch(sub), patch)

    def test_subpatch_color(self):
        patch = np.random.default_rng(0).random((16, 16, 3))
        sub = patch_to_subpatches(patch, 4)
        assert sub.shape == (4, 4, 4, 4, 3)
        assert np.allclose(subpatches_to_patch(sub), patch)

    def test_subpatch_rejects_indivisible(self):
        with pytest.raises(ValueError):
            patch_to_subpatches(np.zeros((16, 16)), 5)

    def test_tokens_roundtrip(self):
        patch = np.random.default_rng(0).random((16, 16))
        sub = patch_to_subpatches(patch, 4)
        tokens = subpatches_to_tokens(sub)
        assert tokens.shape == (16, 16)
        recovered = tokens_to_subpatches(tokens, 4, 4)
        assert np.allclose(subpatches_to_patch(recovered), patch)

    def test_tokens_roundtrip_color(self):
        patch = np.random.default_rng(0).random((8, 8, 3))
        tokens = subpatches_to_tokens(patch_to_subpatches(patch, 2))
        assert tokens.shape == (16, 2 * 2 * 3)
        recovered = tokens_to_subpatches(tokens, 4, 2, channels=3)
        assert np.allclose(subpatches_to_patch(recovered), patch)

    def test_two_stage_patchify_shapes(self, gray_image):
        patches, _, _ = image_to_patches(gray_image, 16)
        tokens = np.stack([subpatches_to_tokens(patch_to_subpatches(p, 4)) for p in patches])
        assert tokens.shape == (20, 16, 16)

    def test_subpatch_spatial_content_preserved(self):
        patch = np.zeros((8, 8))
        patch[0:2, 2:4] = 1.0  # sub-patch (0, 1) with b=2
        sub = patch_to_subpatches(patch, 2)
        assert np.all(sub[0, 1] == 1.0)
        assert sub.sum() == 4.0

    @given(st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_patchify_roundtrip_property(self, scale, seed):
        rng = np.random.default_rng(seed)
        image = rng.random((16 * scale, 16 * scale))
        patches, grid, original = image_to_patches(image, 16)
        assert np.allclose(patches_to_image(patches, grid, original), image)


class TestAttentionComplexity:
    def test_two_stage_reduces_complexity(self):
        naive = attention_complexity(256, 256, patch_size=None, subpatch_size=1)
        staged = attention_complexity(256, 256, patch_size=32, subpatch_size=4)
        assert staged < naive
        # paper: pixel-token attention on 256x256 costs 4,294,967,296·d and the
        # two-stage patchify cuts it by at least the reported 4096x factor
        assert naive == pytest.approx(4_294_967_296)
        assert naive / staged >= 4096

    def test_paper_naive_number(self):
        assert attention_complexity(256, 256, None, 1) == pytest.approx(65536 ** 2)

    def test_complexity_scales_with_d_model(self):
        assert attention_complexity(64, 64, 16, 4, d_model=8) == pytest.approx(
            8 * attention_complexity(64, 64, 16, 4, d_model=1))

    def test_smaller_subpatch_costs_more(self):
        coarse = attention_complexity(128, 128, 32, 4)
        fine = attention_complexity(128, 128, 32, 2)
        assert fine > coarse


class TestEraseSqueeze:
    def test_validate_balanced_mask_accepts_row_balanced(self):
        assert validate_balanced_mask(proposed_mask(4, 1, seed=0)) == 3

    def test_validate_balanced_mask_rejects_unbalanced(self):
        mask = np.ones((4, 4), dtype=np.uint8)
        mask[0, :2] = 0
        with pytest.raises(ValueError):
            validate_balanced_mask(mask)

    def test_erase_patch_zeroes_erased_blocks(self):
        patch = np.ones((8, 8))
        plan = get_squeeze_plan(proposed_mask(4, 1, seed=0), 2)
        erased = plan.unsqueeze_patches(plan.squeeze_patches(patch[None]), fill="zero")[0]
        assert erased.shape == (8, 8)
        assert erased.sum() == pytest.approx(4 * 3 * 4)  # 12 kept 2x2 blocks

    def test_squeeze_patch_shape_horizontal(self):
        patch = np.random.default_rng(0).random((8, 8))
        plan = get_squeeze_plan(proposed_mask(4, 1, seed=1), 2)
        assert plan.squeeze_patches(patch[None]).shape == (1, 8, 6)

    def test_squeeze_patch_shape_vertical(self):
        patch = np.random.default_rng(0).random((8, 8))
        plan = get_squeeze_plan(proposed_mask(4, 1, seed=1).T, 2, direction="vertical")
        assert plan.squeeze_patches(patch[None]).shape == (1, 6, 8)

    def test_squeeze_preserves_kept_content(self):
        patch = np.arange(64, dtype=float).reshape(8, 8)
        mask = np.ones((4, 4), dtype=np.uint8)
        mask[:, 3] = 0  # drop last sub-patch column
        squeezed = get_squeeze_plan(mask, 2).squeeze_patches(patch[None])[0]
        assert np.allclose(squeezed, patch[:, :6])

    def test_squeeze_invalid_direction(self):
        with pytest.raises(ValueError):
            get_squeeze_plan(proposed_mask(4, 1, seed=0), 2, direction="diag")

    def test_unsqueeze_restores_kept_positions(self):
        patch = np.random.default_rng(3).random((8, 8))
        mask = proposed_mask(4, 1, seed=2)
        plan = get_squeeze_plan(mask, 2)
        restored = plan.unsqueeze_patches(plan.squeeze_patches(patch[None]), fill="zero")[0]
        sub_original = patch_to_subpatches(patch, 2)
        sub_restored = patch_to_subpatches(restored, 2)
        kept = np.asarray(mask, dtype=bool)
        assert np.allclose(sub_restored[kept], sub_original[kept])
        assert np.allclose(sub_restored[~kept], 0.0)

    @pytest.mark.parametrize("fill", ["neighbor", "mean"])
    def test_unsqueeze_fill_strategies_are_nonzero(self, fill):
        patch = np.random.default_rng(3).random((8, 8)) + 0.1
        mask = proposed_mask(4, 1, seed=2)
        plan = get_squeeze_plan(mask, 2)
        restored = plan.unsqueeze_patches(plan.squeeze_patches(patch[None]), fill=fill)[0]
        sub = patch_to_subpatches(restored, 2)
        assert np.all(sub[~np.asarray(mask, dtype=bool)] > 0.0)

    def test_unsqueeze_invalid_fill(self):
        plan = get_squeeze_plan(proposed_mask(4, 1, seed=0), 2)
        with pytest.raises(ValueError):
            plan.unsqueeze_patches(np.zeros((1, 8, 6)), fill="magic")

    def test_erase_and_squeeze_image_shape(self, gray_image):
        mask = proposed_mask(4, 1, seed=0)
        squeezed, grid, original = erase_and_squeeze_image(gray_image, mask, 16, 4)
        expected = squeezed_shape(gray_image.shape, 16, 4, 1)
        assert squeezed.shape == expected
        assert original == gray_image.shape

    def test_erase_and_squeeze_image_color(self, rgb_image):
        mask = proposed_mask(4, 1, seed=0)
        squeezed, _, _ = erase_and_squeeze_image(rgb_image, mask, 16, 4)
        assert squeezed.shape == squeezed_shape(rgb_image.shape, 16, 4, 1)
        assert squeezed.shape[-1] == 3

    def test_squeezed_shape_reduces_width_by_erase_ratio(self):
        shape = squeezed_shape((64, 96), 16, 4, 1)
        assert shape == (64, 72)
        shape_v = squeezed_shape((64, 96), 16, 4, 1, direction="vertical")
        assert shape_v == (48, 96)

    def test_image_unsqueeze_roundtrip_on_kept_subpatches(self, gray_image):
        mask = proposed_mask(4, 1, seed=5)
        squeezed, grid, original = erase_and_squeeze_image(gray_image, mask, 16, 4)
        filled = unsqueeze_image(squeezed, mask, 16, 4, grid, gray_image.shape, fill="zero")
        assert filled.shape == gray_image.shape
        # every pixel is either exactly preserved or zero-filled
        preserved = np.isclose(filled, gray_image)
        zeroed = np.isclose(filled, 0.0)
        assert np.all(preserved | zeroed)
        # the zeroed fraction matches the erase ratio
        assert zeroed.mean() == pytest.approx(0.25, abs=0.08)

    def test_file_saving_from_squeeze(self, gray_image):
        """Squeezing before JPEG should reduce the compressed size (Fig. 3a)."""
        from repro.codecs import JpegCodec
        codec = JpegCodec(quality=75)
        baseline = codec.compress(gray_image).num_bytes
        mask = proposed_mask(4, 1, seed=0)
        squeezed, _, _ = erase_and_squeeze_image(gray_image, mask, 16, 4)
        reduced = codec.compress(squeezed).num_bytes
        assert reduced < baseline
