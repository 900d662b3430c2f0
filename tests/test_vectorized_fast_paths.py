"""Equivalence tests for the vectorized fast paths (PR: plan-cached squeeze,
table-driven JPEG entropy coding, batched reconstruction).

Every fast path is checked against an independent straight-line reference
implementing the seed semantics with per-patch / per-row / per-bit loops:
squeeze and unsqueeze must be **array-equal** (bit-exact), the entropy coder
must produce **byte-identical** streams, and the batched RGB reconstruction
must match the per-channel formulation to float32 tolerance.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.codecs.jpeg import (
    JpegCodec,
    _AC_LUMA_ENCODE,
    _DC_LUMA_ENCODE,
    _bit_windows,
    _magnitude_bits,
    _magnitude_category,
)
from repro.codecs.jpeg_tables import ZIGZAG_ORDER
from repro.core import (
    EaszConfig,
    EaszReconstructor,
    erase_and_squeeze_image,
    get_squeeze_plan,
    proposed_mask,
    reconstruct_image,
    unsqueeze_image,
)
from repro.core.patchify import (
    image_to_patches,
    patch_to_subpatches,
    subpatches_to_patch,
    subpatches_to_tokens,
)
from repro.entropy.bitio import BitReader, BitWriter
from token_reference import patches_to_tokens, tokens_to_patches


# --------------------------------------------------------------------- #
# reference implementations (seed semantics, written independently with
# explicit loops over rows/patches/bits)
# --------------------------------------------------------------------- #
def ref_squeeze_patch(patch, mask, b):
    mask = np.asarray(mask, dtype=bool)
    sub = patch_to_subpatches(patch, b)
    rows = [sub[r][mask[r]] for r in range(mask.shape[0])]
    packed = np.stack(rows)  # (grid, kept, b, b[, C])
    kept = packed.shape[1]
    if packed.ndim == 5:
        return packed.transpose(0, 2, 1, 3, 4).reshape(
            packed.shape[0] * b, kept * b, packed.shape[4])
    return packed.transpose(0, 2, 1, 3).reshape(packed.shape[0] * b, kept * b)


def ref_unsqueeze_patch(squeezed, mask, b, fill):
    mask = np.asarray(mask, dtype=bool)
    grid = mask.shape[0]
    kept = int(mask[0].sum())
    block = np.asarray(squeezed)
    if block.ndim == 3:
        packed = block.reshape(grid, b, kept, b, block.shape[2]).transpose(0, 2, 1, 3, 4)
    else:
        packed = block.reshape(grid, b, kept, b).transpose(0, 2, 1, 3)
    out = np.zeros((grid, grid) + packed.shape[2:], dtype=np.float64)
    for r in range(grid):
        kept_cols = np.flatnonzero(mask[r])
        out[r, kept_cols] = packed[r]
        if fill == "zero" or kept_cols.size == 0:
            continue
        for c in np.flatnonzero(~mask[r]):
            if fill == "neighbor":
                nearest = kept_cols[np.argmin(np.abs(kept_cols - c))]
                out[r, c] = out[r, nearest]
            else:
                out[r, c] = packed[r].mean(axis=0)
    return subpatches_to_patch(out)


def ref_encode_channel(quantised):
    """Symbol-at-a-time JPEG entropy encode of a luma channel (seed loops)."""
    dc_code, dc_len = _DC_LUMA_ENCODE
    ac_code, ac_len = _AC_LUMA_ENCODE
    writer = BitWriter()
    zz = quantised.reshape(-1, 64)[:, ZIGZAG_ORDER]
    previous_dc = 0
    for block in zz:
        dc = int(block[0])
        diff = dc - previous_dc
        previous_dc = dc
        size = _magnitude_category(diff)
        writer.write_bits(int(dc_code[size]), int(dc_len[size]))
        if size:
            writer.write_bits(_magnitude_bits(diff, size), size)
        run = 0
        nz = np.nonzero(block[1:])[0]
        last = nz[-1] + 1 if nz.size else 0
        for index in range(1, last + 1):
            value = int(block[index])
            if value == 0:
                run += 1
                continue
            while run > 15:
                writer.write_bits(int(ac_code[0xF0]), int(ac_len[0xF0]))
                run -= 16
            size = _magnitude_category(value)
            sym = (run << 4) | size
            writer.write_bits(int(ac_code[sym]), int(ac_len[sym]))
            writer.write_bits(_magnitude_bits(value, size), size)
            run = 0
        if last < 63:
            writer.write_bits(int(ac_code[0x00]), int(ac_len[0x00]))
    return writer.getvalue()


# geometry strategy: (grid, erase_per_row, subpatch) with a feasible sampler
_geometries = st.tuples(
    st.integers(3, 8), st.integers(1, 3), st.sampled_from([1, 2, 3, 4])
).filter(lambda g: g[1] < g[0])


@st.composite
def _image_mask_geometry(draw):
    grid, erase, b = draw(_geometries)
    patch = grid * b
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    height = max(1, rows * patch - draw(st.integers(0, patch - 1)))
    width = max(1, cols * patch - draw(st.integers(0, patch - 1)))
    color = draw(st.booleans())
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    shape = (height, width, 3) if color else (height, width)
    image = rng.random(shape)
    delta = 1 if erase * 2 <= grid else 0
    mask = proposed_mask(grid, erase, delta, seed=seed)
    return image, mask, patch, b


class TestSqueezePlanEquivalence:
    @given(data=_image_mask_geometry(), direction=st.sampled_from(["horizontal", "vertical"]))
    @settings(max_examples=40, deadline=None)
    def test_squeeze_image_matches_per_patch_reference(self, data, direction):
        image, mask, patch_size, b = data
        use_mask = mask if direction == "horizontal" else mask.T
        squeezed, grid_shape, original_shape = erase_and_squeeze_image(
            image, use_mask, patch_size, b, direction=direction)
        patches, gshape, _ = image_to_patches(image, patch_size)
        plan = get_squeeze_plan(use_mask, b, direction)
        for patch in patches:
            if direction == "vertical":
                flipped = patch.swapaxes(0, 1)
                expected = ref_squeeze_patch(flipped, use_mask.T, b).swapaxes(0, 1)
            else:
                expected = ref_squeeze_patch(patch, use_mask, b)
            got = plan.squeeze_patches(patch[None])[0]
            assert np.array_equal(got, expected)
        assert grid_shape == gshape

    @given(data=_image_mask_geometry(), fill=st.sampled_from(["zero", "neighbor", "mean"]))
    @settings(max_examples=40, deadline=None)
    def test_unsqueeze_matches_per_row_reference(self, data, fill):
        image, mask, patch_size, b = data
        patches, _, _ = image_to_patches(image, patch_size)
        patch = patches[0]
        plan = get_squeeze_plan(mask, b)
        squeezed = plan.squeeze_patches(patch[None])[0]
        got = plan.unsqueeze_patches(squeezed[None], fill=fill)[0]
        expected = ref_unsqueeze_patch(squeezed, mask, b, fill)
        assert np.array_equal(got, expected)

    @given(data=_image_mask_geometry(), fill=st.sampled_from(["zero", "neighbor", "mean"]))
    @settings(max_examples=25, deadline=None)
    def test_image_roundtrip_restores_kept_pixels(self, data, fill):
        image, mask, patch_size, b = data
        squeezed, grid_shape, original_shape = erase_and_squeeze_image(
            image, mask, patch_size, b)
        restored = unsqueeze_image(squeezed, mask, patch_size, b, grid_shape,
                                   original_shape, fill=fill)
        height, width = image.shape[:2]
        restored = restored[:height, :width]
        # pixel-level keep mask: the sub-patch mask tiled over the patch grid
        keep = np.kron(np.asarray(mask, bool), np.ones((b, b), dtype=bool))
        rows, cols = grid_shape
        tile = np.tile(keep, (rows, cols))[:height, :width]
        assert np.allclose(np.asarray(restored)[tile], np.asarray(image)[tile])

    def test_plan_cache_returns_same_object(self):
        mask = proposed_mask(4, 1, seed=0)
        assert get_squeeze_plan(mask, 2) is get_squeeze_plan(mask.copy(), 2)
        assert get_squeeze_plan(mask, 2) is not get_squeeze_plan(mask, 2, "vertical")


class TestBitioEquivalence:
    @given(st.lists(st.tuples(st.integers(0, 2 ** 20 - 1), st.integers(1, 24)),
                    min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_write_tokens_matches_sequential_write_bits(self, fields):
        sequential = BitWriter()
        for value, width in fields:
            sequential.write_bits(value & ((1 << width) - 1), width)
        batched = BitWriter()
        values = np.array([v & ((1 << w) - 1) for v, w in fields], dtype=np.uint64)
        lengths = np.array([w for _, w in fields], dtype=np.int64)
        batched.write_tokens(values, lengths)
        assert batched.getvalue() == sequential.getvalue()
        assert batched.bit_length == sequential.bit_length

    @given(st.lists(st.tuples(st.integers(0, 2 ** 20 - 1), st.integers(1, 24)),
                    min_size=1, max_size=100), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_write_tokens_after_partial_bits(self, fields, prefix_bits):
        sequential = BitWriter()
        batched = BitWriter()
        for writer in (sequential, batched):
            writer.write_bits((1 << prefix_bits) - 1, prefix_bits)
        values = np.array([v & ((1 << w) - 1) for v, w in fields], dtype=np.uint64)
        lengths = np.array([w for _, w in fields], dtype=np.int64)
        for value, width in fields:
            sequential.write_bits(value & ((1 << width) - 1), width)
        batched.write_tokens(values, lengths)
        assert batched.getvalue() == sequential.getvalue()

    @given(st.binary(min_size=0, max_size=64),
           st.lists(st.integers(1, 25), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_read_bits_matches_per_bit_reads(self, payload, widths):
        fast = BitReader(payload)
        slow = BitReader(payload)
        for width in widths:
            expected = 0
            for _ in range(width):
                expected = (expected << 1) | slow.read_bit()
            assert fast.peek_bits(width) == expected
            assert fast.read_bits(width) == expected

    def test_bit_windows_match_peek(self):
        rng = np.random.default_rng(0)
        payload = bytes(rng.integers(0, 256, size=50, dtype=np.uint8))
        windows = _bit_windows(payload)
        total = len(payload) * 8
        # every position, including the zero-padded ones past the end
        assert windows.size > total + 26
        for pos in range(windows.size):
            probe = BitReader(payload)
            probe.read_bits(pos)
            assert windows[pos] == probe.peek_bits(16)


class TestJpegEntropyEquivalence:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_encode_channel_bitstream_matches_symbol_reference(self, seed, blocks):
        rng = np.random.default_rng(seed)
        # heavy-tailed coefficients exercise ZRL runs and every size category
        quantised = (rng.normal(0, 12, size=(blocks, 8, 8)) *
                     (rng.random((blocks, 8, 8)) < 0.25)).astype(np.int32)
        codec = JpegCodec(quality=75)
        writer = BitWriter()
        codec._encode_channel(writer, quantised, _DC_LUMA_ENCODE, _AC_LUMA_ENCODE)
        assert writer.getvalue() == ref_encode_channel(quantised)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_entropy_roundtrip_recovers_exact_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        quantised = (rng.normal(0, 20, size=(6, 8, 8)) *
                     (rng.random((6, 8, 8)) < 0.3)).astype(np.int32)
        codec = JpegCodec(quality=75)
        writer = BitWriter()
        codec._encode_channel(writer, quantised, _DC_LUMA_ENCODE, _AC_LUMA_ENCODE)
        [decoded] = codec._decode_channels(writer.getvalue(), [(6, True)])
        assert np.array_equal(decoded, quantised)

    @given(st.integers(0, 2 ** 31 - 1), st.booleans(), st.sampled_from([35, 75, 95]))
    @settings(max_examples=10, deadline=None)
    def test_full_codec_roundtrip_ragged_sizes(self, seed, color, quality):
        rng = np.random.default_rng(seed)
        height, width = int(rng.integers(9, 70)), int(rng.integers(9, 70))
        image = rng.random((height, width, 3) if color else (height, width))
        codec = JpegCodec(quality=quality)
        reconstruction, compressed = codec.roundtrip(image)
        assert reconstruction.shape == image.shape
        assert 0.0 <= reconstruction.min() and reconstruction.max() <= 1.0


class TestPatchifyAndReconstructEquivalence:
    @given(st.integers(0, 2 ** 31 - 1), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_two_stage_patchify_matches_per_patch_loop(self, seed, color):
        rng = np.random.default_rng(seed)
        shape = (37, 53, 3) if color else (37, 53)
        image = rng.random(shape)
        patches, _, _ = image_to_patches(image, 16)
        tokens = patches_to_tokens(patches, 4)
        expected = np.stack([
            subpatches_to_tokens(patch_to_subpatches(patch, 4)) for patch in patches
        ])
        assert np.array_equal(tokens, expected)

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 3]))
    @settings(max_examples=20, deadline=None)
    def test_batched_token_helpers_roundtrip(self, seed, channels):
        rng = np.random.default_rng(seed)
        shape = (5, 16, 16, channels) if channels > 1 else (5, 16, 16)
        patches = rng.random(shape)
        tokens = patches_to_tokens(patches, 4)
        back = tokens_to_patches(tokens, 4, 4, channels)
        assert np.array_equal(back, patches)
        # agrees with the single-patch helpers
        one = subpatches_to_tokens(patch_to_subpatches(patches[0], 4))
        assert np.array_equal(tokens[0], one)

    def test_rgb_batched_reconstruction_matches_per_channel(self):
        config = EaszConfig(patch_size=8, subpatch_size=2, erase_per_row=1,
                            d_model=16, num_heads=2, encoder_blocks=1,
                            decoder_blocks=1, ffn_mult=1, loss_lambda=0.0)
        model = EaszReconstructor(config)
        mask = proposed_mask(config.grid_size, 1, seed=3)
        rng = np.random.default_rng(0)
        image = rng.random((24, 24, 3))
        batched = reconstruct_image(model, image, mask)
        per_channel = np.stack([
            reconstruct_image(model, image[..., c], mask) for c in range(3)
        ], axis=-1)
        assert batched.shape == image.shape
        assert np.allclose(batched, per_channel, atol=1e-5)

    def test_fast_inference_matches_autograd_forward(self):
        config = EaszConfig(patch_size=8, subpatch_size=2, erase_per_row=1,
                            d_model=16, num_heads=2, encoder_blocks=2,
                            decoder_blocks=2, ffn_mult=2, loss_lambda=0.0)
        model = EaszReconstructor(config)
        mask = proposed_mask(config.grid_size, 1, seed=1)
        tokens = np.random.default_rng(2).random(
            (7, config.tokens_per_patch, config.token_dim))
        with nn.no_grad():
            reference = model.forward(tokens, mask).data
        fast = model.reconstruct_tokens(tokens, mask, keep_original=False)
        assert np.allclose(fast, reference, atol=1e-5)

    def test_scatter_plan_cached_per_mask(self):
        config = EaszConfig(patch_size=8, subpatch_size=2, erase_per_row=1,
                            d_model=16, num_heads=2, encoder_blocks=1,
                            decoder_blocks=1, ffn_mult=1, loss_lambda=0.0)
        model = EaszReconstructor(config)
        mask = proposed_mask(config.grid_size, 1, seed=0)
        first = model._mask_plan(mask)
        second = model._mask_plan(np.array(mask))
        assert first is second
        other = model._mask_plan(proposed_mask(config.grid_size, 1, seed=7))
        assert other is not first
