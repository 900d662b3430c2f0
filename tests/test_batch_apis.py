"""Batched-vs-sequential equivalence for the new multi-image APIs.

The serving layer is only trustworthy if batching is a pure performance
transform: ``compress_batch`` must emit byte-identical payloads,
``decompress_batch`` without reconstruction must be pixel-exact, and the
fused-engine reconstruction must keep transmitted pixels bit-identical while
predicted pixels stay within float32 tolerance (orders of magnitude below
one 8-bit quantisation step) of an independent reference: the float64
autograd ``EaszReconstructor.forward`` over :mod:`repro.core.patchify`
tokens.  The library entry points (``reconstruct_image``, ``decode``) are a
batch of one through the same engine, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.codecs import JpegCodec
from repro.core import (
    EaszCodec,
    EaszConfig,
    EaszDecoder,
    EaszEncoder,
    EaszReconstructor,
    deserialize_mask,
    proposed_mask,
    reconstruct_batch,
    reconstruct_image,
)
from repro.core.patchify import image_to_patches, patches_to_image
from repro.image import is_color, to_float
from token_reference import patches_to_tokens, tokens_to_patches

#: Engine-vs-float64-reference agreement bound: the engine computes in
#: float32, so predictions differ from the autograd forward by float32
#: rounding only; 1e-5 is well above that and far below one 8-bit step.
_TOL = 1e-5


def reference_reconstruct(model, image, mask, keep_original=True):
    """Float64 autograd reconstruction, independent of the inference engine.

    Patchifies with :mod:`repro.core.patchify` and the batched tokenizer of
    ``token_reference``, runs ``model.forward`` under
    ``no_grad`` and reassembles; RGB images on a ``channels=1`` model are
    reconstructed one channel at a time.
    """
    cfg = model.config
    image = to_float(image)
    per_channel = is_color(image) and cfg.channels == 1
    planes = [image[..., c] for c in range(3)] if per_channel else [image]
    kept = np.asarray(mask, dtype=bool).reshape(-1)
    rebuilt = []
    for plane in planes:
        patches, grid_shape, original_shape = image_to_patches(plane, cfg.patch_size)
        tokens = patches_to_tokens(patches, cfg.subpatch_size)
        with nn.no_grad():
            predicted = np.array(model.forward(tokens, mask).data)
        if keep_original:
            predicted[:, kept, :] = tokens[:, kept, :]
        patches = tokens_to_patches(predicted, cfg.grid_size, cfg.subpatch_size, cfg.channels)
        rebuilt.append(patches_to_image(patches, grid_shape, original_shape))
    output = np.stack(rebuilt, axis=-1) if per_channel else rebuilt[0]
    return np.clip(output, 0.0, 1.0)


@pytest.fixture(scope="module")
def config():
    return EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1,
                      d_model=32, num_heads=4, encoder_blocks=2, decoder_blocks=2,
                      ffn_mult=2, loss_lambda=0.0)


@pytest.fixture(scope="module")
def model(config):
    model = EaszReconstructor(config)
    model.eval()
    return model


@pytest.fixture(scope="module")
def mask(config):
    return proposed_mask(config.grid_size, config.erase_per_row,
                         config.intra_row_min_distance, seed=3)


@pytest.fixture(scope="module")
def mixed_images():
    rng = np.random.default_rng(42)
    return [
        rng.random((64, 96, 3)),   # RGB
        rng.random((48, 48)),      # gray, square
        rng.random((50, 70, 3)),   # RGB, ragged (needs padding)
        rng.random((64, 96, 3)),   # duplicate shape of the first
        rng.random((33, 81)),      # gray, ragged
    ]


class TestCompressBatch:
    def test_payloads_byte_identical_to_sequential(self, config, mixed_images):
        batch_codec = EaszCodec(config=config, seed=11)
        seq_codec = EaszCodec(config=config, seed=11)
        batched = batch_codec.compress_batch(mixed_images)
        sequential = [seq_codec.compress(image) for image in mixed_images]
        for got, want in zip(batched, sequential):
            assert got.payload == want.payload
            got_package = got.metadata["easz_package"]
            want_package = want.metadata["easz_package"]
            assert got_package.mask_bytes == want_package.mask_bytes
            assert got_package.config_summary == want_package.config_summary

    def test_shared_mask_encode_batch_byte_identical(self, config, mask, mixed_images):
        encoder_a = EaszEncoder(config, seed=0)
        encoder_b = EaszEncoder(config, seed=0)
        batched = encoder_a.encode_batch(mixed_images, mask=mask)
        sequential = [encoder_b.encode(image, mask=mask) for image in mixed_images]
        for got, want in zip(batched, sequential):
            assert got.codec_payload.payload == want.codec_payload.payload
            assert got.mask_bytes == want.mask_bytes
            assert got.original_shape == want.original_shape
            assert got.squeezed_shape == want.squeezed_shape


class TestDecodeBatch:
    def test_unsqueeze_only_pixel_exact(self, config, model, mask, mixed_images):
        encoder = EaszEncoder(config, seed=0)
        packages = encoder.encode_batch(mixed_images, mask=mask)
        decoder = EaszDecoder(model=model, config=config)
        batched = decoder.decode_batch(packages, reconstruct=False)
        sequential = [decoder.decode(package, reconstruct=False) for package in packages]
        for got, want in zip(batched, sequential):
            assert np.array_equal(got, want)

    def test_reconstructed_decode_matches_sequential(self, config, model, mixed_images):
        # per-image masks (no shared mask): groups of one must also work
        codec = EaszCodec(config=config, model=model, seed=5)
        compressed = codec.compress_batch(mixed_images)
        batched = codec.decompress_batch(compressed)
        for item, got in zip(compressed, batched):
            package = item.metadata["easz_package"]
            assert np.array_equal(got, codec.decompress(item))
            filled = codec.decoder.decode(package, reconstruct=False)
            want = reference_reconstruct(model, filled, deserialize_mask(package.mask_bytes))
            assert got.shape == want.shape
            assert np.abs(got - want).max() < _TOL

    def test_decode_batch_keeps_submission_order(self, config, model, mask, mixed_images):
        encoder = EaszEncoder(config, seed=0)
        packages = encoder.encode_batch(mixed_images, mask=mask)
        decoder = EaszDecoder(model=model, config=config)
        results = decoder.decode_batch(packages)
        for package, result in zip(packages, results):
            assert result.shape == package.original_shape


class TestReconstructBatch:
    def test_matches_per_image_calls_mixed_shapes(self, model, mask, mixed_images):
        batched = reconstruct_batch(model, mixed_images, mask)
        for image, got in zip(mixed_images, batched):
            want = reference_reconstruct(model, image, mask)
            assert got.shape == want.shape
            assert np.abs(got - want).max() < _TOL
            assert np.abs(got - reconstruct_image(model, image, mask)).max() < _TOL

    def test_kept_pixels_bit_identical(self, config, model, mask, mixed_images):
        from repro.core import get_pixel_plan
        image = mixed_images[0]
        got = reconstruct_batch(model, [image], mask)[0]
        want = reference_reconstruct(model, image, mask)
        flat_mask = np.asarray(mask, dtype=bool).reshape(-1)
        plan = get_pixel_plan(flat_mask, image.shape[:2],
                              config.patch_size, config.subpatch_size)
        kept_got = got[plan.kept_y, plan.kept_x]
        kept_want = want[plan.kept_y, plan.kept_x]
        assert np.array_equal(kept_got, kept_want)

    def test_keep_original_false(self, model, mask, mixed_images):
        image = mixed_images[1]
        got = reconstruct_batch(model, [image], mask, keep_original=False)[0]
        want = reference_reconstruct(model, image, mask, keep_original=False)
        assert np.abs(got - want).max() < _TOL

    def test_all_kept_mask_is_exact(self, config, model, mixed_images):
        ones = np.ones((config.grid_size, config.grid_size), dtype=np.uint8)
        image = mixed_images[0]
        got = reconstruct_batch(model, [image], ones)[0]
        want = reference_reconstruct(model, image, ones)
        assert np.array_equal(got, want)

    def test_rgb_token_model(self, mask):
        config = EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1, channels=3,
                            d_model=32, num_heads=4, encoder_blocks=2, decoder_blocks=2,
                            ffn_mult=2, loss_lambda=0.0)
        model = EaszReconstructor(config)
        model.eval()
        rng = np.random.default_rng(8)
        images = [rng.random((48, 64, 3)), rng.random((32, 32, 3))]
        batched = reconstruct_batch(model, images, mask)
        for image, got in zip(images, batched):
            want = reference_reconstruct(model, image, mask)
            assert np.abs(got - want).max() < _TOL

    def test_rejects_gray_for_rgb_model(self, mask):
        config = EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1, channels=3,
                            d_model=32, num_heads=4, encoder_blocks=2, decoder_blocks=2,
                            ffn_mult=2, loss_lambda=0.0)
        model = EaszReconstructor(config)
        with pytest.raises(ValueError, match="RGB"):
            reconstruct_batch(model, [np.zeros((32, 32))], mask)

    def test_empty_batch(self, model, mask):
        assert reconstruct_batch(model, [], mask) == []

    def test_engine_invalidates_on_weight_change(self, config, mask):
        model = EaszReconstructor(config)
        model.eval()
        rng = np.random.default_rng(9)
        image = rng.random((32, 48, 3))
        first_engine = model.batch_engine()
        before = reconstruct_batch(model, [image], mask)[0]
        for parameter in model.parameters():
            parameter.data *= 0.5
        after = reconstruct_batch(model, [image], mask)[0]
        assert model.batch_engine() is not first_engine
        want = reference_reconstruct(model, image, mask)
        assert np.abs(after - want).max() < _TOL
        assert not np.array_equal(before, after)

    def test_engine_stays_cached_with_nan_weight(self, config):
        model = EaszReconstructor(config)
        model.eval()
        next(iter(model.parameters())).data[0] = np.nan
        engine = model.batch_engine()
        assert model.batch_engine() is engine
        for parameter in model.parameters():
            parameter.data *= 0.5
        assert model.batch_engine() is not engine


def engine_model(decoder_blocks=2, patch_size=16):
    config = EaszConfig(patch_size=patch_size, subpatch_size=4, erase_per_row=1,
                        d_model=32, num_heads=4, encoder_blocks=2,
                        decoder_blocks=decoder_blocks, ffn_mult=2, loss_lambda=0.0)
    model = EaszReconstructor(config)
    model.eval()
    return model


class TestEnginePaths:
    """Edge cases of the engine's token-row chunks and last-block pruning.

    The last decoder block carries only the predicted rows, and with no
    decoder block the rows are selected before the head; chunks hold
    ``CHUNK_ROWS`` token rows, so the patch count per chunk depends on the
    grid.  Every case is checked against the float64 autograd reference.
    """

    #: frame shapes on a 16-pixel patch: one patch, a ragged frame smaller
    #: than a patch, and 3·69 = 207 folded RGB patches (3 full 64-patch
    #: chunks and a 15-patch tail)
    FRAMES = {
        "gray": (48, 48),
        "rgb": (64, 96, 3),
        "rgb-ragged": (50, 70, 3),
        "one-patch": (16, 16),
        "sub-patch-ragged": (10, 13),
        "uneven-chunks": (48, 368, 3),
    }

    @staticmethod
    def check(model, image, mask, keep_original):
        got = reconstruct_batch(model, [image], mask, keep_original)[0]
        want = reference_reconstruct(model, image, mask, keep_original)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < _TOL
        if keep_original:
            cfg = model.config
            kept = np.kron(np.asarray(mask, dtype=bool).reshape(cfg.grid_size, cfg.grid_size),
                           np.ones((cfg.subpatch_size, cfg.subpatch_size), dtype=bool))
            kept = np.tile(kept, (-(-image.shape[0] // cfg.patch_size),
                                  -(-image.shape[1] // cfg.patch_size)))
            kept = kept[:image.shape[0], :image.shape[1]]
            assert np.array_equal(got[kept], image[kept])

    @pytest.mark.parametrize("keep_original", [True, False], ids=["keep", "full"])
    @pytest.mark.parametrize("decoder_blocks", [0, 1, 2])
    @pytest.mark.parametrize("frame", list(FRAMES))
    def test_matches_reference(self, frame, decoder_blocks, keep_original):
        model = engine_model(decoder_blocks)
        cfg = model.config
        mask = proposed_mask(cfg.grid_size, 1, 1, seed=3)
        image = np.random.default_rng(len(frame)).random(self.FRAMES[frame])
        self.check(model, image, mask, keep_original)

    @pytest.mark.parametrize("keep_original", [True, False], ids=["keep", "full"])
    @pytest.mark.parametrize("decoder_blocks", [0, 1, 2])
    def test_nothing_erased(self, decoder_blocks, keep_original):
        model = engine_model(decoder_blocks)
        cfg = model.config
        mask = proposed_mask(cfg.grid_size, 0, 1, seed=3)  # erase_per_row=0
        assert mask.all()
        image = np.random.default_rng(5).random((50, 70, 3))
        if keep_original:
            assert np.array_equal(reconstruct_batch(model, [image], mask)[0], image)
        self.check(model, image, mask, keep_original)

    @pytest.mark.parametrize("keep_original", [True, False], ids=["keep", "full"])
    @pytest.mark.parametrize("decoder_blocks", [0, 2])
    def test_64_token_grid(self, decoder_blocks, keep_original):
        # patch 32 / sub-patch 4: 64 tokens, so CHUNK_ROWS gives 16 patches
        # per chunk; 3·9 = 27 folded patches span a full chunk and a tail
        model = engine_model(decoder_blocks, patch_size=32)
        cfg = model.config
        mask = proposed_mask(cfg.grid_size, 2, 1, seed=4)
        image = np.random.default_rng(6).random((96, 90, 3))
        self.check(model, image, mask, keep_original)

    @pytest.mark.parametrize("patch_size", [16, 32])
    @pytest.mark.parametrize("decoder_blocks", [0, 1, 2])
    def test_predict_erased_is_full_grid_then_select(self, decoder_blocks, patch_size):
        model = engine_model(decoder_blocks, patch_size)
        cfg = model.config
        flat_mask = proposed_mask(cfg.grid_size, 1, 1, seed=3).reshape(-1).astype(bool)
        kept, erased = np.flatnonzero(flat_mask), np.flatnonzero(~flat_mask)
        tokens = np.random.default_rng(7).random((150, kept.size, cfg.token_dim))
        engine = model.batch_engine()
        subset = engine.predict(tokens, kept, erased)
        full = engine.predict(tokens, kept, np.arange(cfg.tokens_per_patch))
        assert subset.shape == (150, erased.size, cfg.token_dim)
        assert np.abs(subset - full[:, erased]).max() < 1e-6


class TestSingleInferencePath:
    """The library entry points are a batch of one through the engine.

    Bitwise equality (not a tolerance) pins ``reconstruct_image`` and
    ``EaszDecoder.decode`` to the batched engine path, so a second inference
    implementation cannot quietly come back behind either of them.
    """

    @pytest.mark.parametrize("index", [1, 0, 2], ids=["gray", "rgb", "rgb-ragged"])
    def test_reconstruct_image_is_batch_of_one(self, model, mask, mixed_images, index):
        image = mixed_images[index]
        for keep_original in (True, False):
            single = reconstruct_image(model, image, mask, keep_original)
            batched = reconstruct_batch(model, [image], mask, keep_original)[0]
            assert np.array_equal(single, batched)

    @pytest.mark.parametrize("index", [1, 0, 2, 4],
                             ids=["gray", "rgb", "rgb-ragged", "gray-ragged"])
    def test_decode_is_decode_batch_of_one(self, config, model, mixed_images, index):
        package = EaszEncoder(config, seed=index).encode(mixed_images[index])
        decoder = EaszDecoder(model=model, config=config)
        assert np.array_equal(decoder.decode(package), decoder.decode_batch([package])[0])

    def test_decode_batch_is_per_package_decode_across_masks(self, config, model, mask,
                                                             mixed_images):
        # two packages share a mask, the rest draw their own
        encoder = EaszEncoder(config, seed=7)
        packages = (encoder.encode_batch(mixed_images[:2], mask=mask)
                    + [encoder.encode(image) for image in mixed_images[2:]])
        assert len({package.mask_bytes for package in packages}) > 1
        decoder = EaszDecoder(model=model, config=config)
        for package, got in zip(packages, decoder.decode_batch(packages)):
            assert np.array_equal(got, decoder.decode(package))


class TestVectorizedJpegDecode:
    """The two-pass entropy decode must be exact against a reference loop."""

    def _reference_decode(self, codec, compressed):
        """Symbol-at-a-time reference over a BitReader.

        Its LUTs are the frozen reference's, built from ``_build_code_table``,
        so it shares no decoder table with the code under test.
        """
        from jpeg_decode_reference import _AC_LUTS, _DC_LUTS
        from repro.codecs import jpeg_tables
        from repro.entropy.bitio import BitReader

        payload = compressed.payload
        reader = BitReader(payload[11:])
        channels = []
        for meta in compressed.metadata["channels"]:
            is_luma = meta["is_luma"]
            dc_symbols, dc_lengths = _DC_LUTS[is_luma]
            ac_symbols, ac_lengths = _AC_LUTS[is_luma][:2]
            num_blocks = meta["num_blocks"]
            blocks = np.zeros((num_blocks, 64), dtype=np.int32)
            previous_dc = 0
            for block_index in range(num_blocks):
                window = reader.peek_bits(16)
                length = dc_lengths[window]
                size = dc_symbols[window]
                reader.read_bits(length)
                if size:
                    amp = reader.read_bits(size)
                    previous_dc += amp if amp >> (size - 1) else amp - (1 << size) + 1
                blocks[block_index, 0] = previous_dc
                index = 1
                while index < 64:
                    window = reader.peek_bits(16)
                    symbol = ac_symbols[window]
                    reader.read_bits(ac_lengths[window])
                    if symbol == 0x00:
                        break
                    if symbol == 0xF0:
                        index += 16
                        continue
                    index += symbol >> 4
                    size = symbol & 0x0F
                    amp = reader.read_bits(size)
                    blocks[block_index, index] = (
                        amp if amp >> (size - 1) else amp - (1 << size) + 1)
                    index += 1
            out = np.zeros((num_blocks, 64), dtype=np.int32)
            out[:, jpeg_tables.ZIGZAG_ORDER] = blocks
            channels.append(out.reshape(num_blocks, 8, 8))
        return channels

    @pytest.mark.parametrize("shape,quality", [((48, 64, 3), 75), ((40, 56), 30),
                                               ((33, 41, 3), 92)])
    def test_decode_channel_matches_reference(self, shape, quality):
        rng = np.random.default_rng(hash(shape) % (2 ** 31))
        image = rng.random(shape)
        for axis in (0, 1):
            image = 0.25 * np.roll(image, 1, axis) + 0.5 * image \
                + 0.25 * np.roll(image, -1, axis)
        image = np.clip(image, 0.0, 1.0)
        codec = JpegCodec(quality=quality)
        compressed = codec.compress(image)
        reference = self._reference_decode(codec, compressed)

        decoded = codec._decode_channels(
            compressed.payload[11:],
            [(meta["num_blocks"], meta["is_luma"]) for meta in compressed.metadata["channels"]])
        assert len(decoded) == len(reference)
        for got, want in zip(decoded, reference):
            assert np.array_equal(got, want)

    def test_corrupt_stream_detected(self):
        rng = np.random.default_rng(0)
        codec = JpegCodec(quality=75)
        compressed = codec.compress(rng.random((24, 24)))
        corrupted = compressed.payload[:12] + bytes([0xFF] * 4)
        import dataclasses
        broken = dataclasses.replace(compressed, payload=corrupted)
        with pytest.raises(ValueError):
            codec.decompress(broken)
