"""Tests for the frame-sequence (streaming) support."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs import PngCodec
from repro.core import (
    EaszStreamDecoder,
    EaszStreamEncoder,
    encode_decode_stream,
    flicker_index,
)
from repro.datasets import SyntheticImageGenerator


@pytest.fixture(scope="module")
def frames():
    """A short sequence of slowly varying grayscale frames."""
    generator = SyntheticImageGenerator(32, 48, color=False)
    base = generator.generate(42)
    sequence = []
    for step in range(4):
        drifted = np.roll(base, shift=step, axis=1)
        sequence.append(np.clip(drifted + 0.01 * step, 0.0, 1.0))
    return sequence


class TestFlickerIndex:
    def test_identical_sequences_have_zero_flicker(self, frames):
        assert flicker_index(frames, frames) == pytest.approx(0.0)

    def test_noisy_reconstruction_flickers_more(self, frames, rng):
        noisy = [np.clip(f + 0.1 * rng.standard_normal(f.shape), 0, 1) for f in frames]
        assert flicker_index(frames, noisy) > 0.0

    def test_single_frame_sequence_has_no_flicker(self, frames):
        assert flicker_index(frames[:1], frames[:1]) == 0.0

    def test_length_mismatch_is_rejected(self, frames):
        with pytest.raises(ValueError):
            flicker_index(frames, frames[:-1])

    def test_smoother_reconstruction_never_scores_negative(self, frames):
        frozen = [frames[0]] * len(frames)
        assert flicker_index(frames, frozen) == 0.0


class TestStreamEncoder:
    def test_refresh_every_frame(self, tiny_config, frames):
        encoder = EaszStreamEncoder(config=tiny_config, base_codec=PngCodec(),
                                    mask_refresh_interval=1, seed=0)
        encoder.encode_sequence(frames)
        assert encoder.mask_refreshes == len(frames)

    def test_single_mask_for_whole_stream(self, tiny_config, frames):
        encoder = EaszStreamEncoder(config=tiny_config, base_codec=PngCodec(),
                                    mask_refresh_interval=0, seed=0)
        packages = encoder.encode_sequence(frames)
        assert encoder.mask_refreshes == 1
        masks = {package.mask_bytes for package in packages}
        assert len(masks) == 1

    def test_periodic_refresh(self, tiny_config, frames):
        encoder = EaszStreamEncoder(config=tiny_config, base_codec=PngCodec(),
                                    mask_refresh_interval=2, seed=0)
        encoder.encode_sequence(frames)
        assert encoder.mask_refreshes == 2

    def test_packages_are_decodable(self, tiny_config, frames, untrained_tiny_model):
        encoder = EaszStreamEncoder(config=tiny_config, base_codec=PngCodec(), seed=0)
        decoder = EaszStreamDecoder(model=untrained_tiny_model, config=tiny_config,
                                    base_codec=PngCodec())
        packages = encoder.encode_sequence(frames)
        decoded = decoder.decode_sequence(packages, reconstruct=False)
        assert len(decoded) == len(frames)
        assert all(frame.shape == frames[0].shape for frame in decoded)


class TestEncodeDecodeStream:
    def test_report_statistics_are_consistent(self, tiny_config, frames, trained_tiny_model):
        reconstructed, report = encode_decode_stream(
            frames, config=tiny_config, base_codec=PngCodec(), model=trained_tiny_model,
            mask_refresh_interval=1, seed=0)
        assert report.num_frames == len(frames) == len(reconstructed)
        assert report.mean_bpp > 0
        assert np.isfinite(report.mean_psnr_db)
        assert report.mask_refreshes == len(frames)
        assert report.mask_bytes_total == sum(e["mask_bytes"] for e in report.per_frame)

    def test_static_mask_amortises_side_channel(self, tiny_config, frames, trained_tiny_model):
        _, refreshed = encode_decode_stream(frames, config=tiny_config, base_codec=PngCodec(),
                                            model=trained_tiny_model, mask_refresh_interval=1,
                                            seed=0)
        _, held = encode_decode_stream(frames, config=tiny_config, base_codec=PngCodec(),
                                       model=trained_tiny_model, mask_refresh_interval=0,
                                       seed=0)
        assert held.mask_refreshes < refreshed.mask_refreshes
        assert held.mask_refreshes == 1

    def test_reconstruction_reduces_flicker_vs_holes(self, tiny_config, frames,
                                                     trained_tiny_model):
        """Filling erased regions with predictions flickers less than leaving holes."""
        encoder = EaszStreamEncoder(config=tiny_config, base_codec=PngCodec(),
                                    mask_refresh_interval=1, seed=0)
        decoder = EaszStreamDecoder(model=trained_tiny_model, config=tiny_config,
                                    base_codec=PngCodec())
        packages = encoder.encode_sequence(frames)
        holes = decoder.decode_sequence(packages, reconstruct=False)
        reconstructed = decoder.decode_sequence(packages, reconstruct=True)
        assert flicker_index(frames, reconstructed) <= flicker_index(frames, holes)

    def test_empty_sequence_is_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            encode_decode_stream([], config=tiny_config)
