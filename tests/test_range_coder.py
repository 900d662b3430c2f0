"""Equivalence suite: byte-oriented range coder vs the seed arithmetic coder.

The seed's bit-at-a-time arithmetic coder lives in
``benchmarks/seed_reference.py`` as the measurement baseline.  The range
coder writes a different byte format (tagged in payloads and codec
containers) but must preserve the seed coder's adaptive-model semantics
exactly: same counts after the same symbol stream, same compression to
within a few bytes, and byte-exact round-trips for every alphabet shape the
codecs use.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.bpg import BpgCodec
from repro.codecs.neural import LearnedTransformCodec
from repro.entropy import (
    FORMAT_RANGE,
    AdaptiveModel,
    RangeDecoder,
    RangeEncoder,
    decode_symbols,
    encode_symbols,
)

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "seed_reference.py"
_spec = importlib.util.spec_from_file_location("seed_reference", _SCRIPT)
seed = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed)

#: The tag byte the seed coder's payloads carried before it left ``src``.
RETIRED_TAG = 0


class TestRoundTrip:
    @given(st.lists(st.integers(0, 7), min_size=0, max_size=400))
    @settings(max_examples=30, deadline=None)
    def test_range_roundtrip_small_alphabet(self, symbols):
        payload = encode_symbols(symbols, 8)
        assert decode_symbols(payload, len(symbols), 8) == symbols

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_both_backends_roundtrip_byte_alphabet(self, symbols):
        payload = encode_symbols(symbols, 256)
        assert payload[0] == FORMAT_RANGE
        assert decode_symbols(payload, len(symbols), 256) == symbols
        seed_payload = seed.seed_encode_symbols(symbols, 256)
        assert seed.seed_decode_symbols(seed_payload, len(symbols), 256) == symbols

    def test_empty_stream(self):
        assert decode_symbols(encode_symbols([], 4), 0, 4) == []
        assert seed.seed_decode_symbols(seed.seed_encode_symbols([], 4), 0, 4) == []

    def test_single_symbol_alphabet(self):
        payload = encode_symbols([0] * 100, 1)
        assert decode_symbols(payload, 100, 1) == [0] * 100

    def test_degenerate_single_symbol_stream_is_tiny(self):
        payload = encode_symbols([3] * 5000, 8)
        assert decode_symbols(payload, 5000, 8) == [3] * 5000
        assert len(payload) < 150

    def test_large_alphabet(self):
        rng = np.random.default_rng(0)
        symbols = rng.integers(0, 4097, size=2000).tolist()
        payload = encode_symbols(symbols, 4097)
        assert decode_symbols(payload, len(symbols), 4097) == symbols

    def test_saturation_rescale_roundtrips(self):
        """Enough symbols to trip the 2^16 halving several times."""
        rng = np.random.default_rng(1)
        symbols = rng.integers(0, 4, size=12000).tolist()
        assert decode_symbols(encode_symbols(symbols, 4), len(symbols), 4) == symbols
        payload = seed.seed_encode_symbols(symbols, 4)
        assert seed.seed_decode_symbols(payload, len(symbols), 4) == symbols

    def test_unknown_format_tag_rejected(self):
        with pytest.raises(ValueError, match="format tag"):
            decode_symbols(b"\x07abc", 1, 4)
        with pytest.raises(ValueError, match="format tag"):
            decode_symbols(b"", 0, 4)

    def test_retired_tag_zero_rejected(self):
        body = seed.seed_encode_symbols([1, 2, 3], 4)
        with pytest.raises(ValueError, match="format tag 0"):
            decode_symbols(bytes([RETIRED_TAG]) + body, 3, 4)


class TestModelStateParity:
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=500),
           st.integers(64, 200))
    @settings(max_examples=25, deadline=None)
    def test_encoder_state_matches_legacy(self, symbols, num_symbols):
        seed_model = AdaptiveModel(num_symbols)
        seed_encoder = seed.ArithmeticEncoder()
        for symbol in symbols:
            seed_encoder.encode(seed_model, symbol)
        seed_encoder.finish()

        range_model = AdaptiveModel(num_symbols)
        encoder = RangeEncoder()
        encoder.encode_array(range_model, symbols)
        encoder.finish()

        assert np.array_equal(seed_model.counts, range_model.counts)
        assert seed_model.total == range_model.total
        assert np.array_equal(seed_model.cumulative, range_model.cumulative)

    @given(st.lists(st.integers(0, 31), min_size=1, max_size=400))
    @settings(max_examples=25, deadline=None)
    def test_decoder_state_matches_encoder(self, symbols):
        enc_model = AdaptiveModel(32)
        encoder = RangeEncoder()
        encoder.encode_array(enc_model, symbols)
        payload = encoder.finish()

        dec_model = AdaptiveModel(32)
        decoder = RangeDecoder(payload)
        assert decoder.decode_array(dec_model, len(symbols)) == symbols
        decoder.sync_models()
        assert np.array_equal(enc_model.counts, dec_model.counts)

    def test_streaming_and_array_calls_interleave(self):
        """Singles and array calls over interleaved models share one stream."""
        rng = np.random.default_rng(2)
        small, big = AdaptiveModel(4), AdaptiveModel(256)
        encoder = RangeEncoder()
        script = []
        for _ in range(50):
            single = int(rng.integers(0, 4))
            block = rng.integers(0, 256, size=16).tolist()
            encoder.encode(small, single)
            encoder.encode_array(big, block)
            script.append((single, block))
        payload = encoder.finish()

        small_d, big_d = AdaptiveModel(4), AdaptiveModel(256)
        decoder = RangeDecoder(payload)
        for single, block in script:
            assert decoder.decode(small_d) == single
            assert decoder.decode_array(big_d, 16) == block

    def test_compression_matches_legacy_within_a_few_bytes(self):
        rng = np.random.default_rng(3)
        probabilities = np.exp(-0.08 * np.arange(256))
        probabilities /= probabilities.sum()
        symbols = rng.choice(256, size=30000, p=probabilities).tolist()
        range_bytes = len(encode_symbols(symbols, 256))
        seed_bytes = len(seed.seed_encode_symbols(symbols, 256))
        assert abs(range_bytes - seed_bytes) <= 16


class TestAdaptiveModelIncrementalUpdates:
    def test_update_is_incremental(self):
        """The satellite regression: updates must not rebuild the full
        cumulative table (the seed behaviour) outside saturation rescales."""
        model = AdaptiveModel(4096)
        rebuilds_after_init = model.rebuilds
        rng = np.random.default_rng(0)
        for symbol in rng.integers(0, 4096, size=500):
            model.update(int(symbol))
        # 4096 + 500*32 < 2^16: no rescale may have happened, hence no rebuild
        assert model.rebuilds == rebuilds_after_init

    def test_update_cost_stays_flat_on_long_streams(self):
        """Cost guard: 20k updates on a big alphabet in far less time than
        the rebuild-per-update seed implementation needed (~2 CPU-s here)."""
        import time

        model = AdaptiveModel(8192)
        rng = np.random.default_rng(1)
        symbols = rng.integers(0, 8192, size=20000).tolist()
        start = time.process_time()
        for symbol in symbols:
            model.update(symbol)
        elapsed = time.process_time() - start
        assert elapsed < 1.0, (
            f"20k AdaptiveModel updates took {elapsed:.2f} CPU-s; updates "
            "have likely regressed to full cumulative-table rebuilds")

    def test_cumulative_stays_consistent_through_rescales(self):
        model = AdaptiveModel(16)
        rng = np.random.default_rng(2)
        for symbol in rng.integers(0, 16, size=9000):
            model.update(int(symbol))
        reference = np.concatenate(([0], np.cumsum(model.counts)))
        assert np.array_equal(model.cumulative, reference)
        assert model.total == int(reference[-1])
        assert model.rebuilds > 1  # the stream saturates 2^16 repeatedly

    def test_set_counts_validates_shape(self):
        model = AdaptiveModel(8)
        with pytest.raises(ValueError):
            model.set_counts([1, 2, 3])


class TestCodecIntegration:
    @pytest.mark.parametrize("color", [False, True])
    def test_bpg_rejects_retired_format_tag(self, color):
        rng = np.random.default_rng(4)
        image = rng.random((48, 56, 3) if color else (48, 56))
        codec = BpgCodec(qp=30)
        compressed = codec.compress(image)
        assert compressed.payload[10] == FORMAT_RANGE
        decoded = np.asarray(codec.decompress(compressed))
        assert np.allclose(np.asarray(BpgCodec(qp=30).decompress(compressed)), decoded)
        compressed.payload = (compressed.payload[:10] + bytes([RETIRED_TAG])
                              + compressed.payload[11:])
        with pytest.raises(ValueError, match="entropy format tag 0"):
            codec.decompress(compressed)

    @pytest.mark.parametrize("entropy_model", ["factorized", "hyperprior", "context"])
    def test_learned_codec_rejects_retired_format_tag(self, entropy_model):
        rng = np.random.default_rng(5)
        image = rng.random((40, 48))
        codec = LearnedTransformCodec(entropy_model=entropy_model)
        compressed = codec.compress(image)
        assert compressed.payload[10] == FORMAT_RANGE
        decoded = np.asarray(codec.decompress(compressed))
        assert decoded.shape == image.shape
        compressed.payload = (compressed.payload[:10] + bytes([RETIRED_TAG])
                              + compressed.payload[11:])
        with pytest.raises(ValueError, match="entropy format tag 0"):
            codec.decompress(compressed)

    def test_corrupt_bpg_format_tag_rejected(self):
        rng = np.random.default_rng(6)
        compressed = BpgCodec(qp=30).compress(rng.random((16, 16)))
        corrupted = bytearray(compressed.payload)
        corrupted[10] = 9
        compressed.payload = bytes(corrupted)
        with pytest.raises(ValueError, match="entropy format tag"):
            BpgCodec(qp=30).decompress(compressed)
