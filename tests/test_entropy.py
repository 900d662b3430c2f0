"""Tests for the entropy-coding substrate (bit I/O, RLE, range coding)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy import (
    AdaptiveModel,
    BitReader,
    BitWriter,
    RangeDecoder,
    RangeEncoder,
    decode_binary_mask,
    decode_symbols,
    encode_binary_mask,
    encode_symbols,
    run_length_encode,
)


def run_length_decode(runs):
    """Expand ``[(value, count), ...]`` back into the value sequence."""
    return [value for value, count in runs for _ in range(count)]


class TestBitIO:
    def test_single_bits_roundtrip(self):
        writer = BitWriter()
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
        for bit in bits:
            writer.write_bit(bit)
        reader = BitReader(writer.getvalue())
        assert [reader.read_bit() for _ in range(len(bits))] == bits

    def test_write_bits_msb_first(self):
        writer = BitWriter()
        writer.write_bits(0b1011, 4)
        assert writer.getvalue()[0] >> 4 == 0b1011

    def test_bit_length_tracks_written_bits(self):
        writer = BitWriter()
        writer.write_bits(0, 13)
        assert writer.bit_length == 13

    def test_read_past_end_returns_zero(self):
        reader = BitReader(b"\x80")
        assert reader.read_bits(8) == 0x80
        assert reader.read_bit() == 0

    def test_negative_bit_count_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(1, -1)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_bit_sequence_roundtrip(self, bits):
        writer = BitWriter()
        for bit in bits:
            writer.write_bit(bit)
        reader = BitReader(writer.getvalue())
        assert [reader.read_bit() for _ in range(len(bits))] == bits

    @given(st.lists(st.tuples(st.integers(0, 2 ** 16 - 1), st.integers(1, 16)),
                    min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_field_roundtrip(self, fields):
        writer = BitWriter()
        for value, width in fields:
            writer.write_bits(value & ((1 << width) - 1), width)
        reader = BitReader(writer.getvalue())
        for value, width in fields:
            assert reader.read_bits(width) == value & ((1 << width) - 1)


class TestRunLength:
    def test_basic_roundtrip(self):
        values = [1, 1, 1, 0, 0, 2, 2, 2, 2]
        assert run_length_decode(run_length_encode(values)) == values

    def test_empty_sequence(self):
        assert run_length_encode([]) == []
        assert run_length_decode([]) == []

    def test_runs_are_maximal(self):
        runs = run_length_encode([5, 5, 5, 5])
        assert runs == [(5, 4)]

    @given(st.lists(st.integers(0, 3), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, values):
        assert run_length_decode(run_length_encode(values)) == values

    def test_binary_mask_roundtrip(self):
        rng = np.random.default_rng(0)
        mask = (rng.random((32, 32)) > 0.3).astype(np.uint8)
        assert np.array_equal(decode_binary_mask(encode_binary_mask(mask)), mask)

    def test_binary_mask_never_larger_than_packed_bits(self):
        """Paper bound: a 32×32 binary mask costs ≈128 bytes; the serialiser
        must never exceed the bit-packed size plus its 5-byte header."""
        mask = np.ones((32, 32), dtype=np.uint8)
        mask[:, ::4] = 0
        payload = encode_binary_mask(mask)
        assert len(payload) <= 128 + 5

    def test_binary_mask_structured_uses_rle_and_is_tiny(self):
        mask = np.ones((32, 32), dtype=np.uint8)
        mask[:, :16] = 0
        payload = encode_binary_mask(mask)
        assert len(payload) < 110

    def test_binary_mask_rejects_non_2d(self):
        with pytest.raises(ValueError):
            encode_binary_mask(np.zeros((2, 2, 2)))

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_binary_mask_roundtrip_property(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        mask = (rng.random((rows, cols)) > 0.5).astype(np.uint8)
        assert np.array_equal(decode_binary_mask(encode_binary_mask(mask)), mask)


class TestArithmeticCoding:
    def test_roundtrip_uniform_symbols(self):
        rng = np.random.default_rng(0)
        symbols = rng.integers(0, 16, size=1000).tolist()
        payload = encode_symbols(symbols, 16)
        assert decode_symbols(payload, len(symbols), 16) == symbols

    def test_roundtrip_skewed_symbols_compresses(self):
        rng = np.random.default_rng(1)
        symbols = rng.choice(256, size=3000, p=[0.9] + [0.1 / 255] * 255).tolist()
        payload = encode_symbols(symbols, 256)
        assert decode_symbols(payload, len(symbols), 256) == symbols
        assert len(payload) < 3000 * 0.4

    def test_empty_sequence(self):
        payload = encode_symbols([], 4)
        assert decode_symbols(payload, 0, 4) == []

    def test_single_symbol_stream(self):
        symbols = [3] * 500
        payload = encode_symbols(symbols, 8)
        assert decode_symbols(payload, 500, 8) == symbols
        assert len(payload) < 120

    def test_adaptive_model_updates_counts(self):
        model = AdaptiveModel(4)
        before = model.counts.copy()
        model.update(2)
        assert model.counts[2] > before[2]
        assert model.total == model.cumulative[-1]

    def test_adaptive_model_rescales_when_saturated(self):
        model = AdaptiveModel(2)
        for _ in range(5000):
            model.update(0)
        assert model.counts.sum() <= 1 << 16

    def test_adaptive_model_invalid_size(self):
        with pytest.raises(ValueError):
            AdaptiveModel(0)

    def test_interval_and_lookup_consistency(self):
        model = AdaptiveModel(8)
        model.update(5)
        low, high, total = model.interval(5)
        assert model.symbol_from_count(low) == 5
        assert model.symbol_from_count(high - 1) == 5
        assert 0 <= low < high <= total

    def test_streaming_encoder_decoder_interoperate(self):
        encoder = RangeEncoder()
        enc_model = AdaptiveModel(4)
        symbols = [0, 1, 2, 3, 0, 0, 1, 2, 0, 0, 0, 3]
        for symbol in symbols:
            encoder.encode(enc_model, symbol)
        payload = encoder.finish()
        decoder = RangeDecoder(payload)
        dec_model = AdaptiveModel(4)
        assert [decoder.decode(dec_model) for _ in range(len(symbols))] == symbols

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=400), st.just(8))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, symbols, alphabet):
        payload = encode_symbols(symbols, alphabet)
        assert decode_symbols(payload, len(symbols), alphabet) == symbols
