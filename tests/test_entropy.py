"""Tests for the entropy-coding substrate (bit I/O, Huffman, RLE, arithmetic)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy import (
    AdaptiveModel,
    BitReader,
    BitWriter,
    HuffmanCode,
    RangeDecoder,
    RangeEncoder,
    decode_binary_mask,
    decode_symbols,
    encode_binary_mask,
    encode_symbols,
    huffman_decode,
    huffman_encode,
    run_length_decode,
    run_length_encode,
)


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

    def test_unary_roundtrip(self):
        writer = BitWriter()
        for value in (0, 3, 7, 1):
            writer.write_unary(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_unary() for _ in range(4)] == [0, 3, 7, 1]

    def test_read_past_end_returns_zero(self):
        reader = BitReader(b"\x80")
        assert reader.read_bits(8) == 0x80
        assert reader.read_bit() == 0

    def test_negative_bit_count_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(1, -1)

    def test_bits_remaining_and_position(self):
        reader = BitReader(b"\xff\x00")
        reader.read_bits(3)
        assert reader.position == 3
        assert reader.bits_remaining == 13

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


class TestHuffman:
    def test_roundtrip_skewed_distribution(self):
        rng = np.random.default_rng(0)
        symbols = rng.choice([0, 1, 2, 3], size=2000, p=[0.7, 0.2, 0.07, 0.03]).tolist()
        payload, code, count = huffman_encode(symbols)
        assert huffman_decode(payload, code, count) == symbols

    def test_skewed_distribution_compresses_below_fixed_length(self):
        rng = np.random.default_rng(0)
        symbols = rng.choice([0, 1, 2, 3], size=4000, p=[0.85, 0.1, 0.03, 0.02]).tolist()
        payload, _, _ = huffman_encode(symbols)
        # 4 symbols need 2 bits each with a fixed code -> 1000 bytes
        assert len(payload) < 1000

    def test_empty_sequence(self):
        payload, code, count = huffman_encode([])
        assert payload == b"" and code is None and count == 0
        assert huffman_decode(payload, code, count) == []

    def test_single_symbol_alphabet(self):
        payload, code, count = huffman_encode(["a"] * 17)
        assert huffman_decode(payload, code, count) == ["a"] * 17

    def test_empty_frequencies_rejected(self):
        with pytest.raises(ValueError):
            HuffmanCode({})

    def test_prefix_free_property(self):
        code = HuffmanCode({"a": 10, "b": 5, "c": 2, "d": 1, "e": 1})
        codes = {s: f"{c:0{length}b}" for s, (c, length) in code.encode_table.items()}
        values = list(codes.values())
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                if i != j:
                    assert not b.startswith(a)

    def test_more_frequent_symbols_get_shorter_codes(self):
        code = HuffmanCode({"frequent": 1000, "rare": 1})
        assert code.lengths["frequent"] <= code.lengths["rare"]

    def test_kraft_inequality_holds(self):
        rng = np.random.default_rng(1)
        freqs = {i: int(rng.integers(1, 100)) for i in range(30)}
        code = HuffmanCode(freqs)
        kraft = sum(2.0 ** -length for length in code.lengths.values())
        assert kraft <= 1.0 + 1e-12

    def test_max_code_length_respected(self):
        freqs = {i: 2 ** i for i in range(20)}
        code = HuffmanCode(freqs, max_code_length=12)
        assert max(code.lengths.values()) <= 12
        kraft = sum(2.0 ** -length for length in code.lengths.values())
        assert kraft <= 1.0 + 1e-12

    def test_expected_length_bounded_by_entropy_plus_one(self):
        rng = np.random.default_rng(2)
        symbols = rng.choice(8, size=5000, p=[0.4, 0.2, 0.15, 0.1, 0.06, 0.05, 0.03, 0.01])
        freqs = {i: int((symbols == i).sum()) for i in range(8)}
        code = HuffmanCode(freqs)
        probs = np.array([freqs[i] for i in range(8)], dtype=float)
        probs /= probs.sum()
        entropy = -(probs * np.log2(probs)).sum()
        assert entropy <= code.expected_length(freqs) <= entropy + 1.0

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_arbitrary_sequences(self, symbols):
        payload, code, count = huffman_encode(symbols)
        assert huffman_decode(payload, code, count) == symbols


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
