"""Tests for the compact erase-mask transmission formats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import proposed_mask, random_mask
from repro.core.mask_codec import (
    MaskSpec,
    decode_mask,
    encode_mask,
    pack_mask_bits,
    unpack_mask_bits,
)

#: First byte of a mask payload: the format tag of each ``encode_mask`` method.
_FORMAT_TAGS = {"bitpack": b"B", "rle": b"R", "seed": b"S"}


class TestBitPacking:
    def test_roundtrip_proposed_mask(self):
        mask = proposed_mask(8, 2, seed=3)
        assert np.array_equal(unpack_mask_bits(pack_mask_bits(mask)), mask)

    def test_roundtrip_non_square_mask(self):
        mask = np.zeros((3, 7), dtype=np.uint8)
        mask[1, ::2] = 1
        assert np.array_equal(unpack_mask_bits(pack_mask_bits(mask)), mask)

    def test_paper_size_claim_32x32(self):
        """A 32×32 binary mask bit-packs to 128 bytes (plus a 5-byte header)."""
        mask = proposed_mask(32, 8, seed=0)
        payload = pack_mask_bits(mask)
        assert len(payload) == 5 + 128

    def test_rejects_non_2d_mask(self):
        with pytest.raises(ValueError):
            pack_mask_bits(np.ones(16, dtype=np.uint8))

    def test_rejects_wrong_payload(self):
        with pytest.raises(ValueError):
            unpack_mask_bits(b"\x00\x01\x02")

    @given(rows=st.integers(2, 12), cols=st.integers(2, 12), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_random_binary_matrices(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
        assert np.array_equal(unpack_mask_bits(pack_mask_bits(mask)), mask)


class TestMaskSpec:
    def test_generate_is_deterministic(self):
        spec = MaskSpec(grid_size=8, erase_per_row=2, seed=17)
        assert np.array_equal(spec.generate(), spec.generate())

    def test_encode_decode_roundtrip(self):
        spec = MaskSpec(grid_size=16, erase_per_row=3, intra_row_min_distance=1,
                        inter_row_min_distance=1, seed=123456)
        decoded = MaskSpec.decode(spec.encode())
        assert decoded == spec
        assert np.array_equal(decoded.generate(), spec.generate())

    def test_wire_format_is_ten_bytes(self):
        assert len(MaskSpec(grid_size=32, erase_per_row=8, seed=99).encode()) == 10

    def test_zero_erase_spec_keeps_everything(self):
        mask = MaskSpec(grid_size=4, erase_per_row=0).generate()
        assert mask.sum() == 16

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError):
            MaskSpec(grid_size=8, erase_per_row=1, seed=2 ** 40).encode()

    def test_decode_rejects_foreign_payload(self):
        with pytest.raises(ValueError):
            MaskSpec.decode(b"\x42" + b"\x00" * 9)


class TestEncodeDecodeMask:
    def test_auto_picks_seed_when_available(self):
        spec = MaskSpec(grid_size=32, erase_per_row=8, seed=7)
        mask = spec.generate()
        payload = encode_mask(mask, spec=spec)
        assert payload[:1] == _FORMAT_TAGS["seed"]
        assert len(payload) == 10
        assert np.array_equal(decode_mask(payload), mask)

    def test_every_forced_method_roundtrips(self):
        spec = MaskSpec(grid_size=8, erase_per_row=2, seed=4)
        mask = spec.generate()
        for method in ("bitpack", "rle", "seed"):
            payload = encode_mask(mask, spec=spec, method=method)
            assert payload[:1] == _FORMAT_TAGS[method]
            assert np.array_equal(decode_mask(payload), mask)

    def test_seed_method_unavailable_without_spec(self):
        mask = proposed_mask(8, 2, seed=1)
        with pytest.raises(ValueError, match="unavailable"):
            encode_mask(mask, method="seed")

    def test_mismatched_spec_is_rejected(self):
        spec = MaskSpec(grid_size=8, erase_per_row=2, seed=5)
        other = random_mask(8, 2, seed=99)
        with pytest.raises(ValueError, match="does not regenerate"):
            encode_mask(other, spec=spec)

    def test_auto_without_spec_never_exceeds_bitpack_size(self):
        mask = random_mask(16, 4, seed=11)
        payload = encode_mask(mask)
        assert len(payload) <= len(pack_mask_bits(mask))

    def test_decode_rejects_empty_and_unknown(self):
        with pytest.raises(ValueError):
            decode_mask(b"")
        with pytest.raises(ValueError):
            decode_mask(b"\xff\x01\x02")

    @given(grid=st.integers(4, 16), erase=st.integers(1, 3), seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_all_formats_agree(self, grid, erase, seed):
        erase = min(erase, grid - 1)
        delta = 1 if erase * 2 <= grid else 0
        spec = MaskSpec(grid_size=grid, erase_per_row=erase,
                        intra_row_min_distance=delta, seed=seed)
        mask = spec.generate()
        decoded = {method: decode_mask(encode_mask(mask, spec=spec, method=method))
                   for method in ("bitpack", "rle", "seed")}
        for method, value in decoded.items():
            assert np.array_equal(value, mask), method
