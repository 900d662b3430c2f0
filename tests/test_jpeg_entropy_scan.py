"""Equivalence suite: the per-bit-position Huffman scan vs the token loop.

``JpegCodec._decode_channels`` must give coefficients identical to the
frozen token-at-a-time decoder (``jpeg_decode_reference``) on every stream
the encoder produces, and on corrupt streams it must raise ``ValueError``
exactly when the reference does, and no other exception type.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpeg_decode_reference import reference_decode_channels
from repro.codecs.jpeg import (
    JpegCodec,
    _AC_CHROMA_ENCODE,
    _AC_LUMA_ENCODE,
    _DC_CHROMA_ENCODE,
    _DC_LUMA_ENCODE,
)
from repro.codecs.jpeg_tables import ZIGZAG_ORDER
from repro.core.erase_squeeze import get_squeeze_plan
from repro.entropy.bitio import BitWriter

_GRID = 4
_SUBPATCH = 4


def _stream(compressed):
    """The entropy-coded bytes and ``(num_blocks, is_luma)`` per channel."""
    channels = [(meta["num_blocks"], meta["is_luma"])
                for meta in compressed.metadata["channels"]]
    return compressed.payload[11:], channels


def _decode(decoder, data, channels):
    """Coefficients, or ``ValueError`` for a corrupt stream.

    Any other exception propagates and fails the test.
    """
    try:
        return decoder(data, channels)
    except ValueError:
        return ValueError


def _assert_matches_reference(data, channels):
    """Both decoders agree; returns what they decoded (or ``ValueError``)."""
    want = _decode(reference_decode_channels, data, channels)
    got = _decode(JpegCodec()._decode_channels, data, channels)
    if want is ValueError or got is ValueError:
        assert got is want
        return got
    assert len(got) == len(want)
    for got_blocks, want_blocks in zip(got, want):
        assert got_blocks.dtype == want_blocks.dtype
        assert np.array_equal(got_blocks, want_blocks)
    return got


def _frame(rng, shape):
    """Noise smoothed to a random degree: from EOB-heavy to dense blocks."""
    image = rng.random(shape)
    for _ in range(int(rng.integers(0, 4))):
        for axis in (0, 1):
            image = 0.25 * np.roll(image, 1, axis) + 0.5 * image \
                + 0.25 * np.roll(image, -1, axis)
    return np.clip(image, 0.0, 1.0)


@st.composite
def _frames(draw):
    """Gray and RGB frames on the block grid, and ragged ones off it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    kind = draw(st.sampled_from(["gray", "rgb", "ragged-gray", "ragged-rgb"]))
    if kind.startswith("ragged"):
        height, width = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    else:
        height, width = 8 * draw(st.integers(1, 8)), 8 * draw(st.integers(1, 8))
    shape = (height, width, 3) if kind.endswith("rgb") else (height, width)
    return _frame(rng, shape)


def _balanced_mask(rng, erase_per_row):
    mask = np.ones((_GRID, _GRID), dtype=bool)
    for row in range(_GRID):
        mask[row, rng.choice(_GRID, size=erase_per_row, replace=False)] = False
    return mask


class TestScanMatchesReference:
    @given(_frames(), st.integers(10, 95), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_compressed_frames(self, image, quality, subsample):
        codec = JpegCodec(quality=quality, subsample_chroma=subsample)
        decoded = _assert_matches_reference(*_stream(codec.compress(image)))
        assert decoded is not ValueError

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.booleans(),
           st.integers(10, 95))
    @settings(max_examples=30, deadline=None)
    def test_squeezed_payloads(self, seed, erase_per_row, color, quality):
        rng = np.random.default_rng(seed)
        height, width = int(rng.integers(16, 80)), int(rng.integers(16, 80))
        image = _frame(rng, (height, width, 3) if color else (height, width))
        plan = get_squeeze_plan(_balanced_mask(rng, erase_per_row), _SUBPATCH)
        compressed, _, _ = JpegCodec(quality=quality).compress_squeezed(image, plan)
        decoded = _assert_matches_reference(*_stream(compressed))
        assert decoded is not ValueError

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_blocks_that_end_at_coefficient_63(self, seed, num_blocks, is_luma):
        """No EOB: the block ends because the zig-zag index reaches 64."""
        rng = np.random.default_rng(seed)
        zigzag = (rng.normal(0, 30, size=(num_blocks, 64))
                  * (rng.random((num_blocks, 64)) < rng.random())).astype(np.int32)
        zigzag[:, 63] = rng.choice([-1, 1], size=num_blocks) * rng.integers(1, 1000, num_blocks)
        # one block with only DC and coefficient 63: three ZRLs, then run 14
        zigzag[0, 1:63] = 0
        quantised = np.zeros((num_blocks, 64), dtype=np.int32)
        quantised[:, ZIGZAG_ORDER] = zigzag
        quantised = quantised.reshape(num_blocks, 8, 8)
        writer = BitWriter()
        JpegCodec()._encode_channel(
            writer, quantised,
            _DC_LUMA_ENCODE if is_luma else _DC_CHROMA_ENCODE,
            _AC_LUMA_ENCODE if is_luma else _AC_CHROMA_ENCODE)
        [decoded] = _assert_matches_reference(writer.getvalue(), [(num_blocks, is_luma)])
        assert np.array_equal(decoded, quantised)


def _corrupt(data, kind, rng):
    data = bytearray(data)
    if kind == "truncate":
        return bytes(data[:int(rng.integers(0, len(data) + 1))])
    if kind == "flip":
        for bit in rng.integers(0, 8 * len(data), size=int(rng.integers(1, 5))):
            data[bit >> 3] ^= 0x80 >> (bit & 7)
        return bytes(data)
    cut = int(rng.integers(0, len(data) + 1))
    if kind == "random-tail":
        tail = rng.integers(0, 256, size=int(rng.integers(0, 64)), dtype=np.uint8)
        return bytes(data[:cut]) + tail.tobytes()
    # kind == "ff-run"
    return bytes(data[:cut]) + b"\xff" * int(rng.integers(1, 40)) + bytes(data[cut:])


class TestCorruptStreamParity:
    @given(_frames(), st.sampled_from([25, 75, 95]),
           st.sampled_from(["truncate", "flip", "random-tail", "ff-run"]),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_corrupted_payloads(self, image, quality, kind, seed):
        data, channels = _stream(JpegCodec(quality=quality).compress(image))
        _assert_matches_reference(_corrupt(data, kind, np.random.default_rng(seed)),
                                  channels)

    @given(st.binary(max_size=200),
           st.lists(st.tuples(st.integers(0, 8), st.booleans()), min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_random_bytes(self, data, channels):
        _assert_matches_reference(data, channels)

    def test_all_ones_raise(self):
        data, channels = _stream(JpegCodec().compress(np.full((16, 16, 3), 0.5)))
        assert _assert_matches_reference(b"\xff" * len(data), channels) is ValueError


class TestClaimedBlockCount:
    """The block count comes from the container header, so it may lie.

    The scan's work must stay bounded by the data: a stream of a few bytes
    that claims a billion blocks raises at once instead of scanning on.
    """

    @pytest.mark.parametrize("data", [b"", b"\x00", b"\x00\x00", b"\xff", b"\xff\xff",
                                      b"\x3c\xa5"])
    @pytest.mark.parametrize("channels", [[(10 ** 9, True)], [(10 ** 9, False)],
                                          [(0, True), (10 ** 9, False)]])
    def test_short_stream_raises_quickly(self, data, channels):
        started = time.perf_counter()
        assert _assert_matches_reference(data, channels) is ValueError
        assert time.perf_counter() - started < 2.0

    def test_decompress_rejects_inflated_header(self):
        codec = JpegCodec(quality=75)
        compressed = codec.compress(_frame(np.random.default_rng(3), (24, 24, 3)))
        metadata = dict(compressed.metadata)
        metadata["channels"] = [dict(meta, num_blocks=10 ** 9)
                                for meta in metadata["channels"]]
        started = time.perf_counter()
        with pytest.raises(ValueError):
            codec.decompress(dataclasses.replace(compressed, metadata=metadata))
        assert time.perf_counter() - started < 2.0
