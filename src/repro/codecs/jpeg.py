"""Baseline JPEG codec implemented from scratch.

The pipeline follows ITU-T T.81 baseline sequential mode:

1. RGB → YCbCr colour conversion and optional 4:2:0 chroma subsampling;
2. 8×8 block DCT (type-II, orthonormal);
3. quantisation with the standard Annex K tables scaled by an IJG-style
   quality factor;
4. zig-zag scan, differential DC coding, (run, size) AC coding;
5. Huffman entropy coding using the standard Annex K Huffman tables.

The container is a small custom header rather than JFIF (there is no need for
interchange with external decoders in this reproduction), but the entropy-coded
payload is true baseline JPEG coding, so bits-per-pixel numbers carry the same
rate/quality trade-off as libjpeg output.
"""

from __future__ import annotations

import numpy as np

from ..entropy.bitio import BitWriter
from ..image import (
    image_num_pixels,
    is_color,
    pad_to_multiple,
    resize_bilinear,
    rgb_to_ycbcr,
    to_float,
    ycbcr_to_rgb,
)
from .base import Codec, ComplexityProfile, CompressedImage
from .jpeg_tables import (
    CHROMINANCE_QUANT_TABLE,
    LUMINANCE_QUANT_TABLE,
    STANDARD_AC_CHROMINANCE,
    STANDARD_AC_LUMINANCE,
    STANDARD_DC_CHROMINANCE,
    STANDARD_DC_LUMINANCE,
    ZIGZAG_ORDER,
    quality_scaled_table,
)

__all__ = ["JpegCodec", "dct2", "idct2", "dct2_batched", "idct2_batched",
           "dct_matrix"]

_MAGIC = b"RJPG"
_EOB = 0x00
_ZRL = 0xF0


def dct_matrix(n=8):
    """Orthonormal type-II DCT matrix of size ``n×n``."""
    k = np.arange(n).reshape(-1, 1)
    m = np.arange(n).reshape(1, -1)
    matrix = np.cos(np.pi * (2 * m + 1) * k / (2 * n))
    matrix[0, :] *= np.sqrt(1.0 / n)
    matrix[1:, :] *= np.sqrt(2.0 / n)
    return matrix


_DCT8 = dct_matrix(8)
# Separable 2-D DCT as one 64x64 operator: out_flat = in_flat @ _KRON.T and
# idct_flat = coeff_flat @ _KRON, because kron(D, D).T == kron(D.T, D.T).
_KRON = np.kron(_DCT8, _DCT8)
_KRON_T = np.ascontiguousarray(_KRON.T)


def _gemm_blocks(blocks, operator):
    """Apply a 64×64 flat-DCT operator to ``(N, 8, 8)`` blocks as one GEMM."""
    count = blocks.shape[0]
    return (np.ascontiguousarray(blocks).reshape(count, 64) @ operator).reshape(count, 8, 8)


def dct2(blocks):
    """2-D DCT of a batch of 8×8 blocks with shape ``(..., 8, 8)``.

    The broadcast-matmul form; right for single blocks and small batches
    (the BPG per-block loop).  Large batches go through
    :func:`dct2_batched`.
    """
    return _DCT8 @ blocks @ _DCT8.T


def idct2(coefficients):
    """Inverse 2-D DCT of a batch of 8×8 coefficient blocks."""
    return _DCT8.T @ coefficients @ _DCT8


def dct2_batched(blocks):
    """2-D DCT of ``(N, 8, 8)`` blocks as one ``(N, 64) @ (64, 64)`` GEMM.

    One BLAS call over the whole batch instead of 2N broadcast 8×8 matmuls —
    ~2.5x faster at the block counts a 256² channel produces, and the entry
    point the JPEG pipeline feeds with *all* channels of one image at once.
    Numerics are the standard orthonormal DCT (the 64×64 operator is the
    Kronecker square of the 8-point basis); summation order differs from
    :func:`dct2` by at most ~1e-13 on pixel-scale inputs.
    """
    return _gemm_blocks(blocks, _KRON_T)


def idct2_batched(coefficients):
    """Inverse of :func:`dct2_batched` (same single-GEMM formulation)."""
    return _gemm_blocks(coefficients, _KRON)


def _build_code_table(spec):
    """Build ``symbol -> (code, length)`` from a JPEG (BITS, HUFFVAL) spec."""
    bits, values = spec
    codes = {}
    code = 0
    index = 0
    for length_minus_one, count in enumerate(bits):
        length = length_minus_one + 1
        for _ in range(count):
            codes[values[index]] = (code, length)
            code += 1
            index += 1
        code <<= 1
    return codes


def _code_arrays(codes):
    """Table-driven encoder view: ``(code, length)`` arrays indexed by symbol."""
    code_arr = np.zeros(256, dtype=np.int64)
    len_arr = np.zeros(256, dtype=np.int64)
    for symbol, (code, length) in codes.items():
        code_arr[symbol] = code
        len_arr[symbol] = length
    return code_arr, len_arr


def _window_tables(codes):
    """Per-window decoder view of one Huffman table: ``(symbols, lengths)``.

    Every Huffman code is at most 16 bits, so the next 16 bits of the stream
    identify the symbol outright: code ``c`` of length ``l`` owns the window
    range ``[c << (16-l), (c+1) << (16-l))``.  Windows outside every range
    have length 0, which the decoder reports as stream corruption.
    """
    symbols = np.zeros(1 << 16, dtype=np.uint8)
    lengths = np.zeros(1 << 16, dtype=np.uint8)
    for symbol, (code, length) in codes.items():
        lo = code << (16 - length)
        hi = (code + 1) << (16 - length)
        symbols[lo:hi] = symbol
        lengths[lo:hi] = length
    return symbols, lengths


_DC_LUMA_CODES = _build_code_table(STANDARD_DC_LUMINANCE)
_DC_CHROMA_CODES = _build_code_table(STANDARD_DC_CHROMINANCE)
_AC_LUMA_CODES = _build_code_table(STANDARD_AC_LUMINANCE)
_AC_CHROMA_CODES = _build_code_table(STANDARD_AC_CHROMINANCE)
_DC_LUMA_ENCODE = _code_arrays(_DC_LUMA_CODES)
_DC_CHROMA_ENCODE = _code_arrays(_DC_CHROMA_CODES)
_AC_LUMA_ENCODE = _code_arrays(_AC_LUMA_CODES)
_AC_CHROMA_ENCODE = _code_arrays(_AC_CHROMA_CODES)

# Decoder tables indexed ``[table set, 16-bit window]``; set 0 is luma, 1 chroma.
_DC_SYMBOLS, _DC_LENGTHS = np.stack(
    [_window_tables(_DC_LUMA_CODES), _window_tables(_DC_CHROMA_CODES)], axis=1)
_AC_SYMBOLS, _AC_LENGTHS = np.stack(
    [_window_tables(_AC_LUMA_CODES), _window_tables(_AC_CHROMA_CODES)], axis=1)
_AC_SIZES = _AC_SYMBOLS & 15
# What the scan reads per token.  A step is code length + amplitude size, 0
# for an invalid code.  An AC advance is the zig-zag slots the token moves
# on: run + 1 for a coefficient, 16 for ZRL; EOB and invalid codes advance
# ``_BLOCK_END``, which ends the block.
_BLOCK_END = 64
_DC_STEPS = np.where(_DC_LENGTHS > 0, _DC_LENGTHS + _DC_SYMBOLS, 0).astype(np.uint8)
_AC_STEPS = np.where(_AC_LENGTHS > 0, _AC_LENGTHS + _AC_SIZES, 0).astype(np.uint8)
_AC_ADVANCES = np.where((_AC_LENGTHS == 0) | (_AC_SYMBOLS == _EOB), _BLOCK_END,
                        np.where(_AC_SIZES > 0, (_AC_SYMBOLS >> 4) + 1, 16)).astype(np.uint8)
# Pass 2's view of a token, indexed ``kind | window`` (kind adds ``_AC_KEY``
# for AC and ``_CHROMA_KEY`` for chroma): code length | amplitude size << 5
# | advance << 9, where a DC token advances one slot (onto the first AC).
_AC_KEY = 1 << 16
_CHROMA_KEY = 2 << 16
_TOKEN_FIELDS = np.stack([
    _DC_LENGTHS | (_DC_SYMBOLS.astype(np.uint16) << 5) | (1 << 9),
    _AC_LENGTHS | (_AC_SIZES.astype(np.uint16) << 5) | (_AC_ADVANCES.astype(np.uint16) << 9),
], axis=1).reshape(-1)
_WINDOW_SHIFTS = np.arange(8, 0, -1, dtype=np.uint32)
# Zero bytes of windows past the data: the scan reads at most 26 bits past
# the last one (after a token that starts there), an amplitude field 16.
_WINDOW_SLACK_BYTES = 4


def _bit_windows(data):
    """The 16-bit window at every bit position of ``data`` (uint16).

    Entry ``p`` holds stream bits ``p .. p+15`` MSB-first, reading zeros past
    the end; the array runs ``8 * _WINDOW_SLACK_BYTES`` positions past the
    last bit.  Built from 24-bit words at every byte, shifted once per bit
    offset.
    """
    padded = np.frombuffer(bytes(data) + bytes(_WINDOW_SLACK_BYTES + 2),
                           dtype=np.uint8).astype(np.uint32)
    words = (padded[:-2] << 16) | (padded[1:-1] << 8) | padded[2:]
    return ((words[:, None] >> _WINDOW_SHIFTS) & 0xFFFF).astype(np.uint16).ravel()


def _scan_tables(windows, table_set, first, total_bits):
    """Per-bit-position scan tables of one table set, filled from bit ``first``.

    Returns ``(dc_steps, ac_steps, ac_advances)`` as ``bytes`` (the fastest
    Python-level index).  Outside ``first .. total_bits`` every step is 0 and
    every advance ends the block, so a scan that runs off the data stays
    inside the tables and still ends.
    """
    tables = []
    for table, outside in ((_DC_STEPS, 0), (_AC_STEPS, 0), (_AC_ADVANCES, _BLOCK_END)):
        entries = np.full(windows.size, outside, dtype=np.uint8)
        np.take(table[table_set], windows[first:total_bits + 1],
                out=entries[first:total_bits + 1], mode="clip")
        tables.append(entries.tobytes())
    return tables


def _magnitude_category(value):
    """JPEG size category: number of bits needed for |value|."""
    return int(abs(int(value))).bit_length()


def _magnitude_categories(values):
    """Vectorized :func:`_magnitude_category` (exact for |v| < 2**53)."""
    _, exponents = np.frexp(np.abs(values).astype(np.float64))
    return exponents.astype(np.int64)


def _magnitude_bits(value, size):
    """Amplitude bits for ``value`` within its size category."""
    value = int(value)
    if value >= 0:
        return value
    return value + (1 << size) - 1


def _magnitude_from_bits(bits, size):
    """Inverse of :func:`_magnitude_bits`."""
    if size == 0:
        return 0
    if bits >> (size - 1):
        return bits
    return bits - (1 << size) + 1


def _image_to_blocks(channel):
    """Split a 2-D channel (multiple of 8 in both dims) into 8×8 blocks."""
    height, width = channel.shape
    blocks = channel.reshape(height // 8, 8, width // 8, 8).transpose(0, 2, 1, 3)
    return blocks.reshape(-1, 8, 8)


def _blocks_to_image(blocks, height, width):
    """Reassemble 8×8 blocks into a 2-D channel of ``height × width``."""
    grid = blocks.reshape(height // 8, width // 8, 8, 8).transpose(0, 2, 1, 3)
    return grid.reshape(height, width)


class JpegCodec(Codec):
    """Baseline JPEG encoder/decoder.

    Parameters
    ----------
    quality:
        IJG quality factor in ``[1, 100]``; higher is better quality / more
        bits.
    subsample_chroma:
        Apply 4:2:0 chroma subsampling (standard for photographic content).
    """

    is_neural = False

    def __init__(self, quality=75, subsample_chroma=True):
        self.quality = int(quality)
        self.subsample_chroma = bool(subsample_chroma)
        self.name = f"jpeg-q{self.quality}"
        self._luma_table = quality_scaled_table(LUMINANCE_QUANT_TABLE, self.quality)
        self._chroma_table = quality_scaled_table(CHROMINANCE_QUANT_TABLE, self.quality)

    # ------------------------------------------------------------------ #
    # channel-level coding
    # ------------------------------------------------------------------ #
    def _channel_entries(self, image, color, block_plan=None):
        """Pre-DCT blocks plus geometry for every channel of one image.

        With ``block_plan`` (a :class:`repro.core.erase_squeeze.
        BlockGatherPlan`) grayscale blocks are gathered straight from the
        *original* pixels — the squeezed image is never materialised, padded
        or re-blocked.  Colour images gather the squeezed RGB rows in one
        ``np.take`` (several times cheaper than the reshape/transpose
        squeeze) and then run the classic pipeline on it: the colour
        conversion and the chroma resample need the materialised squeezed
        frame anyway, and converting before squeezing would waste the
        conversion on every erased pixel.  Without a plan this is the
        classic pad→scale→block pipeline on an already-squeezed (or plain)
        image.  All paths are bit-identical.
        """
        if block_plan is not None and color:
            image = block_plan.squeeze_pixels(image)
            block_plan = None
        if color:
            ycbcr = rgb_to_ycbcr(image)
            raw_channels = [ycbcr[..., 0], ycbcr[..., 1], ycbcr[..., 2]]
        else:
            raw_channels = [image]
        entries = []
        for channel_index, channel in enumerate(raw_channels):
            is_luma = channel_index == 0
            if not is_luma and self.subsample_chroma:
                channel = resize_bilinear(channel, max(1, channel.shape[0] // 2),
                                          max(1, channel.shape[1] // 2))
            if block_plan is not None:
                blocks = block_plan.gather_blocks(channel) * 255.0 - 128.0
                padded_shape = tuple(block_plan.padded_squeezed_shape)
                original_shape = tuple(block_plan.squeezed_shape)
            else:
                padded, original_shape = pad_to_multiple(channel, 8)
                blocks = _image_to_blocks(padded * 255.0 - 128.0)
                padded_shape = padded.shape
                original_shape = (original_shape[0], original_shape[1])
            entries.append({"blocks": blocks, "padded_shape": padded_shape,
                            "original_shape": original_shape, "is_luma": is_luma})
        return entries

    def _package_entries(self, entries, image_shape, color):
        """One batched DCT over every channel's blocks, then entropy-code."""
        all_blocks = np.concatenate([entry["blocks"] for entry in entries])
        coefficients = dct2_batched(all_blocks)
        writer = BitWriter()
        channel_meta = []
        offset = 0
        for entry in entries:
            count = entry["blocks"].shape[0]
            is_luma = entry["is_luma"]
            table = self._luma_table if is_luma else self._chroma_table
            quantised = np.round(
                coefficients[offset:offset + count] / table).astype(np.int32)
            offset += count
            dc_encode = _DC_LUMA_ENCODE if is_luma else _DC_CHROMA_ENCODE
            ac_encode = _AC_LUMA_ENCODE if is_luma else _AC_CHROMA_ENCODE
            self._encode_channel(writer, quantised, dc_encode, ac_encode)
            channel_meta.append({
                "padded_shape": entry["padded_shape"],
                "original_shape": entry["original_shape"],
                "num_blocks": count,
                "is_luma": is_luma,
            })
        header = bytearray()
        header += _MAGIC
        header += int(image_shape[0]).to_bytes(2, "big")
        header += int(image_shape[1]).to_bytes(2, "big")
        header.append(3 if color else 1)
        header.append(self.quality)
        header.append(1 if self.subsample_chroma else 0)
        payload = bytes(header) + writer.getvalue()
        return CompressedImage(
            payload=payload,
            original_shape=tuple(image_shape),
            codec_name=self.name,
            metadata={"channels": channel_meta, "color": color},
        )

    def _encode_channel(self, writer, quantised, dc_encode, ac_encode):
        """Table-driven entropy encode: the whole channel's symbol stream is
        computed with vectorized numpy (zig-zag, DC differences, AC run
        lengths, size categories, amplitude bits), interleaved by a stable
        sort on (block, zig-zag slot) keys, and packed in one
        :meth:`BitWriter.write_tokens` call — no per-block Python loop.

        Every token fuses a Huffman code with its amplitude bits: DC tokens
        are at most 16+11 bits, AC tokens at most 16+10, so each fits a
        single ``(value, length)`` pair.
        """
        dc_code, dc_len = dc_encode
        ac_code, ac_len = ac_encode
        zigzagged = quantised.reshape(-1, 64)[:, ZIGZAG_ORDER].astype(np.int64)
        num_blocks = zigzagged.shape[0]
        # per-block slot keys: DC = 0, AC at zig-zag index p = 4p (preceded by
        # its ZRLs at 4p-1), EOB = 511; 512 slots per block keeps keys unique
        block_base = np.arange(num_blocks, dtype=np.int64) * 512

        # --- DC: differential code ------------------------------------ #
        diffs = np.diff(zigzagged[:, 0], prepend=0)
        dc_size = _magnitude_categories(diffs)
        dc_amp = np.where(diffs >= 0, diffs, diffs + (1 << dc_size) - 1)
        dc_values = (dc_code[dc_size] << dc_size) | (dc_amp & ((1 << dc_size) - 1))
        dc_lengths = dc_len[dc_size] + dc_size
        dc_keys = block_base

        # --- AC: (run, size) coding over the nonzero coefficients ------ #
        ac = zigzagged[:, 1:]
        nz_block, nz_pos = np.nonzero(ac)
        values = ac[nz_block, nz_pos]
        prev_pos = np.empty_like(nz_pos)
        prev_pos[1:] = nz_pos[:-1]
        first = np.ones(nz_block.size, dtype=bool)
        first[1:] = nz_block[1:] != nz_block[:-1]
        prev_pos[first] = -1
        run = nz_pos - prev_pos - 1
        num_zrl = run >> 4  # a run of 16+ zeros is split into ZRL symbols
        ac_size = _magnitude_categories(values)
        amp = np.where(values >= 0, values, values + (1 << ac_size) - 1)
        symbol = ((run & 15) << 4) | ac_size
        ac_values = (ac_code[symbol] << ac_size) | (amp & ((1 << ac_size) - 1))
        ac_lengths = ac_len[symbol] + ac_size
        ac_keys = nz_block * 512 + (nz_pos + 1) * 4

        zrl_owner = np.repeat(np.arange(nz_block.size), num_zrl)
        zrl_values = np.full(zrl_owner.size, ac_code[_ZRL], dtype=np.int64)
        zrl_lengths = np.full(zrl_owner.size, ac_len[_ZRL], dtype=np.int64)
        zrl_keys = ac_keys[zrl_owner] - 1

        # --- EOB for blocks whose last nonzero is before zig-zag 63 ---- #
        last_in_block = np.ones(nz_block.size, dtype=bool)
        last_in_block[:-1] = nz_block[1:] != nz_block[:-1]
        last_pos = np.full(num_blocks, -1, dtype=np.int64)
        last_pos[nz_block[last_in_block]] = nz_pos[last_in_block]
        eob_blocks = np.flatnonzero(last_pos < 62)
        eob_values = np.full(eob_blocks.size, ac_code[_EOB], dtype=np.int64)
        eob_lengths = np.full(eob_blocks.size, ac_len[_EOB], dtype=np.int64)
        eob_keys = eob_blocks * 512 + 511

        keys = np.concatenate([dc_keys, zrl_keys, ac_keys, eob_keys])
        token_values = np.concatenate([dc_values, zrl_values, ac_values, eob_values])
        token_lengths = np.concatenate([dc_lengths, zrl_lengths, ac_lengths, eob_lengths])
        order = np.argsort(keys, kind="stable")
        writer.write_tokens(token_values[order], token_lengths[order])

    def _decode_channels(self, data, channels):
        """Two-pass entropy decode of every channel in one payload.

        ``data`` is the entropy-coded stream and ``channels`` lists each
        channel's ``(num_blocks, is_luma)`` in stream order; returns one
        ``(num_blocks, 8, 8)`` int32 array of quantised coefficients per
        channel.  A corrupt stream raises ``ValueError``.

        Pass 1 is the only sequential part (token ``k+1`` starts where token
        ``k`` ends).  numpy first builds the 16-bit window at every bit
        position (:func:`_bit_windows`) and, per table set in use, the DC
        step, AC step and AC advance at every bit position
        (:func:`_scan_tables`).  The loop then reads a DC step, or an AC
        advance and step, per token and records only where each token
        starts (a DC token as ``~pos``, which also marks the start of a
        block).  A block whose DC code is invalid or starts past the end of
        the data raises at once, so every block the scan goes on with takes
        at least 2 bits and the scan is bounded by the data, whatever block
        count the header claims.  Inside a block, an invalid AC code or a
        token past the end steps 0 bits and ends the block; pass 2 finds it.

        Pass 2 is bulk numpy over all channels at once
        (:meth:`_place_coefficients`).
        """
        windows = _bit_windows(data)
        total_bits = len(data) * 8
        scan_tables = {}
        tokens = []
        append = tokens.append
        channel_ends = []
        pos = 0
        for num_blocks, is_luma in channels:
            table_set = 0 if is_luma else 1
            if table_set not in scan_tables:
                scan_tables[table_set] = _scan_tables(windows, table_set, pos, total_bits)
            dc_steps, ac_steps, ac_advances = scan_tables[table_set]
            for _ in range(num_blocks):
                step = dc_steps[pos]
                if not step:
                    raise ValueError("corrupt JPEG stream: out of data" if pos > total_bits
                                     else "corrupt JPEG stream: invalid Huffman code")
                append(~pos)
                pos += step
                index = 1
                while index < 64:
                    append(pos)
                    index += ac_advances[pos]
                    pos += ac_steps[pos]
            channel_ends.append(len(tokens))
        return self._place_coefficients(windows, total_bits, channels, tokens,
                                         channel_ends)

    @staticmethod
    def _place_coefficients(windows, total_bits, channels, tokens, channel_ends):
        """Pass 2 of :meth:`_decode_channels`: token starts → coefficients.

        The window at each token start gives its code length, amplitude size
        and zig-zag advance (one gather from ``_TOKEN_FIELDS``).  A zero code
        length or a start past the end raises, as the scan would have.  The
        advances summed since each block's DC token give every coefficient's
        slot (a slot past 63 raises), the window after the code gives its
        amplitude bits, one scatter writes every value to its natural-order
        position, and a cumulative sum per channel undoes the differential
        DC coding.
        """
        starts = np.asarray(tokens, dtype=np.int64)
        is_dc = starts < 0
        starts = np.maximum(starts, ~starts)
        key = np.where(is_dc, 0, _AC_KEY)
        key |= windows[starts]
        first = 0
        for (_, is_luma), end in zip(channels, channel_ends):
            if not is_luma:
                key[first:end] |= _CHROMA_KEY
            first = end
        fields = _TOKEN_FIELDS[key]
        length = fields & 31
        if starts.size and starts.max() > total_bits:
            raise ValueError("corrupt JPEG stream: out of data")
        if not length.all():
            raise ValueError("corrupt JPEG stream: invalid Huffman code")
        # a token's zig-zag slot is the advances since its block's DC token
        advanced = np.cumsum(fields >> 9, dtype=np.int64)
        block = np.cumsum(is_dc) - 1
        slot = advanced - advanced[is_dc][block]
        # tokens with amplitude bits: coefficients and non-zero DC differences
        coded = np.flatnonzero(fields & (15 << 5))
        slot = slot[coded]
        if slot.size and slot.max() >= 64:
            raise ValueError("corrupt JPEG stream: AC index out of range")
        size = (fields[coded] >> 5) & 15
        amplitude = windows[starts[coded] + length[coded]].astype(np.int32)
        values = amplitude >> (16 - size)
        # an amplitude field whose top bit is 0 codes a negative value
        values -= (amplitude < 0x8000) * ((1 << size) - 1)
        num_blocks = sum(count for count, _ in channels)
        out = np.zeros((num_blocks, 64), dtype=np.int32)
        out.reshape(-1)[block[coded] * 64 + ZIGZAG_ORDER[slot]] = values
        decoded = []
        first = 0
        for count, _ in channels:
            dc = out[first:first + count, 0]
            np.cumsum(dc, out=dc)
            decoded.append(out[first:first + count].reshape(count, 8, 8))
            first += count
        return decoded

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    supports_fused_squeeze = True

    def compress(self, image):
        """Encode a float image (grayscale or RGB) into a JPEG bitstream."""
        image = to_float(image)
        color = is_color(image)
        entries = self._channel_entries(image, color)
        return self._package_entries(entries, image.shape, color)

    def compress_squeezed(self, image, plan):
        """Squeeze-fused encode: compress ``plan.squeeze_image(image)[0]``
        through the plan's precomputed gather indices.

        Erased sub-patches are dropped at the gather, so they are never
        converted, padded, blocked or DCT'd; grayscale images go straight
        from original pixels to DCT-ready blocks without materialising the
        squeezed frame at all (colour materialises it with one cheap
        row-gather — see :meth:`_channel_entries`).  The payload, metadata
        and header are bit-identical to
        ``compress(plan.squeeze_image(image)[0])``.

        Returns ``(compressed, grid_shape, squeezed_shape)`` — the extra
        geometry the erase-and-squeeze container needs.
        """
        image = to_float(image)
        color = is_color(image)
        block_plan = plan.block_plan(image.shape[:2], block=8)
        entries = self._channel_entries(image, color, block_plan=block_plan)
        squeezed_shape = tuple(block_plan.squeezed_shape) + ((3,) if color else ())
        compressed = self._package_entries(entries, squeezed_shape, color)
        return compressed, block_plan.grid_shape, squeezed_shape

    def _entropy_decode(self, compressed):
        """Sequential half of decoding: Huffman streams → quantised blocks."""
        payload = compressed.payload
        if payload[:4] != _MAGIC:
            raise ValueError("not a repro-JPEG payload")
        metas = compressed.metadata["channels"]
        quantised = self._decode_channels(
            payload[11:], [(meta["num_blocks"], meta["is_luma"]) for meta in metas])
        return {
            "channels": list(zip(quantised, metas)),
            "height": int.from_bytes(payload[4:6], "big"),
            "width": int.from_bytes(payload[6:8], "big"),
            "num_channels": payload[8],
        }

    def _assemble(self, state, blocks_per_channel):
        """Bulk half of decoding: IDCT'd blocks → assembled image."""
        height, width = state["height"], state["width"]
        channels = []
        for (_, meta), blocks in zip(state["channels"], blocks_per_channel):
            channel = _blocks_to_image(blocks, meta["padded_shape"][0],
                                       meta["padded_shape"][1])
            channel = (channel + 128.0) / 255.0
            channel = np.clip(
                channel[: meta["original_shape"][0], : meta["original_shape"][1]],
                0.0, 1.0)
            if channel.shape != (height, width):
                channel = resize_bilinear(channel, height, width)
            channels.append(channel)
        if state["num_channels"] == 1:
            return channels[0]
        return ycbcr_to_rgb(np.stack(channels, axis=-1))

    def _idct_channels(self, state):
        """One fused IDCT over every channel of one decode state.

        Dequantises each channel, concatenates the block counts into a
        single GEMM and returns the per-channel ``(N, 8, 8)`` pixel blocks.
        """
        coefficients = [quantised.astype(np.float64)
                        * (self._luma_table if meta["is_luma"] else self._chroma_table)
                        for quantised, meta in state["channels"]]
        blocks = idct2_batched(np.concatenate(coefficients))
        return np.split(blocks, np.cumsum([c.shape[0] for c in coefficients])[:-1])

    def decompress(self, compressed):
        """Decode a bitstream produced by :meth:`compress`."""
        state = self._entropy_decode(compressed)
        return self._assemble(state, self._idct_channels(state))

    def decompress_unsqueezed(self, compressed, plan, original_spatial):
        """Fused decode for grayscale erase-and-squeeze payloads.

        Decodes the payload and scatters the pixels straight into the
        zero-filled unsqueezed frame (``fill="zero"`` semantics, cropped to
        ``original_spatial``) — the squeezed image is never assembled.
        Returns ``None`` when the payload is not eligible (colour, or a
        geometry that does not match the plan) so callers can fall back to
        the generic path.
        """
        state = self._entropy_decode(compressed)
        if state["num_channels"] != 1:
            return None
        block_plan = plan.block_plan(original_spatial, block=8)
        quantised, meta = state["channels"][0]
        if (tuple(meta["padded_shape"]) != tuple(block_plan.padded_squeezed_shape)
                or meta["num_blocks"] != block_plan.num_blocks
                or tuple(meta["original_shape"]) != tuple(block_plan.squeezed_shape)
                or (state["height"], state["width"]) != tuple(block_plan.squeezed_shape)):
            return None
        blocks = idct2_batched(quantised.astype(np.float64) * self._luma_table)
        values = np.clip((blocks + 128.0) / 255.0, 0.0, 1.0)
        return block_plan.scatter_blocks(values)

    # ------------------------------------------------------------------ #
    # complexity model (per-pixel MAC estimates for the testbed simulator)
    # ------------------------------------------------------------------ #
    def encode_complexity(self, shape):
        """DCT + quantisation + entropy coding cost (CPU only, no model)."""
        pixels = image_num_pixels(shape)
        channels = 3 if len(shape) == 3 else 1
        # 2x 8-point DCT per pixel (~16 MACs) + quant + entropy ≈ 40 MACs/px.
        macs = 40.0 * pixels * (2.0 if channels == 3 and self.subsample_chroma else channels)
        return ComplexityProfile(macs=macs, model_bytes=0.0,
                                 working_memory_bytes=8.0 * pixels * channels,
                                 uses_gpu=False)

    def decode_complexity(self, shape):
        """Inverse DCT + dequantisation cost (mirror of encoding)."""
        return self.encode_complexity(shape)
