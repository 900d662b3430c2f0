"""Frozen seed-generation implementations of the codec hot paths.

The production code in ``src/repro`` replaced these symbol-at-a-time /
per-patch loops with plan-cached vectorized fast paths (see
``repro.core.erase_squeeze.SqueezePlan`` and the table-driven JPEG entropy
coder).  This module preserves the *original* seed semantics verbatim so
``bench_throughput.py`` can measure the real speedup against the same
machine and the same model weights — it is a measurement baseline, not a
fallback, and nothing in ``src`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.jpeg import (
    JpegCodec,
    _build_code_table,
    _magnitude_bits,
    _magnitude_category,
    _magnitude_from_bits,
)
from repro.codecs.jpeg_tables import (
    STANDARD_AC_CHROMINANCE,
    STANDARD_AC_LUMINANCE,
    STANDARD_DC_CHROMINANCE,
    STANDARD_DC_LUMINANCE,
    ZIGZAG_ORDER,
)
from repro.core.patchify import (
    image_to_patches,
    patch_to_subpatches,
    patches_to_image,
    subpatches_to_patch,
    subpatches_to_tokens,
    tokens_to_subpatches,
)
from repro.image import is_color, to_float

__all__ = [
    "ArithmeticDecoder",
    "ArithmeticEncoder",
    "SeedBitWriter",
    "SeedBitReader",
    "SeedJpegCodec",
    "seed_erase_and_squeeze_image",
    "seed_unsqueeze_image",
    "seed_reconstruct_image",
    "seed_decode_symbols",
    "seed_encode_symbols",
    "seed_two_stage_patchify",
]


# --------------------------------------------------------------------- #
# seed bit I/O: one Python call per bit
# --------------------------------------------------------------------- #
class SeedBitWriter:
    def __init__(self):
        self._bytes = bytearray()
        self._current = 0
        self._count = 0

    def write_bit(self, bit):
        self._current = (self._current << 1) | (1 if bit else 0)
        self._count += 1
        if self._count == 8:
            self._bytes.append(self._current)
            self._current = 0
            self._count = 0

    def write_bits(self, value, num_bits):
        for shift in range(num_bits - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    @property
    def bit_length(self):
        return len(self._bytes) * 8 + self._count

    def getvalue(self):
        data = bytearray(self._bytes)
        if self._count:
            data.append(self._current << (8 - self._count))
        return bytes(data)


class SeedBitReader:
    def __init__(self, data):
        self._data = bytes(data)
        self._pos = 0

    def read_bit(self):
        byte_index = self._pos >> 3
        if byte_index >= len(self._data):
            return 0
        bit = (self._data[byte_index] >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, num_bits):
        value = 0
        for _ in range(num_bits):
            value = (value << 1) | self.read_bit()
        return value


# --------------------------------------------------------------------- #
# seed JPEG entropy coding: dict probes per symbol, bit loops per field
# --------------------------------------------------------------------- #
_DC_LUMA_CODES = _build_code_table(STANDARD_DC_LUMINANCE)
_DC_CHROMA_CODES = _build_code_table(STANDARD_DC_CHROMINANCE)
_AC_LUMA_CODES = _build_code_table(STANDARD_AC_LUMINANCE)
_AC_CHROMA_CODES = _build_code_table(STANDARD_AC_CHROMINANCE)


def _invert(codes):
    return {(length, code): symbol for symbol, (code, length) in codes.items()}


_DC_LUMA_DECODE = _invert(_DC_LUMA_CODES)
_DC_CHROMA_DECODE = _invert(_DC_CHROMA_CODES)
_AC_LUMA_DECODE = _invert(_AC_LUMA_CODES)
_AC_CHROMA_DECODE = _invert(_AC_CHROMA_CODES)

_EOB = 0x00
_ZRL = 0xF0


def _seed_write_bits(writer, value, num_bits):
    """Seed-era ``write_bits``: one Python-level ``write_bit`` call per bit."""
    for shift in range(num_bits - 1, -1, -1):
        writer.write_bit((value >> shift) & 1)


def _write_code(writer, codes, symbol):
    code, length = codes[symbol]
    _seed_write_bits(writer, code, length)


def _read_code(reader, decode_table):
    code = 0
    length = 0
    while True:
        code = (code << 1) | reader.read_bit()
        length += 1
        if (length, code) in decode_table:
            return decode_table[(length, code)]
        if length > 16:
            raise ValueError("corrupt JPEG stream: Huffman code longer than 16 bits")


class SeedJpegCodec(JpegCodec):
    """Seed JPEG codec: identical DCT/quantisation, seed entropy loops.

    Overrides only the channel encoder and the entropy decoder, so the
    produced bitstream and the decoded image are bit-identical to the fast
    implementation — the difference is purely wall-clock.
    """

    def _encode_channel(self, writer, quantised, dc_encode, ac_encode):
        # the fast codec passes its array tables; map them back to the seed
        # dict tables by identity
        from repro.codecs import jpeg as _fast

        is_luma = dc_encode is _fast._DC_LUMA_ENCODE
        dc_codes = _DC_LUMA_CODES if is_luma else _DC_CHROMA_CODES
        ac_codes = _AC_LUMA_CODES if is_luma else _AC_CHROMA_CODES
        zigzagged = quantised.reshape(-1, 64)[:, ZIGZAG_ORDER]
        previous_dc = 0
        for block in zigzagged:
            dc = int(block[0])
            diff = dc - previous_dc
            previous_dc = dc
            size = _magnitude_category(diff)
            _write_code(writer, dc_codes, size)
            if size:
                _seed_write_bits(writer, _magnitude_bits(diff, size), size)
            run = 0
            last_nonzero = np.nonzero(block[1:])[0]
            last_index = last_nonzero[-1] + 1 if last_nonzero.size else 0
            for index in range(1, last_index + 1):
                value = int(block[index])
                if value == 0:
                    run += 1
                    continue
                while run > 15:
                    _write_code(writer, ac_codes, _ZRL)
                    run -= 16
                size = _magnitude_category(value)
                _write_code(writer, ac_codes, (run << 4) | size)
                _seed_write_bits(writer, _magnitude_bits(value, size), size)
                run = 0
            if last_index < 63:
                _write_code(writer, ac_codes, _EOB)

    def _decode_channels(self, data, channels):
        seed_reader = SeedBitReader(data)
        decoded = []
        for num_blocks, is_luma in channels:
            dc_table = _DC_LUMA_DECODE if is_luma else _DC_CHROMA_DECODE
            ac_table = _AC_LUMA_DECODE if is_luma else _AC_CHROMA_DECODE
            blocks = np.zeros((num_blocks, 64), dtype=np.int32)
            previous_dc = 0
            for block_index in range(num_blocks):
                size = _read_code(seed_reader, dc_table)
                diff = _magnitude_from_bits(seed_reader.read_bits(size), size) if size else 0
                previous_dc += diff
                blocks[block_index, 0] = previous_dc
                index = 1
                while index < 64:
                    symbol = _read_code(seed_reader, ac_table)
                    if symbol == _EOB:
                        break
                    if symbol == _ZRL:
                        index += 16
                        continue
                    run = symbol >> 4
                    size = symbol & 0x0F
                    index += run
                    if index >= 64:
                        raise ValueError("corrupt JPEG stream: AC index out of range")
                    blocks[block_index, index] = _magnitude_from_bits(
                        seed_reader.read_bits(size), size)
                    index += 1
            out = np.zeros((num_blocks, 64), dtype=np.int32)
            out[:, ZIGZAG_ORDER] = blocks
            decoded.append(out.reshape(num_blocks, 8, 8))
        return decoded


# --------------------------------------------------------------------- #
# seed erase-and-squeeze: per-patch / per-row loops
# --------------------------------------------------------------------- #
def _seed_validate(mask):
    mask = np.asarray(mask)
    kept_per_row = mask.sum(axis=1)
    if not np.all(kept_per_row == kept_per_row[0]):
        raise ValueError("unbalanced mask")
    return int(kept_per_row[0])


def _seed_squeeze_patch(patch, mask, subpatch_size, direction="horizontal"):
    mask = np.asarray(mask, dtype=bool)
    if direction == "vertical":
        transposed = patch.swapaxes(0, 1) if patch.ndim == 2 else patch.transpose(1, 0, 2)
        squeezed = _seed_squeeze_patch(transposed, mask.T, subpatch_size, "horizontal")
        return squeezed.swapaxes(0, 1) if squeezed.ndim == 2 else squeezed.transpose(1, 0, 2)
    kept_per_row = _seed_validate(mask)
    subpatches = patch_to_subpatches(patch, subpatch_size)
    grid = mask.shape[0]
    rows = []
    for row in range(grid):
        rows.append(subpatches[row][mask[row]])
    packed = np.stack(rows)
    grid_rows = packed.shape[0]
    b = packed.shape[2]
    if packed.ndim == 5:
        channels = packed.shape[4]
        return packed.transpose(0, 2, 1, 3, 4).reshape(grid_rows * b, kept_per_row * b, channels)
    return packed.transpose(0, 2, 1, 3).reshape(grid_rows * b, kept_per_row * b)


def _seed_unsqueeze_patch(squeezed, mask, subpatch_size, fill="zero"):
    mask = np.asarray(mask, dtype=bool)
    kept_per_row = _seed_validate(mask)
    grid = mask.shape[0]
    block = np.asarray(squeezed)
    grid_rows = block.shape[0] // subpatch_size
    if block.ndim == 3:
        channels = block.shape[2]
        rows = block.reshape(grid_rows, subpatch_size, kept_per_row, subpatch_size, channels)
        packed = rows.transpose(0, 2, 1, 3, 4)
    else:
        rows = block.reshape(grid_rows, subpatch_size, kept_per_row, subpatch_size)
        packed = rows.transpose(0, 2, 1, 3)
    sample = packed[0, 0]
    subpatches = np.zeros((grid, grid) + sample.shape, dtype=np.float64)
    for row in range(grid):
        kept_columns = np.flatnonzero(mask[row])
        subpatches[row, kept_columns] = packed[row]
        if fill == "zero":
            continue
        erased_columns = np.flatnonzero(~mask[row])
        if kept_columns.size == 0:
            continue
        for column in erased_columns:
            if fill == "neighbor":
                nearest = kept_columns[np.argmin(np.abs(kept_columns - column))]
                subpatches[row, column] = subpatches[row, nearest]
            else:
                subpatches[row, column] = packed[row].mean(axis=0)
    return subpatches_to_patch(subpatches)


def seed_erase_and_squeeze_image(image, mask, patch_size, subpatch_size,
                                 direction="horizontal"):
    patches, grid_shape, original_shape = image_to_patches(image, patch_size)
    squeezed_patches = np.stack([
        _seed_squeeze_patch(patch, mask, subpatch_size, direction) for patch in patches
    ])
    rows, cols = grid_shape
    ph, pw = squeezed_patches.shape[1], squeezed_patches.shape[2]
    if squeezed_patches.ndim == 4:
        channels = squeezed_patches.shape[3]
        grid = squeezed_patches.reshape(rows, cols, ph, pw, channels)
        squeezed = grid.transpose(0, 2, 1, 3, 4).reshape(rows * ph, cols * pw, channels)
    else:
        grid = squeezed_patches.reshape(rows, cols, ph, pw)
        squeezed = grid.transpose(0, 2, 1, 3).reshape(rows * ph, cols * pw)
    return squeezed, grid_shape, original_shape


def seed_unsqueeze_image(squeezed, mask, patch_size, subpatch_size, grid_shape,
                         original_shape, fill="zero", direction="horizontal"):
    mask = np.asarray(mask, dtype=bool)
    rows, cols = grid_shape
    kept = int(mask.sum(axis=1)[0])
    if direction == "horizontal":
        ph, pw = patch_size, kept * subpatch_size
    else:
        ph, pw = kept * subpatch_size, patch_size
    if squeezed.ndim == 3:
        channels = squeezed.shape[2]
        patches = squeezed.reshape(rows, ph, cols, pw, channels).transpose(0, 2, 1, 3, 4)
        patches = patches.reshape(rows * cols, ph, pw, channels)
    else:
        patches = squeezed.reshape(rows, ph, cols, pw).transpose(0, 2, 1, 3)
        patches = patches.reshape(rows * cols, ph, pw)
    if direction == "vertical":
        restored = [
            _seed_unsqueeze_patch(
                patch.swapaxes(0, 1) if patch.ndim == 2 else patch.transpose(1, 0, 2),
                mask.T, subpatch_size, fill,
            )
            for patch in patches
        ]
        restored = [p.swapaxes(0, 1) if p.ndim == 2 else p.transpose(1, 0, 2) for p in restored]
    else:
        restored = [_seed_unsqueeze_patch(patch, mask, subpatch_size, fill) for patch in patches]
    return patches_to_image(np.stack(restored), grid_shape, original_shape)


# --------------------------------------------------------------------- #
# seed tokenization + reconstruction: per-patch loops, 3x per-channel model calls
# --------------------------------------------------------------------- #
import contextlib

from repro import nn as _nn
from repro.nn import functional as _F
from repro.nn.tensor import as_tensor as _as_tensor


def _seed_linear(x, weight, bias=None):
    """Seed-era ``F.linear``: a stack of per-batch-element GEMMs."""
    out = _as_tensor(x) @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def _seed_gelu(self):
    """Seed-era ``Tensor.gelu`` with the ``x ** 3`` power call (which numpy
    evaluates on a slow scalar path for arrays containing negatives)."""
    c = np.sqrt(2.0 / np.pi)
    x = self.data
    inner = c * (x + 0.044715 * x ** 3)
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)

    def backward(grad):
        if self.requires_grad:
            dinner = c * (1.0 + 3 * 0.044715 * x ** 2)
            dt = (1.0 - t ** 2) * dinner
            local = 0.5 * (1.0 + t) + 0.5 * x * dt
            self._accumulate(grad * local)

    return self._make_child(out_data, (self,), backward, "gelu")


@contextlib.contextmanager
def seed_nn_ops():
    """Temporarily restore the seed-generation nn ops: the batched-GEMM
    ``F.linear`` and the ``x ** 3`` GELU."""
    from repro.nn.tensor import Tensor as _Tensor

    fast_linear = _F.linear
    fast_gelu = _Tensor.gelu
    _F.linear = _seed_linear
    _Tensor.gelu = _seed_gelu
    try:
        yield
    finally:
        _F.linear = fast_linear
        _Tensor.gelu = fast_gelu


def _seed_reconstruct_tokens(model, tokens, mask, keep_original=True):
    """Seed ``reconstruct_tokens``: the float64 autograd forward under
    ``no_grad`` (the float32 fused inference path did not exist), with the
    per-call scatter-matrix rebuild restored."""
    flat_mask = np.asarray(mask, dtype=bool).reshape(-1)
    kept_indices = np.flatnonzero(flat_mask)
    cfg = model.config
    with _nn.no_grad(), seed_nn_ops():
        tokens_t = _nn.as_tensor(tokens)
        kept_tokens = tokens_t[:, kept_indices, :]
        embedded = model.input_projection(kept_tokens) + model.positional_embedding[kept_indices]
        encoded = model.encoder(embedded)
        scatter = np.zeros((cfg.tokens_per_patch, kept_indices.size))
        scatter[kept_indices, np.arange(kept_indices.size)] = 1.0
        full_features = _nn.Tensor(scatter) @ encoded
        full_features = full_features + model.positional_embedding
        decoded = model.decoder(full_features)
        predicted = model.output_projection(decoded).sigmoid().data
    if keep_original:
        output = np.array(predicted)
        output[:, flat_mask, :] = np.asarray(tokens)[:, flat_mask, :]
        return output
    return predicted


def seed_two_stage_patchify(image, patch_size, subpatch_size):
    patches, grid_shape, original_shape = image_to_patches(image, patch_size)
    token_batches = [subpatches_to_tokens(patch_to_subpatches(patch, subpatch_size))
                     for patch in patches]
    return np.stack(token_batches), grid_shape, original_shape


def seed_reconstruct_image(model, filled_image, mask, keep_original=True):
    cfg = model.config
    filled_image = to_float(filled_image)
    if is_color(filled_image) and cfg.channels == 1:
        channels = [seed_reconstruct_image(model, filled_image[..., c], mask, keep_original)
                    for c in range(3)]
        return np.stack(channels, axis=-1)

    patches, grid_shape, original_shape = image_to_patches(filled_image, cfg.patch_size)
    token_batches = np.stack([
        subpatches_to_tokens(patch_to_subpatches(patch, cfg.subpatch_size))
        for patch in patches
    ])
    reconstructed_tokens = _seed_reconstruct_tokens(model, token_batches, mask, keep_original)
    rebuilt_patches = []
    for tokens in reconstructed_tokens:
        subpatches = tokens_to_subpatches(tokens, cfg.grid_size, cfg.subpatch_size,
                                          cfg.channels)
        rebuilt_patches.append(subpatches_to_patch(subpatches))
    image = patches_to_image(np.stack(rebuilt_patches), grid_shape, original_shape)
    return np.clip(image, 0.0, 1.0)


# --------------------------------------------------------------------- #
# seed adaptive arithmetic coder: bit-at-a-time renormalisation per symbol
# --------------------------------------------------------------------- #
# The entropy honesty baseline for the range coder in
# ``repro.entropy.range_coder``.  It shares the production ``AdaptiveModel``
# and bit I/O, so the ``entropy`` bench section times the coder alone.
from repro.entropy import AdaptiveModel as _AdaptiveModel
from repro.entropy.bitio import BitReader as _BitReader
from repro.entropy.bitio import BitWriter as _BitWriter

_PRECISION = 32
_MAX = (1 << _PRECISION) - 1
_QUARTER = 1 << (_PRECISION - 2)
_HALF = 2 * _QUARTER
_THREE_QUARTERS = 3 * _QUARTER


class ArithmeticEncoder:
    """Streaming 32-bit Witten–Neal–Cleary encoder with pending-bit carries."""

    def __init__(self):
        self._writer = _BitWriter()
        self._low = 0
        self._high = _MAX
        self._pending = 0

    def _emit(self, bit):
        self._writer.write_bit(bit)
        while self._pending:
            self._writer.write_bit(1 - bit)
            self._pending -= 1

    def encode(self, model, symbol):
        """Encode ``symbol`` under ``model`` and update the model."""
        low_count, high_count, total = model.interval(symbol)
        span = self._high - self._low + 1
        self._high = self._low + span * high_count // total - 1
        self._low = self._low + span * low_count // total
        while True:
            if self._high < _HALF:
                self._emit(0)
            elif self._low >= _HALF:
                self._emit(1)
                self._low -= _HALF
                self._high -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTERS:
                self._pending += 1
                self._low -= _QUARTER
                self._high -= _QUARTER
            else:
                break
            self._low *= 2
            self._high = self._high * 2 + 1
        model.update(symbol)

    def finish(self):
        """Flush the coder state and return the encoded bytes."""
        self._pending += 1
        if self._low < _QUARTER:
            self._emit(0)
        else:
            self._emit(1)
        return self._writer.getvalue()


class ArithmeticDecoder:
    """Streaming decoder mirroring :class:`ArithmeticEncoder`."""

    def __init__(self, payload):
        self._reader = _BitReader(payload)
        self._low = 0
        self._high = _MAX
        self._value = self._reader.read_bits(_PRECISION)

    def decode(self, model):
        """Decode the next symbol under ``model`` and update the model."""
        span = self._high - self._low + 1
        total = model.total
        scaled = ((self._value - self._low + 1) * total - 1) // span
        symbol = model.symbol_from_count(scaled)
        low_count, high_count, _ = model.interval(symbol)
        self._high = self._low + span * high_count // total - 1
        self._low = self._low + span * low_count // total
        while True:
            if self._high < _HALF:
                pass
            elif self._low >= _HALF:
                self._low -= _HALF
                self._high -= _HALF
                self._value -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTERS:
                self._low -= _QUARTER
                self._high -= _QUARTER
                self._value -= _QUARTER
            else:
                break
            self._low *= 2
            self._high = self._high * 2 + 1
            self._value = self._value * 2 + self._reader.read_bit()
        model.update(symbol)
        return symbol


def seed_encode_symbols(symbols, num_symbols):
    """Encode a symbol sequence under a fresh adaptive model (untagged bytes)."""
    model = _AdaptiveModel(num_symbols)
    encoder = ArithmeticEncoder()
    for symbol in symbols:
        encoder.encode(model, int(symbol))
    return encoder.finish()


def seed_decode_symbols(payload, count, num_symbols):
    """Decode ``count`` symbols written by :func:`seed_encode_symbols`."""
    model = _AdaptiveModel(num_symbols)
    decoder = ArithmeticDecoder(payload)
    return [decoder.decode(model) for _ in range(count)]
