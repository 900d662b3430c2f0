"""BPG-proxy codec: block intra-prediction + DCT + adaptive range coding.

BPG (Bellard, 2014) wraps HEVC intra coding.  The real reference encoder is
not available offline, so this module implements the three ingredients that
give HEVC-intra its advantage over JPEG and therefore preserve the ordering
the paper relies on (BPG better than JPEG at equal BPP):

* per-block intra prediction (DC / horizontal / vertical / planar modes,
  chosen by minimum residual energy) so only residuals are transformed;
* 8×8 residual DCT with a flat quantisation step controlled by a ``qp``
  parameter (as in HEVC, step grows exponentially with qp);
* context-adaptive range coding of the quantised coefficients instead of
  static Huffman tables.
"""

from __future__ import annotations

import numpy as np

from ..entropy.arithmetic import FORMAT_RANGE, AdaptiveModel
from ..entropy.range_coder import RangeDecoder, RangeEncoder
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
from .jpeg import dct2, idct2
from .jpeg_tables import ZIGZAG_ORDER

__all__ = ["BpgCodec"]

_MAGIC = b"RBPG"
_BLOCK = 8
_MODES = ("dc", "horizontal", "vertical", "planar")
# Coefficient magnitudes are clamped into [-_COEF_CLAMP, _COEF_CLAMP] for the
# range coder alphabet; an escape symbol codes the rare overflow values.
_COEF_CLAMP = 255


def _quant_step(qp):
    """HEVC-style quantisation step: doubles every 6 qp."""
    return 0.625 * (2.0 ** ((qp - 4) / 6.0))


def _predict_block(reconstructed, row, col, mode):
    """Intra-predict an 8×8 block from already-reconstructed neighbours."""
    block = np.zeros((_BLOCK, _BLOCK))
    top = reconstructed[row - 1, col:col + _BLOCK] if row > 0 else None
    left = reconstructed[row:row + _BLOCK, col - 1] if col > 0 else None
    if mode == "dc":
        values = []
        if top is not None:
            values.append(top.mean())
        if left is not None:
            values.append(left.mean())
        block[:] = np.mean(values) if values else 0.5
    elif mode == "horizontal":
        if left is None:
            block[:] = top.mean() if top is not None else 0.5
        else:
            block[:] = left.reshape(-1, 1)
    elif mode == "vertical":
        if top is None:
            block[:] = left.mean() if left is not None else 0.5
        else:
            block[:] = top.reshape(1, -1)
    elif mode == "planar":
        if top is None and left is None:
            block[:] = 0.5
        elif top is None:
            block[:] = left.reshape(-1, 1)
        elif left is None:
            block[:] = top.reshape(1, -1)
        else:
            horizontal = np.tile(left.reshape(-1, 1), (1, _BLOCK))
            vertical = np.tile(top.reshape(1, -1), (_BLOCK, 1))
            block = 0.5 * (horizontal + vertical)
    else:
        raise ValueError(f"unknown intra mode {mode!r}")
    return block


class BpgCodec(Codec):
    """BPG/HEVC-intra proxy codec.

    Parameters
    ----------
    qp:
        Quantisation parameter in ``[1, 51]`` (HEVC convention); larger means
        coarser quantisation and fewer bits.
    subsample_chroma:
        Apply 4:2:0 chroma subsampling for RGB inputs.

    The container header carries the entropy format tag
    (:data:`~repro.entropy.FORMAT_RANGE`); any other tag is rejected.
    """

    is_neural = False

    def __init__(self, qp=32, subsample_chroma=True):
        self.qp = int(qp)
        self.subsample_chroma = bool(subsample_chroma)
        self.name = f"bpg-qp{self.qp}"
        self._step = _quant_step(self.qp)

    # ------------------------------------------------------------------ #
    def _encode_channel(self, channel, encoder, mode_model, coef_model, sign_model):
        padded, original_shape = pad_to_multiple(channel, _BLOCK)
        height, width = padded.shape
        reconstructed = np.zeros_like(padded)
        for row in range(0, height, _BLOCK):
            for col in range(0, width, _BLOCK):
                target = padded[row:row + _BLOCK, col:col + _BLOCK]
                best_mode = 0
                best_residual = None
                best_cost = np.inf
                for mode_index, mode in enumerate(_MODES):
                    prediction = _predict_block(reconstructed, row, col, mode)
                    residual = target - prediction
                    cost = float(np.abs(residual).sum())
                    if cost < best_cost:
                        best_cost = cost
                        best_mode = mode_index
                        best_residual = residual
                        best_prediction = prediction
                encoder.encode(mode_model, best_mode)
                coefficients = dct2(best_residual * 255.0)
                quantised = np.round(coefficients / self._step).astype(np.int64)
                flat = quantised.reshape(-1)[ZIGZAG_ORDER]
                clamped = np.clip(flat, -_COEF_CLAMP, _COEF_CLAMP)
                # the whole 64-coefficient magnitude scan as one array call,
                # then the signs of the nonzeros
                magnitudes = np.abs(clamped)
                encoder.encode_array(coef_model, magnitudes)
                nonzero = clamped[magnitudes > 0]
                if nonzero.size:
                    encoder.encode_array(sign_model, (nonzero < 0).astype(np.int64))
                dequantised = np.zeros(64)
                dequantised[ZIGZAG_ORDER] = clamped
                rec_block = idct2(dequantised.reshape(_BLOCK, _BLOCK) * self._step) / 255.0
                reconstructed[row:row + _BLOCK, col:col + _BLOCK] = np.clip(
                    best_prediction + rec_block, 0.0, 1.0
                )
        meta = {
            "padded_shape": padded.shape,
            "original_shape": (original_shape[0], original_shape[1]),
        }
        return meta

    def _decode_channel(self, decoder, meta, mode_model, coef_model, sign_model):
        height, width = meta["padded_shape"]
        reconstructed = np.zeros((height, width))
        for row in range(0, height, _BLOCK):
            for col in range(0, width, _BLOCK):
                mode_index = decoder.decode(mode_model)
                prediction = _predict_block(reconstructed, row, col, _MODES[mode_index])
                flat = np.asarray(decoder.decode_array(coef_model, 64), dtype=np.int64)
                nonzero = np.flatnonzero(flat)
                if nonzero.size:
                    signs = np.asarray(decoder.decode_array(sign_model, nonzero.size),
                                       dtype=np.int64)
                    flat[nonzero[signs == 1]] *= -1
                dequantised = np.zeros(64)
                dequantised[ZIGZAG_ORDER] = flat
                rec_block = idct2(dequantised.reshape(_BLOCK, _BLOCK) * self._step) / 255.0
                reconstructed[row:row + _BLOCK, col:col + _BLOCK] = np.clip(
                    prediction + rec_block, 0.0, 1.0
                )
        oh, ow = meta["original_shape"]
        return reconstructed[:oh, :ow]

    # ------------------------------------------------------------------ #
    def compress(self, image):
        """Encode a float image into a BPG-proxy bitstream."""
        image = to_float(image)
        color = is_color(image)
        if color:
            ycbcr = rgb_to_ycbcr(image)
            channels = [ycbcr[..., 0], ycbcr[..., 1], ycbcr[..., 2]]
        else:
            channels = [image]
        encoder = RangeEncoder()
        mode_model = AdaptiveModel(len(_MODES))
        coef_model = AdaptiveModel(_COEF_CLAMP + 1)
        sign_model = AdaptiveModel(2)
        channel_meta = []
        for channel_index, channel in enumerate(channels):
            if channel_index > 0 and self.subsample_chroma:
                channel = resize_bilinear(channel, max(1, channel.shape[0] // 2),
                                          max(1, channel.shape[1] // 2))
            channel_meta.append(self._encode_channel(channel, encoder, mode_model,
                                                     coef_model, sign_model))
        header = bytearray()
        header += _MAGIC
        header += int(image.shape[0]).to_bytes(2, "big")
        header += int(image.shape[1]).to_bytes(2, "big")
        header.append(3 if color else 1)
        header.append(self.qp)
        header.append(FORMAT_RANGE)
        payload = bytes(header) + encoder.finish()
        return CompressedImage(
            payload=payload,
            original_shape=image.shape,
            codec_name=self.name,
            metadata={"channels": channel_meta, "color": color},
        )

    def decompress(self, compressed):
        """Decode a bitstream produced by :meth:`compress`."""
        payload = compressed.payload
        if payload[:4] != _MAGIC:
            raise ValueError("not a repro-BPG payload")
        height = int.from_bytes(payload[4:6], "big")
        width = int.from_bytes(payload[6:8], "big")
        num_channels = payload[8]
        entropy_format = payload[10]
        if entropy_format != FORMAT_RANGE:
            raise ValueError(f"unknown BPG entropy format tag {entropy_format}")
        decoder = RangeDecoder(payload[11:])
        mode_model = AdaptiveModel(len(_MODES))
        coef_model = AdaptiveModel(_COEF_CLAMP + 1)
        sign_model = AdaptiveModel(2)
        channels = []
        for meta in compressed.metadata["channels"]:
            channel = self._decode_channel(decoder, meta, mode_model, coef_model,
                                           sign_model)
            if channel.shape != (height, width):
                channel = resize_bilinear(channel, height, width)
            channels.append(channel)
        if num_channels == 1:
            return channels[0]
        return ycbcr_to_rgb(np.stack(channels, axis=-1))

    # ------------------------------------------------------------------ #
    def encode_complexity(self, shape):
        """Intra-mode search + DCT + CABAC-like coding (CPU only)."""
        pixels = image_num_pixels(shape)
        channels = 3 if len(shape) == 3 else 1
        effective = pixels * (2.0 if channels == 3 and self.subsample_chroma else channels)
        # mode search (4 predictions) + transform + entropy ≈ 160 MACs/px
        return ComplexityProfile(macs=160.0 * effective, model_bytes=0.0,
                                 working_memory_bytes=16.0 * pixels * channels,
                                 uses_gpu=False)

    def decode_complexity(self, shape):
        """Single prediction + inverse transform per block."""
        pixels = image_num_pixels(shape)
        channels = 3 if len(shape) == 3 else 1
        effective = pixels * (2.0 if channels == 3 and self.subsample_chroma else channels)
        return ComplexityProfile(macs=80.0 * effective, model_bytes=0.0,
                                 working_memory_bytes=16.0 * pixels * channels,
                                 uses_gpu=False)
