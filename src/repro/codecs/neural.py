"""Learned transform codec used to stand in for the neural baselines.

The paper compares against two CompressAI models: MBT (Minnen, Ballé &
Toderici, NeurIPS 2018 — joint autoregressive and hierarchical priors) and
Cheng-anchor (Cheng et al., CVPR 2020 — Gaussian-mixture likelihoods with
attention).  Neither PyTorch nor the pretrained weights are available
offline, so :class:`LearnedTransformCodec` implements the same *architecture
family* at block scale:

* a learnable analysis transform ``W_a`` mapping an 8×8 pixel block to a
  64-dimensional latent (initialised to the DCT basis so the codec is useful
  without lengthy training, exactly as a pretrained model would be);
* per-channel learnable quantisation steps shaped by a perceptually-motivated
  frequency weighting, scaled by a global ``quality`` parameter;
* an entropy model: either a *factorized* prior (independent adaptive models
  per latent channel) or a *hyperprior/context* model that first transmits a
  coarse per-block scale class and conditions the coefficient models on it —
  the mechanism that gives MBT/Cheng their rate advantage;
* a learnable synthesis transform ``W_s`` (initialised to the inverse DCT).

The class supports end-to-end rate–distortion fine-tuning with
:mod:`repro.nn` (see :meth:`train_steps`), and carries the published compute
cost and model size of the original models as metadata so the edge testbed
simulation reproduces Fig. 1 and Fig. 6.
"""

from __future__ import annotations

import numpy as np

from .. import nn
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
from .jpeg import dct_matrix
from .jpeg_tables import LUMINANCE_QUANT_TABLE, ZIGZAG_ORDER

__all__ = ["LearnedTransformCodec"]

_MAGIC = b"RNNC"
_BLOCK = 8
_COEF_CLAMP = 255
_NUM_SCALE_CLASSES = 8


def _dct_basis_2d():
    """Return the 64×64 separable DCT basis used to initialise the transforms."""
    d = dct_matrix(_BLOCK)
    return np.kron(d, d)


def _frequency_weights():
    """Perceptual frequency weighting derived from the JPEG luminance table."""
    table = LUMINANCE_QUANT_TABLE.reshape(-1)
    return table / table.min()


class LearnedTransformCodec(Codec):
    """Block-based learned image codec (MBT / Cheng-anchor stand-in).

    Parameters
    ----------
    quality:
        Integer in ``[1, 8]`` mirroring CompressAI quality indices; higher
        means finer quantisation (more bits, better quality).
    entropy_model:
        ``"factorized"`` — independent per-channel probability models
        (Ballé 2017 style); ``"hyperprior"`` — per-block scale classes are
        transmitted first and condition the coefficient models (Minnen 2018
        style); ``"context"`` — hyperprior plus conditioning on the previous
        block's class (causal context, Cheng 2020 style).
    base_step:
        Quantisation step at quality 1 for the DC-like channel.
    macs_per_pixel, model_bytes:
        Published computational footprint of the original network; used only
        by the testbed simulator, not by the numerics here.
    """

    is_neural = True

    def __init__(self, quality=4, entropy_model="hyperprior", base_step=96.0,
                 macs_per_pixel=300_000.0, model_bytes=100 * 2 ** 20,
                 name="learned", deblock=True, rng=None):
        if entropy_model not in ("factorized", "hyperprior", "context"):
            raise ValueError(f"unknown entropy model {entropy_model!r}")
        self.quality = int(np.clip(quality, 1, 8))
        self.entropy_model = entropy_model
        self.deblock = bool(deblock)
        self.base_step = float(base_step)
        self.macs_per_pixel = float(macs_per_pixel)
        self.model_bytes = float(model_bytes)
        self.name = f"{name}-q{self.quality}"
        rng = rng or np.random.default_rng(7)

        basis = _dct_basis_2d()
        self.analysis = nn.Parameter(basis.copy())
        self.synthesis = nn.Parameter(basis.T.copy())
        # Per-channel quantisation steps: frequency-weighted, shrinking with quality.
        scale = self.base_step * (0.6 ** (self.quality - 1)) / 255.0
        self.log_steps = nn.Parameter(np.log(scale * _frequency_weights()))

    # ------------------------------------------------------------------ #
    # transforms
    # ------------------------------------------------------------------ #
    def _steps(self):
        return np.exp(self.log_steps.data)

    def _analyse(self, channel):
        padded, original_shape = pad_to_multiple(channel, _BLOCK)
        height, width = padded.shape
        blocks = padded.reshape(height // _BLOCK, _BLOCK, width // _BLOCK, _BLOCK)
        blocks = blocks.transpose(0, 2, 1, 3).reshape(-1, _BLOCK * _BLOCK)
        latents = (blocks - 0.5) @ self.analysis.data.T
        return latents, padded.shape, original_shape

    def _synthesise(self, latents, padded_shape, original_shape):
        blocks = latents @ self.synthesis.data.T + 0.5
        height, width = padded_shape
        grid = blocks.reshape(height // _BLOCK, width // _BLOCK, _BLOCK, _BLOCK)
        channel = grid.transpose(0, 2, 1, 3).reshape(height, width)
        if self.deblock:
            channel = self._deblock(channel)
        return np.clip(channel[: original_shape[0], : original_shape[1]], 0.0, 1.0)

    @staticmethod
    def _deblock(channel):
        """Smooth the two pixels either side of every block boundary.

        Neural synthesis transforms produce outputs without block-edge
        discontinuities; this light [1 2 1]/4 filter across boundaries keeps
        the proxy's outputs perceptually block-free too (it matters for the
        no-reference metrics, not for PSNR).
        """
        smoothed = channel.copy()
        height, width = channel.shape
        for boundary in range(_BLOCK, width, _BLOCK):
            left, right = boundary - 1, boundary
            a = channel[:, max(left - 1, 0)]
            b = channel[:, left]
            c = channel[:, right]
            d = channel[:, min(right + 1, width - 1)]
            smoothed[:, left] = 0.25 * a + 0.5 * b + 0.25 * c
            smoothed[:, right] = 0.25 * b + 0.5 * c + 0.25 * d
        channel = smoothed
        smoothed = channel.copy()
        for boundary in range(_BLOCK, height, _BLOCK):
            top, bottom = boundary - 1, boundary
            a = channel[max(top - 1, 0), :]
            b = channel[top, :]
            c = channel[bottom, :]
            d = channel[min(bottom + 1, height - 1), :]
            smoothed[top, :] = 0.25 * a + 0.5 * b + 0.25 * c
            smoothed[bottom, :] = 0.25 * b + 0.5 * c + 0.25 * d
        return smoothed

    def _scale_class(self, quantised_block):
        """Coarse activity class of a block (the hyperprior side information)."""
        energy = np.log1p(np.abs(quantised_block).sum())
        return int(np.clip(energy / 1.2, 0, _NUM_SCALE_CLASSES - 1))

    # ------------------------------------------------------------------ #
    # entropy coding
    # ------------------------------------------------------------------ #
    def _make_models(self):
        if self.entropy_model == "factorized":
            contexts = 1
        else:
            contexts = _NUM_SCALE_CLASSES
        coef_models = [[AdaptiveModel(_COEF_CLAMP + 1) for _ in range(_BLOCK * _BLOCK)]
                       for _ in range(contexts)]
        sign_model = AdaptiveModel(2)
        class_model = AdaptiveModel(_NUM_SCALE_CLASSES)
        # "significance" model: index of the last non-zero latent channel per
        # block (0 = all channels zero).  Learned codecs skip inactive
        # channels through their entropy model; this plays the same role.
        significance_model = AdaptiveModel(_BLOCK * _BLOCK + 1)
        return coef_models, sign_model, class_model, significance_model

    def _encode_latents(self, encoder, quantised, models):
        coef_models, sign_model, class_model, significance_model = models
        previous_class = 0
        for block in quantised:
            if self.entropy_model == "factorized":
                context = 0
            else:
                scale_class = self._scale_class(block)
                if self.entropy_model == "context":
                    # condition the transmitted class on the previous block's class
                    encoder.encode(class_model, (scale_class + previous_class) % _NUM_SCALE_CLASSES)
                    previous_class = scale_class
                else:
                    encoder.encode(class_model, scale_class)
                context = scale_class
            # scan channels in zig-zag (low → high frequency) order so the
            # "last significant channel" bound is tight for smooth blocks
            scanned = block[ZIGZAG_ORDER]
            nonzero = np.flatnonzero(scanned)
            significant = int(nonzero[-1]) + 1 if nonzero.size else 0
            encoder.encode(significance_model, significant)
            for channel_index in range(significant):
                value = scanned[channel_index]
                magnitude = min(abs(int(value)), _COEF_CLAMP)
                encoder.encode(coef_models[context][channel_index], magnitude)
                if magnitude:
                    encoder.encode(sign_model, 0 if value > 0 else 1)

    def _decode_latents(self, decoder, num_blocks, models):
        coef_models, sign_model, class_model, significance_model = models
        quantised = np.zeros((num_blocks, _BLOCK * _BLOCK), dtype=np.int64)
        previous_class = 0
        for block_index in range(num_blocks):
            if self.entropy_model == "factorized":
                context = 0
            else:
                symbol = decoder.decode(class_model)
                if self.entropy_model == "context":
                    # the encoder transmitted (class + previous_class) mod N
                    context = (symbol - previous_class) % _NUM_SCALE_CLASSES
                    previous_class = context
                else:
                    context = symbol
            significant = decoder.decode(significance_model)
            scanned = np.zeros(_BLOCK * _BLOCK, dtype=np.int64)
            for channel_index in range(significant):
                magnitude = decoder.decode(coef_models[context][channel_index])
                if magnitude:
                    sign = decoder.decode(sign_model)
                    scanned[channel_index] = -magnitude if sign else magnitude
            quantised[block_index, ZIGZAG_ORDER] = scanned
        return quantised

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def compress(self, image):
        """Encode a float image into a learned-codec bitstream."""
        image = to_float(image)
        color = is_color(image)
        if color:
            ycbcr = rgb_to_ycbcr(image)
            channels = [ycbcr[..., 0],
                        resize_bilinear(ycbcr[..., 1], max(1, image.shape[0] // 2),
                                        max(1, image.shape[1] // 2)),
                        resize_bilinear(ycbcr[..., 2], max(1, image.shape[0] // 2),
                                        max(1, image.shape[1] // 2))]
        else:
            channels = [image]
        steps = self._steps()
        encoder = RangeEncoder()
        models = self._make_models()
        channel_meta = []
        for channel in channels:
            latents, padded_shape, original_shape = self._analyse(channel)
            quantised = np.clip(np.round(latents / steps), -_COEF_CLAMP, _COEF_CLAMP).astype(np.int64)
            self._encode_latents(encoder, quantised, models)
            channel_meta.append({
                "padded_shape": padded_shape,
                "original_shape": (original_shape[0], original_shape[1]),
                "num_blocks": quantised.shape[0],
            })
        header = bytearray()
        header += _MAGIC
        header += int(image.shape[0]).to_bytes(2, "big")
        header += int(image.shape[1]).to_bytes(2, "big")
        header.append(3 if color else 1)
        header.append(self.quality)
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
            raise ValueError("not a repro learned-codec payload")
        height = int.from_bytes(payload[4:6], "big")
        width = int.from_bytes(payload[6:8], "big")
        num_channels = payload[8]
        entropy_format = payload[10]
        if entropy_format != FORMAT_RANGE:
            raise ValueError(f"unknown learned-codec entropy format tag {entropy_format}")
        decoder = RangeDecoder(payload[11:])
        steps = self._steps()
        models = self._make_models()
        channels = []
        for meta in compressed.metadata["channels"]:
            quantised = self._decode_latents(decoder, meta["num_blocks"], models)
            latents = quantised.astype(np.float64) * steps
            channel = self._synthesise(latents, meta["padded_shape"], meta["original_shape"])
            if channel.shape != (height, width):
                channel = resize_bilinear(channel, height, width)
            channels.append(channel)
        if num_channels == 1:
            return channels[0]
        return ycbcr_to_rgb(np.stack(channels, axis=-1))

    # ------------------------------------------------------------------ #
    # rate-distortion fine-tuning (used by tests and the training example)
    # ------------------------------------------------------------------ #
    def train_steps(self, patches, steps=50, lr=1e-3, rate_weight=0.01):
        """Fine-tune the analysis/synthesis transforms on grayscale patches.

        ``patches`` is an array of shape ``(count, 8, 8)`` in ``[0, 1]``.  The
        objective is MSE distortion plus a differentiable rate proxy (mean
        absolute quantised-latent magnitude).  Returns the list of per-step
        losses (useful to check convergence in tests).
        """
        patches = np.asarray(patches, dtype=np.float64).reshape(-1, _BLOCK * _BLOCK)
        optimizer = nn.Adam([self.analysis, self.synthesis, self.log_steps], lr=lr)
        losses = []
        noise_rng = np.random.default_rng(0)
        for _ in range(steps):
            optimizer.zero_grad()
            x = nn.Tensor(patches - 0.5)
            latents = x @ self.analysis.transpose()
            steps_tensor = self.log_steps.exp()
            scaled = latents * (steps_tensor ** -1.0)
            # additive-uniform-noise relaxation of quantisation (Ballé 2017)
            noise = nn.Tensor(noise_rng.uniform(-0.5, 0.5, scaled.shape))
            noisy = scaled + noise
            dequantised = noisy * steps_tensor
            reconstruction = dequantised @ self.synthesis.transpose()
            distortion = nn.functional.mse_loss(reconstruction, x)
            rate = noisy.abs().mean()
            loss = distortion + rate_weight * rate
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
        return losses

    # ------------------------------------------------------------------ #
    def encode_complexity(self, shape):
        """Published-scale cost of the analysis transform + entropy model (GPU)."""
        pixels = image_num_pixels(shape)
        return ComplexityProfile(
            macs=self.macs_per_pixel * pixels,
            model_bytes=self.model_bytes,
            working_memory_bytes=48.0 * pixels,
            uses_gpu=True,
        )

    def decode_complexity(self, shape):
        """Synthesis transform cost (roughly symmetric for these models)."""
        pixels = image_num_pixels(shape)
        return ComplexityProfile(
            macs=self.macs_per_pixel * pixels,
            model_bytes=self.model_bytes,
            working_memory_bytes=48.0 * pixels,
            uses_gpu=True,
        )
