"""Structural similarity (SSIM) and multi-scale SSIM (MS-SSIM).

Implementation follows Wang et al. (2004) with an 11×11 Gaussian window
(σ = 1.5) and the standard stability constants.  MS-SSIM uses the usual
five-scale weighting from Wang, Simoncelli & Bovik (2003).
"""

from __future__ import annotations

import numpy as np

from ..image import ensure_gray, to_float

__all__ = ["ssim", "ms_ssim"]

_MS_SSIM_WEIGHTS = np.array([0.0448, 0.2856, 0.3001, 0.2363, 0.1333])


def _gaussian_window(size=11, sigma=1.5):
    """Normalised 2-D Gaussian window."""
    half = size // 2
    coords = np.arange(-half, half + 1)
    one_d = np.exp(-(coords ** 2) / (2 * sigma ** 2))
    window = np.outer(one_d, one_d)
    return window / window.sum()


def _ssim_components(reference, test, data_range, window):
    from scipy.ndimage import convolve

    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    mu_x = convolve(reference, window, mode="reflect")
    mu_y = convolve(test, window, mode="reflect")
    mu_x2, mu_y2, mu_xy = mu_x ** 2, mu_y ** 2, mu_x * mu_y
    sigma_x2 = convolve(reference ** 2, window, mode="reflect") - mu_x2
    sigma_y2 = convolve(test ** 2, window, mode="reflect") - mu_y2
    sigma_xy = convolve(reference * test, window, mode="reflect") - mu_xy
    luminance = (2 * mu_xy + c1) / (mu_x2 + mu_y2 + c1)
    contrast_structure = (2 * sigma_xy + c2) / (sigma_x2 + sigma_y2 + c2)
    return luminance, contrast_structure


def ssim(reference, test, data_range=1.0, window_size=11, sigma=1.5):
    """Mean SSIM index between two images (luma channel for RGB inputs)."""
    reference = ensure_gray(to_float(reference))
    test = ensure_gray(to_float(test))
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    window = _gaussian_window(window_size, sigma)
    luminance, contrast_structure = _ssim_components(reference, test, data_range, window)
    return float(np.mean(luminance * contrast_structure))


def _downsample(image):
    height, width = image.shape
    image = image[: height - height % 2, : width - width % 2]
    return 0.25 * (image[0::2, 0::2] + image[1::2, 0::2] + image[0::2, 1::2] + image[1::2, 1::2])


def ms_ssim(reference, test, data_range=1.0, weights=None):
    """Multi-scale SSIM.

    The number of scales adapts to the image size (each scale requires at
    least a 16-pixel side); weights are renormalised accordingly.
    """
    reference = ensure_gray(to_float(reference))
    test = ensure_gray(to_float(test))
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    weights = np.asarray(weights if weights is not None else _MS_SSIM_WEIGHTS, dtype=np.float64)
    max_scales = int(np.log2(min(reference.shape) / 16)) + 1 if min(reference.shape) >= 16 else 1
    scales = int(np.clip(max_scales, 1, len(weights)))
    weights = weights[:scales]
    weights = weights / weights.sum()
    window = _gaussian_window()
    values = []
    for scale in range(scales):
        luminance, contrast_structure = _ssim_components(reference, test, data_range, window)
        if scale == scales - 1:
            values.append(np.mean(np.clip(luminance * contrast_structure, 0, None)))
        else:
            values.append(np.mean(np.clip(contrast_structure, 0, None)))
            reference = _downsample(reference)
            test = _downsample(test)
    values = np.asarray(values)
    return float(np.prod(values ** weights))
