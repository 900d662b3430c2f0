"""Basic image utilities shared across the whole reproduction.

Images are represented as numpy float64 arrays in ``[0, 1]`` with shape
``(height, width)`` for grayscale or ``(height, width, 3)`` for RGB.  This
module provides dtype conversion, colour-space transforms, padding and
resampling helpers that the codecs, metrics, datasets and Easz core all rely
on (the paper uses Pillow/torchvision for this, which are not available).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "to_float",
    "to_uint8",
    "is_color",
    "ensure_color",
    "ensure_gray",
    "rgb_to_ycbcr",
    "ycbcr_to_rgb",
    "rgb_to_gray",
    "pad_to_multiple",
    "resize_bilinear",
    "resize_bicubic",
    "downsample_box",
    "image_num_pixels",
]


def to_float(image):
    """Convert an image to float64 in ``[0, 1]``.

    Integer inputs are assumed to be 8-bit; float inputs are clipped.
    """
    image = np.asarray(image)
    if image.dtype.kind in "ui":
        return image.astype(np.float64) / 255.0
    return np.clip(image.astype(np.float64), 0.0, 1.0)


def to_uint8(image):
    """Convert a float image in ``[0, 1]`` to uint8 with rounding."""
    image = np.asarray(image, dtype=np.float64)
    return np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)


def is_color(image):
    """Return ``True`` if the image has a trailing 3-channel axis."""
    image = np.asarray(image)
    return image.ndim == 3 and image.shape[-1] == 3


def ensure_color(image):
    """Return a 3-channel view of the image (replicating grayscale)."""
    image = np.asarray(image)
    if is_color(image):
        return image
    if image.ndim == 2:
        return np.repeat(image[..., None], 3, axis=-1)
    raise ValueError(f"unsupported image shape {image.shape}")


def ensure_gray(image):
    """Return a single-channel view of the image (luma for RGB input)."""
    image = np.asarray(image)
    if image.ndim == 2:
        return image
    if is_color(image):
        return rgb_to_gray(image)
    raise ValueError(f"unsupported image shape {image.shape}")


def rgb_to_gray(image):
    """ITU-R BT.601 luma from an RGB image."""
    image = np.asarray(image, dtype=np.float64)
    return image[..., 0] * 0.299 + image[..., 1] * 0.587 + image[..., 2] * 0.114


def rgb_to_ycbcr(image):
    """Convert RGB in ``[0, 1]`` to YCbCr in ``[0, 1]`` (JPEG convention)."""
    image = np.asarray(image, dtype=np.float64)
    r, g, b = image[..., 0], image[..., 1], image[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 0.5
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 0.5
    return np.stack([y, cb, cr], axis=-1)


def ycbcr_to_rgb(image):
    """Convert YCbCr in ``[0, 1]`` back to RGB in ``[0, 1]``."""
    image = np.asarray(image, dtype=np.float64)
    y, cb, cr = image[..., 0], image[..., 1] - 0.5, image[..., 2] - 0.5
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(np.stack([r, g, b], axis=-1), 0.0, 1.0)


def pad_to_multiple(image, multiple, mode="edge"):
    """Pad height/width up to the next multiple of ``multiple``.

    Returns ``(padded_image, original_shape)`` so callers can crop back.
    """
    image = np.asarray(image)
    height, width = image.shape[:2]
    pad_h = (-height) % multiple
    pad_w = (-width) % multiple
    if pad_h == 0 and pad_w == 0:
        return image, image.shape
    pad_spec = [(0, pad_h), (0, pad_w)] + [(0, 0)] * (image.ndim - 2)
    return np.pad(image, pad_spec, mode=mode), image.shape


def _resample_axis(length, new_length):
    """Source sampling coordinates for resizing one axis (align-corners off)."""
    if new_length == 1:
        return np.zeros(1)
    scale = length / new_length
    return (np.arange(new_length) + 0.5) * scale - 0.5


def resize_bilinear(image, new_height, new_width):
    """Bilinear resampling to ``(new_height, new_width)``."""
    image = np.asarray(image, dtype=np.float64)
    height, width = image.shape[:2]
    ys = np.clip(_resample_axis(height, new_height), 0, height - 1)
    xs = np.clip(_resample_axis(width, new_width), 0, width - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, height - 1)
    x1 = np.minimum(x0 + 1, width - 1)
    wy = (ys - y0).reshape(-1, 1)
    wx = (xs - x0).reshape(1, -1)
    if image.ndim == 3:
        wy = wy[..., None]
        wx = wx[..., None]
    # the same products and sums in the same order either way; only the
    # gather order follows the shapes.  Upsampling interpolates each source
    # row across the columns once, then picks rows; downsampling picks rows
    # first, so it never interpolates a row it drops
    if new_height > height:
        across = image[:, x0] * (1 - wx) + image[:, x1] * wx
        top, bottom = across[y0], across[y1]
    else:
        rows = image[y0]
        top = rows[:, x0] * (1 - wx) + rows[:, x1] * wx
        rows = image[y1]
        bottom = rows[:, x0] * (1 - wx) + rows[:, x1] * wx
    return top * (1 - wy) + bottom * wy


def _cubic_kernel(t, a=-0.5):
    """Keys cubic convolution kernel used by bicubic resampling."""
    t = np.abs(t)
    t2 = t * t
    t3 = t2 * t
    out = np.zeros_like(t)
    mask1 = t <= 1
    mask2 = (t > 1) & (t < 2)
    out[mask1] = (a + 2) * t3[mask1] - (a + 3) * t2[mask1] + 1
    out[mask2] = a * t3[mask2] - 5 * a * t2[mask2] + 8 * a * t[mask2] - 4 * a
    return out


def _bicubic_axis(image, new_length, axis):
    image = np.moveaxis(np.asarray(image, dtype=np.float64), axis, 0)
    length = image.shape[0]
    coords = _resample_axis(length, new_length)
    base = np.floor(coords).astype(int)
    out_shape = (new_length,) + image.shape[1:]
    out = np.zeros(out_shape)
    weight_total = np.zeros(new_length)
    for offset in range(-1, 3):
        idx = np.clip(base + offset, 0, length - 1)
        w = _cubic_kernel(coords - (base + offset))
        weight_total += w
        out += image[idx] * w.reshape((-1,) + (1,) * (image.ndim - 1))
    out /= weight_total.reshape((-1,) + (1,) * (image.ndim - 1))
    return np.moveaxis(out, 0, axis)


def resize_bicubic(image, new_height, new_width):
    """Bicubic resampling to ``(new_height, new_width)`` (Keys kernel)."""
    out = _bicubic_axis(image, new_height, axis=0)
    out = _bicubic_axis(out, new_width, axis=1)
    return np.clip(out, 0.0, 1.0) if np.asarray(image).max() <= 1.0 + 1e-9 else out


def downsample_box(image, factor):
    """Box-filter downsampling by an integer ``factor`` (anti-aliased)."""
    image = np.asarray(image, dtype=np.float64)
    height, width = image.shape[:2]
    new_h, new_w = height // factor, width // factor
    image = image[: new_h * factor, : new_w * factor, ...]
    if image.ndim == 3:
        reshaped = image.reshape(new_h, factor, new_w, factor, image.shape[2])
        return reshaped.mean(axis=(1, 3))
    reshaped = image.reshape(new_h, factor, new_w, factor)
    return reshaped.mean(axis=(1, 3))


def image_num_pixels(image_or_shape):
    """Number of spatial pixels (height × width) of an image or shape tuple."""
    if isinstance(image_or_shape, np.ndarray):
        shape = image_or_shape.shape
    else:
        shape = tuple(image_or_shape)
    return int(shape[0]) * int(shape[1])
