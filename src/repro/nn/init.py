"""Weight initialisation schemes for :mod:`repro.nn` layers.

All initialisers take an explicit :class:`numpy.random.Generator` so every
model in the reproduction is exactly reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "xavier_uniform",
    "kaiming_uniform",
    "kaiming_normal",
    "normal",
    "zeros",
    "ones",
    "truncated_normal",
]


def _fan_in_out(shape):
    """Compute (fan_in, fan_out) for a weight of the given shape."""
    if len(shape) < 1:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_out, fan_in = shape[0], shape[1]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return fan_in * receptive, fan_out * receptive


def xavier_uniform(shape, rng, gain=1.0):
    """Glorot/Xavier uniform initialisation ``U(-a, a)``."""
    fan_in, fan_out = _fan_in_out(shape)
    a = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def kaiming_uniform(shape, rng, nonlinearity="relu"):
    """He/Kaiming uniform initialisation for ReLU-family activations."""
    fan_in, _ = _fan_in_out(shape)
    gain = np.sqrt(2.0) if nonlinearity in ("relu", "gelu") else 1.0
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def kaiming_normal(shape, rng, nonlinearity="relu"):
    """He/Kaiming normal initialisation for ReLU-family activations."""
    fan_in, _ = _fan_in_out(shape)
    gain = np.sqrt(2.0) if nonlinearity in ("relu", "gelu") else 1.0
    std = gain / np.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape)


def normal(shape, rng, std=0.02, mean=0.0):
    """Plain Gaussian initialisation (ViT-style ``std=0.02`` default)."""
    return rng.normal(mean, std, size=shape)


def truncated_normal(shape, rng, std=0.02, mean=0.0, bound=2.0):
    """Gaussian initialisation resampled to lie within ``bound`` std-devs."""
    values = rng.normal(mean, std, size=shape)
    limit = bound * std
    out_of_range = np.abs(values - mean) > limit
    while np.any(out_of_range):
        values[out_of_range] = rng.normal(mean, std, size=int(out_of_range.sum()))
        out_of_range = np.abs(values - mean) > limit
    return values


def zeros(shape, rng=None):
    """All-zero initialisation (``rng`` accepted for API uniformity)."""
    return np.zeros(shape, dtype=np.float64)


def ones(shape, rng=None):
    """All-one initialisation (``rng`` accepted for API uniformity)."""
    return np.ones(shape, dtype=np.float64)
