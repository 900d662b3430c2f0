"""Functional (stateless) neural-network operations.

These operate on :class:`repro.nn.tensor.Tensor` objects and compose the
building blocks used by :mod:`repro.nn.layers`: activations, normalisation,
losses and the scaled dot-product attention primitive used by the Easz
reconstruction transformer.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "relu",
    "gelu",
    "sigmoid",
    "tanh",
    "softmax",
    "layer_norm",
    "dropout",
    "linear",
    "mse_loss",
    "l1_loss",
    "smooth_l1_loss",
    "cross_entropy",
    "scaled_dot_product_attention",
]


def relu(x):
    """Rectified linear unit activation."""
    return as_tensor(x).relu()


def gelu(x):
    """Gaussian error linear unit activation (tanh approximation)."""
    return as_tensor(x).gelu()


def sigmoid(x):
    """Logistic sigmoid activation."""
    return as_tensor(x).sigmoid()


def tanh(x):
    """Hyperbolic tangent activation."""
    return as_tensor(x).tanh()


def softmax(x, axis=-1):
    """Softmax along ``axis``."""
    return as_tensor(x).softmax(axis=axis)


def layer_norm(x, weight=None, bias=None, eps=1e-5):
    """Layer normalisation over the last dimension.

    Parameters
    ----------
    x:
        Input tensor ``(..., features)``.
    weight, bias:
        Optional learned affine parameters of shape ``(features,)``.
    eps:
        Numerical stabiliser added to the variance.
    """
    x = as_tensor(x)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normed = (x - mu) * ((var + eps) ** -0.5)
    if weight is not None:
        normed = normed * weight
    if bias is not None:
        normed = normed + bias
    return normed


def dropout(x, p=0.1, training=True, rng=None):
    """Inverted dropout: zero a fraction ``p`` of elements during training."""
    x = as_tensor(x)
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    return x * Tensor(mask)


def linear(x, weight, bias=None):
    """Affine map ``x @ weight.T + bias`` (PyTorch weight layout).

    Inputs with more than two dimensions are flattened to a single 2-D
    matmul and reshaped back: one large BLAS GEMM instead of a stack of
    per-batch-element GEMMs, which is dramatically faster for the
    (batch, tokens, features) tensors the reconstruction transformer feeds
    through every projection.
    """
    x = as_tensor(x)
    if x.ndim > 2:
        lead = x.shape[:-1]
        out = x.reshape(-1, x.shape[-1]) @ weight.transpose()
        out = out.reshape(lead + (weight.shape[0],))
    else:
        out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def mse_loss(prediction, target):
    """Mean squared error between ``prediction`` and ``target``."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def l1_loss(prediction, target):
    """Mean absolute error between ``prediction`` and ``target``."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    return (prediction - target).abs().mean()


def smooth_l1_loss(prediction, target, beta=1.0):
    """Huber / smooth-L1 loss with transition point ``beta``."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    diff = (prediction - target).abs()
    quadratic = (diff * diff) * (0.5 / beta)
    linear_part = diff - 0.5 * beta
    # Select branch with a non-differentiable mask on |diff|.
    mask = Tensor((diff.data < beta).astype(np.float64))
    return (quadratic * mask + linear_part * (1.0 - mask)).mean()


def cross_entropy(logits, targets):
    """Cross-entropy of integer class ``targets`` given unnormalised ``logits``.

    ``logits`` has shape ``(batch, classes)`` and ``targets`` is an integer
    array of shape ``(batch,)``.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets.data if isinstance(targets, Tensor) else targets, dtype=np.int64)
    logp = logits.log_softmax(axis=-1)
    batch = logits.shape[0]
    picked = logp[np.arange(batch), targets]
    return -picked.mean()


def scaled_dot_product_attention(query, key, value, mask=None):
    """Attention(Q, K, V) = softmax(Q Kᵀ / sqrt(d)) V.

    Shapes follow the multi-head convention ``(..., tokens, head_dim)``.

    Parameters
    ----------
    mask:
        Optional additive mask broadcastable to ``(..., tokens_q, tokens_k)``;
        positions holding ``-inf`` (or a large negative value) are ignored.

    Returns
    -------
    (output, attention_weights)
    """
    query = as_tensor(query)
    key = as_tensor(key)
    value = as_tensor(value)
    d = query.shape[-1]
    scores = (query @ key.transpose()) * (1.0 / np.sqrt(d))
    if mask is not None:
        scores = scores + as_tensor(mask)
    weights = scores.softmax(axis=-1)
    return weights @ value, weights
