"""``repro.nn`` — a compact numpy neural-network framework.

This package stands in for PyTorch (unavailable offline) and provides
everything the Easz reproduction needs: a reverse-mode autograd tensor,
layers (Linear, LayerNorm, Conv2d, ...), multi-head attention, transformer
blocks, optimisers (SGD/Adam/AdamW) and checkpoint (de)serialisation.
"""

from . import functional, init
from .attention import MultiHeadSelfAttention
from .layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    GELU,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    Sequential,
)
from .optim import Adam, AdamW, Optimizer, SGD, clip_grad_norm
from .schedulers import (
    ConstantLR,
    EarlyStopping,
    ExponentialLR,
    ExponentialMovingAverage,
    LRScheduler,
    ReduceLROnPlateau,
    StepLR,
    WarmupCosineLR,
)
from .serialization import load_checkpoint, save_checkpoint, state_dict_num_bytes
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad
from .transformer import FeedForward, TransformerBlock, TransformerStack

__all__ = [
    "functional",
    "init",
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Parameter",
    "Linear",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "GELU",
    "Conv2d",
    "AvgPool2d",
    "MultiHeadSelfAttention",
    "FeedForward",
    "TransformerBlock",
    "TransformerStack",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "LRScheduler",
    "ConstantLR",
    "StepLR",
    "ExponentialLR",
    "WarmupCosineLR",
    "ReduceLROnPlateau",
    "EarlyStopping",
    "ExponentialMovingAverage",
    "save_checkpoint",
    "load_checkpoint",
    "state_dict_num_bytes",
]
