"""Stateful neural-network modules (layers) built on :mod:`repro.nn.tensor`.

The API intentionally mirrors a small subset of ``torch.nn`` so the Easz
reconstruction network reads like the PyTorch model the paper describes:
``Module``, ``Parameter``, ``Linear``, ``LayerNorm``, ``Dropout``,
``Sequential``, ``GELU``, a simple ``Conv2d`` (used by the learned codec
baselines and the LPIPS-proxy feature extractor) and ``AvgPool2d``.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "GELU",
    "Conv2d",
    "AvgPool2d",
]


class Parameter(Tensor):
    """A :class:`Tensor` flagged as a learnable model parameter."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all layers and models.

    Provides parameter registration/discovery, train/eval mode switching and
    ``state_dict`` (de)serialisation, in the spirit of ``torch.nn.Module``.
    """

    def __init__(self):
        self._parameters = OrderedDict()
        self._modules = OrderedDict()
        self.training = True

    # -- attribute plumbing ------------------------------------------- #
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- parameter access --------------------------------------------- #
    def parameters(self):
        """Yield every :class:`Parameter` in this module and its children."""
        yield from self._parameters.values()
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix=""):
        """Yield ``(name, parameter)`` pairs with dotted hierarchical names."""
        for name, param in self._parameters.items():
            yield (prefix + name, param)
        for child_name, module in self._modules.items():
            yield from module.named_parameters(prefix + child_name + ".")

    def num_parameters(self):
        """Total number of scalar parameters in the module tree."""
        return sum(p.size for p in self.parameters())

    def size_bytes(self, bytes_per_param=4):
        """Approximate serialized model size, assuming fp32 storage.

        Used throughout the reproduction to report model footprints that are
        comparable with the paper's "8.7 MB vs 67 MB" numbers.
        """
        return self.num_parameters() * bytes_per_param

    def zero_grad(self):
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # -- train / eval -------------------------------------------------- #
    def train(self, mode=True):
        """Switch the module (recursively) into training mode."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self):
        """Switch the module (recursively) into evaluation mode."""
        return self.train(False)

    # -- state dict ----------------------------------------------------- #
    def state_dict(self, prefix=""):
        """Return an ``OrderedDict`` mapping parameter names to numpy arrays."""
        state = OrderedDict()
        for name, param in self.named_parameters(prefix):
            state[name] = param.data.copy()
        return state

    def load_state_dict(self, state):
        """Load parameter values from a ``state_dict``-style mapping."""
        own = dict(self.named_parameters())
        missing = [k for k in own if k not in state]
        unexpected = [k for k in state if k not in own]
        if missing or unexpected:
            raise KeyError(f"state_dict mismatch: missing={missing}, unexpected={unexpected}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.shape}")
            param.data = value.copy()
        return self

    # -- call ----------------------------------------------------------- #
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self):
        child_repr = ", ".join(self._modules.keys())
        return f"{self.__class__.__name__}({child_repr})"


class Linear(Module):
    """Affine layer ``y = x Wᵀ + b`` with Xavier-uniform initialisation."""

    def __init__(self, in_features, out_features, bias=True, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x):
        return F.linear(x, self.weight, self.bias)

    def __repr__(self):
        return f"Linear(in={self.in_features}, out={self.out_features})"


class LayerNorm(Module):
    """Layer normalisation over the last dimension with learned affine."""

    def __init__(self, features, eps=1e-5):
        super().__init__()
        self.features = features
        self.eps = eps
        self.weight = Parameter(init.ones((features,)))
        self.bias = Parameter(init.zeros((features,)))

    def forward(self, x):
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)

    def __repr__(self):
        return f"LayerNorm({self.features})"


class Dropout(Module):
    """Inverted dropout; inactive in eval mode."""

    def __init__(self, p=0.1, rng=None):
        super().__init__()
        self.p = p
        self._rng = rng or np.random.default_rng(0)

    def forward(self, x):
        return F.dropout(x, p=self.p, training=self.training, rng=self._rng)

    def __repr__(self):
        return f"Dropout(p={self.p})"


class Sequential(Module):
    """Run child modules in order, feeding each the previous output."""

    def __init__(self, *modules):
        super().__init__()
        self._order = []
        for i, module in enumerate(modules):
            name = f"layer{i}"
            setattr(self, name, module)
            self._order.append(name)

    def forward(self, x):
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def __len__(self):
        return len(self._order)

    def __getitem__(self, index):
        return getattr(self, self._order[index])


class GELU(Module):
    """GELU activation module (tanh approximation)."""

    def forward(self, x):
        return F.gelu(x)


class Conv2d(Module):
    """2-D convolution implemented via im2col + matmul.

    Inputs are ``(batch, channels, height, width)``.  Used by the learned
    codec baselines (MBT / Cheng proxies), the super-resolution baselines and
    the LPIPS-proxy feature extractor.
    """

    def __init__(self, in_channels, out_channels, kernel_size, stride=1, padding=0, bias=True, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kernel_size, kernel_size), rng)
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def _im2col(self, x):
        batch, channels, height, width = x.shape
        k, s = self.kernel_size, self.stride
        out_h = (height - k) // s + 1
        out_w = (width - k) // s + 1
        # Gather index grid once; differentiable because fancy-indexing a
        # Tensor routes gradients through Tensor.__getitem__.
        i0 = np.repeat(np.arange(k), k).reshape(-1, 1)
        j0 = np.tile(np.arange(k), k).reshape(-1, 1)
        i1 = s * np.repeat(np.arange(out_h), out_w).reshape(1, -1)
        j1 = s * np.tile(np.arange(out_w), out_h).reshape(1, -1)
        rows = (i0 + i1).reshape(-1)
        cols = (j0 + j1).reshape(-1)
        # x[:, :, rows, cols] -> (batch, channels, k*k*out_h*out_w)
        patches = x[:, :, rows, cols]
        patches = patches.reshape(batch, channels, k * k, out_h * out_w)
        return patches, out_h, out_w

    def forward(self, x):
        if self.padding:
            p = self.padding
            x = x.pad(((0, 0), (0, 0), (p, p), (p, p)))
        patches, out_h, out_w = self._im2col(x)
        batch = patches.shape[0]
        # (batch, channels*k*k, positions)
        patches = patches.reshape(batch, self.in_channels * self.kernel_size ** 2, out_h * out_w)
        weight = self.weight.reshape(self.out_channels, self.in_channels * self.kernel_size ** 2)
        out = weight @ patches  # (batch, out_channels, positions) via broadcasting
        out = out.reshape(batch, self.out_channels, out_h, out_w)
        if self.bias is not None:
            out = out + self.bias.reshape(1, self.out_channels, 1, 1)
        return out

    def __repr__(self):
        return (f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
                f"s={self.stride}, p={self.padding})")


class AvgPool2d(Module):
    """Average pooling with square window and stride equal to the window."""

    def __init__(self, kernel_size):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x):
        k = self.kernel_size
        batch, channels, height, width = x.shape
        out_h, out_w = height // k, width // k
        x = x[:, :, : out_h * k, : out_w * k]
        x = x.reshape(batch, channels, out_h, k, out_w, k)
        return x.mean(axis=(3, 5))


