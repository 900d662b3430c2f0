"""First-order optimisers for :mod:`repro.nn` models.

The paper trains the Easz reconstruction transformer with a learning rate of
2.8e-4 and weight decay of 0.05 — the AdamW defaults below mirror that
configuration.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam", "AdamW", "clip_grad_norm"]


def clip_grad_norm(parameters, max_norm):
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging training stability).
    """
    parameters = [p for p in parameters if p.grad is not None]
    total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in parameters))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in parameters:
            p.grad = p.grad * scale
    return total


class Optimizer:
    """Base optimiser: holds parameters and implements ``zero_grad``."""

    def __init__(self, parameters, lr):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = lr

    def zero_grad(self):
        """Clear gradients on all tracked parameters."""
        for p in self.parameters:
            p.zero_grad()

    def step(self):  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, parameters, lr=1e-2, momentum=0.0, weight_decay=0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        """Apply one SGD update to every parameter with a gradient."""
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                update = v
            else:
                update = grad
            p.data = p.data - self.lr * update


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) with optional L2 regularisation."""

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        """Apply one Adam update to every parameter with a gradient."""
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019).

    Defaults match the paper's training setting: ``lr=2.8e-4``,
    ``weight_decay=0.05``.
    """

    def __init__(self, parameters, lr=2.8e-4, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.05):
        super().__init__(parameters, lr=lr, betas=betas, eps=eps, weight_decay=0.0)
        self.decoupled_weight_decay = weight_decay

    def step(self):
        """Adam update followed by decoupled weight decay."""
        if self.decoupled_weight_decay:
            for p in self.parameters:
                if p.grad is not None:
                    p.data = p.data * (1.0 - self.lr * self.decoupled_weight_decay)
        super().step()


