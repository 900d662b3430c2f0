"""Training loops for the Easz reconstruction network (paper Section III-B/IV-A).

Two phases mirror the paper:

* **offline pre-training** on CIFAR-like 32×32 patches with randomly sampled
  erase masks (default erase ratio 0.25), loss ``L1 + λ·LPIPS`` (Eq. 2,
  λ = 0.3), AdamW with lr 2.8e-4 and weight decay 0.05;
* **fine-tuning** on the target dataset (Kodak-like), identical loss, lower
  step count — the experiment behind Fig. 7d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..datasets.loaders import PatchBatcher
from ..metrics.lpips import PerceptualLoss
from .config import EaszConfig
from .patchify import patch_to_subpatches, subpatches_to_tokens
from .reconstruction import EaszReconstructor
from .sampler import RowConditionalSampler

__all__ = ["TrainingResult", "EaszTrainer", "reconstruction_loss"]


@dataclass
class TrainingResult:
    """Summary of one training run."""

    losses: list = field(default_factory=list)
    l1_losses: list = field(default_factory=list)
    perceptual_losses: list = field(default_factory=list)
    steps: int = 0

    @property
    def final_loss(self):
        """Loss value at the last recorded step (``nan`` if never trained)."""
        return self.losses[-1] if self.losses else float("nan")

def reconstruction_loss(prediction, target, patch_size, loss_lambda=0.3,
                        perceptual=None, mask=None, erased_weight=1.0, kept_weight=0.1):
    """Paper Eq. 2: ``L1(x, y) + λ · LPIPS(x, y)`` on token batches.

    ``prediction`` and ``target`` are tensors/arrays of shape
    ``(batch, tokens, token_dim)``; the perceptual term is evaluated on the
    re-assembled patches.  When ``mask`` (1 = kept, 0 = erased) is given the
    L1 term is re-weighted so the erased positions — the only ones the
    receiver actually uses — dominate the objective (``erased_weight`` vs
    ``kept_weight``), in the spirit of masked-auto-encoder training.
    Returns ``(total, l1, perceptual)`` tensors.
    """
    prediction = nn.as_tensor(prediction)
    target = nn.as_tensor(target)
    if mask is not None:
        flat_mask = np.asarray(mask, dtype=np.float64).reshape(1, -1, 1)
        weights = kept_weight * flat_mask + erased_weight * (1.0 - flat_mask)
        weights = weights / weights.mean()
        l1 = ((prediction - target).abs() * nn.Tensor(weights)).mean()
    else:
        l1 = (prediction - target).abs().mean()
    if loss_lambda <= 0 or perceptual is None:
        return l1, l1, nn.Tensor(0.0)
    batch, tokens, token_dim = prediction.shape
    grid = int(np.sqrt(tokens))
    b = int(np.sqrt(token_dim))
    # (batch, grid, grid, b, b) -> (batch, grid*b, grid*b)
    def to_patches(x):
        x = x.reshape(batch, grid, grid, b, b)
        x = x.transpose(0, 1, 3, 2, 4)
        return x.reshape(batch, grid * b, grid * b)
    perceptual_term = perceptual(to_patches(prediction), to_patches(target))
    total = l1 + loss_lambda * perceptual_term
    return total, l1, perceptual_term


class EaszTrainer:
    """Drives pre-training and fine-tuning of an :class:`EaszReconstructor`."""

    def __init__(self, model=None, config=None, use_perceptual_loss=True, seed=None):
        self.config = config or (model.config if model is not None else EaszConfig())
        self.model = model or EaszReconstructor(self.config)
        self.use_perceptual_loss = use_perceptual_loss and self.config.loss_lambda > 0
        self.perceptual = PerceptualLoss() if self.use_perceptual_loss else None
        self.optimizer = nn.AdamW(
            self.model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self._rng = np.random.default_rng(self.config.seed if seed is None else seed)

    # ------------------------------------------------------------------ #
    def _random_mask(self):
        """Random-ratio row-conditional mask used for robust pre-training."""
        cfg = self.config
        max_per_row = max(1, cfg.grid_size // 2)
        erase_per_row = int(self._rng.integers(1, max_per_row + 1))
        sampler = RowConditionalSampler(
            cfg.grid_size, erase_per_row,
            cfg.intra_row_min_distance if erase_per_row * (cfg.intra_row_min_distance + 1) <= cfg.grid_size else 0,
            cfg.inter_row_min_distance,
        )
        return sampler.sample_mask(rng=self._rng)

    def _patches_to_tokens(self, patches):
        cfg = self.config
        return np.stack([
            subpatches_to_tokens(patch_to_subpatches(patch, cfg.subpatch_size))
            for patch in patches
        ])

    def train_on_batches(self, batch_iterable, result=None, log_every=0):
        """Run one optimisation step per batch of ``(batch, n, n)`` patches."""
        cfg = self.config
        result = result or TrainingResult()
        self.model.train()
        for patches in batch_iterable:
            patches = np.asarray(patches, dtype=np.float64)
            if patches.shape[1] != cfg.patch_size:
                raise ValueError(
                    f"training patches must be {cfg.patch_size}x{cfg.patch_size}, "
                    f"got {patches.shape[1:]}"
                )
            tokens = self._patches_to_tokens(patches)
            mask = self._random_mask()
            self.optimizer.zero_grad()
            prediction = self.model(tokens, mask)
            total, l1, perceptual = reconstruction_loss(
                prediction, tokens, cfg.patch_size,
                loss_lambda=cfg.loss_lambda if self.use_perceptual_loss else 0.0,
                perceptual=self.perceptual,
                mask=mask,
            )
            total.backward()
            nn.clip_grad_norm(self.model.parameters(), 5.0)
            self.optimizer.step()
            result.losses.append(float(total.data))
            result.l1_losses.append(float(l1.data))
            result.perceptual_losses.append(float(perceptual.data))
            result.steps += 1
            if log_every and result.steps % log_every == 0:
                print(f"step {result.steps}: loss={result.losses[-1]:.5f}")
        self.model.eval()
        return result

    # ------------------------------------------------------------------ #
    def pretrain(self, dataset, steps=100, batch_size=None, seed=0, log_every=0):
        """Offline pre-training on a patch dataset (CIFAR-like by default)."""
        cfg = self.config
        batcher = PatchBatcher(dataset, patch_size=cfg.patch_size,
                               batch_size=batch_size or cfg.batch_size, seed=seed)
        return self.train_on_batches(batcher.batches(steps), log_every=log_every)

    def finetune(self, dataset, steps=50, batch_size=None, seed=1, log_every=0):
        """Fine-tune on the evaluation dataset (paper Fig. 7d)."""
        return self.pretrain(dataset, steps=steps, batch_size=batch_size,
                             seed=seed, log_every=log_every)

    # ------------------------------------------------------------------ #
    def evaluate_mse(self, patches, mask):
        """Reconstruction MSE on erased positions only, for a fixed mask."""
        cfg = self.config
        tokens = self._patches_to_tokens(np.asarray(patches, dtype=np.float64))
        reconstructed = self.model.reconstruct_tokens(tokens, mask, keep_original=False)
        flat_mask = np.asarray(mask, dtype=bool).reshape(-1)
        erased = ~flat_mask
        if not erased.any():
            return 0.0
        diff = reconstructed[:, erased, :] - tokens[:, erased, :]
        return float(np.mean(diff ** 2))
