"""Experiment runner: score a codec's reconstructions on an image or a dataset.

These functions are the shared machinery behind the benchmark files in
``benchmarks/`` — each benchmark composes them into the specific table or
figure it regenerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..metrics import brisque, ms_ssim, mse, pi, psnr, ssim, tres

__all__ = [
    "NO_REFERENCE_METRICS",
    "FULL_REFERENCE_METRICS",
    "CodecEvaluation",
    "evaluate_codec",
    "evaluate_codec_on_dataset",
]

#: No-reference metric functions keyed by the names used in the paper.
NO_REFERENCE_METRICS = {"brisque": brisque, "pi": pi, "tres": tres}

#: Full-reference metric functions keyed by the names used in the paper.
FULL_REFERENCE_METRICS = {"psnr": psnr, "ssim": ssim, "ms_ssim": ms_ssim, "mse": mse}


@dataclass
class CodecEvaluation:
    """Aggregated scores of one codec over a set of images."""

    codec_name: str
    bpp: float
    scores: dict = field(default_factory=dict)
    num_images: int = 0

    def row(self, metric_names):
        """Table row: codec, bpp, then the requested metrics in order."""
        return [self.codec_name, self.bpp] + [self.scores.get(m, float("nan"))
                                              for m in metric_names]


def evaluate_codec(codec, image, no_reference=("brisque", "pi", "tres"),
                   full_reference=("psnr", "ms_ssim", "mse")):
    """Compress/decompress one image and score the reconstruction.

    Returns ``(scores, bpp)`` where ``scores`` maps metric names to values.
    """
    reconstruction, compressed = codec.roundtrip(image)
    scores = {}
    for name in no_reference:
        scores[name] = float(NO_REFERENCE_METRICS[name](reconstruction))
    for name in full_reference:
        scores[name] = float(FULL_REFERENCE_METRICS[name](image, reconstruction))
    return scores, compressed.bpp()


def evaluate_codec_on_dataset(codec, dataset, max_images=None,
                              no_reference=("brisque", "pi", "tres"),
                              full_reference=("psnr", "ms_ssim", "mse")):
    """Average :func:`evaluate_codec` over (a subset of) a dataset."""
    count = len(dataset) if max_images is None else min(max_images, len(dataset))
    accumulated = {}
    bpps = []
    for index in range(count):
        scores, bpp = evaluate_codec(codec, dataset[index], no_reference, full_reference)
        bpps.append(bpp)
        for name, value in scores.items():
            accumulated.setdefault(name, []).append(value)
    averaged = {name: float(np.mean(values)) for name, values in accumulated.items()}
    return CodecEvaluation(
        codec_name=codec.name,
        bpp=float(np.mean(bpps)),
        scores=averaged,
        num_images=count,
    )


