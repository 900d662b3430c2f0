"""``repro.datasets`` — deterministic synthetic stand-ins for Kodak, CLIC and CIFAR-10.

:mod:`repro.datasets.synthetic` explains why synthetic data is used and
what properties it preserves for the paper's experiments.
"""

from .base import ImageDataset
from .cifar import CifarLikeDataset
from .clic import ClicDataset
from .kodak import KodakDataset
from .loaders import PatchBatcher, extract_patches
from .synthetic import SyntheticImageGenerator

__all__ = [
    "ImageDataset",
    "SyntheticImageGenerator",
    "KodakDataset",
    "ClicDataset",
    "CifarLikeDataset",
    "PatchBatcher",
    "extract_patches",
]
