"""``repro.sr`` — super-resolution baselines used in the paper's Table I."""

from .base import SuperResolver
from .models import (
    BicubicUpscaler,
    BsrganProxy,
    RealEsrganProxy,
    SR_BASELINES,
    SwinIRProxy,
)

__all__ = [
    "SuperResolver",
    "BicubicUpscaler",
    "SwinIRProxy",
    "RealEsrganProxy",
    "BsrganProxy",
    "SR_BASELINES",
]
