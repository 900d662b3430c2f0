"""``repro.codecs`` — image compressors used as Easz substrates and baselines.

Contains a from-scratch baseline JPEG, a BPG/HEVC-intra proxy, learned-codec
proxies for the Ballé factorized/hyperprior, MBT (Minnen 2018) and
Cheng-anchor (Cheng 2020) baselines, a lossless PNG-style codec, a
bpp-targeted quality selector and a registry for building codecs by name.
"""

from .balle import BalleFactorizedCodec, BalleHyperpriorCodec
from .base import Codec, ComplexityProfile, CompressedImage
from .bpg import BpgCodec
from .cheng import ChengCodec
from .jpeg import JpegCodec
from .mbt import MbtCodec
from .neural import LearnedTransformCodec
from .png import PngCodec
from .rate_control import QualitySelection, QualitySelector, select_quality_for_bpp
from .registry import (
    CODEC_CLASSES,
    QUALITY_GRIDS,
    available_codecs,
    create_codec,
    quality_grid,
)

__all__ = [
    "Codec",
    "CompressedImage",
    "ComplexityProfile",
    "JpegCodec",
    "BpgCodec",
    "MbtCodec",
    "ChengCodec",
    "BalleFactorizedCodec",
    "BalleHyperpriorCodec",
    "LearnedTransformCodec",
    "PngCodec",
    "QualitySelection",
    "QualitySelector",
    "select_quality_for_bpp",
    "CODEC_CLASSES",
    "QUALITY_GRIDS",
    "available_codecs",
    "create_codec",
    "quality_grid",
]
