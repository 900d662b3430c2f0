"""Common codec interface used by every compressor in the reproduction.

A codec turns a float image in ``[0, 1]`` into a :class:`CompressedImage`
(payload bytes + metadata) and back.  Each codec also exposes a
:class:`ComplexityProfile` describing its computational cost, which the
edge/server testbed simulation (:mod:`repro.edge`) uses to estimate latency,
power and memory on a given device — this is how the paper's Fig. 1 / Fig. 6
hardware measurements are reproduced without the physical Jetson TX2.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from ..image import image_num_pixels

__all__ = ["CompressedImage", "ComplexityProfile", "Codec"]


@dataclass
class CompressedImage:
    """The output of :meth:`Codec.compress`.

    Attributes
    ----------
    payload:
        The encoded bitstream.
    original_shape:
        Shape of the image fed to the encoder (used for BPP accounting and
        decoding).
    codec_name:
        Name of the codec that produced the payload.
    metadata:
        Codec-specific side information needed to decode (kept small; its
        size is included in :attr:`num_bytes` when ``count_metadata=True``).
    extra_bytes:
        Size of side information that must travel with the payload but is
        not part of ``payload`` itself (e.g. the Easz erase mask).
    """

    payload: bytes
    original_shape: tuple
    codec_name: str = "unknown"
    metadata: dict = field(default_factory=dict)
    extra_bytes: int = 0

    @property
    def num_bytes(self):
        """Total transmitted size in bytes (payload + declared side info)."""
        return len(self.payload) + self.extra_bytes

    @property
    def num_bits(self):
        """Total transmitted size in bits."""
        return 8 * self.num_bytes

    def bpp(self, reference_shape=None):
        """Bits per pixel relative to ``reference_shape`` (default: original).

        The Easz pipeline computes BPP against the *original* (pre-erase)
        image so that file-saving from erasing is visible, exactly as the
        paper reports it.
        """
        shape = reference_shape if reference_shape is not None else self.original_shape
        return self.num_bits / image_num_pixels(shape)


@dataclass
class ComplexityProfile:
    """Computational footprint of one codec stage on one image.

    All quantities are per-image for the shape passed to
    :meth:`Codec.complexity`.  ``macs`` counts multiply–accumulate
    operations; ``model_bytes`` is the size of weights that must be resident
    in memory; ``working_memory_bytes`` approximates peak activation /
    buffer memory; ``uses_gpu`` marks stages the paper runs on the GPU.
    """

    macs: float
    model_bytes: float = 0.0
    working_memory_bytes: float = 0.0
    uses_gpu: bool = False

    def scaled(self, factor):
        """Return a copy with ``macs`` and working memory scaled by ``factor``."""
        return ComplexityProfile(
            macs=self.macs * factor,
            model_bytes=self.model_bytes,
            working_memory_bytes=self.working_memory_bytes * factor,
            uses_gpu=self.uses_gpu,
        )


class Codec(ABC):
    """Abstract base class for image compressors.

    Sub-classes implement :meth:`compress` / :meth:`decompress` and describe
    their computational cost via :meth:`encode_complexity` /
    :meth:`decode_complexity`.
    """

    #: Human-readable codec name used in tables and figures.
    name = "codec"
    #: Whether the codec is a learned (neural) compressor.
    is_neural = False

    @abstractmethod
    def compress(self, image):
        """Encode a float image in ``[0, 1]`` into a :class:`CompressedImage`."""

    @abstractmethod
    def decompress(self, compressed):
        """Decode a :class:`CompressedImage` back into a float image."""

    def roundtrip(self, image):
        """Compress then decompress; returns ``(reconstruction, compressed)``."""
        compressed = self.compress(image)
        return self.decompress(compressed), compressed

    # -- complexity metadata (overridden by concrete codecs) ------------- #
    def encode_complexity(self, shape):
        """:class:`ComplexityProfile` of encoding an image of ``shape``."""
        pixels = image_num_pixels(shape)
        return ComplexityProfile(macs=50.0 * pixels)

    def decode_complexity(self, shape):
        """:class:`ComplexityProfile` of decoding an image of ``shape``."""
        pixels = image_num_pixels(shape)
        return ComplexityProfile(macs=50.0 * pixels)

    # -- conveniences ----------------------------------------------------- #
    def __repr__(self):
        return f"{self.__class__.__name__}(name={self.name!r})"
