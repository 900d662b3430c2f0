"""Frame-sequence (streaming) support for Easz.

The camera deployments that motivate the paper produce *streams* of frames,
not single stills.  Two stream-level questions fall out of the Easz design:

* **mask refresh** — regenerating the erase mask every frame diversifies
  which sub-patches are erased over time (no region is permanently degraded),
  at the cost of transmitting a fresh mask/seed; holding one mask amortises
  the side channel but concentrates erasure;
* **temporal consistency** — independently reconstructed frames can flicker
  in the erased regions; the flicker index quantifies it so the refresh
  policy can be chosen deliberately.

:class:`EaszStreamEncoder` / :class:`EaszStreamDecoder` wrap the single-image
pipeline for a sequence and a :class:`StreamReport` aggregates rate, quality
and flicker statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..image import to_float
from ..metrics.psnr import psnr
from .config import EaszConfig
from .pipeline import EaszDecoder, EaszEncoder

__all__ = [
    "StreamReport",
    "EaszStreamEncoder",
    "EaszStreamDecoder",
    "flicker_index",
    "encode_decode_stream",
]


def flicker_index(original_frames, reconstructed_frames):
    """Excess frame-to-frame variation introduced by the pipeline.

    Defined as the mean absolute temporal difference of the reconstruction
    minus that of the original sequence (0 = the reconstruction flickers no
    more than the content itself; larger = visible pumping in erased areas).
    """
    original_frames = [np.asarray(frame, dtype=np.float64) for frame in original_frames]
    reconstructed_frames = [np.asarray(frame, dtype=np.float64) for frame in reconstructed_frames]
    if len(original_frames) != len(reconstructed_frames):
        raise ValueError("original and reconstructed sequences differ in length")
    if len(original_frames) < 2:
        return 0.0
    original_motion = np.mean([np.abs(b - a).mean()
                               for a, b in zip(original_frames, original_frames[1:])])
    reconstructed_motion = np.mean([np.abs(b - a).mean()
                                    for a, b in zip(reconstructed_frames, reconstructed_frames[1:])])
    return float(max(0.0, reconstructed_motion - original_motion))


@dataclass
class StreamReport:
    """Aggregate statistics of one encoded/decoded frame sequence."""

    num_frames: int
    mean_bpp: float
    mean_psnr_db: float
    flicker: float
    mask_refreshes: int
    mask_bytes_total: int
    per_frame: list = field(default_factory=list)

class EaszStreamEncoder:
    """Edge-side encoder for a frame sequence with a mask-refresh policy.

    Parameters
    ----------
    config, base_codec:
        As for :class:`repro.core.EaszEncoder`.
    mask_refresh_interval:
        Regenerate the erase mask every ``k`` frames (1 = every frame,
        0 or ``None`` = generate once and reuse for the whole stream).
    """

    def __init__(self, config=None, base_codec=None, mask_refresh_interval=1, seed=0):
        self.config = config or EaszConfig()
        self.encoder = EaszEncoder(self.config, base_codec, seed=seed)
        self.mask_refresh_interval = int(mask_refresh_interval or 0)
        self._current_mask = None
        self._frames_encoded = 0
        self.mask_refreshes = 0

    def _mask_for_next_frame(self):
        needs_refresh = (
            self._current_mask is None
            or (self.mask_refresh_interval > 0
                and self._frames_encoded % self.mask_refresh_interval == 0)
        )
        if needs_refresh:
            self._current_mask = self.encoder.generate_mask()
            self.mask_refreshes += 1
        return self._current_mask

    def encode(self, frame):
        """Encode one frame, refreshing the mask per the configured policy."""
        mask = self._mask_for_next_frame()
        package = self.encoder.encode(to_float(frame), mask=mask)
        self._frames_encoded += 1
        return package

    def encode_sequence(self, frames):
        """Encode an iterable of frames; returns the list of packages."""
        return [self.encode(frame) for frame in frames]


class EaszStreamDecoder:
    """Server-side decoder for a sequence of Easz packages."""

    def __init__(self, model=None, config=None, base_codec=None, fill="zero"):
        self.decoder = EaszDecoder(model=model, config=config, base_codec=base_codec, fill=fill)

    def decode(self, package, reconstruct=True):
        """Decode one package."""
        return self.decoder.decode(package, reconstruct=reconstruct)

    def decode_sequence(self, packages, reconstruct=True):
        """Decode a list of packages back into frames."""
        return [self.decode(package, reconstruct=reconstruct) for package in packages]


def encode_decode_stream(frames, config=None, base_codec=None, model=None,
                         mask_refresh_interval=1, fill="zero", seed=0):
    """Round-trip a frame sequence and report rate / quality / flicker.

    This is the one-call entry point the streaming example and tests use;
    it returns ``(reconstructed_frames, StreamReport)``.
    """
    frames = [to_float(frame) for frame in frames]
    if not frames:
        raise ValueError("the frame sequence is empty")
    encoder = EaszStreamEncoder(config=config, base_codec=base_codec,
                                mask_refresh_interval=mask_refresh_interval, seed=seed)
    decoder = EaszStreamDecoder(model=model, config=encoder.config, base_codec=base_codec,
                                fill=fill)
    packages = encoder.encode_sequence(frames)
    reconstructed = decoder.decode_sequence(packages)
    per_frame = []
    for frame, reconstruction, package in zip(frames, reconstructed, packages):
        per_frame.append({
            "bpp": package.bpp(),
            "psnr_db": psnr(frame, reconstruction),
            "mask_bytes": len(package.mask_bytes),
        })
    report = StreamReport(
        num_frames=len(frames),
        mean_bpp=float(np.mean([entry["bpp"] for entry in per_frame])),
        mean_psnr_db=float(np.mean([entry["psnr_db"] for entry in per_frame])),
        flicker=flicker_index(frames, reconstructed),
        mask_refreshes=encoder.mask_refreshes,
        mask_bytes_total=int(sum(entry["mask_bytes"] for entry in per_frame)),
        per_frame=per_frame,
    )
    return reconstructed, report
