"""Transmission fault injection and decoder-robustness checks.

The paper's testbed uses TCP, so payloads arrive intact or not at all; real
deployments on lossy links (LoRa gateways, congested Wi-Fi, flaky cellular)
also see truncated and corrupted frames.  This module provides deterministic
fault injectors and a harness that reports how a codec behaves when its
bitstream is damaged — either a graceful error or a degraded image, never an
unbounded crash.

These utilities back the failure-injection tests in
``tests/test_edge_faults_transport.py`` and are useful on their own when
hardening a deployment ("what happens if the last packet of every burst is
lost?").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "flip_bits",
    "truncate_payload",
    "drop_packets",
    "FaultInjector",
    "RobustnessResult",
    "check_decoder_robustness",
]


def flip_bits(payload, num_flips, seed=0):
    """Flip ``num_flips`` random bits of a byte payload (deterministic per seed)."""
    if num_flips < 0:
        raise ValueError("num_flips must be non-negative")
    data = bytearray(payload)
    if not data or num_flips == 0:
        return bytes(data)
    rng = np.random.default_rng(seed)
    positions = rng.integers(0, len(data) * 8, size=num_flips)
    for position in positions:
        byte_index, bit_index = divmod(int(position), 8)
        data[byte_index] ^= 1 << bit_index
    return bytes(data)


def truncate_payload(payload, keep_fraction):
    """Keep only the leading ``keep_fraction`` of the payload (a cut-off transfer)."""
    if not 0.0 <= keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in [0, 1]")
    keep = int(len(payload) * keep_fraction)
    return bytes(payload[:keep])


def drop_packets(payload, packet_bytes=1200, loss_rate=0.1, seed=0, fill=0x00):
    """Zero out whole "packets" of the payload (length is preserved).

    Modelling loss as erased-but-present segments keeps downstream framing
    intact, which matches how an application-level FEC or retransmission gap
    would surface to the decoder.
    """
    if packet_bytes <= 0:
        raise ValueError("packet_bytes must be positive")
    if not 0.0 <= loss_rate <= 1.0:
        raise ValueError("loss_rate must be in [0, 1]")
    data = bytearray(payload)
    rng = np.random.default_rng(seed)
    for start in range(0, len(data), packet_bytes):
        if rng.random() < loss_rate:
            end = min(start + packet_bytes, len(data))
            data[start:end] = bytes([fill]) * (end - start)
    return bytes(data)


@dataclass
class FaultInjector:
    """A configurable payload-damaging channel stage.

    Attributes
    ----------
    bit_flips:
        Number of random bit flips applied to every payload.
    truncate_to:
        Fraction of the payload that survives (1.0 = no truncation).
    packet_loss_rate, packet_bytes:
        Whole-packet erasure parameters (0.0 = no loss).
    seed:
        Base RNG seed; each call advances it so repeated transfers see
        different (but reproducible) damage.
    """

    bit_flips: int = 0
    truncate_to: float = 1.0
    packet_loss_rate: float = 0.0
    packet_bytes: int = 1200
    seed: int = 0
    _calls: int = field(default=0, repr=False)

    def __post_init__(self):
        # validate at construction, not first apply(): a chaos scenario built
        # with a bad injector must fail when configured, not minutes into a run
        if self.bit_flips < 0:
            raise ValueError("bit_flips must be non-negative")
        if not 0.0 <= self.truncate_to <= 1.0:
            raise ValueError("truncate_to must be in [0, 1]")
        if not 0.0 <= self.packet_loss_rate <= 1.0:
            raise ValueError("packet_loss_rate must be in [0, 1]")
        if self.packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")

    def apply(self, payload):
        """Damage one payload according to the configured faults."""
        self._calls += 1
        seed = self.seed + self._calls
        damaged = bytes(payload)
        if self.packet_loss_rate > 0.0:
            damaged = drop_packets(damaged, self.packet_bytes, self.packet_loss_rate, seed)
        if self.bit_flips > 0:
            damaged = flip_bits(damaged, self.bit_flips, seed)
        if self.truncate_to < 1.0:
            damaged = truncate_payload(damaged, self.truncate_to)
        return damaged

@dataclass
class RobustnessResult:
    """Outcome of decoding one damaged payload."""

    codec_name: str
    fault_description: str
    outcome: str                 # "decoded" or "rejected"
    error_type: str = ""
    quality_db: float = float("nan")

    @property
    def graceful(self):
        """A decoder is graceful if it either decodes or raises a clean error."""
        return self.outcome in ("decoded", "rejected")


def check_decoder_robustness(codec, image, injector, metric=None, description=""):
    """Compress ``image``, damage the payload, and try to decode it.

    Returns a :class:`RobustnessResult`.  Only ``ValueError`` / ``KeyError`` /
    ``IndexError`` / ``EOFError`` are treated as a graceful rejection; any
    other exception propagates, because that is precisely the bug class this
    harness exists to catch.
    """
    compressed = codec.compress(image)
    compressed.payload = injector.apply(compressed.payload)
    try:
        reconstruction = codec.decompress(compressed)
    except (ValueError, KeyError, IndexError, EOFError) as error:
        return RobustnessResult(
            codec_name=codec.name,
            fault_description=description or repr(injector),
            outcome="rejected",
            error_type=type(error).__name__,
        )
    quality = float("nan")
    if metric is not None:
        quality = float(metric(np.asarray(image), np.asarray(reconstruction)))
    return RobustnessResult(
        codec_name=codec.name,
        fault_description=description or repr(injector),
        outcome="decoded",
        quality_db=quality,
    )
