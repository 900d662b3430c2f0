"""Failure-injection tests: damaged bitstreams must never crash a decoder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codecs import BpgCodec, JpegCodec, MbtCodec, PngCodec
from repro.edge import (
    FaultInjector,
    check_decoder_robustness,
    drop_packets,
    flip_bits,
    truncate_payload,
)
from repro.metrics import psnr


class TestFaultPrimitives:
    def test_flip_bits_changes_exactly_some_bits(self):
        payload = bytes(64)
        damaged = flip_bits(payload, num_flips=8, seed=1)
        assert len(damaged) == len(payload)
        flipped = sum(bin(a ^ b).count("1") for a, b in zip(payload, damaged))
        assert 1 <= flipped <= 8  # collisions may flip a bit back

    def test_flip_bits_is_deterministic_per_seed(self):
        payload = bytes(range(256))
        assert flip_bits(payload, 16, seed=3) == flip_bits(payload, 16, seed=3)
        assert flip_bits(payload, 16, seed=3) != flip_bits(payload, 16, seed=4)

    def test_zero_flips_and_empty_payload_are_noops(self):
        assert flip_bits(b"abc", 0) == b"abc"
        assert flip_bits(b"", 10) == b""
        with pytest.raises(ValueError):
            flip_bits(b"abc", -1)

    def test_truncate_payload(self):
        payload = bytes(range(100))
        assert truncate_payload(payload, 0.25) == payload[:25]
        assert truncate_payload(payload, 1.0) == payload
        assert truncate_payload(payload, 0.0) == b""
        with pytest.raises(ValueError):
            truncate_payload(payload, 1.5)

    def test_drop_packets_preserves_length_and_zeroes_segments(self):
        payload = bytes([0xFF]) * 10_000
        damaged = drop_packets(payload, packet_bytes=1000, loss_rate=0.5, seed=2)
        assert len(damaged) == len(payload)
        zero_fraction = damaged.count(0) / len(damaged)
        assert 0.1 < zero_fraction < 0.9
        with pytest.raises(ValueError):
            drop_packets(payload, packet_bytes=0)
        with pytest.raises(ValueError):
            drop_packets(payload, loss_rate=2.0)

    def test_injector_composes_faults(self):
        injector = FaultInjector(bit_flips=4, truncate_to=0.5, packet_loss_rate=0.2)
        payload = bytes(range(200))
        damaged = injector.apply(payload)
        assert len(damaged) == 100

    def test_injector_varies_damage_between_calls(self):
        injector = FaultInjector(bit_flips=8, seed=5)
        payload = bytes(1000)
        assert injector.apply(payload) != injector.apply(payload)


class TestFaultEdgeCases:
    def test_zero_length_payload_through_every_primitive(self):
        assert flip_bits(b"", 64, seed=1) == b""
        assert truncate_payload(b"", 0.5) == b""
        assert drop_packets(b"", loss_rate=1.0) == b""

    def test_zero_length_payload_through_injector(self):
        injector = FaultInjector(bit_flips=8, truncate_to=0.5, packet_loss_rate=0.5)
        assert injector.apply(b"") == b""

    def test_total_packet_loss_erases_everything_but_keeps_length(self):
        payload = bytes([0xAB]) * 4096
        damaged = drop_packets(payload, packet_bytes=512, loss_rate=1.0, seed=7)
        assert len(damaged) == len(payload)
        assert damaged == bytes(len(payload))

    def test_keep_fraction_zero_empties_the_payload(self):
        assert truncate_payload(bytes(range(50)), 0.0) == b""
        injector = FaultInjector(truncate_to=0.0)
        assert injector.apply(bytes(range(50))) == b""


class TestInjectorValidation:
    @pytest.mark.parametrize("kwargs", [
        {"bit_flips": -1},
        {"truncate_to": -0.1},
        {"truncate_to": 1.5},
        {"packet_loss_rate": -0.5},
        {"packet_loss_rate": 2.0},
        {"packet_bytes": 0},
    ], ids=["neg-flips", "neg-trunc", "over-trunc", "neg-loss", "over-loss",
            "zero-packet"])
    def test_bad_configuration_fails_at_construction(self, kwargs):
        # misconfiguration must fail when the injector is built, not when a
        # chaos scenario first applies it minutes into a run
        with pytest.raises(ValueError):
            FaultInjector(**kwargs)


@pytest.mark.parametrize("codec_factory", [
    lambda: JpegCodec(quality=70),
    lambda: BpgCodec(qp=32),
    lambda: MbtCodec(quality=4),
    lambda: PngCodec(),
], ids=["jpeg", "bpg", "mbt", "png"])
class TestFailureModeClassification:
    """Every codec's failure mode under extreme damage must be graceful.

    ``check_decoder_robustness`` only converts ValueError-class exceptions
    into a "rejected" result; anything else propagates and fails the test —
    that propagation IS the classification of a crash.
    """

    def test_empty_payload_is_rejected_not_crashed(self, codec_factory, kodak_small):
        codec = codec_factory()
        result = check_decoder_robustness(codec, kodak_small[0],
                                          FaultInjector(truncate_to=0.0),
                                          description="payload fully truncated")
        assert result.graceful
        # nothing decodes zero bytes into an image; a clean rejection names
        # the exception class for the chaos report
        assert result.outcome == "rejected"
        assert result.error_type

    def test_total_packet_loss_is_classified(self, codec_factory, kodak_small):
        codec = codec_factory()
        injector = FaultInjector(packet_loss_rate=1.0, packet_bytes=64, seed=21)
        result = check_decoder_robustness(codec, kodak_small[0], injector,
                                          metric=psnr,
                                          description="100% packet loss")
        assert result.graceful
        if result.outcome == "decoded":
            # an all-zeros bitstream that still decodes must yield a real
            # (if terrible) image, not NaNs
            assert np.isfinite(result.quality_db)


@pytest.mark.parametrize("codec_factory", [
    lambda: JpegCodec(quality=70),
    lambda: BpgCodec(qp=32),
    lambda: MbtCodec(quality=4),
    lambda: PngCodec(),
], ids=["jpeg", "bpg", "mbt", "png"])
class TestDecoderRobustness:
    def test_bit_corruption_is_handled_gracefully(self, codec_factory, kodak_small):
        codec = codec_factory()
        injector = FaultInjector(bit_flips=32, seed=11)
        result = check_decoder_robustness(codec, kodak_small[0], injector,
                                          metric=psnr, description="32 bit flips")
        assert result.graceful
        if result.outcome == "decoded":
            assert np.isfinite(result.quality_db)

    def test_truncation_is_handled_gracefully(self, codec_factory, kodak_small):
        codec = codec_factory()
        injector = FaultInjector(truncate_to=0.6, seed=12)
        result = check_decoder_robustness(codec, kodak_small[0], injector,
                                          description="40% tail loss")
        assert result.graceful

    def test_packet_loss_is_handled_gracefully(self, codec_factory, kodak_small):
        codec = codec_factory()
        injector = FaultInjector(packet_loss_rate=0.3, packet_bytes=256, seed=13)
        result = check_decoder_robustness(codec, kodak_small[0], injector,
                                          description="30% packet loss")
        assert result.graceful


class TestCleanChannelSanity:
    def test_clean_injector_changes_nothing(self, kodak_small):
        codec = JpegCodec(quality=70)
        result = check_decoder_robustness(codec, kodak_small[0], FaultInjector(), metric=psnr)
        assert result.outcome == "decoded"
        clean = codec.roundtrip(kodak_small[0])[1]
        assert result.quality_db == pytest.approx(
            psnr(kodak_small[0], codec.decompress(clean)), abs=1e-9)
