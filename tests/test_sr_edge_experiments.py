"""Tests for the SR baselines, the edge testbed simulation and the experiment harness."""

import numpy as np
import pytest

from repro.codecs import ChengCodec, JpegCodec, MbtCodec
from repro.core import EaszCodec, EaszConfig
from repro.edge import (
    EdgeServerTestbed,
    JETSON_TX2,
    LatencyModel,
    MemoryModel,
    PowerModel,
    RASPBERRY_PI4,
    SERVER_2080TI,
    SERVER_A100,
    WIFI_TCP,
    WirelessChannel,
)
from repro.codecs.base import ComplexityProfile
from repro.experiments import (
    Series,
    default_benchmark_config,
    evaluate_codec,
    evaluate_codec_on_dataset,
    format_kv_block,
    format_series_table,
    format_table,
    pretrained_model,
    sparkline,
)
from repro.metrics import psnr
from repro.sr import (
    BicubicUpscaler,
    BsrganProxy,
    RealEsrganProxy,
    SR_BASELINES,
    SwinIRProxy,
)


class TestSuperResolution:
    def test_downsample_then_upscale_shapes(self, gray_image):
        sr = BicubicUpscaler(factor=2)
        low = sr.downsample(gray_image)
        assert low.shape == (gray_image.shape[0] // 2, gray_image.shape[1] // 2)
        up = sr.upscale(low, gray_image.shape)
        assert up.shape == gray_image.shape

    def test_roundtrip_reasonable_fidelity(self, gray_image):
        assert psnr(gray_image, BicubicUpscaler(2).roundtrip(gray_image)) > 22.0

    def test_reduction_ratio(self):
        assert BicubicUpscaler(2).reduction_ratio() == pytest.approx(0.25)

    @pytest.mark.parametrize("proxy_cls", [SwinIRProxy, RealEsrganProxy, BsrganProxy])
    def test_proxies_roundtrip_gray(self, proxy_cls, gray_image):
        proxy = proxy_cls(factor=2)
        out = proxy.roundtrip(gray_image)
        assert out.shape == gray_image.shape
        assert 0.0 <= out.min() and out.max() <= 1.0
        assert psnr(gray_image, out) > 20.0

    def test_proxies_roundtrip_color(self, rgb_image):
        out = SwinIRProxy(factor=2).roundtrip(rgb_image)
        assert out.shape == rgb_image.shape

    def test_proxy_model_sizes_match_paper(self):
        for proxy_cls in SR_BASELINES:
            assert proxy_cls.model_size_bytes == 67 * 2 ** 20
        assert BicubicUpscaler.model_size_bytes == 0

    def test_gan_proxies_differ_from_plain_bicubic(self, gray_image):
        bicubic = BicubicUpscaler(2).roundtrip(gray_image)
        esrgan = RealEsrganProxy(2).roundtrip(gray_image)
        assert not np.allclose(bicubic, esrgan)


class TestDeviceAndChannelModels:
    def test_device_profiles_sanity(self):
        assert JETSON_TX2.has_gpu
        assert not RASPBERRY_PI4.has_gpu
        assert SERVER_2080TI.gpu_gmacs_per_s > JETSON_TX2.gpu_gmacs_per_s
        assert SERVER_A100.gpu_gmacs_per_s > SERVER_2080TI.gpu_gmacs_per_s

    def test_channel_latency_has_fixed_overhead(self):
        channel = WirelessChannel(bandwidth_mbps=10, per_transfer_overhead_ms=100)
        tiny = channel.transmit_latency_ms(10)
        assert tiny == pytest.approx(100, abs=1.0)
        assert channel.transmit_latency_ms(10 ** 6) > tiny

    def test_default_channel_matches_paper_transfer_times(self):
        """Fig. 1: transmitting a compressed 512×768 image takes ≈150 ms."""
        payload = int(0.4 * 512 * 768 / 8)  # ~0.4 bpp file
        latency = WIFI_TCP.transmit_latency_ms(payload)
        assert 120 <= latency <= 200

    def test_latency_model_gpu_vs_cpu_routing(self):
        model = LatencyModel()
        gpu_profile = ComplexityProfile(macs=1e9, uses_gpu=True)
        cpu_profile = ComplexityProfile(macs=1e9, uses_gpu=False)
        assert model.compute_latency_ms(gpu_profile, JETSON_TX2) < \
            model.compute_latency_ms(cpu_profile, JETSON_TX2)

    def test_latency_model_gpu_profile_on_cpu_only_device(self):
        model = LatencyModel()
        profile = ComplexityProfile(macs=1e9, uses_gpu=True)
        assert model.compute_latency_ms(profile, RASPBERRY_PI4) > \
            model.compute_latency_ms(profile, JETSON_TX2)

    def test_load_latency_zero_without_model(self):
        assert LatencyModel().load_latency_ms(0, JETSON_TX2) == 0.0

    def test_load_latency_scales_with_model_size(self):
        model = LatencyModel()
        small = model.load_latency_ms(10 * 2 ** 20, JETSON_TX2)
        large = model.load_latency_ms(100 * 2 ** 20, JETSON_TX2)
        assert large > 5 * small

    def test_power_model_gpu_stage_draws_more(self):
        power = PowerModel()
        gpu = power.estimate(ComplexityProfile(macs=1e11, uses_gpu=True), JETSON_TX2)
        cpu = power.estimate(ComplexityProfile(macs=1e7, uses_gpu=False), JETSON_TX2)
        assert gpu.total_w > cpu.total_w
        assert gpu.gpu_w > 0
        assert cpu.gpu_w <= JETSON_TX2.gpu_idle_w

    def test_memory_model_neural_stage_is_heavier(self):
        memory = MemoryModel()
        neural = memory.footprint_gb(
            ComplexityProfile(macs=1e11, model_bytes=100 * 2 ** 20, uses_gpu=True), JETSON_TX2)
        classic = memory.footprint_gb(ComplexityProfile(macs=1e7), JETSON_TX2)
        assert neural > classic + 0.5


class TestEdgeServerTestbed:
    @pytest.fixture(scope="class")
    def testbed(self):
        return EdgeServerTestbed()

    @pytest.fixture(scope="class")
    def easz_codec(self):
        config = EaszConfig.paper()
        return EaszCodec(config=config, base_codec=JpegCodec(quality=75))

    def test_report_fields(self, testbed, easz_codec):
        report = testbed.run(easz_codec, shape=(512, 768, 3), payload_bytes=20_000)
        assert report.codec_name.endswith("+easz")
        assert report.timing.total_ms > 0
        assert report.edge_memory_gb > 0
        assert 0 < report.bpp < 8

    def test_fig1_motivation_ordering(self, testbed):
        """NN-codec encode latency dwarfs transmission latency on the TX2."""
        payload = 20_000
        for codec in (MbtCodec(4), ChengCodec(4)):
            report = testbed.run(codec, shape=(512, 768, 3), payload_bytes=payload)
            assert report.timing.encode_ms > 50 * report.timing.transmit_ms
            assert report.timing.load_ms > report.timing.transmit_ms

    def test_fig6_easz_vs_neural_breakdown(self, testbed, easz_codec):
        shape = (512, 768, 3)
        easz = testbed.run(easz_codec, shape=shape, payload_bytes=20_000, include_load=False)
        mbt = testbed.run(MbtCodec(4), shape=shape, payload_bytes=20_000, include_load=False)
        cheng = testbed.run(ChengCodec(4), shape=shape, payload_bytes=20_000, include_load=False)
        # end-to-end latency: Easz far below both NN codecs (paper: ~89% lower)
        assert easz.timing.total_ms < 0.25 * mbt.timing.total_ms
        assert easz.timing.total_ms < 0.25 * cheng.timing.total_ms
        # erase-and-squeeze is a negligible share (paper: 0.7%)
        assert easz.timing.erase_squeeze_ms / easz.timing.total_ms < 0.05
        # reconstruction dominates Easz's own latency (paper: 74%)
        assert easz.timing.reconstruction_ms / easz.timing.total_ms > 0.4
        # power: Easz uses no GPU on the edge and much less total power
        assert easz.edge_gpu_power_w <= JETSON_TX2.gpu_idle_w
        assert easz.edge_total_power_w < 0.6 * mbt.edge_total_power_w
        # memory: roughly the 1.05 vs 1.9 GB split of Fig. 6c
        assert easz.edge_memory_gb < 1.3
        assert mbt.edge_memory_gb > 1.6

    def test_compression_level_switch_cost(self, testbed, easz_codec):
        assert testbed.compression_level_switch_ms(easz_codec) == 0.0
        assert testbed.compression_level_switch_ms(ChengCodec(4)) > 1000.0
        assert testbed.compression_level_switch_ms(JpegCodec(50)) == 0.0

    def test_run_with_real_image(self, testbed, tiny_config, gray_image, trained_tiny_model):
        codec = EaszCodec(config=tiny_config, base_codec=JpegCodec(quality=80),
                          model=trained_tiny_model, seed=0)
        report = testbed.run(codec, image=gray_image)
        assert report.payload_bytes > 0
        assert report.image_shape == gray_image.shape

    def test_run_requires_shape_or_image(self, testbed, easz_codec):
        with pytest.raises(ValueError):
            testbed.run(easz_codec)

    def test_timing_as_dict_sums(self, testbed, easz_codec):
        report = testbed.run(easz_codec, shape=(128, 192, 3), payload_bytes=5_000)
        timing = report.timing.as_dict()
        component_sum = (timing["erase_squeeze_ms"] + timing["encode_ms"] + timing["transmit_ms"]
                        + timing["decode_ms"] + timing["reconstruction_ms"])
        assert timing["total_ms"] == pytest.approx(component_sum)
        assert report.timing.total_with_load_ms >= timing["total_ms"]


class TestExperimentHarness:
    def test_format_table_alignment(self):
        text = format_table(["codec", "bpp"], [["jpeg", 0.41234], ["bpg", 0.3]])
        lines = text.splitlines()
        assert "codec" in lines[0] and "bpp" in lines[0]
        assert len(lines) == 4

    def test_format_kv_block(self):
        text = format_kv_block("summary", {"a": 1, "bb": 2.5})
        assert "summary" in text and "bb" in text

    def test_sparkline_monotone_input(self):
        line = sparkline([1, 2, 3, 4, 5])
        assert len(line) == 5
        assert line[0] != line[-1]

    def test_sparkline_degenerate(self):
        assert sparkline([1.0]) == ""
        assert sparkline([2.0, 2.0, 2.0]) == ""

    def test_series_table_output(self):
        series = Series("jpeg", [0.2, 0.4], [40.0, 30.0])
        text = format_series_table([series], "bpp", "brisque", title="fig")
        assert "jpeg" in text and "brisque" in text

    def test_evaluate_codec_scores(self, gray_image):
        scores, bpp = evaluate_codec(JpegCodec(quality=60), gray_image,
                                     no_reference=("brisque",), full_reference=("psnr",))
        assert set(scores) == {"brisque", "psnr"}
        assert bpp > 0

    def test_evaluate_codec_on_dataset_averages(self, kodak_small):
        evaluation = evaluate_codec_on_dataset(JpegCodec(quality=50), kodak_small,
                                               max_images=2, no_reference=("brisque",),
                                               full_reference=("psnr",))
        assert evaluation.num_images == 2
        assert evaluation.bpp > 0
        assert evaluation.row(["psnr"])[0].startswith("jpeg")

    def test_default_benchmark_config(self):
        config = default_benchmark_config(erase_per_row=2)
        assert config.erase_per_row == 2
        assert config.patch_size % config.subpatch_size == 0

    def test_pretrained_model_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = default_benchmark_config(patch_size=8, subpatch_size=2, d_model=16,
                                          num_heads=2, encoder_blocks=1, decoder_blocks=1)
        first = pretrained_model(config, steps=3, batch_size=4, dataset_images=16)
        cached_files = list(tmp_path.glob("easz-*.npz"))
        assert len(cached_files) == 1
        second = pretrained_model(config, steps=3, batch_size=4, dataset_images=16)
        for (_, a), (_, b) in zip(first.named_parameters(), second.named_parameters()):
            assert np.allclose(a.data, b.data)
