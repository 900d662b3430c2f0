"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_all_commands_are_registered(self):
        parser = build_parser()
        for command in ("info", "codecs", "roundtrip", "evaluate", "train", "experiment"):
            args = parser.parse_args([command] if command != "experiment" else [command, "fig1"])
            assert args.command == command

    def test_roundtrip_defaults(self):
        args = build_parser().parse_args(["roundtrip"])
        assert args.codec == "jpeg"
        assert not args.easz
        assert args.erase_ratio == pytest.approx(0.25)

    def test_experiment_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_unknown_codec_is_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["roundtrip", "--codec", "webp"])

    def test_serve_bench_scenario_flags(self):
        args = build_parser().parse_args(
            ["serve-bench", "--scenario", "kill-shards",
             "--scenario-report", "out.json"])
        assert args.scenario == "kill-shards"
        assert args.scenario_report == "out.json"
        assert not args.list_scenarios
        assert build_parser().parse_args(["serve-bench"]).scenario is None


class TestServeBenchScenarios:
    def test_list_scenarios_prints_matrix_without_building_a_model(self, capsys):
        assert main(["serve-bench", "--list-scenarios"]) == 0
        output = capsys.readouterr().out
        for name in ("kill-shards", "corrupt-payloads", "chaos-mix"):
            assert name in output

    def test_unknown_scenario_fails_fast(self, capsys):
        # must error out before the pretrained-model build (exit 2, not hang)
        assert main(["serve-bench", "--scenario", "no-such-scenario"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "kill-shards" in err  # the message names the valid choices

    def test_plain_poisson_run_exits_zero_within_five_seconds(
            self, tmp_path, monkeypatch, capsys):
        # the CI smoke command: one Poisson tenant through the scenario path
        import time

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        started = time.perf_counter()
        code = main(["serve-bench", "--requests", "6", "--rate", "10",
                     "--train-steps", "5"])
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed <= 5.0, f"serve-bench smoke took {elapsed:.1f} s"
        output = capsys.readouterr().out
        assert "scenario poisson" in output and "plan and codec caches" in output
        assert "micro-batch histogram" not in output

    def test_removed_wait_and_size_flags_are_gone(self):
        for flags in (["--adaptive-wait"], ["--batch-wait-ms", "1"],
                      ["--height", "96"], ["--width", "96"],
                      ["--max-batch", "4"], ["--dct-threads", "2"]):
            with pytest.raises(SystemExit) as exited:
                build_parser().parse_args(["serve-bench"] + flags)
            assert exited.value.code == 2

    def test_serve_bench_drops_shm_and_watchdog_flags(self):
        # the sharded bench has one response path and always runs the watchdog
        for flags in (["--shm"], ["--no-shm"], ["--watchdog"],
                      ["--watchdog-interval", "0.5"]):
            with pytest.raises(SystemExit) as exited:
                build_parser().parse_args(["serve-bench", "--shards", "2"] + flags)
            assert exited.value.code == 2


class TestCommands:
    def test_no_command_prints_help_and_fails(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_info_lists_codecs_and_devices(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "jpeg" in output and "jetson-tx2" in output

    def test_codecs_table_includes_quality_grids(self, capsys):
        assert main(["codecs"]) == 0
        output = capsys.readouterr().out
        assert "bpg" in output and "45" in output

    def test_roundtrip_on_synthetic_image(self, capsys):
        assert main(["roundtrip", "--codec", "jpeg", "--quality", "60",
                     "--height", "48", "--width", "64"]) == 0
        output = capsys.readouterr().out
        assert "bpp" in output and "psnr" in output

    def test_roundtrip_reads_npy_input_and_writes_output(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        image = rng.random((32, 48))
        input_path = tmp_path / "image.npy"
        output_path = tmp_path / "reconstruction.npy"
        np.save(input_path, image)
        assert main(["roundtrip", "--input", str(input_path), "--codec", "png",
                     "--output", str(output_path)]) == 0
        reconstruction = np.load(output_path)
        assert reconstruction.shape == image.shape
        assert "reconstruction written" in capsys.readouterr().out

    def test_roundtrip_missing_input_file_returns_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.npy"
        assert main(["roundtrip", "--input", str(missing)]) == 2
        assert "error" in capsys.readouterr().err

    def test_evaluate_on_cifar_subset(self, capsys):
        assert main(["evaluate", "--dataset", "cifar", "--images", "1",
                     "--codec", "jpeg", "--quality", "70"]) == 0
        output = capsys.readouterr().out
        assert "brisque" in output and "bpp" in output

    def test_experiment_fig1_prints_motivation_table(self, capsys):
        assert main(["experiment", "fig1"]) == 0
        output = capsys.readouterr().out
        assert "cheng" in output and "transmit" in output

    def test_npz_input_is_supported(self, tmp_path, capsys):
        image = np.linspace(0, 1, 32 * 32).reshape(32, 32)
        path = tmp_path / "image.npz"
        np.savez(path, image=image)
        assert main(["roundtrip", "--input", str(path), "--codec", "png"]) == 0
        assert "bpp" in capsys.readouterr().out


class TestCompressDecompress:
    def test_base_codec_container_roundtrip(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        image = rng.random((32, 48))
        image_path = tmp_path / "frame.npy"
        container_path = tmp_path / "frame.cimg"
        output_path = tmp_path / "decoded.npy"
        np.save(image_path, image)
        assert main(["compress", "--input", str(image_path), "--codec", "png",
                     str(container_path)]) == 0
        assert container_path.exists()
        assert main(["decompress", str(container_path), str(output_path),
                     "--codec", "png"]) == 0
        decoded = np.load(output_path)
        assert decoded.shape == image.shape
        # the PNG-style codec is lossless up to 8-bit quantisation
        assert np.allclose(decoded, image, atol=0.5 / 255 + 1e-9)
        output = capsys.readouterr().out
        assert "container bytes" in output and "decoded shape" in output

    def test_easz_container_roundtrip(self, tmp_path, capsys):
        image = KodakLikeImage()
        image_path = tmp_path / "frame.npy"
        container_path = tmp_path / "frame.easz"
        output_path = tmp_path / "decoded.npy"
        np.save(image_path, image)
        common = ["--codec", "jpeg", "--quality", "80", "--easz",
                  "--patch-size", "16", "--subpatch-size", "4",
                  "--erase-ratio", "0.25", "--train-steps", "60"]
        assert main(["compress", "--input", str(image_path), str(container_path)] + common) == 0
        assert main(["decompress", str(container_path), str(output_path)] + common) == 0
        decoded = np.load(output_path)
        assert decoded.shape == image.shape
        assert 0.0 <= decoded.min() and decoded.max() <= 1.0

    def test_decompress_rejects_foreign_files(self, tmp_path, capsys):
        bad = tmp_path / "junk.easz"
        bad.write_bytes(b"not a container at all")
        assert main(["decompress", str(bad), str(tmp_path / "out.npy")]) == 2
        assert "error" in capsys.readouterr().err


def KodakLikeImage():
    """A small deterministic RGB test image (module-level helper, not a fixture)."""
    from repro.datasets import KodakDataset

    return KodakDataset(num_images=1, height=48, width=64)[0]
