"""Wall-clock budget guards for the vectorized codec and serving fast paths.

The 512×512 RGB JPEG+easz encode→decode→reconstruct roundtrip runs in
roughly half a second of wall time with the plan-cached squeeze, the
table-driven entropy coder and the fused float32 reconstruction (see
``BENCH_throughput.json``).  The seed implementation's symbol-at-a-time /
per-patch Python loops took ~3 CPU-seconds on the same machine, so a budget
of 2.5 CPU-seconds leaves ~5x headroom for slower hardware while still
failing loudly if a hot path regresses to O(n) Python loops.

Library calls run OpenBLAS at its default thread count (only serving
processes drop to one thread), and the process time counts every BLAS
thread.  On a 2-vCPU Xeon (OpenBLAS 0.3.31, five runs per count) the
roundtrip took 0.86–1.01 CPU-seconds (0.48–0.57 s wall) at the default 2
threads and 0.44–0.59 CPU-seconds, the same wall time, at one.  One thread
is not applied to library calls: it made the 1024² RGB reconstruction
1.01–1.18x slower in wall time (six alternating pairs).

The serving guard plays the same role for the batched path: reconstructing
four 256² RGB images through ``reconstruct_batch`` took 0.43–0.55
CPU-seconds (0.21–0.28 s wall) with the fused engine at 2 BLAS threads and
0.24–0.29 at one, on the same host and runs; a 1.2 CPU-second budget fails
loudly if a batched stage regresses to Python loops.  Single-image
reconstruction runs through the same engine (``reconstruct_image`` is a
batch of one), so the roundtrip guard above covers it too.  The bench
records no batch-size sweep: its ``serving`` section only asserts
batched-vs-sequential equivalence.

The sharded guard checks the *recorded* ``serving.sharded`` bar in
``BENCH_throughput.json`` (≥1.3x images/sec over the threaded server at 2
shards) instead of spawning a shard pool inside tier-1 — process startup and
a live replay would blow the suite's time budget, and the bench itself
already verifies response equivalence when it records the numbers.  Hosts
with a single visible CPU skip (sharding cannot help there; the bench writes
a ``skipped`` marker on such hosts for the same reason).

CPU time (``time.process_time``) is used instead of wall-clock so a loaded
CI machine does not flake the guards.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

from repro.codecs.jpeg import JpegCodec
from repro.core import EaszCodec, EaszConfig, proposed_mask, reconstruct_batch
from repro.serve import available_cpus

_BUDGET_CPU_SECONDS = 2.5
_SERVING_BUDGET_CPU_SECONDS = 1.2
_SHARDED_SPEEDUP_BAR = 1.3
_ENTROPY_SPEEDUP_BAR = 3.0
_BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def test_jpeg_easz_roundtrip_512_rgb_within_budget():
    config = EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1,
                        d_model=48, num_heads=4, encoder_blocks=2,
                        decoder_blocks=2, ffn_mult=2, loss_lambda=0.0)
    codec = EaszCodec(config=config, base_codec=JpegCodec(quality=75), seed=0)
    rng = np.random.default_rng(0)
    image = rng.random((512, 512, 3))

    # warm every plan/LUT/BLAS cache so the measurement sees steady state
    reconstruction, _ = codec.roundtrip(image)
    assert reconstruction.shape == image.shape

    start = time.process_time()
    reconstruction, compressed = codec.roundtrip(image)
    elapsed = time.process_time() - start

    assert reconstruction.shape == image.shape
    assert compressed.bpp() > 0
    assert elapsed < _BUDGET_CPU_SECONDS, (
        f"512x512 RGB JPEG+easz roundtrip took {elapsed:.2f} CPU-seconds "
        f"(budget {_BUDGET_CPU_SECONDS}); a hot path likely regressed to "
        "per-patch or per-symbol Python loops"
    )


def test_batched_reconstruction_within_budget():
    config = EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1,
                        d_model=48, num_heads=4, encoder_blocks=2,
                        decoder_blocks=2, ffn_mult=2, loss_lambda=0.0)
    codec = EaszCodec(config=config, base_codec=JpegCodec(quality=75), seed=0)
    mask = proposed_mask(config.grid_size, config.erase_per_row,
                         config.intra_row_min_distance, seed=0)
    rng = np.random.default_rng(1)
    images = [rng.random((256, 256, 3)) for _ in range(4)]

    # warm the fused engine, the pixel plans and BLAS
    warm = reconstruct_batch(codec.model, images, mask)
    assert len(warm) == 4 and warm[0].shape == images[0].shape

    start = time.process_time()
    outputs = reconstruct_batch(codec.model, images, mask)
    elapsed = time.process_time() - start

    assert all(output.shape == image.shape for output, image in zip(outputs, images))
    assert elapsed < _SERVING_BUDGET_CPU_SECONDS, (
        f"batched reconstruction of 4x256x256 RGB took {elapsed:.2f} CPU-seconds "
        f"(budget {_SERVING_BUDGET_CPU_SECONDS}); the fused batch engine likely "
        "fell back to per-image calls or a batched stage regressed"
    )


def test_entropy_range_coder_bar_recorded_in_bench_json():
    """The range coder must have recorded >=3x combined encode+decode
    throughput over the seed arithmetic coder (``benchmarks/seed_reference.py``;
    its JSON keys are named ``legacy_*``) on the bpg/neural symbol workload,
    at near-identical compression (see ``entropy_section`` in
    ``benchmarks/bench_throughput.py``)."""
    report = json.loads(_BENCH_JSON.read_text())
    section = report.get("entropy") or {}
    assert "speedup" in section, (
        "BENCH_throughput.json has no entropy section; re-run "
        "benchmarks/bench_throughput.py")
    assert section["speedup"] >= _ENTROPY_SPEEDUP_BAR, (
        f"range coder recorded only {section['speedup']:.2f}x over the seed "
        f"arithmetic coder (bar {_ENTROPY_SPEEDUP_BAR}x); the byte-oriented "
        "hot loop has regressed")
    assert section["payload_bytes_range"] <= section["payload_bytes_legacy"] + 64, (
        "the range coder is buying speed with compression ratio")


def test_sharded_throughput_bar_recorded_in_bench_json():
    if available_cpus() < 2:
        pytest.skip("process sharding needs >= 2 visible CPUs")
    report = json.loads(_BENCH_JSON.read_text())
    section = report.get("serving", {}).get("sharded") or {}
    if "skipped" in section or "speedup_vs_threaded" not in section:
        pytest.skip("sharded bench was not recorded on this host "
                    "(re-run benchmarks/bench_throughput.py on a multi-core box)")
    assert section["num_shards"] >= 2
    assert section["max_abs_diff_vs_sequential"] < 1e-5
    assert section["speedup_vs_threaded"] >= _SHARDED_SPEEDUP_BAR, (
        f"sharded serving recorded only {section['speedup_vs_threaded']:.2f}x over "
        f"the threaded server (bar {_SHARDED_SPEEDUP_BAR}x at "
        f"{section['num_shards']} shards); the shard pool has regressed"
    )


def test_chaos_invariants_recorded_in_bench_json():
    """Every recorded chaos replay must show the exactly-once invariants.

    Unlike the timing bars these are enforced strictly — zero lost futures,
    zero duplicated resolutions, zero non-graceful decoder failures — on
    every sub-run ``chaos_serving_section`` recorded (sub-runs a host cannot
    measure carry ``skipped`` markers and are ignored).  A violation here is
    a correctness bug in the serving stack, never measurement noise, which
    is also why ``diff_bench.py`` has no NOISE_MARGIN-tolerant bar for it.
    """
    report = json.loads(_BENCH_JSON.read_text())
    section = report.get("serving", {}).get("chaos") or {}
    assert section, ("BENCH_throughput.json has no serving.chaos section; "
                     "re-run benchmarks/bench_throughput.py")
    recorded = {name: run for name, run in section.items()
                if isinstance(run, dict) and "skipped" not in run}
    assert recorded, "every chaos sub-run was skipped; the bench host is broken"
    for name, run in recorded.items():
        assert run["futures_lost"] == 0, \
            f"chaos run {name} lost {run['futures_lost']} futures"
        assert run["futures_duplicated"] == 0, \
            f"chaos run {name} resolved {run['futures_duplicated']} futures twice"
        assert run["decoder_crashes"] == 0, (
            f"chaos run {name} saw {run['decoder_crashes']} non-graceful "
            "decoder failures on damaged payloads")
        assert run["tenants"], f"chaos run {name} recorded no per-tenant SLOs"
        for tenant, slo in run["tenants"].items():
            assert 0.0 <= slo["slo_miss_rate"] <= 1.0, (tenant, slo)
