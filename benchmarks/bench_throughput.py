"""Codec-stack throughput benchmark: emits ``BENCH_throughput.json``.

Times the vectorized fast paths (plan-cached erase-and-squeeze, table-driven
JPEG entropy coding, fused float32 reconstruction) over 256²–1024² gray and
RGB images, and measures the end-to-end 512×512 RGB JPEG+easz
encode→decode→reconstruct roundtrip against the frozen seed implementation
(``seed_reference.py``) on the same machine with the same model weights.
The seed and fast paths produce bit-identical JPEG payloads (same bpp) and
reconstructions equal to float32 tolerance (same PSNR), so the speedup is a
pure wall-clock comparison.

The ``entropy`` section times the byte-oriented range coder against the
seed's bit-at-a-time arithmetic coder on the bpg/neural-shaped symbol
workload (bar: >=3x combined encode+decode, guarded by
``tests/test_perf_smoke.py``).

The ``reconstruct_layers`` section profiles one 256² RGB
``reconstruct_batch`` call layer by layer: the engine's primitives (norm,
QKV GEMM, attention, out-projection, feed-forward, output head) and its
token gather and float64 cast + scatter + clip, each timed inside the real
call.  It prints their sum next to the measured call and the gap
between the two; it carries no guarded bar.

The ``serving`` section checks the serving-side equivalence bars on eight
256² RGB frames: ``encode_batch`` payloads are bit-exact against per-image
``encode`` calls, and ``reconstruct_batch`` output is within 1e-5 of the
float64 seed path (``seed_reference.seed_reconstruct_image``).  It records
the per-image ``reconstruct_image`` rate, with no guarded bar.

The ``serving.sharded`` subsection drives the full 256² RGB reconstruct
workload through a live 2-shard :class:`ShardedCompressionServer` and the
threaded :class:`CompressionServer` back to back and records images/sec for
both (bar: ≥1.3x at 2 shards, guarded by ``tests/test_perf_smoke.py``).
Process sharding only helps when there are cores to shard over, so on a
single-CPU host the subsection records ``{"skipped": ...}`` and the guard
skips with it.

The ``serving.chaos`` subsection is a correctness record, not a timing one:
it replays two :mod:`repro.serve.scenarios` scenarios — payload corruption
on the threaded server, and SIGKILL-under-watchdog on a 2-shard pool
(skipped on <2-CPU hosts) — and records the exactly-once invariants
(``futures_lost`` / ``futures_duplicated`` / ``decoder_crashes``, all of
which must be zero) plus per-tenant p50/p99/SLO-miss next to the M/D/c
predicted wait.  ``test_perf_smoke.py`` enforces the zeros strictly on
whatever was recorded; ``diff_bench.py`` deliberately has no bar for them —
an invariant is not a noisy timing.

Run with::

    PYTHONPATH=src python benchmarks/bench_throughput.py

The JSON lands in the repository root as ``BENCH_throughput.json``.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.codecs.jpeg import JpegCodec  # noqa: E402
from repro.entropy import encode_symbols, decode_symbols  # noqa: E402
from repro.core import (  # noqa: E402
    EaszConfig,
    EaszDecoder,
    EaszEncoder,
    EaszReconstructor,
    get_squeeze_plan,
    proposed_mask,
    reconstruct_batch,
    reconstruct_image,
)
from repro.core import reconstruction as reconstruction_module  # noqa: E402
from repro.core.batch_engine import CHUNK_ROWS  # noqa: E402
from repro.metrics import psnr  # noqa: E402

import seed_reference as seed  # noqa: E402

SIZES = (256, 512, 1024)
ROUNDTRIP_SIZE = 512  # the acceptance-criterion comparison point


def bench_config():
    """CPU-scale model matching the benchmark suite's default geometry."""
    return EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1,
                      d_model=48, num_heads=4, encoder_blocks=2, decoder_blocks=2,
                      ffn_mult=2, loss_lambda=0.0)


def synthetic_image(size, color, seed_value=0):
    rng = np.random.default_rng(seed_value)
    base = rng.random((size, size, 3) if color else (size, size))
    # blur lightly so JPEG sees photographic-ish statistics, not white noise
    for axis in (0, 1):
        base = 0.25 * np.roll(base, 1, axis) + 0.5 * base + 0.25 * np.roll(base, -1, axis)
    return np.clip(base, 0.0, 1.0)


def timeit(fn, repeats=3):
    fn()  # warm caches (plans, LUTs, BLAS)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def fast_pipeline(image, mask, config, codec, model):
    plan = get_squeeze_plan(mask, config.subpatch_size)
    compressed, grid_shape, _ = codec.compress_squeezed(image, plan)
    decoded = np.clip(np.asarray(codec.decompress(compressed)), 0.0, 1.0)
    filled = plan.unsqueeze_image(decoded, grid_shape, image.shape)
    return reconstruct_image(model, filled, mask), compressed


def seed_pipeline(image, mask, config, codec, model):
    squeezed, grid_shape, original_shape = seed.seed_erase_and_squeeze_image(
        image, mask, config.patch_size, config.subpatch_size)
    compressed = codec.compress(squeezed)
    decoded = np.clip(np.asarray(codec.decompress(compressed)), 0.0, 1.0)
    filled = seed.seed_unsqueeze_image(
        decoded, mask, config.patch_size, config.subpatch_size, grid_shape, original_shape)
    return seed.seed_reconstruct_image(model, filled, mask), compressed


def stage_timings(image, mask, config, codec, model):
    """Per-stage fast-path timings for one image."""
    plan = get_squeeze_plan(mask, config.subpatch_size)
    squeezed, grid_shape, original_shape = plan.squeeze_image(image)
    compressed = codec.compress(squeezed)
    decoded = np.clip(np.asarray(codec.decompress(compressed)), 0.0, 1.0)
    filled = plan.unsqueeze_image(decoded, grid_shape, original_shape)
    return {
        "squeeze_s": timeit(lambda: plan.squeeze_image(image)),
        "jpeg_encode_s": timeit(lambda: codec.compress(squeezed)),
        "jpeg_decode_s": timeit(lambda: codec.decompress(compressed)),
        "unsqueeze_s": timeit(lambda: plan.unsqueeze_image(decoded, grid_shape, original_shape)),
        "reconstruct_s": timeit(lambda: reconstruct_image(model, filled, mask)),
        "bpp": 8.0 * compressed.num_bytes / (image.shape[0] * image.shape[1]),
    }


def entropy_section(num_symbols=256, count=120_000, repeats=3):
    """Range coder vs the seed arithmetic coder on the bpg/neural workload.

    The symbol stream mirrors what the block codecs feed the coder: a
    256-symbol magnitude alphabet with the exponential skew of quantised
    DCT/latent coefficients, encoded under one fresh adaptive model (the
    ``encode_symbols`` shape; the codecs drive the same backend through its
    streaming/array APIs).  The baseline is the seed's bit-at-a-time coder
    frozen in ``seed_reference.py``; its keys keep the ``legacy_*`` names of
    earlier recordings.  The bar — guarded by ``test_perf_smoke.py`` — is
    >=3x combined encode+decode throughput.
    """
    rng = np.random.default_rng(0)
    probabilities = np.exp(-0.08 * np.arange(num_symbols))
    probabilities /= probabilities.sum()
    symbols = rng.choice(num_symbols, size=count, p=probabilities).tolist()

    payload_range = encode_symbols(symbols, num_symbols)
    payload_seed = seed.seed_encode_symbols(symbols, num_symbols)
    assert decode_symbols(payload_range, count, num_symbols) == symbols
    assert seed.seed_decode_symbols(payload_seed, count, num_symbols) == symbols

    range_enc_s = timeit(lambda: encode_symbols(symbols, num_symbols), repeats)
    range_dec_s = timeit(lambda: decode_symbols(payload_range, count, num_symbols),
                         repeats)
    seed_enc_s = timeit(lambda: seed.seed_encode_symbols(symbols, num_symbols),
                        max(repeats - 1, 2))
    seed_dec_s = timeit(lambda: seed.seed_decode_symbols(payload_seed, count, num_symbols),
                        max(repeats - 1, 2))
    range_s = range_enc_s + range_dec_s
    seed_s = seed_enc_s + seed_dec_s
    section = {
        "workload": f"{count}_skewed_symbols_alphabet{num_symbols}",
        "range_encode_s": range_enc_s,
        "range_decode_s": range_dec_s,
        "legacy_encode_s": seed_enc_s,
        "legacy_decode_s": seed_dec_s,
        "range_symbols_per_s": 2 * count / range_s,
        "legacy_symbols_per_s": 2 * count / seed_s,
        "speedup": seed_s / range_s,
        "payload_bytes_range": len(payload_range),
        "payload_bytes_legacy": len(payload_seed),
    }
    print(f"entropy: range {2 * count / range_s / 1e6:.2f} Msym/s vs seed "
          f"{2 * count / seed_s / 1e6:.2f} Msym/s ({section['speedup']:.2f}x, "
          f"bytes {len(payload_range)} vs {len(payload_seed)})")
    return section


def serving_section(config, model, codec, mask, num_images=8, size=256, repeats=5):
    """Serving equivalence bars on 256² RGB frames, plus the per-image rate."""
    rng_images = [synthetic_image(size, color=True, seed_value=100 + index)
                  for index in range(num_images)]
    encoder = EaszEncoder(config, base_codec=codec, seed=0)
    decoder = EaszDecoder(model=model, config=config, base_codec=codec)
    packages = encoder.encode_batch(rng_images, mask=mask)
    filled = [decoder.decode(package, reconstruct=False) for package in packages]

    # equivalence guards: payload bytes and pixel agreement
    sequential_packages = [encoder.encode(image, mask=mask) for image in rng_images]
    for batched_pkg, sequential_pkg in zip(packages, sequential_packages):
        assert batched_pkg.codec_payload.payload == sequential_pkg.codec_payload.payload, \
            "encode_batch payloads are no longer bit-exact"
    # the float64 seed reconstruction is independent of the fused engine
    # that both reconstruct_image and reconstruct_batch run through
    reference_out = [seed.seed_reconstruct_image(model, image, mask) for image in filled]
    batched_out = reconstruct_batch(model, filled, mask)
    max_diff = max(float(np.abs(a - b).max())
                   for a, b in zip(reference_out, batched_out))
    assert max_diff < 1e-5, f"batched reconstruction diverged: {max_diff}"

    section = {
        "image": f"{size}x{size}_rgb",
        "max_abs_diff_batched_vs_seed": max_diff,
        "payload_bit_exact": True,
    }
    per_image_s = timeit(lambda: reconstruct_image(model, filled[0], mask), repeats)
    section["sequential_reconstruct_s_per_image"] = per_image_s
    section["sequential_images_per_s"] = 1.0 / per_image_s
    print(f"serving reconstruct: {1.0 / per_image_s:.2f} img/s per image, "
          f"batched vs seed max diff {max_diff:.2e}")
    return section


#: ``reconstruct_layers`` keys: :class:`FusedBatchEngine` primitive methods
#: timed inside a real ``reconstruct_batch`` call, by layer name.
_ENGINE_LAYERS = {
    "norm": "_norm",
    "qkv_gemm": "_qkv",
    "attention": "_attention",
    "out_projection": "_out_projection",
    "feed_forward": "_feed_forward",
    "output_head": "_head",
}

#: ``reconstruct_layers`` keys: ``reconstruct_batch``'s own array helpers in
#: :mod:`repro.core.reconstruction`, by layer name.
_BATCH_LAYERS = {
    "gather": "_gather_tokens",
    "cast_scatter_clip": "_scatter_frame",
}


def reconstruct_layers_section(config, model, mask, size=256, repeats=7):
    """Per-layer time of one ``size``² RGB ``reconstruct_batch`` call.

    Every layer is timed inside a real ``reconstruct_batch`` call by
    wrapping the function that runs it: the engine's primitives (unit/affine
    norm, QKV GEMM, attention, out-projection, ff1+GELU+ff2, output head) on
    the model's cached engine, so they run with its compiled weights at the
    shapes and chunk sizes real calls use, and ``reconstruct_batch``'s token
    gather and float64 cast + scatter + crop + clip helpers in
    :mod:`repro.core.reconstruction`.  The layers' sum is printed next to
    the measured (unwrapped) call, timed in alternation with the wrapped
    one; the gap is padding, stacking, embedding, chunk concatenation and
    Python overhead.  Each figure is a median over ``repeats`` frames, in ms.
    """
    image = synthetic_image(size, color=True, seed_value=7)
    engine = model.batch_engine()
    targets = [(engine, _ENGINE_LAYERS), (reconstruction_module, _BATCH_LAYERS)]
    frame = {}

    def timed(layer, function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = function(*args, **kwargs)
            frame[layer] += time.perf_counter() - start
            return result
        return wrapper

    def call():
        start = time.perf_counter()
        reconstruct_batch(model, [image], mask)
        return time.perf_counter() - start

    call()  # warm plans, the engine and BLAS
    samples = {layer: [] for _, layers in targets for layer in layers}
    measured = []
    for _ in range(repeats):
        measured.append(call())
        frame.update(dict.fromkeys(samples, 0.0))
        with contextlib.ExitStack() as patches:
            for owner, layers in targets:
                for layer, name in layers.items():
                    patches.enter_context(mock.patch.object(
                        owner, name, timed(layer, getattr(owner, name))))
            call()
        for layer in samples:
            samples[layer].append(frame[layer])

    layers_ms = {layer: 1e3 * float(np.median(values)) for layer, values in samples.items()}
    sum_ms = sum(layers_ms.values())
    measured_ms = 1e3 * float(np.median(measured))
    section = {
        "image": f"{size}x{size}_rgb",
        "patches_per_chunk": max(1, CHUNK_ROWS // config.tokens_per_patch),
        "layers_ms": layers_ms,
        "sum_ms": sum_ms,
        "reconstruct_batch_ms": measured_ms,
        "gap_ms": measured_ms - sum_ms,
    }
    print("reconstruct layers (ms): " + "  ".join(
        f"{layer}={ms:.2f}" for layer, ms in layers_ms.items()))
    print(f"reconstruct layers sum {sum_ms:.1f} ms vs reconstruct_batch "
          f"{measured_ms:.1f} ms (gap {section['gap_ms']:.1f} ms)")
    return section


def _drive_server(server, packages, rounds=3, kind="reconstruct"):
    """Push every package through a live server ``rounds`` times; images/sec."""
    # warm: plan/codec caches, fused engine, (for shards) child process state
    for pending in [server.submit(package, kind=kind) for package in packages]:
        pending.result(timeout=300.0)
    start = time.perf_counter()
    pendings = []
    for _ in range(rounds):
        pendings.extend(server.submit(package, kind=kind) for package in packages)
    responses = [pending.result(timeout=300.0) for pending in pendings]
    elapsed = time.perf_counter() - start
    return len(responses) / elapsed, responses


def sharded_serving_section(config, model, mask, size=256, num_images=8, shards=2):
    """Sharded vs threaded images/sec on the 256² RGB reconstruct workload."""
    from repro.serve import CompressionServer, ShardedCompressionServer, available_cpus

    cpus = available_cpus()
    if cpus < 2:
        print(f"serving sharded: skipped ({cpus} CPU visible; sharding needs >= 2)")
        return {"skipped": f"host exposes {cpus} CPU; process sharding needs >= 2"}

    codec = JpegCodec(quality=75)
    images = [synthetic_image(size, color=True, seed_value=200 + index)
              for index in range(num_images)]
    encoder = EaszEncoder(config, base_codec=codec, seed=0)
    decoder = EaszDecoder(model=model, config=config, base_codec=codec)
    packages = encoder.encode_batch(images, mask=mask)
    references = [decoder.decode(package) for package in packages]

    with CompressionServer(model=model, config=config, num_workers=2,
                           queue_depth=256) as server:
        threaded_ips, _ = _drive_server(server, packages)
    with ShardedCompressionServer(model=model, config=config, num_shards=shards,
                                  queue_depth=256) as server:
        sharded_ips, responses = _drive_server(server, packages)

    max_diff = max(float(np.abs(response.image - references[index % num_images]).max())
                   for index, response in enumerate(responses))
    assert max_diff < 1e-5, f"sharded responses diverged from sequential decode: {max_diff}"
    section = {
        "image": f"{size}x{size}_rgb",
        "num_shards": shards,
        "threaded_images_per_s": threaded_ips,
        "sharded_images_per_s": sharded_ips,
        "speedup_vs_threaded": sharded_ips / threaded_ips,
        "max_abs_diff_vs_sequential": max_diff,
    }
    print(f"serving sharded ({shards} shards): {sharded_ips:.2f} img/s vs threaded "
          f"{threaded_ips:.2f} img/s ({section['speedup_vs_threaded']:.2f}x)")
    return section


def _chaos_summary(report):
    """The recorded shape of one scenario replay: invariants + per-tenant SLOs."""
    return {
        "scenario": report.scenario,
        "duration_s": report.duration_s,
        "servers": report.servers,
        "offered": report.offered,
        "submitted": report.submitted,
        "completed": report.completed,
        "futures_lost": report.futures_lost,
        "futures_duplicated": report.futures_duplicated,
        "decoder_crashes": report.decoder_crashes,
        "watchdog_restarts": report.watchdog_restarts,
        "chaos_events": len(report.chaos_events),
        "utilisation": report.utilisation,
        "tenants": {
            tenant.name: {
                "qos": tenant.qos,
                "deadline_ms": tenant.deadline_ms,
                "latency_p50_ms": tenant.latency_p50_ms,
                "latency_p99_ms": tenant.latency_p99_ms,
                "slo_miss_rate": tenant.slo_miss_rate,
                "predicted_wait_ms_mean": tenant.predicted_wait_ms_mean,
            }
            for tenant in report.tenants
        },
    }


def chaos_serving_section(config, model, threaded_duration_s=4.0):
    """Replay chaos scenarios and record the exactly-once invariants.

    Unlike the timing sections this one records *correctness under fault
    injection*: zero lost futures, zero duplicated resolutions, zero
    non-graceful decoder failures, with per-tenant p50/p99/SLO-miss next to
    the M/D/c prediction.  The payload-corruption scenario runs on the
    threaded server (any host); the SIGKILL scenario needs process shards
    and records a ``skipped`` marker on single-CPU hosts, like the
    sharded timing bar.  ``tests/test_perf_smoke.py`` enforces the
    invariants on whatever was recorded — strictly, no noise margin.
    """
    import dataclasses

    from repro.serve import (CompressionServer, ShardedCompressionServer,
                             available_cpus)
    from repro.serve.scenarios import builtin_scenarios, run_scenario

    scenarios = builtin_scenarios()
    corrupt = dataclasses.replace(scenarios["corrupt-payloads"],
                                  duration_s=threaded_duration_s)
    with CompressionServer(model=model, config=config, num_workers=2,
                           queue_depth=128) as server:
        report = run_scenario(corrupt, server, config=config, model=model)
    assert report.ok(), f"chaos invariants violated: {report.headline()}"
    section = {"threaded_corruption": _chaos_summary(report)}
    print(f"serving chaos (threaded): {report.headline()}")

    cpus = available_cpus()
    if cpus < 2:
        print(f"serving chaos sharded: skipped ({cpus} CPU visible; "
              "sharding needs >= 2)")
        section["sharded_kill"] = {
            "skipped": f"host exposes {cpus} CPU; process sharding needs >= 2"}
        return section

    kill = scenarios["kill-shards"]
    with ShardedCompressionServer(model=model, config=config, num_shards=2,
                                  **dict(kill.server_hints)) as server:
        report = run_scenario(kill, server, config=config, model=model)
    assert report.ok(), f"chaos invariants violated: {report.headline()}"
    assert report.watchdog_restarts >= 1, \
        "kill-shards replay never exercised a watchdog restart"
    section["sharded_kill"] = _chaos_summary(report)
    print(f"serving chaos (sharded): {report.headline()}")
    return section


def main():
    config = bench_config()
    model = EaszReconstructor(config)
    codec = JpegCodec(quality=75)
    seed_codec = seed.SeedJpegCodec(quality=75)
    mask = proposed_mask(config.grid_size, config.erase_per_row,
                         config.intra_row_min_distance, seed=0)

    report = {
        "config": {
            "patch_size": config.patch_size,
            "subpatch_size": config.subpatch_size,
            "erase_per_row": config.erase_per_row,
            "d_model": config.d_model,
            "encoder_blocks": config.encoder_blocks,
            "decoder_blocks": config.decoder_blocks,
            "jpeg_quality": 75,
        },
        "stages": {},
        "roundtrip_512_rgb": {},
        "entropy": {},
        "reconstruct_layers": {},
        "serving": {},
    }

    # --- entropy: range coder vs seed arithmetic coder ------------------- #
    report["entropy"] = entropy_section()

    for size in SIZES:
        for color in (False, True):
            label = f"{size}x{size}_{'rgb' if color else 'gray'}"
            image = synthetic_image(size, color)
            report["stages"][label] = stage_timings(image, mask, config, codec, model)
            print(f"{label}: " + "  ".join(
                f"{k}={v:.4f}" for k, v in report["stages"][label].items()))

    # --- acceptance comparison: 512x512 RGB roundtrip, fast vs seed ------ #
    image = synthetic_image(ROUNDTRIP_SIZE, color=True)
    fast_out, fast_comp = fast_pipeline(image, mask, config, codec, model)
    seed_out, seed_comp = seed_pipeline(image, mask, config, seed_codec, model)
    assert fast_comp.payload == seed_comp.payload, "entropy coding is no longer bit-exact"

    fast_s = timeit(lambda: fast_pipeline(image, mask, config, codec, model))
    seed_s = timeit(lambda: seed_pipeline(image, mask, config, seed_codec, model), repeats=2)
    pixels = image.shape[0] * image.shape[1]
    report["roundtrip_512_rgb"] = {
        "fast_s": fast_s,
        "seed_s": seed_s,
        "speedup": seed_s / fast_s,
        "psnr_fast": float(psnr(image, fast_out)),
        "psnr_seed": float(psnr(image, seed_out)),
        "bpp_fast": 8.0 * fast_comp.num_bytes / pixels,
        "bpp_seed": 8.0 * seed_comp.num_bytes / pixels,
        "max_abs_diff": float(np.abs(fast_out - seed_out).max()),
        "payload_bit_exact": True,
    }
    rt = report["roundtrip_512_rgb"]
    print(f"roundtrip 512x512 rgb: fast {fast_s:.3f}s seed {seed_s:.3f}s "
          f"speedup {rt['speedup']:.2f}x  psnr {rt['psnr_fast']:.3f} vs {rt['psnr_seed']:.3f}  "
          f"bpp {rt['bpp_fast']:.4f} vs {rt['bpp_seed']:.4f}")

    # --- reconstruction engine, layer by layer (one 256² RGB frame) ------ #
    report["reconstruct_layers"] = reconstruct_layers_section(config, model, mask)

    # --- serving: payload and reconstruction equivalence bars ------------ #
    report["serving"] = serving_section(config, model, codec, mask)

    # --- serving: process-sharded pool vs the threaded server ------------ #
    report["serving"]["sharded"] = sharded_serving_section(config, model, mask)

    # --- serving: chaos invariants under fault injection ----------------- #
    report["serving"]["chaos"] = chaos_serving_section(config, model)

    out_path = REPO_ROOT / "BENCH_throughput.json"
    out_path.write_text(json.dumps(report, indent=2))
    print(f"wrote {out_path}")
    return report


if __name__ == "__main__":
    main()
