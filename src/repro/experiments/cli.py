"""Command-line interface for the Easz reproduction.

``python -m repro <command>`` exposes the library's main entry points without
writing a script:

* ``info`` — library version, registered codecs, device profiles;
* ``codecs`` — codec registry with the default quality grids;
* ``roundtrip`` — compress/decompress one image (from an ``.npy``/``.npz``
  file or a synthetic dataset) with any codec, optionally wrapped in Easz,
  and report rate/quality;
* ``compress`` / ``decompress`` — write and read actual ``.easz`` transport
  containers (what the edge device would store-and-forward);
* ``evaluate`` — average a codec's rate and perceptual scores over a
  synthetic dataset (the building block of Table II);
* ``train`` — pre-train (and cache) the Easz reconstruction model;
* ``experiment`` — regenerate a quick, reduced-size version of one of the
  paper's experiments (fig1, fig6, fig8d, table2) directly in the terminal;
* ``serve-bench`` — replay load against a live server through the scenario
  harness (:mod:`repro.serve.scenarios`): by default one Poisson tenant
  built from ``--rate``/``--requests``/``--images``; with ``--scenario
  NAME`` (or ``--scenario-file PATH`` for a custom ScenarioSpec JSON) a
  multi-tenant chaos scenario.  Either way it exits 4 on invariant
  violations (lost/duplicated futures, decoder crashes) or 3 on a saturated
  run, so the nightly chaos CI can gate on the exit code alone.

The full-fidelity versions of the experiments live in ``benchmarks/``; the
CLI drivers use smaller images and fewer operating points so they finish in
seconds.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .. import __version__
from ..codecs import available_codecs, create_codec, quality_grid
from ..core import EaszCodec, EaszDecoder, EaszEncoder
from ..core.pipeline import EaszCompressed
from ..core.transport import load_package, save_package
from ..datasets import CifarLikeDataset, ClicDataset, KodakDataset
from ..edge import EdgeServerTestbed, JETSON_TX2, RASPBERRY_PI4, SERVER_2080TI, SERVER_A100
from ..image import to_float
from ..metrics import brisque, ms_ssim, pi, psnr, tres
from .pretrained import cache_directory, default_benchmark_config, pretrained_model
from .runner import evaluate_codec_on_dataset
from .tables import format_kv_block, format_table

__all__ = ["build_parser", "main"]

_DATASET_CLASSES = {
    "kodak": KodakDataset,
    "clic": ClicDataset,
    "cifar": CifarLikeDataset,
}

_DEVICE_PROFILES = (JETSON_TX2, RASPBERRY_PI4, SERVER_2080TI, SERVER_A100)


# --------------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------------- #
def build_parser():
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Easz (DAC 2025) reproduction - agile transformer-based image "
                    "compression for resource-constrained IoT devices.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("info", help="library, codec and device overview")
    subparsers.add_parser("codecs", help="registered codecs and their quality grids")

    roundtrip = subparsers.add_parser("roundtrip", help="compress/decompress one image")
    _add_image_source_arguments(roundtrip)
    _add_codec_arguments(roundtrip)
    roundtrip.add_argument("--output", help="write the reconstruction to this .npy file")

    compress = subparsers.add_parser("compress",
                                     help="compress one image into a transport container")
    _add_image_source_arguments(compress)
    _add_codec_arguments(compress)
    compress.add_argument("output", help="path of the .easz container to write")

    decompress = subparsers.add_parser("decompress",
                                       help="decode a transport container back to pixels")
    decompress.add_argument("input", help="path of a container written by 'compress'")
    decompress.add_argument("output", help="path of the .npy file to write")
    _add_codec_arguments(decompress)

    evaluate = subparsers.add_parser("evaluate", help="average scores over a dataset")
    evaluate.add_argument("--dataset", choices=sorted(_DATASET_CLASSES), default="kodak")
    evaluate.add_argument("--images", type=int, default=2, help="number of images to score")
    evaluate.add_argument("--height", type=int, default=96)
    evaluate.add_argument("--width", type=int, default=144)
    _add_codec_arguments(evaluate)

    train = subparsers.add_parser("train", help="pre-train and cache the reconstruction model")
    train.add_argument("--steps", type=int, default=300)
    train.add_argument("--patch-size", type=int, default=16)
    train.add_argument("--subpatch-size", type=int, default=4)
    train.add_argument("--d-model", type=int, default=48)
    train.add_argument("--force", action="store_true", help="retrain even if a cached model exists")

    experiment = subparsers.add_parser("experiment", help="run a reduced-size paper experiment")
    experiment.add_argument("name", choices=["fig1", "fig6", "fig8d", "table2"])
    experiment.add_argument("--images", type=int, default=1)
    experiment.add_argument("--height", type=int, default=96)
    experiment.add_argument("--width", type=int, default=144)

    serve_bench = subparsers.add_parser(
        "serve-bench",
        help="drive the compression server with Poisson load or a chaos "
             "scenario")
    serve_bench.add_argument("--requests", type=int, default=48,
                             help="expected requests of the Poisson replay (it "
                                  "lasts requests / rate seconds)")
    serve_bench.add_argument("--rate", type=float, default=60.0,
                             help="Poisson arrival rate (requests/s)")
    serve_bench.add_argument("--workers", type=int, default=2, help="worker threads")
    serve_bench.add_argument("--shards", type=int, default=0,
                             help="serve from N worker processes instead of threads "
                                  "(0 = threaded server)")
    serve_bench.add_argument("--result-cache", type=int, default=0,
                             help="cross-request result cache capacity (0 = off)")
    serve_bench.add_argument("--queue-depth", type=int, default=64,
                             help="admission queue bound")
    serve_bench.add_argument("--images", type=int, default=4,
                             help="distinct frames cycled through the replay")
    serve_bench.add_argument("--train-steps", type=int, default=300,
                             help="pre-training steps for the (cached) model")
    serve_bench.add_argument("--scenario", default=None,
                             help="replay a named multi-tenant chaos scenario "
                                  "instead of the plain Poisson load (see "
                                  "--list-scenarios); exit code 4 on invariant "
                                  "violations (lost/duplicated futures, decoder "
                                  "crashes)")
    serve_bench.add_argument("--scenario-file", default=None, metavar="PATH",
                             help="replay a custom scenario loaded from a "
                                  "ScenarioSpec JSON file (see ScenarioSpec."
                                  "to_json); mutually exclusive with "
                                  "--scenario")
    serve_bench.add_argument("--scenario-report", default=None, metavar="PATH",
                             help="write the machine-readable ScenarioReport "
                                  "JSON here (the chaos CI artifact)")
    serve_bench.add_argument("--list-scenarios", action="store_true",
                             help="print the built-in scenario matrix and exit")
    return parser


def _add_image_source_arguments(parser):
    parser.add_argument("--input", help="path to an .npy/.npz image file (float [0,1] or uint8)")
    parser.add_argument("--dataset", choices=sorted(_DATASET_CLASSES), default="kodak",
                        help="synthetic dataset used when --input is not given")
    parser.add_argument("--index", type=int, default=0, help="image index within the dataset")
    parser.add_argument("--height", type=int, default=96)
    parser.add_argument("--width", type=int, default=144)


def _add_codec_arguments(parser):
    parser.add_argument("--codec", default="jpeg", choices=available_codecs(),
                        help="base codec (registry name)")
    parser.add_argument("--quality", type=int, default=None, help="codec quality / QP setting")
    parser.add_argument("--easz", action="store_true", help="wrap the base codec in Easz")
    parser.add_argument("--erase-ratio", type=float, default=0.25,
                        help="Easz erase ratio (fraction of sub-patches removed)")
    parser.add_argument("--patch-size", type=int, default=16, help="Easz first-stage patch size n")
    parser.add_argument("--subpatch-size", type=int, default=4, help="Easz erase-block size b")
    parser.add_argument("--train-steps", type=int, default=300,
                        help="pre-training steps for the (cached) reconstruction model")


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _load_image(args):
    """Image selected by the CLI arguments (file input or synthetic dataset)."""
    if args.input:
        loaded = np.load(args.input, allow_pickle=False)
        if hasattr(loaded, "files"):  # npz archive: take the first array
            loaded = loaded[loaded.files[0]]
        return to_float(loaded)
    dataset = _make_dataset(args.dataset, num_images=args.index + 1,
                            height=args.height, width=args.width)
    return dataset[args.index]


def _make_dataset(name, num_images, height, width):
    cls = _DATASET_CLASSES[name]
    if cls is CifarLikeDataset:
        return cls(num_images=num_images, size=32)
    return cls(num_images=num_images, height=height, width=width)


def _build_codec(args):
    """Instantiate the codec requested by the CLI (optionally Easz-wrapped)."""
    base = create_codec(args.codec, quality=args.quality)
    if not args.easz:
        return base
    config = default_benchmark_config(patch_size=args.patch_size,
                                      subpatch_size=args.subpatch_size)
    config = config.with_erase_ratio(args.erase_ratio)
    model = pretrained_model(config, steps=args.train_steps)
    return EaszCodec(config=config, base_codec=base, model=model)


# --------------------------------------------------------------------------- #
# commands
# --------------------------------------------------------------------------- #
def _command_info(_args):
    print(format_kv_block("repro — Easz reproduction", {
        "version": __version__,
        "codecs": ", ".join(available_codecs()),
        "model cache": cache_directory(),
    }))
    rows = [[d.name, d.cpu_gmacs_per_s, d.gpu_gmacs_per_s, d.cpu_active_w + d.gpu_active_w]
            for d in _DEVICE_PROFILES]
    print()
    print(format_table(["device", "cpu GMAC/s", "gpu GMAC/s", "active power (W)"], rows,
                       title="device profiles (edge/server testbed)"))
    return 0


def _command_codecs(_args):
    rows = []
    for name in available_codecs():
        try:
            grid = quality_grid(name)
        except KeyError:
            grid = []
        rows.append([name, ", ".join(str(q) for q in grid) or "(single setting)"])
    print(format_table(["codec", "quality grid"], rows, title="registered codecs"))
    return 0


def _command_roundtrip(args):
    image = _load_image(args)
    codec = _build_codec(args)
    reconstruction, compressed = codec.roundtrip(image)
    scores = {
        "codec": codec.name,
        "image shape": "x".join(str(s) for s in image.shape),
        "compressed bytes": compressed.num_bytes,
        "bpp": compressed.bpp(),
        "psnr (dB)": psnr(image, reconstruction),
        "ms-ssim": ms_ssim(image, reconstruction),
        "brisque": brisque(reconstruction),
        "pi": pi(reconstruction),
        "tres": tres(reconstruction),
    }
    print(format_kv_block("roundtrip", scores))
    if args.output:
        np.save(args.output, reconstruction)
        print(f"reconstruction written to {args.output}")
    return 0


def _command_compress(args):
    image = _load_image(args)
    base = create_codec(args.codec, quality=args.quality)
    if args.easz:
        config = default_benchmark_config(patch_size=args.patch_size,
                                          subpatch_size=args.subpatch_size)
        config = config.with_erase_ratio(args.erase_ratio)
        package = EaszEncoder(config, base, seed=0).encode(image)
        bpp = package.bpp()
    else:
        package = base.compress(image)
        bpp = package.bpp()
    size = save_package(package, args.output)
    print(format_kv_block("compress", {
        "codec": f"{base.name}+easz" if args.easz else base.name,
        "image shape": "x".join(str(s) for s in image.shape),
        "container": args.output,
        "container bytes": size,
        "bpp": bpp,
    }))
    return 0


def _command_decompress(args):
    package = load_package(args.input)
    base = create_codec(args.codec, quality=args.quality)
    if isinstance(package, EaszCompressed):
        config = default_benchmark_config(patch_size=args.patch_size,
                                          subpatch_size=args.subpatch_size)
        config = config.with_erase_ratio(args.erase_ratio)
        model = pretrained_model(config, steps=args.train_steps)
        image = EaszDecoder(model=model, config=config, base_codec=base).decode(package)
    else:
        image = base.decompress(package)
    image = np.asarray(image)
    np.save(args.output, image)
    print(format_kv_block("decompress", {
        "container": args.input,
        "decoded shape": "x".join(str(s) for s in image.shape),
        "output": args.output,
    }))
    return 0


def _command_evaluate(args):
    dataset = _make_dataset(args.dataset, num_images=args.images,
                            height=args.height, width=args.width)
    codec = _build_codec(args)
    evaluation = evaluate_codec_on_dataset(codec, dataset, max_images=args.images)
    block = {"codec": evaluation.codec_name, "images": evaluation.num_images,
             "bpp": evaluation.bpp}
    block.update(evaluation.scores)
    print(format_kv_block(f"{args.dataset} evaluation", block))
    return 0


def _command_train(args):
    config = default_benchmark_config(patch_size=args.patch_size,
                                      subpatch_size=args.subpatch_size,
                                      d_model=args.d_model)
    model = pretrained_model(config, steps=args.steps, force_retrain=args.force, verbose=True)
    print(format_kv_block("reconstruction model", {
        "parameters": sum(p.data.size for p in model.parameters()),
        "size (MB)": model.model_size_bytes() / 2 ** 20,
        "patch size": config.patch_size,
        "erase block": config.subpatch_size,
        "cache": cache_directory(),
    }))
    return 0


def _command_experiment(args):
    if args.name == "fig1":
        return _experiment_fig1()
    if args.name == "fig6":
        return _experiment_fig6(args)
    if args.name == "fig8d":
        return _experiment_fig8d(args)
    return _experiment_table2(args)


def _experiment_fig1():
    """Fig. 1 — NN-codec load/encode latency vs transmission on the TX2."""
    testbed = EdgeServerTestbed()
    shape = (512, 768, 3)
    payload = int(0.4 * shape[0] * shape[1] / 8)
    rows = []
    for name in ("balle-factorized", "balle-hyperprior", "mbt", "cheng"):
        codec = create_codec(name, quality=4)
        report = testbed.run(codec, shape=shape, payload_bytes=payload)
        rows.append([name, report.timing.transmit_ms, report.timing.load_ms,
                     report.timing.encode_ms])
    print(format_table(["codec", "transmit (ms)", "load (ms)", "edge encode (ms)"], rows,
                       title="Fig. 1 — NN compressors on a simulated Jetson TX2 (512x768)"))
    return 0


def _experiment_fig6(args):
    """Fig. 6 — efficiency comparison of Easz vs MBT/Cheng on the TX2."""
    image = KodakDataset(num_images=1, height=args.height, width=args.width)[0]
    testbed = EdgeServerTestbed()
    config = default_benchmark_config()
    model = pretrained_model(config, steps=300)
    codecs = {
        "easz": EaszCodec(config=config, model=model),
        "mbt": create_codec("mbt", quality=4),
        "cheng": create_codec("cheng", quality=4),
    }
    rows = []
    for label, codec in codecs.items():
        report = testbed.run(codec, image=image)
        timing = report.timing
        rows.append([label, timing.erase_squeeze_ms, timing.encode_ms, timing.transmit_ms,
                     timing.decode_ms, timing.reconstruction_ms,
                     report.edge_total_power_w, report.edge_memory_gb])
    print(format_table(
        ["codec", "erase (ms)", "encode (ms)", "transmit (ms)", "decode (ms)",
         "recon (ms)", "edge power (W)", "edge mem (GB)"],
        rows, title=f"Fig. 6 — efficiency on a simulated Jetson TX2 ({args.height}x{args.width})"))
    return 0


def _experiment_fig8d(args):
    """Fig. 8d — end-to-end latency vs bitrate."""
    image = KodakDataset(num_images=1, height=args.height, width=args.width)[0]
    testbed = EdgeServerTestbed()
    config = default_benchmark_config()
    model = pretrained_model(config, steps=300)
    rows = []
    for quality in (30, 60, 85):
        easz = EaszCodec(config=config, base_codec=create_codec("jpeg", quality=quality),
                         model=model)
        mbt = create_codec("mbt", quality=max(1, quality // 15))
        for codec in (easz, mbt):
            report = testbed.run(codec, image=image)
            rows.append([codec.name, report.bpp, report.timing.total_ms])
    print(format_table(["codec", "bpp", "end-to-end latency (ms)"], rows,
                       title="Fig. 8d — end-to-end latency vs bitrate (simulated testbed)"))
    return 0


def _experiment_table2(args):
    """Table II (reduced) — perceptual enhancement from wrapping codecs in Easz."""
    dataset = KodakDataset(num_images=args.images, height=args.height, width=args.width)
    config = default_benchmark_config()
    model = pretrained_model(config, steps=300)
    rows = []
    for name, quality in (("jpeg", 75), ("bpg", 32)):
        base = create_codec(name, quality=quality)
        wrapped = EaszCodec(config=config, base_codec=create_codec(name, quality=quality),
                            model=model)
        for codec in (base, wrapped):
            evaluation = evaluate_codec_on_dataset(codec, dataset, max_images=args.images,
                                                   full_reference=("psnr",))
            rows.append([codec.name, evaluation.bpp, evaluation.scores["brisque"],
                         evaluation.scores["pi"], evaluation.scores["tres"]])
    print(format_table(["codec", "bpp", "brisque (lower=better)", "pi (lower=better)",
                        "tres (higher=better)"], rows,
                       title="Table II (reduced) — enhancement of existing codecs"))
    return 0


def _command_list_scenarios():
    from ..serve.scenarios import builtin_scenarios

    rows = []
    for name, scenario in sorted(builtin_scenarios().items()):
        chaos = scenario.chaos
        faults = []
        if chaos.kill_shard_at_s:
            faults.append(f"kill x{len(chaos.kill_shard_at_s)}")
        if chaos.freeze_shard_at_s:
            faults.append(f"freeze x{len(chaos.freeze_shard_at_s)}")
        if chaos.corrupt_fraction > 0:
            faults.append(f"corrupt {chaos.corrupt_fraction * 100:.0f}%")
        rows.append([name, len(scenario.tenants), f"{scenario.duration_s:.0f}s",
                     ", ".join(faults) or "none"])
    print(format_table(["scenario", "tenants", "duration", "chaos"], rows,
                       title="built-in chaos scenarios (serve-bench --scenario NAME)"))
    return 0


def _resolve_scenario(name):
    from ..serve.scenarios import builtin_scenarios

    scenarios = builtin_scenarios()
    scenario = scenarios.get(name)
    if scenario is None:
        raise ValueError(f"unknown scenario {name!r}; choose from "
                         f"{', '.join(sorted(scenarios))}")
    return scenario


def _load_scenario_file(path):
    """Parse a ScenarioSpec from a JSON file; bad fields exit 2 via ValueError."""
    from pathlib import Path

    from ..serve.scenarios import ScenarioSpec

    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ValueError(f"cannot read scenario file {path!r}: {error}") from error
    try:
        return ScenarioSpec.from_json(text)
    except ValueError as error:
        raise ValueError(f"scenario file {path!r}: {error}") from error


def _run_scenario_bench(args, scenario, config, model):
    """Replay one scenario, print its report; exit 4 on broken invariants,
    3 on a saturated run."""
    from pathlib import Path

    from ..serve import CompressionServer, ShardedCompressionServer
    from ..serve.scenarios import run_scenario

    if args.shards > 0:
        # the watchdog always runs, probing every 0.25 s; scenario hints
        # (watchdog cadence, queue depth) override the generic CLI defaults —
        # each scenario is tuned to exercise one failure mode
        kwargs = {
            "num_shards": args.shards,
            "workers_per_shard": max(1, args.workers // args.shards),
            "queue_depth": args.queue_depth,
            "result_cache_size": args.result_cache,
            "watchdog_interval_s": 0.25,
        }
        kwargs.update(dict(scenario.server_hints))
        server = ShardedCompressionServer(model=model, config=config, **kwargs)
    else:
        if scenario.chaos.kill_shard_at_s or scenario.chaos.freeze_shard_at_s:
            print("warning: scenario has process chaos but --shards is 0; "
                  "those events will be skipped (threaded server)", file=sys.stderr)
        kwargs = {
            "num_workers": args.workers,
            "queue_depth": args.queue_depth,
            "result_cache_size": args.result_cache,
        }
        # scenario hints still override here, minus the process knobs a
        # threaded server has no equivalent for (watchdog cadence)
        kwargs.update({key: value for key, value in dict(scenario.server_hints).items()
                       if key in kwargs})
        server = CompressionServer(model=model, config=config, **kwargs)
    with server:
        report = run_scenario(scenario, server, config=config, model=model)
        snapshot = server.stats.snapshot()

    block = {
        "description": scenario.description or "(none)",
        "duration (s)": report.duration_s,
        "servers (c)": report.servers,
        "offered / submitted / completed":
            f"{report.offered} / {report.submitted} / {report.completed}",
        "futures lost / duplicated":
            f"{report.futures_lost} / {report.futures_duplicated}",
        "decoder crashes": report.decoder_crashes,
        "watchdog restarts": report.watchdog_restarts,
        "retries / deadline-shed":
            f"{report.retries} / {report.deadline_shed}",
        "utilisation": report.utilisation,
        "service time / image (ms)": report.service_time_per_image_ms,
        "queue wait mean (ms)": snapshot["queue_wait_mean_ms"],
        "result-cache hits": snapshot["result_cache"]["hits"],
        "chaos events": len(report.chaos_events),
    }
    if args.shards > 0:
        block["response transport"] = (", ".join(
            f"{name}={count}" for name, count in snapshot["response_transport"].items())
            or "(none)")
    print(format_kv_block(f"scenario {scenario.name}", block))
    print()
    rows = [[t.name, t.qos, t.arrival, f"{t.deadline_ms:.0f}",
             t.offered, t.completed, t.degraded, t.shed,
             t.retries, t.deadline_shed,
             f"{t.latency_p50_ms:.1f}", f"{t.latency_p99_ms:.1f}",
             f"{t.predicted_wait_ms_mean:.1f}",
             f"{t.slo_miss_rate * 100:.1f}%"]
            for t in report.tenants]
    print(format_table(
        ["tenant", "qos", "arrival", "budget ms", "offered", "done", "degr",
         "shed", "retry", "dl-shed", "p50 ms", "p99 ms",
         "M/D/c pred ms", "SLO miss"],
        rows, title="per-tenant service levels"))
    cache_rows = [[owner, cache["name"], cache["hits"], cache["misses"]]
                  for owner, caches in snapshot["caches"].items() for cache in caches]
    if cache_rows:
        print()
        print(format_table(["server", "cache", "hits", "misses"], cache_rows,
                           title="plan and codec caches"))
    for event in report.chaos_events:
        print(f"chaos @ {event['at_s']:7.3f}s  {event['kind']}: {event['detail']}")
    print(report.headline())

    if args.scenario_report:
        Path(args.scenario_report).write_text(report.to_json())
        print(f"wrote {args.scenario_report}")
    if not report.ok():
        print("error: chaos invariants violated — "
              f"lost={report.futures_lost} duplicated={report.futures_duplicated} "
              f"decoder_crashes={report.decoder_crashes}", file=sys.stderr)
        return 4
    if report.saturated:
        print("error: the run saturated the pool (utilisation >= 1 or every "
              "request refused); lower --rate or raise --workers/--shards for "
              "meaningful latency numbers", file=sys.stderr)
        return 3
    return 0


def _command_serve_bench(args):
    """Replay Poisson load or a chaos scenario against a live server."""
    from ..serve import available_cpus

    if args.list_scenarios:
        return _command_list_scenarios()
    # resolve the scenario before the (expensive) model build: a typo in
    # --scenario or a malformed --scenario-file should fail in milliseconds,
    # not after pretraining
    if args.scenario and args.scenario_file:
        raise ValueError("--scenario and --scenario-file are mutually exclusive")
    if args.scenario:
        scenario = _resolve_scenario(args.scenario)
    elif args.scenario_file:
        scenario = _load_scenario_file(args.scenario_file)
    else:
        from ..serve.scenarios import poisson_scenario

        scenario = poisson_scenario(args.rate, args.requests, num_images=args.images)
    if args.shards > 0 and available_cpus() < 2:
        # not silent: sharding cannot beat the threaded server here, and the
        # throughput benchmark records a `skipped` marker on such hosts
        print(f"warning: host exposes {available_cpus()} CPU; {args.shards} "
              "process shards will not run in parallel (numbers reflect "
              "transport overhead only)", file=sys.stderr)

    config = default_benchmark_config()
    model = pretrained_model(config, steps=args.train_steps)
    return _run_scenario_bench(args, scenario, config, model)


_COMMANDS = {
    "info": _command_info,
    "codecs": _command_codecs,
    "roundtrip": _command_roundtrip,
    "compress": _command_compress,
    "decompress": _command_decompress,
    "evaluate": _command_evaluate,
    "train": _command_train,
    "experiment": _command_experiment,
    "serve-bench": _command_serve_bench,
}


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
