"""Serving-gateway scenario: a camera fleet behind one micro-batching server.

A fleet of wildlife cameras ships ``EASZ`` transport containers to a shared
reconstruction gateway.  This example wires the pieces end to end:

1. **fleet → wire** — every camera frame is encoded with a shared erase mask
   and flattened into the ``EASZ`` container it would store-and-forward;
2. **gateway** — a :class:`repro.serve.CompressionServer` receives the raw
   container bytes, micro-batches queued requests that share a mask and
   geometry, and reconstructs them on a small worker pool;
3. **congestion check** — the same fleet's Poisson arrival process is
   replayed against the live server through the scenario harness
   (:func:`repro.serve.scenarios.poisson_scenario`) and the observed
   latency is printed next to the M/D/1 prediction that
   :mod:`repro.edge.fleet` computes analytically;
4. **backpressure** — the queue bound is then shrunk until admission control
   starts rejecting, showing overload as an explicit signal instead of
   unbounded latency.
"""

from __future__ import annotations

from repro.core import EaszEncoder, pack_package
from repro.datasets import KodakDataset
from repro.experiments import default_benchmark_config, format_table, pretrained_model
from repro.metrics import psnr
from repro.serve import CompressionServer, ServerOverloadedError
from repro.serve.scenarios import Workload, poisson_scenario, run_scenario


def fleet_containers(config, num_cameras=3, height=96, width=144):
    """Per-camera frames, encoded and packed exactly as the edge would."""
    dataset = KodakDataset(num_images=num_cameras, height=height, width=width)
    encoder = EaszEncoder(config, seed=0)
    mask = encoder.generate_mask()
    frames = [dataset[index] for index in range(num_cameras)]
    packages = encoder.encode_batch(frames, mask=mask)
    containers = [pack_package(package) for package in packages]
    return frames, packages, containers


def gateway_roundtrip(server, frames, containers):
    pendings = [server.submit_bytes(blob) for blob in containers]
    responses = [pending.result(timeout=60.0) for pending in pendings]
    rows = []
    for index, response in enumerate(responses):
        rows.append([
            f"camera-{index}",
            response.config_summary.get("base_codec", "?"),
            f"{psnr(frames[index], response.image):.2f}",
            response.batch_size,
            f"{response.latency_s * 1e3:.1f}",
        ])
    print(format_table(
        ["node", "codec (echoed)", "psnr (dB)", "batch size", "latency (ms)"],
        rows, title="Gateway round-trip (submitted as raw EASZ containers)"))


def congestion_replay(server, packages, images_per_hour=360.0, speedup=80.0):
    # 360 frames/h/camera is one frame every 10 s (0.3 rps fleet-wide; the
    # merged arrivals of Poisson cameras are Poisson at the summed rate);
    # replay 80x faster (~24 rps) so the example finishes in about a second
    # while keeping the server below saturation
    rate_rps = len(packages) * images_per_hour / 3600.0 * speedup
    scenario = poisson_scenario(rate_rps, requests=20, num_images=len(packages), seed=7)
    report = run_scenario(scenario, server,
                          workload=Workload.of_packages(scenario, packages))
    tenant = report.tenants[0]
    print("\nPoisson replay of the fleet against the live server:")
    print(f"  {report.headline()}")
    print(f"  p50 {tenant.latency_p50_ms:.1f} ms, p99 {tenant.latency_p99_ms:.1f} ms; "
          f"M/D/{report.servers} admission predicted a {tenant.predicted_wait_ms_mean:.1f} ms "
          f"mean response; measured service {report.service_time_per_image_ms:.1f} "
          "ms/image")


def backpressure_demo(model, config, packages):
    tiny = CompressionServer(model=model, config=config, num_workers=1, queue_depth=2,
                             max_batch_size=2)
    rejected = 0
    with tiny:
        pendings = []
        for _ in range(8):
            for package in packages:
                try:
                    pendings.append(tiny.submit(package))
                except ServerOverloadedError:
                    rejected += 1
        for pending in pendings:
            pending.result(timeout=60.0)
    print(f"\nBackpressure: queue bound 2 admitted {len(pendings)} of "
          f"{len(pendings) + rejected} burst submissions and rejected {rejected} "
          "with an explicit ServerOverloadedError.")


def main():
    config = default_benchmark_config()
    model = pretrained_model(config, steps=600, batch_size=32)
    frames, packages, containers = fleet_containers(config)
    print("Serving-gateway example\n")
    server = CompressionServer(model=model, config=config, num_workers=2,
                               max_batch_size=4)
    with server:
        gateway_roundtrip(server, frames, containers)
        congestion_replay(server, packages)
        snapshot = server.stats.snapshot()
    print(f"\nServer stats: {snapshot['completed']} images, "
          f"p50 {snapshot['latency_p50_ms']:.1f} ms, p99 {snapshot['latency_p99_ms']:.1f} ms, "
          f"mean batch {snapshot['mean_batch_size']:.1f}, "
          f"batch histogram {snapshot['batch_size_histogram']}")
    backpressure_demo(model, config, packages)
    print("\nOne shared mask per fleet keeps every frame batchable: the gateway fuses "
          "concurrent requests into single transformer calls, and admission control "
          "turns overload into dropped frames at the edge rather than unbounded "
          "server-side latency.")


if __name__ == "__main__":
    main()
