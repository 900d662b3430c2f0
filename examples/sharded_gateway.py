"""Sharded-gateway scenario: a camera fleet behind a pool of shard processes.

``serving_gateway.py`` shows one thread-based gateway; this example scales
the same story out to a *pool* — the deployment shape the ROADMAP's
"production-scale traffic" north star asks for:

1. **shard pool** — a :class:`repro.serve.ShardedCompressionServer` spawns
   worker processes (each with its own model weights, codec tables and plan
   caches) behind the exact ``submit_bytes``/``PendingResult`` API the
   threaded server exposes;
2. **sticky routing** — requests that share a mask, geometry and codec go
   to the same shard, whose worker serves them one frame per call from
   warm plan and codec caches;
3. **static-scene result cache** — the fleet re-sends one unchanged frame
   (a parked camera at night) and the digest-keyed cross-request cache
   resolves the repeats without touching any shard;
4. **congestion check** — the fleet's Poisson arrivals are replayed
   against the live pool through the scenario harness
   (:func:`repro.serve.scenarios.poisson_scenario`) and the observed
   latency is printed next to the response time admission predicted from
   the routed shard's queue depth;
5. **one response socket per shard** — each shard sends reconstructed
   pixels back as raw bytes over its own socket, so a shard killed
   mid-write breaks only its own channel; the transport split (shard
   responses vs result-cache hits) is printed from telemetry;
6. **shard health watchdog + restart** — one shard is restarted in place
   mid-traffic, then another is killed outright and the watchdog replaces
   it automatically (restart counts come from the same telemetry snapshot).
"""

from __future__ import annotations

from repro.core import EaszEncoder, pack_package
from repro.datasets import KodakDataset
from repro.experiments import default_benchmark_config, format_table, pretrained_model
from repro.metrics import psnr
from repro.serve import ShardedCompressionServer
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


def pool_roundtrip(server, frames, containers):
    pendings = [server.submit_bytes(blob) for blob in containers]
    responses = [pending.result(timeout=120.0) for pending in pendings]
    rows = []
    for index, response in enumerate(responses):
        rows.append([
            f"camera-{index}",
            response.worker,
            f"{psnr(frames[index], response.image):.2f}",
            f"{response.latency_s * 1e3:.1f}",
        ])
    print(format_table(
        ["node", "served by", "psnr (dB)", "latency (ms)"],
        rows, title="Pool round-trip (submitted as raw EASZ containers)"))


def static_scene_cache(model, config, containers):
    """Re-send one unchanged frame: repeats resolve from the result cache.

    Runs on its own small pool so the cache's short-circuiting does not mask
    the queueing behaviour the congestion replay measures on the main pool.
    """
    with ShardedCompressionServer(model=model, config=config, num_shards=1,
                                  result_cache_size=16) as server:
        repeats = [server.submit_bytes(containers[0]).result(timeout=120.0)
                   for _ in range(5)]
        stats = server.stats.snapshot()["result_cache"]
    cached = sum(response.cached for response in repeats)
    print(f"\nStatic scene: 5 sends of one unchanged frame -> {cached} served from "
          f"the digest-keyed result cache (hits {stats['hits']}, misses "
          f"{stats['misses']}); only the first send touched a shard.")


def congestion_replay(server, packages, images_per_hour=360.0, speedup=80.0):
    rate_rps = len(packages) * images_per_hour / 3600.0 * speedup
    scenario = poisson_scenario(rate_rps, requests=20, num_images=len(packages), seed=7)
    report = run_scenario(scenario, server,
                          workload=Workload.of_packages(scenario, packages))
    tenant = report.tenants[0]
    print(f"\nPoisson replay of the fleet against the live {report.servers}-shard pool:")
    print(f"  {report.headline()}")
    print(f"  p50 {tenant.latency_p50_ms:.1f} ms, p99 {tenant.latency_p99_ms:.1f} ms; "
          f"admission predicted a {tenant.predicted_wait_ms_mean:.1f} ms mean response "
          "from the routed shard's depth; measured service "
          f"{report.service_time_per_image_ms:.1f} ms/image")


def restart_demo(server, containers):
    server.restart_shard(0)
    response = server.submit_bytes(containers[0]).result(timeout=120.0)
    print(f"\nShard 0 restarted in place; next frame served by {response.worker} "
          "with the rest of the pool undisturbed.")


def watchdog_demo(server, containers):
    """Kill a shard outright and let the health watchdog replace it."""
    import time

    victim = server.shard_process(1)
    old_pid = victim.pid
    victim.kill()
    deadline = time.perf_counter() + 60.0
    while time.perf_counter() < deadline:
        current = server.shard_process(1)
        if current.is_alive() and current.pid != old_pid:
            break
        time.sleep(0.05)
    response = server.submit_bytes(containers[0]).result(timeout=120.0)
    watchdog = server.stats.snapshot()["watchdog"]
    print(f"\nShard 1 (pid {old_pid}) was killed; the watchdog restarted it "
          f"(pool restarts so far: {watchdog['restarts_total']}) and the next "
          f"frame was served by {response.worker}.")


def main():
    config = default_benchmark_config()
    model = pretrained_model(config, steps=600, batch_size=32)
    frames, packages, containers = fleet_containers(config)
    print("Sharded-gateway example\n")
    server = ShardedCompressionServer(
        model=model, config=config, num_shards=2,
        watchdog_interval_s=0.25,
    )
    with server:
        pool_roundtrip(server, frames, containers)
        congestion_replay(server, packages)
        restart_demo(server, containers)
        watchdog_demo(server, containers)
        snapshot = server.stats.snapshot()
    transports = ", ".join(f"{name}={count}" for name, count
                           in sorted(snapshot["response_transport"].items()))
    print(f"\nPool stats: {snapshot['completed']} images across "
          f"{snapshot['num_shards']} shards, p50 {snapshot['latency_p50_ms']:.1f} ms, "
          f"response transport [{transports}]")
    static_scene_cache(model, config, containers)
    print("\nEach shard owns its model weights and caches, so the pool scales "
          "with cores instead of fighting one GIL; consistent routing keeps a "
          "camera's mask/geometry on the same warm shard (mask affinity keeps "
          "multi-geometry fleets together), each shard answers over its own "
          "response socket, the watchdog replaces crashed shards "
          "with no lost responses, and the replay line shows admission's "
          "response-time prediction next to what the pool delivered.")


if __name__ == "__main__":
    main()
