"""Response-hop probe: how long a sharded response takes to reach its caller.

Serves 256x256 RGB ``decode`` requests, whose responses are 1.5 MiB float64
frames, on a 2-shard :class:`ShardedCompressionServer` in a closed loop (one
request in flight), twice: with the parent process idle, and with one busy
pure-Python thread in the parent.  Each run prints the p50 and p90 of
submit -> result, the shards' mean service time over the same requests, and
each shard's minor page faults per request it served (``minflt`` from
``/proc/<pid>/stat``; ``n/a`` without ``/proc``).
What submit -> result adds to the service time is the request's trip to
the shard and the response's trip back (frame read, settlement, wake-ups);
a busy thread stretches it whenever a blocking call has to win the GIL back.

Not part of the test suite.  Run with::

    PYTHONPATH=src python benchmarks/probe_response_hop.py
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import EaszConfig, EaszEncoder, EaszReconstructor  # noqa: E402
from repro.serve import ShardedCompressionServer  # noqa: E402

WARMUP = 10
REQUESTS = 200


def spin(stop):
    """Busy pure-Python work until ``stop`` is set."""
    while not stop.is_set():
        total = 0
        for value in range(10_000):
            total += value


def minor_faults(pid):
    """Page faults ``pid`` has taken without I/O, or ``None`` without ``/proc``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return int(handle.read().rsplit(")", 1)[1].split()[7])  # minflt, field 10
    except OSError:
        return None


def run(server, packages, busy):
    """Closed-loop ``REQUESTS`` decodes.

    Returns the submit->result seconds, the mean service seconds, and each
    shard's minor faults per request it served (``None`` where unknown).
    """
    for index in range(WARMUP):
        server.submit(packages[index % len(packages)], kind="decode").result(timeout=120.0)
    pids = [server.shard_process(index).pid for index in range(server.num_shards)]
    faults_before = [minor_faults(pid) for pid in pids]
    before = server.stats.snapshot()
    stop = threading.Event()
    spinner = threading.Thread(target=spin, args=(stop,), daemon=True)
    if busy:
        spinner.start()
    latencies = []
    try:
        for index in range(REQUESTS):
            started = time.perf_counter()
            server.submit(packages[index % len(packages)], kind="decode").result(timeout=120.0)
            latencies.append(time.perf_counter() - started)
    finally:
        stop.set()
        if busy:
            spinner.join(timeout=10.0)
    after = server.stats.snapshot()
    faults = []
    for pid, faults_then, shard_then, shard_now in zip(
            pids, faults_before, before["shards"], after["shards"]):
        faults_now, shard_served = minor_faults(pid), shard_now["batches"] - shard_then["batches"]
        faults.append(None if None in (faults_then, faults_now) or not shard_served
                      else (faults_now - faults_then) / shard_served)
    served = after["batches"] - before["batches"]
    service = (after["service_seconds_total"] - before["service_seconds_total"]) / served
    return np.array(latencies), service, faults


def main():
    config = EaszConfig()
    model = EaszReconstructor(config)
    rng = np.random.default_rng(0)
    # one mask per encoder seed, so the router spreads the frames over both shards
    packages = [EaszEncoder(config, seed=seed).encode(rng.random((256, 256, 3)))
                for seed in range(4)]
    with ShardedCompressionServer(model=model, config=config, num_shards=2) as server:
        for label, busy in (("parent idle", False), ("busy thread", True)):
            latencies, service, faults = run(server, packages, busy)
            p50, p90 = np.percentile(latencies, [50, 90]) * 1e3
            per_shard = "  ".join("n/a" if count is None else f"{count:.1f}" for count in faults)
            print(f"{label}: submit->result p50 {p50:.2f} ms  p90 {p90:.2f} ms  "
                  f"service mean {service * 1e3:.2f} ms  (n={len(latencies)})  "
                  f"shard minor faults / request served: {per_shard}", flush=True)


if __name__ == "__main__":
    main()
