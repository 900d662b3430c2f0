"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sharded-decode --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
variant and prints the per-layer metrics.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A
full report (host fingerprint, sample counts, spans of a traced run) is
written under ``.perfbench_out/``.  The first run in a checkout trains the
benchmark model and builds the scene bank into ``.perfbench_cache/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from harness import (Tracer, adopt_orphans, end_child_processes,  # noqa: E402
                     host_fingerprint, percentile)
from inputs import OUT_DIR, load_model, scene_bank  # noqa: E402
from workloads import PER_LAYER, WORKLOADS, ShardedDecode  # noqa: E402

#: Cold set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Operations needed beyond a percentile before it is reported as measured.
TAIL_SAMPLES = 10
#: Largest share of the sequential encode composition its layer spans may miss.
ACCOUNTING_GAP = 0.05


def cold_setup_seconds(name):
    """Seconds from launching a fresh interpreter until the service is ready."""
    started = time.perf_counter()
    probe = subprocess.Popen([sys.executable, os.path.join(HERE, "setup_probe.py"), name],
                             stdout=subprocess.PIPE, text=True)
    try:
        line = probe.stdout.readline()
        ready = time.perf_counter() - started
        probe.stdout.read()
        code = probe.wait(timeout=120)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.wait()
        probe.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit {code})")
    return ready


def end_to_end(workload, outcome, setup_s):
    completed = len(outcome.latencies_s)
    latencies_ms = [value * 1e3 for value in outcome.latencies_s]
    within = sum(value <= workload.slo_ms for value in latencies_ms)
    return {
        "setup_s": (setup_s, "s"),
        "images_per_s": (completed / outcome.elapsed_s, "1/s"),
        "latency_ms_p50": (percentile(latencies_ms, 50), "ms"),
        "latency_ms_p90": (percentile(latencies_ms, 90), "ms"),
        "slo_attainment": (within / max(outcome.sent, 1), "ratio"),
        "cpu_ms_per_image": (outcome.cpu_s * 1e3 / max(completed, 1), "ms"),
        "psnr_db": (workload.psnr_db, "dB"),
        "bpp": (workload.bpp, "bit/px"),
        "rss_peak_mb": (outcome.rss_mb, "MiB"),
    }


def main(argv=None):
    adopt_orphans()
    try:
        return measure(argv)
    finally:
        end_child_processes()


def measure(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cls = WORKLOADS[args.workload]

    model = load_model()
    bank = scene_bank()
    setup_s = None
    if not args.trace:
        setup_s = statistics.median(cold_setup_seconds(cls.name)
                                    for _ in range(SETUP_REPEATS))
    workload = cls(args.seed, model, bank)
    notes = []
    try:
        workload.start()
        if args.trace:
            tracer = Tracer()
            attempted, failed, layers = workload.trace(args.seconds, tracer)
            metrics = {name: (float(layers.get(name, 0.0)), unit)
                       for name, unit in PER_LAYER.items()}
            samples = {"traced_ops": len(tracer.durations_ms("op") or
                                         tracer.durations_ms("request"))}
            lateness_ms = layers.get("loadgen.lateness_ms_p90", 0.0)
            encode_ms, _, missed_ms = tracer.accounting("encode")
            if encode_ms and abs(missed_ms) > ACCOUNTING_GAP * encode_ms:
                notes.append(f"encode layer spans miss {missed_ms / encode_ms:.1%} of it")
        else:
            outcome = workload.run(args.seconds)
            attempted, failed = outcome.sent, outcome.failed
            metrics = end_to_end(workload, outcome, setup_s)
            samples = {"latency_samples": len(outcome.latencies_s),
                       "sent": outcome.sent, "succeeded": outcome.succeeded,
                       "failed": outcome.failed}
            if len(outcome.latencies_s) < 10 * TAIL_SAMPLES:
                notes.append(f"only {len(outcome.latencies_s)} latency samples: "
                             f"p90 has fewer than {TAIL_SAMPLES} beyond it")
            lateness_ms = percentile(outcome.lateness_s, 90) * 1e3
            samples["loadgen_lateness_ms_p90"] = lateness_ms
    finally:
        workload.stop()
    valid = lateness_ms <= ShardedDecode.LATENESS_LIMIT_MS
    if not valid:
        notes.append(f"INVALID: the load generator ran {lateness_ms:.1f} ms late at p90; "
                     "the run measured the generator, not the server")

    report = {
        "workload": cls.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_fingerprint(), "samples": samples,
        "notes": notes,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{cls.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump(report, handle, indent=2)
    if args.trace:
        tracer.write(stem + ".spans.jsonl")

    for name, (value, unit) in metrics.items():
        print(f"{cls.name:18s} {name:32s} {value:14.6f} {unit}")
    print(f"{cls.name:18s} samples {json.dumps(samples)}")
    for note in notes:
        print(f"{cls.name:18s} note: {note}")
    print(json.dumps({
        "correct": bool(failed == 0 and valid),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
