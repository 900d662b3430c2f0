"""Run workloads over several seeds and report each metric's median and spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads serve-reconstruct sharded-decode \\
        --seeds 1 2 3 4 5 --seconds 45 --out .perfbench_out/spread.json

Spread is the interquartile range of the per-seed values
(``statistics.quantiles(values, n=4)``) as a share of their median, the
figure a metric's ``bound`` in ``BENCHMARK.json`` is compared with.
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
sys.path.insert(0, HERE)

from harness import host_fingerprint  # noqa: E402


def run_once(workload, seed, seconds, trace):
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def summarise(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        median = statistics.median(values)
        quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        summary[name] = {
            "median": median, "q1": quartiles[0], "q3": quartiles[2],
            "spread": (quartiles[2] - quartiles[0]) / abs(median) if median else 0.0,
            "unit": results[0]["metrics"][name]["unit"], "values": values,
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    report = {"host": host_fingerprint(), "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        summary = report["workloads"][workload] = {
            "seeds": args.seeds,
            "all_correct": all(result["correct"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "wall_s_max": max(result["wall_s"] for result in results),
            "metrics": summarise(results),
        }
        for name, stats in summary["metrics"].items():
            print(f"{workload:18s} {name:32s} median {stats['median']:12.5f} "
                  f"spread {stats['spread']:.4f}", flush=True)
        print(f"{workload:18s} correct={summary['all_correct']} "
              f"wall_max={summary['wall_s_max']:.1f}s", flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
