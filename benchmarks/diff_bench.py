"""Compare a freshly recorded ``BENCH_throughput.json`` against a baseline.

CI runs the throughput benchmark on every PR; raw timings are too noisy to
gate on, so this script fails **only on guarded-bar regressions** — the
same speedup floors ``tests/test_perf_smoke.py`` enforces on the recorded
numbers, checked on the fresh JSON, plus "a section the baseline had went
missing".  Sections the baseline skipped (e.g. sharded on a 1-CPU dev
box) are only required when the fresh run recorded them.

Usage::

    python benchmarks/diff_bench.py BASELINE.json FRESH.json
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

#: (json path, guarded floor) — mirror tests/test_perf_smoke.py.
#: ``serving`` outside ``sharded`` holds equivalence checks (asserted by the
#: bench when it records) and one unguarded per-image rate, so it has no floor.
GUARDED_BARS = (
    (("roundtrip_512_rgb", "speedup"), 5.0),
    (("entropy", "speedup"), 3.0),
    (("serving", "sharded", "speedup_vs_threaded"), 1.3),
)

#: Bars that sit right at the measured value flap on run-to-run noise; this
#: advisory gate tolerates a small shortfall (the tier-1 guards stay strict).
NOISE_MARGIN = 0.95


def _lookup(report, path):
    node = report
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _skipped(report, path):
    """True when any enclosing section carries a ``skipped`` marker."""
    node = report
    for key in path[:-1]:
        if not isinstance(node, dict):
            return False
        node = node.get(key, {})
        if isinstance(node, dict) and "skipped" in node:
            return True
    return False


def diff(baseline, fresh):
    """Return a list of human-readable regression strings (empty = pass)."""
    failures = []
    for path, bar in GUARDED_BARS:
        label = ".".join(path)
        fresh_value = _lookup(fresh, path)
        if fresh_value is None:
            if _skipped(fresh, path):
                continue  # the fresh host cannot measure this bar
            if _lookup(baseline, path) is None:
                continue  # neither run records it; nothing regressed
            failures.append(f"{label}: recorded in the baseline but missing "
                            "from the fresh run")
            continue
        if fresh_value < bar * NOISE_MARGIN:
            failures.append(f"{label}: {fresh_value:.3f} is below the guarded "
                            f"bar {bar} (baseline "
                            f"{_lookup(baseline, path) or float('nan'):.3f})")
    return failures


def summary_table(baseline, fresh):
    """Markdown table of every guarded bar for the CI step summary."""
    lines = ["### Guarded perf bars", "",
             "| bar | floor | baseline | fresh | status |",
             "|---|---|---|---|---|"]
    for path, bar in GUARDED_BARS:
        label = ".".join(path)
        base_value = _lookup(baseline, path)
        fresh_value = _lookup(fresh, path)
        base_cell = f"{base_value:.3f}" if isinstance(base_value, (int, float)) else "—"
        if fresh_value is None:
            fresh_cell = "—"
            status = ("skipped" if _skipped(fresh, path)
                      else "ok" if base_value is None else "**missing**")
        else:
            fresh_cell = f"{fresh_value:.3f}"
            status = "ok" if fresh_value >= bar * NOISE_MARGIN else "**regressed**"
        lines.append(f"| {label} | {bar} | {base_cell} | {fresh_cell} | {status} |")
    return "\n".join(lines) + "\n"


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    baseline = json.loads(Path(argv[1]).read_text())
    fresh = json.loads(Path(argv[2]).read_text())
    failures = diff(baseline, fresh)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(summary_table(baseline, fresh))
    if failures:
        print("guarded-bar regressions:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("no guarded-bar regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
