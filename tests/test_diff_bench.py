"""Tests for benchmarks/diff_bench.py — the CI guarded-bar gate.

The script is not importable as a package module (benchmarks/ is not a
package), so it is loaded by file path.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "diff_bench.py"
_spec = importlib.util.spec_from_file_location("diff_bench", _SCRIPT)
diff_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_bench)


def report(**sections):
    """A minimal bench JSON shape passing every guarded bar unless overridden."""
    base = {
        "roundtrip_512_rgb": {"speedup": 8.0},
        "entropy": {"speedup": 5.0},
        "serving": {
            "sharded": {"speedup_vs_threaded": 1.6},
        },
    }
    base.update(sections)
    return base


def test_identical_healthy_reports_pass():
    assert diff_bench.diff(report(), report()) == []


def test_guarded_regression_detected():
    fresh = report(entropy={"speedup": 1.2})
    failures = diff_bench.diff(report(), fresh)
    assert len(failures) == 1
    assert "entropy.speedup" in failures[0]
    assert "1.200" in failures[0]


def test_noise_margin_tolerates_small_shortfall():
    # the entropy bar is 3.0; 0.96 * 3.0 = 2.88 sits inside the 0.95 margin
    fresh = report(entropy={"speedup": 3.0 * 0.96})
    assert diff_bench.diff(report(), fresh) == []
    # ...but below the margin still fails
    fresh = report(entropy={"speedup": 3.0 * 0.90})
    failures = diff_bench.diff(report(), fresh)
    assert len(failures) == 1 and "entropy.speedup" in failures[0]


def test_missing_section_present_in_baseline_fails():
    fresh = report()
    del fresh["serving"]["sharded"]
    failures = diff_bench.diff(report(), fresh)
    assert len(failures) == 1
    assert "missing" in failures[0]
    assert "serving.sharded.speedup_vs_threaded" in failures[0]


def test_section_missing_from_both_is_ignored():
    baseline, fresh = report(), report()
    for doc in (baseline, fresh):
        del doc["serving"]["sharded"]
    assert diff_bench.diff(baseline, fresh) == []


def test_skipped_marker_excuses_missing_bar():
    """A 1-CPU host records {"skipped": ...} instead of sharded numbers."""
    fresh = report()
    fresh["serving"]["sharded"] = {"skipped": "needs >= 2 CPUs"}
    assert diff_bench.diff(report(), fresh) == []


def test_skipped_marker_at_outer_level():
    fresh = report()
    fresh["serving"] = {"skipped": "serving benchmarks disabled"}
    assert diff_bench.diff(report(), fresh) == []


def test_multiple_regressions_all_reported():
    fresh = report(entropy={"speedup": 1.0}, roundtrip_512_rgb={"speedup": 0.5})
    failures = diff_bench.diff(report(), fresh)
    assert len(failures) == 2


def test_lookup_traverses_and_misses():
    doc = {"a": {"b": {"c": 3}}}
    assert diff_bench._lookup(doc, ("a", "b", "c")) == 3
    assert diff_bench._lookup(doc, ("a", "x")) is None
    assert diff_bench._lookup(doc, ("a", "b", "c", "d")) is None


def test_main_exit_codes(tmp_path, capsys):
    baseline_path = tmp_path / "baseline.json"
    fresh_path = tmp_path / "fresh.json"
    baseline_path.write_text(json.dumps(report()))
    fresh_path.write_text(json.dumps(report()))
    assert diff_bench.main(["diff_bench.py", str(baseline_path), str(fresh_path)]) == 0
    assert "no guarded-bar regressions" in capsys.readouterr().out

    fresh_path.write_text(json.dumps(report(entropy={"speedup": 0.1})))
    assert diff_bench.main(["diff_bench.py", str(baseline_path), str(fresh_path)]) == 1
    out = capsys.readouterr().out
    assert "guarded-bar regressions" in out and "entropy.speedup" in out

    assert diff_bench.main(["diff_bench.py"]) == 2


@pytest.mark.parametrize("path,bar", diff_bench.GUARDED_BARS)
def test_every_guarded_bar_trips_when_zeroed(path, bar):
    """Each configured bar is live: zeroing its value must fail the diff."""
    fresh = report()
    node = fresh
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 0.0
    failures = diff_bench.diff(report(), fresh)
    assert len(failures) == 1
    assert ".".join(path) in failures[0]
