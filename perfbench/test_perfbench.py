"""Determinism self-check: a seed fixes every input and quality figure.

Two preparations with one seed must give identical containers, ``psnr_db``
and ``bpp``; another seed must give different inputs.  An untrained model
is enough: only determinism is under test, not quality.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.core import EaszReconstructor  # noqa: E402

import run  # noqa: E402
from inputs import bench_config, scene_bank  # noqa: E402
from workloads import PER_LAYER, WORKLOADS, Outcome  # noqa: E402


@pytest.fixture(scope="module")
def bank(tmp_path_factory):
    return scene_bank(str(tmp_path_factory.mktemp("perfbench-cache")))


@pytest.fixture(scope="module")
def model():
    return EaszReconstructor(bench_config()).eval()


#: Smaller pools keep the check quick; the code paths are the benchmark's own.
SMALL_POOLS = {"PER_CLASS": 2, "CAMERAS": 2, "FRAMES_PER_CAMERA": 2}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs_and_quality(name, bank, model, monkeypatch):
    cls = WORKLOADS[name]
    for attribute, value in SMALL_POOLS.items():
        if hasattr(cls, attribute):
            monkeypatch.setattr(cls, attribute, value)
    first, again, other = (cls(seed, model, bank) for seed in (7, 7, 8))
    assert first.containers == again.containers
    assert (first.psnr_db, first.bpp) == (again.psnr_db, again.bpp)
    assert np.isfinite(first.psnr_db) and first.bpp > 0
    assert not set(first.containers) & set(other.containers)


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert {workload["name"] for workload in bench["workloads"]} == set(WORKLOADS)
    assert {metric["name"]: metric["unit"] for metric in bench["per_layer"]} == PER_LAYER
    workload = SimpleNamespace(slo_ms=1.0, psnr_db=30.0, bpp=1.0)
    reported = run.end_to_end(workload, Outcome([0.5e-3], 1, 0, 1.0, 0.1, 100.0), 0.5)
    assert {metric["name"]: metric["unit"] for metric in bench["end_to_end"]} == {
        name: unit for name, (_, unit) in reported.items()}


def test_run_waits_for_every_process_it_started():
    """The resource tracker and an orphaned grandchild end before the run does."""
    script = f"""
import os, subprocess, sys
sys.path.insert(0, {HERE!r})
from multiprocessing import resource_tracker, shared_memory
from harness import adopt_orphans, end_child_processes
adopt_orphans()
segment = shared_memory.SharedMemory(create=True, size=4096)
segment.close()
segment.unlink()
tracker = resource_tracker._resource_tracker._pid
orphan = subprocess.run(["sh", "-c", "sleep 1 >/dev/null & echo $!"],
                        capture_output=True, text=True)
end_child_processes()
for pid in (tracker, int(orphan.stdout)):
    try:
        os.kill(pid, 0)
        print("alive", pid)
    except ProcessLookupError:
        pass
"""
    # well inside end_child_processes' 20-s kill fallback: a tracker that
    # only ends when killed fails the check
    completed = subprocess.run([sys.executable, "-c", script], capture_output=True,
                               text=True, timeout=15)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == ""
