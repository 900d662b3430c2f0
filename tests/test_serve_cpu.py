"""Tests for the thread policy: one BLAS thread in every serving process and
in every process whose reconstruction engine has built its chunk helpers."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.cpu
from repro.core import EaszConfig, EaszReconstructor
from repro.cpu import available_cpus, limit_blas_threads
from repro.serve import CompressionServer, ShardedCompressionServer

needs_openblas = pytest.mark.skipif(repro.cpu._openblas() is None,
                                    reason="numpy is not linked to its bundled OpenBLAS")


def _blas_threads():
    return repro.cpu._openblas().scipy_openblas_get_num_threads64_()


@pytest.fixture
def unpinned_blas(monkeypatch):
    """No user thread variables, and BLAS on as many threads as it may use
    (an earlier server may have left one); the count restored afterwards."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    library = repro.cpu._openblas()
    before = _blas_threads()
    library.scipy_openblas_set_num_threads64_(available_cpus())
    yield
    library.scipy_openblas_set_num_threads64_(before)


@pytest.fixture(scope="module")
def tiny_model():
    config = EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1, d_model=16,
                        num_heads=2, encoder_blocks=1, decoder_blocks=1, ffn_mult=2)
    model = EaszReconstructor(config)
    model.eval()
    return model


@needs_openblas
def test_threaded_server_runs_blas_on_one_thread(tiny_model, unpinned_blas):
    server = CompressionServer(model=tiny_model)
    assert server.stats.snapshot()["blas_threads"] == [None]  # not started yet
    with server:
        assert _blas_threads() == 1
        assert server.stats.snapshot()["blas_threads"] == [1]


@needs_openblas
def test_each_shard_reports_its_own_count(tiny_model, unpinned_blas):
    with ShardedCompressionServer(model=tiny_model, num_shards=2) as server:
        assert server.stats.snapshot()["blas_threads"] == [1, 1]


@needs_openblas
@pytest.mark.skipif(available_cpus() < 2, reason="OpenBLAS caps its count at the CPUs")
def test_user_thread_variable_wins():
    script = textwrap.dedent("""
        import json
        import repro.cpu
        from repro.core import EaszConfig, EaszReconstructor
        from repro.serve import CompressionServer
        model = EaszReconstructor(EaszConfig(patch_size=16, subpatch_size=4, d_model=16,
                                             num_heads=2, encoder_blocks=1,
                                             decoder_blocks=1))
        with CompressionServer(model=model) as server:
            reported = server.stats.snapshot()["blas_threads"]
            actual = repro.cpu._openblas().scipy_openblas_get_num_threads64_()
        print(json.dumps([reported, actual]))
    """)
    source = str(Path(repro.cpu.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    env.pop("OMP_NUM_THREADS", None)
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads(result.stdout.strip().splitlines()[-1]) == [[2], 2]


@needs_openblas
def test_no_openblas_mapped_is_a_no_op(monkeypatch, unpinned_blas):
    before = _blas_threads()
    monkeypatch.setattr(repro.cpu, "_openblas", lambda: None)
    assert limit_blas_threads() is None
    monkeypatch.undo()
    assert _blas_threads() == before


@needs_openblas
@pytest.mark.skipif(available_cpus() < 2, reason="one CPU runs no engine helper")
@pytest.mark.parametrize("user_count", [None, "2"], ids=["default", "user-set"])
def test_the_engines_first_multi_chunk_call_sets_the_thread_policy(user_count):
    # a fresh process: nothing at import or on a one-chunk call, then helper
    # threads and one BLAS thread (unless the user set a count) on the first
    # multi-chunk call, as in a library call that starts no server
    script = textwrap.dedent("""
        import json
        import threading
        import numpy as np
        import repro.cpu
        from repro.core import EaszConfig, EaszReconstructor, proposed_mask, reconstruct_image
        def state():
            return [repro.cpu._openblas().scipy_openblas_get_num_threads64_(),
                    sorted(t.name for t in threading.enumerate() if t.name.startswith("engine"))]
        config = EaszConfig(patch_size=16, subpatch_size=4, d_model=16, num_heads=2,
                            encoder_blocks=1, decoder_blocks=1)
        model = EaszReconstructor(config)
        model.eval()
        mask = proposed_mask(config.grid_size, 1, 1, seed=0)
        states = [state()]
        reconstruct_image(model, np.zeros((64, 64, 3)), mask)  # one chunk
        states.append(state())
        reconstruct_image(model, np.zeros((256, 256, 3)), mask)  # twelve chunks
        states.append(state())
        print(json.dumps(states))
    """)
    source = str(Path(repro.cpu.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    if user_count is not None:
        env["OPENBLAS_NUM_THREADS"] = user_count
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    at_import, after_one_chunk, after_twelve = json.loads(
        result.stdout.strip().splitlines()[-1])
    assert at_import[1] == [] and after_one_chunk == at_import
    helpers = [f"engine-{index}" for index in range(available_cpus() - 1)]
    assert after_twelve == [1 if user_count is None else int(user_count), helpers]
