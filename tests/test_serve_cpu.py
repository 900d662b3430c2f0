"""Tests for the thread and memory policy: one BLAS thread in every serving
process and in every process whose reconstruction engine has built its chunk
helpers; freed frame buffers kept in the heap of every serving process."""

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
from repro.cpu import available_cpus, keep_freed_memory, limit_blas_threads
from repro.serve import CompressionServer, ShardedCompressionServer

needs_openblas = pytest.mark.skipif(repro.cpu._openblas() is None,
                                    reason="numpy is not linked to its bundled OpenBLAS")
needs_glibc = pytest.mark.skipif(repro.cpu._glibc() is None
                                 or not hasattr(repro.cpu._glibc(), "mallinfo2"),
                                 reason="no glibc 2.33+ malloc to set or to read back")
needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                                reason="no /proc to read page faults from")


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


def _run_fresh(script, env_changes=()):
    """Run ``script`` in a fresh interpreter on this checkout's source, with
    no malloc variable of the caller's; its last output line, parsed as JSON."""
    source = str(Path(repro.cpu.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
        env.pop(name, None)
    env.update(env_changes)
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


@needs_proc
@needs_glibc
def test_shards_reuse_their_freed_frame_buffers():
    # warmed shards decode mixed 256x256 and 295x311 RGB frames (1.5 and
    # 2.1 MiB float64); with glibc's default allocator each request faulted
    # its buffers in again, ~900 minor faults per request.  The pool runs in
    # a fresh process, as a server's would: shards fork from it, and a test
    # runner's larger interpreter heap adds faults of Python's own
    # small-object arenas, which no malloc setting reaches
    faults, requests = _run_fresh("""
        import json
        import numpy as np
        from repro.core import EaszConfig, EaszEncoder, EaszReconstructor
        from repro.serve import ShardedCompressionServer
        def minor_faults(pid):  # minflt, the 10th field of /proc/<pid>/stat
            with open(f"/proc/{pid}/stat") as handle:
                return int(handle.read().rsplit(")", 1)[1].split()[7])
        config = EaszConfig(patch_size=16, subpatch_size=4, d_model=16, num_heads=2,
                            encoder_blocks=1, decoder_blocks=1)
        model = EaszReconstructor(config)
        model.eval()
        rng = np.random.default_rng(0)
        packages = [EaszEncoder(config, seed=seed).encode(rng.random(shape))
                    for seed in range(4) for shape in ((256, 256, 3), (295, 311, 3))]
        with ShardedCompressionServer(model=model, config=config, num_shards=2) as server:
            for _ in range(3):
                for package in packages:
                    server.submit(package, kind="decode").result(timeout=60.0)
            pids = [server.shard_process(index).pid for index in range(2)]
            before = sum(minor_faults(pid) for pid in pids)
            for _ in range(5):
                for package in packages:
                    server.submit(package, kind="decode").result(timeout=60.0)
            faults = sum(minor_faults(pid) for pid in pids) - before
        print(json.dumps([faults, 5 * len(packages)]))
    """)
    assert faults / requests < 20, f"{faults} minor faults in {requests} requests"


@needs_glibc
@pytest.mark.parametrize("user_setting", [
    None, ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072")],
    ids=["default", "user-trim-threshold", "user-tunable"])
def test_serving_start_sets_the_allocator_policy(user_setting):
    # a fresh process: glibc's default (a large buffer gets its own mmap) at
    # import and after a library reconstruction; a started server serves it
    # from the heap, unless the user set glibc's malloc variables.  Each check
    # asks for a larger buffer than the last, because freeing a mapped buffer
    # raises glibc's default threshold to its size
    at_import, after_library_call, after_start, applied = _run_fresh("""
        import ctypes
        import json
        import numpy as np
        import repro.cpu
        from repro.core import EaszConfig, EaszReconstructor, proposed_mask, reconstruct_image
        from repro.serve import CompressionServer
        class Mallinfo2(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in (
                "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
                "uordblks", "fordblks", "keepcost")]
        libc = repro.cpu._glibc()
        libc.mallinfo2.argtypes, libc.mallinfo2.restype = [], Mallinfo2
        def mapped(mib):  # whether a mib-MiB buffer gets an mmap of its own
            before = libc.mallinfo2().hblkhd
            buffer = np.ones((mib << 20) // 8)
            grown = libc.mallinfo2().hblkhd - before
            del buffer
            return grown >= mib << 20
        states = [mapped(16)]
        config = EaszConfig(patch_size=16, subpatch_size=4, d_model=16, num_heads=2,
                            encoder_blocks=1, decoder_blocks=1)
        model = EaszReconstructor(config)
        model.eval()
        mask = proposed_mask(config.grid_size, 1, 1, seed=0)
        reconstruct_image(model, np.zeros((256, 256, 3)), mask)  # a library call
        states.append(mapped(20))
        with CompressionServer(model=model):
            states.append(mapped(24))
            states.append(repro.cpu.keep_freed_memory())
        print(json.dumps(states))
    """, [user_setting] if user_setting else ())
    assert at_import and after_library_call
    if user_setting is None:
        assert not after_start and applied
    else:  # the user's setting stands: glibc keeps its fixed 128 KiB threshold
        assert after_start and not applied


def test_no_glibc_is_a_no_op(monkeypatch):
    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(repro.cpu, "_glibc", lambda: None)
    assert keep_freed_memory() is False
