"""Tests for the shard health watchdog, retired shard channels and spill-aware
mask affinity."""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.serve
from repro.codecs import JpegCodec
from repro.core import EaszConfig, EaszDecoder, EaszEncoder, EaszReconstructor
from repro.serve import PendingResult, ShardedCompressionServer, ShardFailedError
from repro.serve.sharding import (_HANG_TIMEOUT_S, _HEARTBEAT, _WATCHDOG_BACKOFF_CAP_S,
                                  _WATCHDOG_INTERVAL_S)


@pytest.fixture(scope="module")
def serve_config():
    return EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1,
                      d_model=32, num_heads=4, encoder_blocks=2, decoder_blocks=2,
                      ffn_mult=2, loss_lambda=0.0)


@pytest.fixture(scope="module")
def serve_model(serve_config):
    model = EaszReconstructor(serve_config)
    model.eval()
    return model


@pytest.fixture(scope="module")
def packages(serve_config):
    rng = np.random.default_rng(0)
    encoder = EaszEncoder(serve_config, seed=0)
    mask = encoder.generate_mask()
    images = [rng.random((48, 64, 3)) for _ in range(4)]
    return encoder.encode_batch(images, mask=mask)


@pytest.fixture(scope="module")
def decoder(serve_config, serve_model):
    return EaszDecoder(model=serve_model, config=serve_config,
                       base_codec=JpegCodec(quality=75))


def _sharded(serve_model, serve_config, **kwargs):
    kwargs.setdefault("num_shards", 2)
    return ShardedCompressionServer(model=serve_model, config=serve_config, **kwargs)


# --------------------------------------------------------------------------- #
# shard health watchdog
# --------------------------------------------------------------------------- #
class TestShardWatchdog:
    def test_default_pool_restarts_a_killed_shard_and_settles_each_future_once(
            self, serve_config, serve_model, packages, monkeypatch):
        """Supervision needs no keyword: a pool built with none replaces a
        SIGKILLed shard, and every future in flight on it settles once."""
        settled, lock = {}, threading.Lock()
        for hook in ("_resolve", "_reject"):
            def counted(pending, outcome, settle=getattr(PendingResult, hook)):
                with lock:
                    settled[pending.request_id] = settled.get(pending.request_id, 0) + 1
                settle(pending, outcome)
            monkeypatch.setattr(PendingResult, hook, counted)
        with ShardedCompressionServer(model=serve_model, config=serve_config) as server:
            server.submit(packages[0]).result(timeout=300.0)  # warm both shards
            victim = server._backends[0]
            old_pid = victim.process.pid
            pendings = [server.submit(package) for package in packages * 3]
            victim.process.kill()
            outcomes = []
            for pending in pendings:
                try:
                    outcomes.append(pending.result(timeout=120.0))
                except ShardFailedError as error:
                    outcomes.append(error)
            deadline = time.perf_counter() + 60.0
            while not (victim.is_alive() and victim.process.pid != old_pid):
                assert time.perf_counter() < deadline, "no restart without keywords"
                time.sleep(0.05)
            time.sleep(0.3)  # a late second settlement would land here
            restarts = server.watchdog_snapshot()["restarts_by_shard"]
        assert len(outcomes) == len(pendings)
        assert all(settled[pending.request_id] == 1 for pending in pendings)
        assert restarts.get(0, 0) >= 1

    def test_kill_a_shard_mid_load_no_lost_or_duplicated_responses(
            self, serve_config, serve_model, packages, decoder):
        """The acceptance-criterion scenario: a shard dies under traffic, the
        watchdog restarts it, and every submitted request resolves exactly
        once with correct pixels (re-routed, not lost; never duplicated)."""
        references = [decoder.decode(package) for package in packages]
        with _sharded(serve_model, serve_config, queue_depth=128) as server:
            server.submit(packages[0]).result(timeout=300.0)  # warm both shards
            victim = server._backends[0]
            old_pid = victim.process.pid
            pendings = [server.submit(package) for package in packages * 3]
            victim.process.kill()
            responses = [pending.result(timeout=120.0) for pending in pendings]

            # watchdog replaces the dead shard in place
            deadline = time.perf_counter() + 60.0
            while time.perf_counter() < deadline:
                current = server._backends[0]
                if current.is_alive() and current.process.pid != old_pid:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("watchdog never restarted the killed shard")

            # the restarted shard serves new work
            revived = server.submit(packages[0]).result(timeout=300.0)
            snapshot = server.stats.snapshot()

        # no lost responses: every future resolved successfully ...
        assert len(responses) == len(pendings)
        for index, response in enumerate(responses):
            assert np.abs(response.image
                          - references[index % len(packages)]).max() < 1e-5
        # ... and none duplicated: request ids are unique across responses
        request_ids = [response.request_id for response in responses]
        assert len(set(request_ids)) == len(request_ids)
        assert revived.image.shape == packages[0].original_shape
        assert snapshot["watchdog"]["restarts_total"] >= 1
        assert snapshot["watchdog"]["restarts_by_shard"].get(0, 0) >= 1

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                        reason="needs SIGSTOP to freeze a shard")
    def test_hung_but_alive_shard_is_restarted(self, serve_config, serve_model,
                                               packages):
        """A shard frozen with SIGSTOP stays alive but stops stamping its
        heartbeat; the hang timeout must get it killed and replaced, and the
        pool must serve again afterwards."""
        with _sharded(serve_model, serve_config, queue_depth=128) as server:
            server.submit(packages[0]).result(timeout=300.0)
            victim = server._backends[0]
            old_pid = victim.process.pid
            os.kill(old_pid, signal.SIGSTOP)  # alive, but silent
            deadline = time.perf_counter() + 60.0
            while time.perf_counter() < deadline:
                current = server._backends[0]
                if current.is_alive() and current.process.pid != old_pid:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("watchdog never replaced the hung shard")
            response = server.submit(packages[0]).result(timeout=300.0)
            snapshot = server.stats.snapshot()
        assert response.image.shape == packages[0].original_shape
        assert snapshot["watchdog"]["restarts_total"] >= 1
        assert snapshot["watchdog"]["restarts_by_shard"].get(0, 0) >= 1

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                        reason="needs SIGSTOP to freeze a shard")
    def test_graceful_restart_of_a_frozen_shard_skips_the_sigterm_wait(
            self, serve_config, serve_model, packages, monkeypatch):
        """A frozen shard neither drains nor acts on SIGTERM: once its
        heartbeat is past the hang timeout, restart_shard SIGKILLs it.  Timed
        up to the replacement's spawn, which the SIGTERM wait would delay."""
        with _sharded(serve_model, serve_config) as server:
            shard, spawned = server._backends[0], []
            spawn = shard.spawn
            monkeypatch.setattr(shard, "spawn", lambda context: (
                spawned.append(time.perf_counter()), spawn(context)))
            os.kill(server.shard_process(0).pid, signal.SIGSTOP)
            started = time.perf_counter()
            server.restart_shard(0)
            response = server.submit(packages[0]).result(timeout=300.0)
        assert spawned[0] - started < 3.0
        assert response.image.shape == packages[0].original_shape

    def test_watchdog_reports_heartbeats_and_stays_quiet_on_a_healthy_pool(
            self, serve_config, serve_model, packages):
        with _sharded(serve_model, serve_config) as server:
            server.submit(packages[0]).result(timeout=300.0)
            time.sleep(0.6)  # a few watchdog ticks over a healthy pool
            snapshot = server.stats.snapshot()
            pids = [shard.process.pid for shard in server._backends]
            response = server.submit(packages[0]).result(timeout=300.0)
            assert [shard.process.pid for shard in server._backends] == pids
            # stamps are on the host-wide monotonic clock, which a wall-clock
            # step cannot move: a step would make every shard look hung
            stamps = [shard.row[_HEARTBEAT] for shard in server._backends]
            assert all(abs(stamp - time.monotonic()) < 5.0 for stamp in stamps)
        assert snapshot["watchdog"]["restarts_total"] == 0
        ages = snapshot["watchdog"]["heartbeat_age_s"]
        assert len(ages) == 2
        assert all(age is not None and age < _HANG_TIMEOUT_S for age in ages)
        assert response.image.shape == packages[0].original_shape

    def test_backoff_spaces_restart_attempts(self, serve_model, serve_config,
                                             monkeypatch):
        # a shard whose restarts keep failing: each tick's attempt doubles
        # the wait before the next one, from one tick up to the cap
        server = ShardedCompressionServer(model=serve_model, config=serve_config,
                                          num_shards=1)
        shard = server._backends[0]
        monkeypatch.setattr(shard, "is_alive", lambda: False)
        monkeypatch.setattr(shard, "crashed", lambda: False)

        def failing_restart(index, graceful, timeout):
            raise ShardFailedError("spawn failed")

        monkeypatch.setattr(server, "_restart_locked", failing_restart)
        seen = []
        for _ in range(10):
            seen.append(shard.backoff_s)
            server._watchdog_tick()
            assert shard.restarts == len(seen)
            shard.next_restart_at = 0.0  # skip the wait itself
        assert seen == [_WATCHDOG_INTERVAL_S * 2 ** step for step in range(7)] \
            + [_WATCHDOG_BACKOFF_CAP_S] * 3
        snapshot = server.watchdog_snapshot()
        assert snapshot["restarts_total"] == 10
        assert snapshot["backoff_s"] == [_WATCHDOG_BACKOFF_CAP_S]


# --------------------------------------------------------------------------- #
# retired shard channels
# --------------------------------------------------------------------------- #
_HUNG_SHARD_SCRIPT = textwrap.dedent("""
    import faulthandler, os, signal, sys, threading
    import numpy as np
    from repro.codecs import JpegCodec
    from repro.core import EaszConfig, EaszEncoder, EaszReconstructor
    from repro.serve import ShardedCompressionServer

    config = EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1, d_model=32,
                        num_heads=4, encoder_blocks=2, decoder_blocks=2, ffn_mult=2,
                        loss_lambda=0.0)
    model = EaszReconstructor(config)
    model.eval()
    # noise at q95 packs to ~230 KB, past the shard socket's send buffer
    encoder = EaszEncoder(config, base_codec=JpegCodec(quality=95), seed=0)
    package = encoder.encode(np.random.default_rng(0).random((512, 512, 3)))
    server = ShardedCompressionServer(model=model, config=config, num_shards=2).start()
    index, _ = server.predicted_shard_depth(package)
    os.kill(server.shard_process(index).pid, signal.SIGSTOP)
    pendings = [server.submit(package) for _ in range(8)]
    served = [pending.result(timeout=120.0).image.shape for pending in pendings]
    restarts = server.stats.snapshot()["watchdog"]["restarts_total"]
    server.stop()
    print("stopped", len(served), restarts, flush=True)
    print("threads:", *(thread.name for thread in threading.enumerate()),
          file=sys.stderr, flush=True)
    # a wedged exit dumps every thread's stack and exits 1 instead of hanging
    faulthandler.dump_traceback_later(30.0, exit=True)
""")

_FROZEN_AT_STOP_SCRIPT = textwrap.dedent("""
    import faulthandler, os, signal
    from repro.core import EaszConfig, EaszReconstructor
    from repro.serve import ShardedCompressionServer

    config = EaszConfig(patch_size=16, subpatch_size=4, d_model=16, num_heads=2,
                        encoder_blocks=1, decoder_blocks=1)
    server = ShardedCompressionServer(model=EaszReconstructor(config), config=config,
                                      num_shards=2).start()
    frozen = server.shard_process(0)
    os.kill(frozen.pid, signal.SIGSTOP)  # alive, and deaf to SIGTERM
    server.stop(timeout=2.0)
    print("stopped", frozen.is_alive(), flush=True)
    faulthandler.dump_traceback_later(30.0, exit=True)
""")

_FROZEN_AT_DEFAULT_STOP_SCRIPT = textwrap.dedent("""
    import faulthandler, os, signal, time
    from repro.core import EaszConfig, EaszReconstructor
    from repro.serve import ShardedCompressionServer

    config = EaszConfig(patch_size=16, subpatch_size=4, d_model=16, num_heads=2,
                        encoder_blocks=1, decoder_blocks=1)
    server = ShardedCompressionServer(model=EaszReconstructor(config), config=config,
                                      num_shards=2).start()
    os.kill(server.shard_process(0).pid, signal.SIGSTOP)
    started = time.perf_counter()
    server.stop()
    print(time.perf_counter() - started, flush=True)
    faulthandler.dump_traceback_later(30.0, exit=True)
""")

# A 2-shard pool whose shard 1 freezes halfway through its first response;
# ``routed_to(index)`` encodes a package the router sends to shard ``index``.
_FREEZE_MID_RESPONSE_PREFIX = textwrap.dedent("""
    import faulthandler, os, signal, time
    import numpy as np
    from repro.core import EaszConfig, EaszEncoder, EaszReconstructor
    from repro.serve import ShardedCompressionServer, ShardFailedError, sharding

    send_frame = sharding._send_frame

    def send_half_then_freeze(sock, header, payload=None):
        if header[:2] != ("ok", 1):
            return send_frame(sock, header, payload)
        send_frame(sock, header)
        sock.sendall(payload.tobytes()[:payload.nbytes // 2])
        os.kill(os.getpid(), signal.SIGSTOP)

    # the forked shards inherit the patch: shard 1 freezes halfway through
    # the pixels of its first response, with the parent's reader reading
    sharding._send_frame = send_half_then_freeze
    config = EaszConfig(patch_size=16, subpatch_size=4, d_model=16, num_heads=2,
                        encoder_blocks=1, decoder_blocks=1)
    server = ShardedCompressionServer(model=EaszReconstructor(config), config=config,
                                      num_shards=2).start()
    image = np.random.default_rng(0).random((48, 64, 3))

    def routed_to(index):
        for seed in range(100):
            package = EaszEncoder(config, seed=seed).encode(image)
            if server.predicted_shard_depth(package)[0] == index:
                return package
""")

_FROZEN_MID_RESPONSE_AT_STOP_SCRIPT = _FREEZE_MID_RESPONSE_PREFIX + textwrap.dedent("""
    pending = server.submit(routed_to(1))
    os.waitpid(server.shard_process(1).pid, os.WUNTRACED)  # returns once it froze
    started = time.perf_counter()
    server.stop()
    elapsed = time.perf_counter() - started
    try:
        pending.result(timeout=5.0)
    except ShardFailedError:  # lost with the frozen shard, and the pool is closed
        print(elapsed, flush=True)
    faulthandler.dump_traceback_later(30.0, exit=True)
""")

_HEALTHY_BESIDE_FROZEN_MID_RESPONSE_SCRIPT = _FREEZE_MID_RESPONSE_PREFIX + textwrap.dedent("""
    healthy = routed_to(0)
    server.submit(healthy).result(timeout=60.0)  # warms shard 0's caches
    server.submit(routed_to(1))
    os.waitpid(server.shard_process(1).pid, os.WUNTRACED)  # returns once it froze
    started = time.perf_counter()
    server.submit(healthy).result(timeout=60.0)
    print(time.perf_counter() - started, flush=True)
    server.stop()
    faulthandler.dump_traceback_later(30.0, exit=True)
""")


def _run(script):
    """Run ``script`` in a fresh interpreter on this checkout's ``src``;
    its ``(stdout, stderr)``.

    The script gets its own session, so a timeout kills its shards too: a
    frozen one would otherwise keep the output pipes open.
    """
    source = str(Path(repro.serve.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    process = subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        stdout, stderr = process.communicate()
        pytest.fail(f"the interpreter never exited:\n{stderr[-3000:]}")
    assert process.returncode == 0, stderr[-3000:]
    return stdout, stderr


def _run_to_exit(script):
    return _run(script)[0].split()


class TestRetiredRequestQueue:
    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                        reason="needs SIGSTOP to freeze a shard")
    def test_interpreter_exits_after_a_hung_shard_is_replaced(self):
        """The frozen shard's sender blocks mid-write on its channel; once
        the watchdog replaces the shard, the interpreter must still exit."""
        stopped, served, restarts = _run_to_exit(_HUNG_SHARD_SCRIPT)
        assert stopped == "stopped" and served == "8" and int(restarts) >= 1

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                        reason="needs SIGSTOP to freeze a shard")
    def test_stop_ends_a_frozen_shard_and_the_interpreter_exits(self):
        """stop() over a shard frozen before the watchdog saw it: the drain
        times out, SIGTERM stays pending, so kill() must escalate."""
        assert _run_to_exit(_FROZEN_AT_STOP_SCRIPT) == ["stopped", "False"]

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                        reason="needs SIGSTOP to freeze a shard")
    def test_no_thread_outlives_stop_after_a_hung_shard(self):
        """The frozen shard's sender blocks mid-write until the watchdog
        replaces the shard; after stop() only the main thread is left."""
        stderr = _run(_HUNG_SHARD_SCRIPT)[1]
        threads = stderr.split("threads:")[-1].split()
        assert threads == ["MainThread"], stderr[-3000:]

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                        reason="needs SIGSTOP to freeze a shard")
    @pytest.mark.parametrize("script", [_FROZEN_AT_DEFAULT_STOP_SCRIPT,
                                        _FROZEN_MID_RESPONSE_AT_STOP_SCRIPT],
                             ids=["idle", "mid-response"])
    def test_default_stop_does_not_wait_out_a_frozen_shard(self, script):
        """stop() at its 30 s default gives up on a shard silent past the
        hang timeout and kills it, instead of waiting for its drain, whether
        it froze idle or halfway through a response on its channel."""
        [elapsed] = _run_to_exit(script)
        assert float(elapsed) < 2.5

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                        reason="needs SIGSTOP to freeze a shard")
    def test_a_shard_frozen_mid_response_holds_up_no_other_shard(self):
        """Each shard's channel has its own reader: a request served by
        shard 0 completes while shard 1 sits frozen halfway through a
        response, well before the hang timeout would get shard 1 killed."""
        [elapsed] = _run_to_exit(_HEALTHY_BESIDE_FROZEN_MID_RESPONSE_SCRIPT)
        assert float(elapsed) < _HANG_TIMEOUT_S / 2

    def test_send_racing_the_retirement_is_rerouted(self, serve_model, serve_config,
                                                    packages, decoder):
        """A request routed to a shard whose channel is retired before the send
        is lost, not refused: submit() returns and another shard serves it."""
        reference = decoder.decode(packages[0])
        with _sharded(serve_model, serve_config) as server:
            index, _ = server.predicted_shard_depth(packages[0])
            shard = server._backends[index]
            with shard._outbox_ready:  # retired as kill() leaves it, process alive
                live, shard._outbox = shard._outbox, None
            try:
                pending = server.submit(packages[0])
            finally:
                with shard._outbox_ready:
                    shard._outbox = live
            response = pending.result(timeout=300.0)
        assert response.worker.split("/")[0] != f"shard-{index}"
        assert np.abs(response.image - reference).max() < 1e-5


# --------------------------------------------------------------------------- #
# spill-aware mask affinity
# --------------------------------------------------------------------------- #
class TestMaskAffinity:
    def _keys_for_two_geometries(self, serve_config):
        encoder = EaszEncoder(serve_config, seed=0)
        mask = encoder.generate_mask()
        rng = np.random.default_rng(1)
        wide = encoder.encode(rng.random((48, 64, 3)), mask=mask)
        tall = encoder.encode(rng.random((64, 48, 3)), mask=mask)
        return wide, tall

    def test_mask_mode_routes_all_geometries_of_one_mask_together(
            self, serve_model, serve_config):
        wide, tall = self._keys_for_two_geometries(serve_config)
        server = ShardedCompressionServer(model=serve_model, config=serve_config,
                                          num_shards=4)
        key_wide = server._batch_key(wide, "reconstruct")
        key_tall = server._batch_key(tall, "reconstruct")
        assert key_wide[2] != key_tall[2]  # genuinely different geometries
        assert (server._preferred_shard(key_wide, mask_only=True)
                == server._preferred_shard(key_tall, mask_only=True))

    def test_auto_mode_switches_after_second_geometry(self, serve_model,
                                                      serve_config):
        wide, tall = self._keys_for_two_geometries(serve_config)
        server = ShardedCompressionServer(model=serve_model, config=serve_config,
                                          num_shards=4)
        key_wide = server._batch_key(wide, "reconstruct")
        key_tall = server._batch_key(tall, "reconstruct")
        server._observe_geometry_locked(key_wide)
        assert not server._mask_affine_locked(key_wide)  # one geometry: full key
        server._observe_geometry_locked(key_tall)
        assert server._mask_affine_locked(key_wide)
        assert server._mask_affine_locked(key_tall)

    def test_multi_camera_fleet_lands_on_one_shard_end_to_end(
            self, serve_model, serve_config, decoder):
        # two cameras, same erase mask, different frame geometry: with auto
        # affinity the second camera's traffic joins the first one's shard
        # once the mask is known to span geometries
        wide, tall = self._keys_for_two_geometries(serve_config)
        with ShardedCompressionServer(
                model=serve_model, config=serve_config, num_shards=2) as server:
            server.submit(wide).result(timeout=300.0)
            server.submit(tall).result(timeout=300.0)  # flips the mask to affine
            workers = set()
            for package in (wide, tall, wide, tall):
                response = server.submit(package).result(timeout=300.0)
                workers.add(response.worker.split("/")[0])
        assert len(workers) == 1  # sequential singles below the spill threshold
