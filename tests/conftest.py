"""Shared fixtures for the Easz reproduction test suite.

Everything is kept deliberately small (tiny images, tiny models, few training
steps) so the full suite runs in CPU-minutes; the benchmarks are where
realistic scales live.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis.lockorder import lock_order_recording
from repro.core import EaszConfig, EaszReconstructor, EaszTrainer
from repro.datasets import CifarLikeDataset, KodakDataset, SyntheticImageGenerator


@pytest.fixture(autouse=True)
def lock_order_guard(request):
    """Record lock-acquisition order in every serving test.

    Locks created while a ``test_serve*`` test runs are instrumented; at
    teardown any ordering cycle or same-instance re-acquisition fails the
    test.  Set ``REPRO_LOCK_ORDER=0`` to opt out (e.g. when bisecting an
    unrelated failure).
    """
    if (not request.module.__name__.startswith("test_serve")
            or os.environ.get("REPRO_LOCK_ORDER", "1") == "0"):
        yield
        return
    with lock_order_recording() as recorder:
        yield
    problems = recorder.report()
    assert not problems, "lock-order violations:\n" + "\n".join(problems)


@pytest.fixture(scope="session")
def poisson_run():
    """Replay a one-tenant Poisson scenario of given packages on a server.

    ``poisson_run(server, packages, rate_rps, requests, seed=0, warmup=True)``
    cycles ``packages`` round-robin over ``requests`` expected arrivals and
    returns ``(ScenarioReport, TenantReport)``.
    """
    from repro.serve.scenarios import Workload, poisson_scenario, run_scenario

    def run(server, packages, rate_rps, requests, seed=0, warmup=True):
        spec = poisson_scenario(rate_rps, requests, num_images=len(packages),
                                seed=seed)
        report = run_scenario(spec, server, warmup=warmup, drain_timeout_s=120.0,
                              workload=Workload.of_packages(spec, packages))
        return report, report.tenants[0]

    return run


@pytest.fixture(scope="session")
def rng():
    """Session-wide deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_config():
    """Smallest useful Easz configuration (8×8 patches, 2×2 sub-patches)."""
    return EaszConfig(patch_size=8, subpatch_size=2, erase_per_row=1,
                      d_model=16, num_heads=2, encoder_blocks=1, decoder_blocks=1,
                      ffn_mult=2, loss_lambda=0.0)


@pytest.fixture(scope="session")
def small_config():
    """Test-scale Easz configuration matching the benchmark defaults."""
    return EaszConfig(patch_size=16, subpatch_size=4, erase_per_row=1,
                      d_model=32, num_heads=4, encoder_blocks=2, decoder_blocks=2,
                      ffn_mult=2, loss_lambda=0.0)


@pytest.fixture(scope="session")
def gray_image():
    """A 64×80 grayscale natural-looking image."""
    generator = SyntheticImageGenerator(64, 80, color=False)
    return generator.generate(7)


@pytest.fixture(scope="session")
def rgb_image():
    """A 64×80 RGB natural-looking image."""
    generator = SyntheticImageGenerator(64, 80, color=True)
    return generator.generate(11)


@pytest.fixture(scope="session")
def kodak_small():
    """Two small Kodak-like images for integration tests."""
    return KodakDataset(num_images=2, height=64, width=96)


@pytest.fixture(scope="session")
def trained_tiny_model(tiny_config):
    """A briefly trained reconstructor (enough to beat an untrained one)."""
    dataset = CifarLikeDataset(num_images=128, size=tiny_config.patch_size, seed=5)
    trainer = EaszTrainer(config=tiny_config, use_perceptual_loss=False)
    trainer.pretrain(dataset, steps=60, batch_size=16)
    return trainer.model


@pytest.fixture(scope="session")
def untrained_tiny_model(tiny_config):
    """A freshly initialised reconstructor with the tiny configuration."""
    model = EaszReconstructor(tiny_config)
    model.eval()
    return model
