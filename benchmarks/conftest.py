"""Shared fixtures for the paper-figure benchmark suite.

Each ``bench_fig*.py`` / ``bench_table*.py`` file regenerates one of the
paper's figures or tables (the file name says which); ``bench_ablation_*.py``
adds ablations beyond them.  Their asserts encode the paper's shapes.  The
files are not named ``test_*.py``, so a plain ``pytest benchmarks`` collects
none of them; name them on the command line instead::

    PYTHONPATH=src python -m pytest benchmarks/bench_fig*.py \
        benchmarks/bench_table*.py benchmarks/bench_ablation*.py --benchmark-disable

Everything runs at reduced scale — small synthetic Kodak/CLIC stand-ins and
the cached CPU-scale reconstruction model — so the whole suite finishes in
CPU-minutes; the printed rows/series are the quantities the paper reports.
``bench_throughput.py`` is a separate script (codec speed against the seed,
see ``tests/test_perf_smoke.py``), not part of this suite.
"""

from __future__ import annotations

import pytest

from repro.codecs import JpegCodec, LearnedTransformCodec
from repro.core import EaszCodec, EaszConfig
from repro.datasets import ClicDataset, KodakDataset
from repro.edge import EdgeServerTestbed
from repro.experiments import default_benchmark_config, pretrained_model


@pytest.fixture(scope="session")
def bench_config():
    """CPU-scale Easz configuration shared by all benchmarks."""
    return default_benchmark_config()


@pytest.fixture(scope="session")
def easz_model(bench_config):
    """Pre-trained (cached) Easz reconstruction model.

    2000 optimisation steps keep the first (cold-cache) benchmark run to a few
    CPU-minutes while giving the reconstructor enough capacity for the quality
    comparisons (Table I / Table II / Fig. 8) to show the intended orderings.
    """
    return pretrained_model(bench_config, steps=2000, batch_size=32)


@pytest.fixture(scope="session")
def kodak():
    """Kodak-like evaluation set (small resolution for CPU runtime)."""
    return KodakDataset(num_images=4, height=96, width=144)


@pytest.fixture(scope="session")
def clic():
    """CLIC-like evaluation set (small resolution for CPU runtime)."""
    return ClicDataset(num_images=4, height=96, width=160)


@pytest.fixture(scope="session")
def testbed():
    """Simulated Jetson TX2 → Wi-Fi → RTX 2080Ti server testbed."""
    return EdgeServerTestbed()


@pytest.fixture(scope="session")
def paper_image_shape():
    """The 512×768 RGB Kodak image shape used by the paper's efficiency plots."""
    return (512, 768, 3)


@pytest.fixture(scope="session")
def easz_codec_factory(bench_config, easz_model):
    """Factory building a <base codec>+Easz codec with the cached model.

    ``factory(quality=75, erase_per_row=None, mask_strategy="proposed",
    base_codec=None)`` — ``quality`` configures a JPEG base codec unless an
    explicit ``base_codec`` is supplied.
    """
    def factory(quality=75, erase_per_row=None, mask_strategy="proposed", base_codec=None):
        config = bench_config
        if erase_per_row is not None and erase_per_row != config.erase_per_row:
            config = EaszConfig(**{**config.__dict__, "erase_per_row": erase_per_row})
        base = base_codec if base_codec is not None else JpegCodec(quality=quality)
        return EaszCodec(config=config, base_codec=base, model=easz_model,
                         mask_strategy=mask_strategy, seed=0)

    return factory


@pytest.fixture(scope="session")
def balle_profiles():
    """Fig. 1 comparison points: Ballé factorized / hyperprior cost profiles."""
    factorized = LearnedTransformCodec(quality=4, entropy_model="factorized",
                                       macs_per_pixel=12_000, model_bytes=12 * 2 ** 20,
                                       name="balle-factorized")
    hyperprior = LearnedTransformCodec(quality=4, entropy_model="hyperprior",
                                       macs_per_pixel=14_000, model_bytes=25 * 2 ** 20,
                                       name="balle-hyperprior")
    return [factorized, hyperprior]
