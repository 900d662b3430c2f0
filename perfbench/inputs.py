"""Seeded inputs for the benchmark: model, scene bank, frames and quality.

Everything here is a pure function of the workload seed plus two artefacts
built once per checkout and cached under ``.perfbench_cache/``:

* the reconstruction model, pre-trained deterministically (training is a
  build step, never part of a measured set-up);
* a bank of Kodak-like and CLIC-like scenes from
  :class:`repro.datasets.SyntheticImageGenerator`.

Frames are seeded crops of the bank.  Drawing every seed's frames from one
fixed bank keeps content statistics (and so ``bpp``/``psnr_db``) comparable
from seed to seed, while masks, crops and the order of frame sizes, erase
levels and qualities still change with the seed.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager

import numpy as np

from repro.core import EaszConfig, SqueezePlan
from repro.datasets import SyntheticImageGenerator
from repro.experiments import default_benchmark_config, pretrained_model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE_DIR = os.path.join(ROOT, ".perfbench_cache")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Pre-training steps of the benchmark model (about 15 s on one core).
MODEL_STEPS = 300
#: (texture_strength, edge_density, seed) per bank scene: Kodak-like, CLIC-like.
SCENES = ((1.0, 1.0, 101), (0.6, 1.3, 102), (1.0, 1.0, 103), (0.6, 1.3, 104))
SCENE_SHAPE = (544, 640)


def bench_config(erase_per_row=1):
    """The repo's CPU-scale config at one erase level.

    The intra-row distance is relaxed to 0 only where the sampler could not
    place ``erase_per_row`` erasures otherwise (3 of 4 sub-patches per row).
    """
    base = default_benchmark_config()
    grid = base.patch_size // base.subpatch_size
    return EaszConfig(**{**base.__dict__, "erase_per_row": erase_per_row,
                         "intra_row_min_distance": min(1, grid // erase_per_row - 1)})


@contextmanager
def _cache_env(directory):
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = directory
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous


def load_model(cache_dir=CACHE_DIR):
    """The benchmark's reconstruction model, trained on first use.

    Training writes into a private directory and the checkpoint is moved in
    afterwards, so an interrupted build never leaves a truncated file.
    """
    os.makedirs(cache_dir, exist_ok=True)
    if not any(name.startswith("easz-") for name in os.listdir(cache_dir)):
        staging = os.path.join(cache_dir, f"building-{os.getpid()}")
        with _cache_env(staging):
            pretrained_model(bench_config(), steps=MODEL_STEPS)
        for name in os.listdir(staging):
            os.replace(os.path.join(staging, name), os.path.join(cache_dir, name))
        shutil.rmtree(staging, ignore_errors=True)
    with _cache_env(cache_dir):
        return pretrained_model(bench_config(), steps=MODEL_STEPS)


def scene_bank(cache_dir=CACHE_DIR):
    """``(len(SCENES), H, W, 3)`` float32 scenes, generated on first use."""
    path = os.path.join(cache_dir, "scenes-v1.npy")
    if os.path.exists(path):
        return np.load(path)
    scenes = np.stack([
        SyntheticImageGenerator(*SCENE_SHAPE, color=True, texture_strength=texture,
                                edge_density=edges).generate(seed)
        for texture, edges, seed in SCENES]).astype(np.float32)
    os.makedirs(cache_dir, exist_ok=True)
    staging = f"{path}.{os.getpid()}.npy"
    np.save(staging, scenes)
    os.replace(staging, path)
    return scenes


def crop_frame(bank, rng, scene, height, width, color):
    """One seeded frame: a (flipped) crop of bank scene ``scene``, gray or RGB."""
    scene = bank[scene]
    top = int(rng.integers(scene.shape[0] - height + 1))
    left = int(rng.integers(scene.shape[1] - width + 1))
    frame = scene[top:top + height, left:left + width].astype(np.float64)
    if rng.random() < 0.5:
        frame = frame[:, ::-1]
    if not color:
        frame = frame @ np.array([0.299, 0.587, 0.114])
    return np.ascontiguousarray(frame)


def mix(rng, count, *factors):
    """``count`` tuples, item ``i`` taking ``factor[i % len(factor)]``, seeded order.

    The multiset is the same for every seed, so each seed's mix of scenes,
    erase levels and qualities (and the work they cost) is alike; only the
    order, crops and masks change.  Factor lengths should be pairwise
    coprime, or divide ``count`` evenly, to cover their combinations.
    """
    items = [tuple(factor[i % len(factor)] for factor in factors) for i in range(count)]
    return [items[i] for i in rng.permutation(count)]


def kept_pixels(mask, config, shape):
    """Boolean map of the pixels an erase mask keeps, for a frame of ``shape``.

    Builds its own plan so the program's plan caches stay as the workload
    left them.
    """
    plan = SqueezePlan(mask, config.subpatch_size).require_patch_size(config.patch_size)
    squeezed, grid_shape, original_shape = plan.squeeze_image(np.ones(shape[:2]))
    kept = plan.unsqueeze_image(squeezed, grid_shape, original_shape) > 0
    return np.broadcast_to(kept[..., None], shape) if len(shape) == 3 else kept


def psnr_db(reference, test, where=None):
    """PSNR in dB over all pixels, or over the boolean map ``where``."""
    diff = np.asarray(test, dtype=np.float64) - reference
    if where is not None:
        diff = diff[where]
    return float(10.0 * np.log10(1.0 / max(float(np.mean(diff * diff)), 1e-12)))


def bits_per_pixel(blob, shape):
    """Container bits per (pre-erase) pixel position."""
    return 8.0 * len(blob) / (shape[0] * shape[1])
