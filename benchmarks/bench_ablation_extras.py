"""Additional ablations beyond the paper's figures.

* sampler constraints — effect of the intra-row (δ) and inter-row (Δ)
  distance constraints on mask adjacency statistics;
* fill strategy — zero vs neighbour vs mean fill before reconstruction;
* two-stage patchify — attention cost of the naive pixel-token transformer
  vs the patch-confined transformer (the paper's Section III-B analysis).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    RowConditionalSampler,
    attention_complexity,
    erase_and_squeeze_image,
    proposed_mask,
    reconstruct_image,
    unsqueeze_image,
)
from repro.experiments import format_table
from repro.metrics import psnr


def _adjacency_rate(mask):
    """Fraction of erased sub-patches with an erased horizontal neighbour."""
    erased = (np.asarray(mask) == 0)
    horizontal = erased[:, :-1] & erased[:, 1:]
    total = erased.sum()
    return float(horizontal.sum() / total) if total else 0.0


def _sampler_constraint_rows(grid=8, erase_per_row=2, samples=24):
    rows = []
    for delta, inter in ((0, 0), (1, 0), (1, 1), (2, 1)):
        sampler = RowConditionalSampler(grid, erase_per_row,
                                        intra_row_min_distance=delta,
                                        inter_row_min_distance=inter)
        rng = np.random.default_rng(0)
        rates = [_adjacency_rate(sampler.sample_mask(rng=rng)) for _ in range(samples)]
        rows.append([delta, inter, round(float(np.mean(rates)), 4)])
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_sampler_constraints(benchmark):
    rows = benchmark.pedantic(_sampler_constraint_rows, rounds=1, iterations=1)
    print()
    print(format_table(["delta (intra-row)", "Delta (inter-row)", "adjacent-erasure rate"], rows,
                       title="Ablation — sampler constraints vs erased-block adjacency"))
    unconstrained = rows[0][2]
    constrained = rows[1][2]
    assert constrained <= unconstrained
    assert rows[-1][2] == 0.0  # δ=2 forbids horizontal adjacency entirely


def _fill_strategy_rows(image, config, model):
    mask = proposed_mask(config.grid_size, config.erase_per_row, seed=0)
    squeezed, grid, _ = erase_and_squeeze_image(image, mask, config.patch_size,
                                                config.subpatch_size)
    rows = []
    for fill in ("zero", "neighbor", "mean"):
        filled = unsqueeze_image(squeezed, mask, config.patch_size, config.subpatch_size,
                                 grid, image.shape, fill=fill)
        reconstruction = reconstruct_image(model, filled, mask)
        rows.append([fill, round(psnr(image, filled), 2), round(psnr(image, reconstruction), 2)])
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_fill_strategy(benchmark, kodak, bench_config, easz_model):
    image = kodak[0][..., 0]
    rows = benchmark.pedantic(_fill_strategy_rows, args=(image, bench_config, easz_model),
                              rounds=1, iterations=1)
    print()
    print(format_table(["fill", "filled_psnr", "reconstructed_psnr"], rows,
                       title="Ablation — fill strategy before transformer reconstruction"))
    by_fill = {row[0]: row for row in rows}
    # reconstruction always improves over the zero-filled image
    assert by_fill["zero"][2] > by_fill["zero"][1] + 3.0
    # the transformer output is (by construction) independent of the fill,
    # since erased tokens never reach the encoder
    recon_psnrs = [row[2] for row in rows]
    assert max(recon_psnrs) - min(recon_psnrs) < 0.01


def _patchify_cost_rows():
    rows = []
    for resolution in (128, 256, 512):
        naive = attention_complexity(resolution, resolution, patch_size=None, subpatch_size=4)
        staged = attention_complexity(resolution, resolution, patch_size=32, subpatch_size=4)
        rows.append([f"{resolution}x{resolution}", f"{naive:.3e}", f"{staged:.3e}",
                     round(naive / staged, 1)])
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_two_stage_patchify_cost(benchmark):
    rows = benchmark.pedantic(_patchify_cost_rows, rounds=1, iterations=1)
    print()
    print(format_table(["image", "naive attention MACs", "two-stage MACs", "reduction x"], rows,
                       title="Ablation — attention cost of the two-stage patchify (Sec. III-B)"))
    reductions = [row[3] for row in rows]
    assert all(r > 1 for r in reductions)
    # the reduction factor grows with resolution (naive is quadratic in pixels)
    assert reductions == sorted(reductions)
