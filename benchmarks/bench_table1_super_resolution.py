"""Table I — comparison with super-resolution methods on the Kodak-like set.

Regenerates the table's three rows: PSNR, MS-SSIM and reconstruction-model
size for Easz versus the SwinIR / RealESRGAN / BSRGAN 2× super-resolution
pathway (plus plain bicubic as a floor).  The paper reports Easz at
28.96 dB / 0.96 MS-SSIM with an 8.7 MB model against ≈24.9–25.4 dB / 0.93–0.94
with 67 MB models; at this reproduction's reduced scale the model-size and
flexibility advantages reproduce exactly, while the PSNR gap depends on the
training budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import erase_and_squeeze_image, proposed_mask, reconstruct_image, unsqueeze_image
from repro.experiments import format_table
from repro.metrics import ms_ssim, psnr
from repro.sr import BicubicUpscaler, BsrganProxy, RealEsrganProxy, SwinIRProxy


def _easz_reconstruction(image, config, model, seed=0, erase_per_row=None):
    erase_per_row = config.erase_per_row if erase_per_row is None else erase_per_row
    mask = proposed_mask(config.grid_size, erase_per_row, seed=seed)
    squeezed, grid, _ = erase_and_squeeze_image(image, mask, config.patch_size,
                                                config.subpatch_size)
    filled = unsqueeze_image(squeezed, mask, config.patch_size, config.subpatch_size,
                             grid, image.shape, fill="zero")
    return reconstruct_image(model, filled, mask)


def _table1_rows(images, config, model):
    methods = {
        "easz": None,
        "swinir": SwinIRProxy(factor=2),
        "realesrgan": RealEsrganProxy(factor=2),
        "bsrgan": BsrganProxy(factor=2),
        "bicubic": BicubicUpscaler(factor=2),
    }
    rows = []
    for name, method in methods.items():
        psnrs, ssims = [], []
        for image in images:
            if name == "easz":
                reconstruction = _easz_reconstruction(image, config, model)
                model_mb = model.model_size_bytes() / 2 ** 20
            else:
                reconstruction = method.roundtrip(image)
                model_mb = method.model_size_bytes / 2 ** 20
            psnrs.append(psnr(image, reconstruction))
            ssims.append(ms_ssim(image, reconstruction))
        rows.append([name, round(float(np.mean(psnrs)), 2),
                     round(float(np.mean(ssims)), 3), round(model_mb, 1)])
    return rows


@pytest.mark.benchmark(group="table1")
def test_table1_easz_vs_super_resolution(benchmark, kodak, bench_config, easz_model):
    images = [kodak[i] for i in range(2)]
    rows = benchmark.pedantic(_table1_rows, args=(images, bench_config, easz_model),
                              rounds=1, iterations=1)
    print()
    print(format_table(["method", "psnr_db", "ms_ssim", "recon_model_mb"], rows,
                       title="Table I — Easz vs super-resolution (Kodak-like set)"))
    by_name = {row[0]: row for row in rows}

    # model-size advantage: Easz's reconstructor is an order of magnitude
    # smaller than the 67 MB SR models (paper: 8.7 MB vs 67 MB)
    assert by_name["easz"][3] < by_name["swinir"][3] / 8
    # all methods produce usable reconstructions
    for name, psnr_db, ssim_value, _ in rows:
        assert psnr_db > 18.0, name
        assert ssim_value > 0.75, name
    # Easz keeps 75% of pixels bit-exact, so its reconstruction quality must be
    # high in absolute terms.  (The paper's *ordering* over the SR baselines does
    # not reproduce on the smooth synthetic stand-in images, which flatter
    # interpolation-style SR.)
    assert by_name["easz"][1] > 26.0
    assert by_name["easz"][2] > 0.86

    # flexibility advantage (Table I's "Recon Model Size" row is paired in the
    # paper with the argument that one 8.7 MB model serves every reduction
    # ratio): the same model must keep working when the erase ratio doubles.
    images = [kodak[i] for i in range(2)]
    double_erase = [
        ms_ssim(image, _easz_reconstruction(image, bench_config, easz_model,
                                            erase_per_row=2))
        for image in images
    ]
    assert float(np.mean(double_erase)) > 0.75
