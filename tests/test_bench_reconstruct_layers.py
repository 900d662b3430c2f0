"""Smoke test for the ``reconstruct_layers`` section of bench_throughput.py.

The script is not importable as a package module (benchmarks/ is not a
package), so it is loaded by file path.  A small frame keeps it well under
two seconds.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from repro.core import EaszReconstructor, proposed_mask, reconstruction

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_throughput.py"
_spec = importlib.util.spec_from_file_location("bench_throughput", _SCRIPT)
bench_throughput = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_throughput)

_LAYERS = {"norm", "qkv_gemm", "attention", "out_projection", "feed_forward",
           "output_head", "gather", "cast_scatter_clip"}


def test_reconstruct_layers_reports_every_layer_and_the_gap(capsys):
    config = bench_throughput.bench_config()
    model = EaszReconstructor(config)
    model.eval()
    mask = proposed_mask(config.grid_size, config.erase_per_row,
                         config.intra_row_min_distance, seed=0)
    engine = model.batch_engine()
    gather, scatter = reconstruction._gather_tokens, reconstruction._scatter_frame
    section = bench_throughput.reconstruct_layers_section(config, model, mask,
                                                          size=64, repeats=2)

    assert set(section["layers_ms"]) == _LAYERS
    assert all(ms >= 0.0 for ms in section["layers_ms"].values())
    assert np.isclose(section["sum_ms"], sum(section["layers_ms"].values()))
    assert section["reconstruct_batch_ms"] > 0.0
    assert np.isclose(section["gap_ms"], section["reconstruct_batch_ms"] - section["sum_ms"])
    assert section["patches_per_chunk"] == 64
    assert "gap" in capsys.readouterr().out
    # the timing wrappers are gone and the engine is still the cached one
    assert model.batch_engine() is engine
    assert "_attention" not in vars(engine)
    assert reconstruction._gather_tokens is gather
    assert reconstruction._scatter_frame is scatter
