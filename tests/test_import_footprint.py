"""The codec, both servers and the edge path start without loading scipy.

Only the quality metrics, the SR baselines and the synthetic dataset's
generators call scipy, and each imports it inside the function that does.
A module-level scipy import anywhere on the import path of ``repro.core``
costs every encoder and server process ~0.27 s and ~23 MB at start-up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

_SCRIPT = textwrap.dedent("""
    import json, sys
    import numpy as np
    import repro.codecs, repro.datasets, repro.edge, repro.experiments, repro.serve
    from repro.core import EaszConfig, EaszDecoder, EaszEncoder, EaszReconstructor

    config = EaszConfig(patch_size=16, subpatch_size=4, d_model=16, num_heads=2,
                        encoder_blocks=1, decoder_blocks=1)
    image = np.random.default_rng(0).random((48, 64, 3))
    package = EaszEncoder(config, seed=0).encode(image)
    decoded = EaszDecoder(model=EaszReconstructor(config), config=config).decode(package)
    assert decoded.shape == image.shape
    print(json.dumps(sorted(name for name in sys.modules
                            if name == "scipy" or name.startswith("scipy."))))
""")


def test_codec_servers_and_datasets_import_and_run_without_scipy():
    source = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads(result.stdout.strip().splitlines()[-1]) == []
