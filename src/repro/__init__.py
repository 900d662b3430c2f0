"""Easz reproduction: agile transformer-based image compression for IoT edge devices.

Top-level package layout:

* :mod:`repro.core` — the Easz framework (erase-and-squeeze, lightweight
  transformer reconstruction, end-to-end pipeline);
* :mod:`repro.nn` — numpy autograd / neural-network substrate;
* :mod:`repro.codecs` — JPEG, BPG-proxy, Ballé/MBT/Cheng learned-codec
  proxies, PNG, bpp-targeted quality selection;
* :mod:`repro.entropy` — bit I/O, range coding, erase-mask RLE;
* :mod:`repro.metrics` — PSNR, SSIM, MS-SSIM, LPIPS-proxy, BRISQUE/NIQE/PI/TReS;
* :mod:`repro.datasets` — synthetic Kodak / CLIC / CIFAR stand-ins;
* :mod:`repro.sr` — super-resolution baselines (Table I);
* :mod:`repro.edge` — Jetson-TX2-class edge/server testbed simulation;
* :mod:`repro.serve` — compression service layer (admission, routing,
  worker pool or shard processes, caches, telemetry, scenario load
  harness);
* :mod:`repro.experiments` — experiment harness shared by the benchmarks.
"""

__version__ = "0.1.0"

from . import image  # noqa: F401  (lightweight, commonly used helpers)

__all__ = ["image", "__version__"]
