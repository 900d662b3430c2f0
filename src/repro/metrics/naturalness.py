"""Shared pristine-statistics model for the no-reference metrics.

BRISQUE, NIQE, PI and TReS (as used in the paper) are all *no-reference*
perceptual metrics: they judge an image by how far its natural-scene
statistics deviate from those of undistorted images.  The original metrics
rely on models trained on the LIVE database (an SVR for BRISQUE, a
multivariate Gaussian for NIQE, a deep transformer for TReS) — none of which
can be downloaded offline.  :class:`NaturalnessModel` reproduces the common
mechanism: fit a multivariate Gaussian over multi-scale NSS features of
pristine images and score test images by Mahalanobis distance.

The default model is fit once (and cached) on a small corpus of procedurally
generated pristine images whose statistics mimic natural photographs
(multi-scale smoothed noise with natural 1/f-like spectra plus edges).  The
absolute scores therefore differ from the published implementations, but the
*monotone response to distortion strength* — which is all the paper's
comparisons use — is preserved.
"""

from __future__ import annotations

import numpy as np

from .nss import multiscale_nss_features

__all__ = ["NaturalnessModel", "default_model", "generate_pristine_image"]

_DEFAULT_MODEL = None


def generate_pristine_image(rng, size=160):
    """Generate one pristine natural-looking grayscale image in ``[0, 1]``.

    The construction sums band-limited noise octaves (giving a natural
    power-law spectrum), adds a smooth illumination gradient and a few sharp
    edges, which together produce MSCN statistics close to photographic
    content.
    """
    from scipy.ndimage import gaussian_filter

    image = np.zeros((size, size))
    amplitude = 1.0
    for octave_sigma in (32, 16, 8, 4, 2, 1):
        noise = rng.standard_normal((size, size))
        image += amplitude * gaussian_filter(noise, octave_sigma, mode="reflect")
        amplitude *= 0.55
    # smooth illumination gradient
    yy, xx = np.mgrid[0:size, 0:size] / size
    image += 0.6 * (xx * rng.uniform(-1, 1) + yy * rng.uniform(-1, 1))
    # a few sharp occlusion edges
    for _ in range(rng.integers(2, 5)):
        cx, cy = rng.uniform(0.2, 0.8, 2) * size
        radius = rng.uniform(0.1, 0.3) * size
        mask = ((np.mgrid[0:size, 0:size][0] - cy) ** 2 +
                (np.mgrid[0:size, 0:size][1] - cx) ** 2) < radius ** 2
        image[mask] += rng.uniform(-0.5, 0.5)
    image -= image.min()
    image /= max(image.max(), 1e-9)
    return image


class NaturalnessModel:
    """Multivariate Gaussian over NSS features of pristine images."""

    def __init__(self, scales=2, regularisation=1e-3):
        self.scales = scales
        self.regularisation = regularisation
        self.mean = None
        self.precision = None

    def fit(self, images):
        """Fit the pristine-feature Gaussian from an iterable of images."""
        features = np.stack([multiscale_nss_features(img, self.scales) for img in images])
        self.mean = features.mean(axis=0)
        covariance = np.cov(features, rowvar=False)
        covariance += self.regularisation * np.eye(covariance.shape[0])
        self.precision = np.linalg.inv(covariance)
        return self

    @property
    def is_fit(self):
        """Whether :meth:`fit` has been called."""
        return self.mean is not None

    def distance(self, image):
        """Mahalanobis distance of ``image``'s NSS features from pristine."""
        if not self.is_fit:
            raise RuntimeError("NaturalnessModel must be fit before scoring")
        features = multiscale_nss_features(image, self.scales)
        delta = features - self.mean
        return float(np.sqrt(max(0.0, delta @ self.precision @ delta)))


def default_model(num_images=12, size=160, seed=2024):
    """Return the cached default :class:`NaturalnessModel`.

    The first call fits the model on procedurally generated pristine images;
    subsequent calls reuse it, so scoring stays fast.
    """
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        rng = np.random.default_rng(seed)
        images = [generate_pristine_image(rng, size) for _ in range(num_images)]
        _DEFAULT_MODEL = NaturalnessModel().fit(images)
    return _DEFAULT_MODEL
