"""Natural scene statistics (NSS) feature extraction.

BRISQUE, NIQE and the PI metric are all built on the same observation:
pristine natural images have characteristic mean-subtracted contrast-
normalised (MSCN) coefficient statistics, and distortions (blocking, blur,
ringing, noise) perturb them in measurable ways.  This module implements:

* MSCN coefficient computation with a Gaussian local mean/variance window;
* asymmetric generalised Gaussian distribution (AGGD) moment-matching fits;
* the 18-feature-per-scale vector used by BRISQUE/NIQE (2 GGD parameters for
  the MSCN coefficients plus 4×4 AGGD parameters for the pairwise products).
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ..image import ensure_gray, to_float

__all__ = [
    "mscn_coefficients",
    "fit_ggd",
    "fit_aggd",
    "nss_features",
    "multiscale_nss_features",
]

_GAMMA_GRID = np.arange(0.2, 10.001, 0.001)


@cache
def _ggd_rho():
    """GGD moment ratio Γ(1/α)Γ(3/α)/Γ(2/α)² over ``_GAMMA_GRID``, built on first use."""
    from scipy.special import gamma as gamma_fn

    return ((gamma_fn(1.0 / _GAMMA_GRID) * gamma_fn(3.0 / _GAMMA_GRID))
            / (gamma_fn(2.0 / _GAMMA_GRID) ** 2))


def mscn_coefficients(image, sigma=7.0 / 6.0, c=1.0 / 255.0):
    """Mean-subtracted contrast-normalised coefficients of a grayscale image.

    Parameters
    ----------
    image:
        Image in ``[0, 1]``; RGB inputs are converted to luma.
    sigma:
        Standard deviation of the Gaussian window used for local statistics
        (the BRISQUE reference uses a 7×7 window ≈ σ of 7/6).
    c:
        Saturation constant preventing division by zero in flat regions.
    """
    from scipy.ndimage import gaussian_filter

    gray = ensure_gray(to_float(image))
    mu = gaussian_filter(gray, sigma, mode="nearest")
    sigma_map = np.sqrt(np.abs(gaussian_filter(gray * gray, sigma, mode="nearest") - mu * mu))
    return (gray - mu) / (sigma_map + c)


def fit_ggd(values):
    """Fit a zero-mean generalised Gaussian via the moment-matching method.

    Returns ``(alpha, sigma)`` — the shape and scale parameters.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    sigma_sq = np.mean(values ** 2)
    mean_abs = np.mean(np.abs(values))
    if mean_abs < 1e-12 or sigma_sq < 1e-12:
        return 10.0, float(np.sqrt(max(sigma_sq, 1e-12)))
    rho = sigma_sq / (mean_abs ** 2)
    alpha = float(_GAMMA_GRID[np.argmin(np.abs(_ggd_rho() - rho))])
    return alpha, float(np.sqrt(sigma_sq))


def fit_aggd(values):
    """Fit an asymmetric generalised Gaussian distribution.

    Returns ``(alpha, mean, left_std, right_std)`` following the BRISQUE
    feature convention.
    """
    from scipy.special import gamma as gamma_fn

    values = np.asarray(values, dtype=np.float64).reshape(-1)
    left = values[values < 0]
    right = values[values >= 0]
    left_std = np.sqrt(np.mean(left ** 2)) if left.size else 1e-6
    right_std = np.sqrt(np.mean(right ** 2)) if right.size else 1e-6
    gamma_hat = left_std / max(right_std, 1e-12)
    mean_abs = np.mean(np.abs(values))
    sigma_sq = np.mean(values ** 2)
    if mean_abs < 1e-12:
        return 10.0, 0.0, float(left_std), float(right_std)
    r_hat = (mean_abs ** 2) / sigma_sq
    r_hat_norm = r_hat * (gamma_hat ** 3 + 1) * (gamma_hat + 1) / ((gamma_hat ** 2 + 1) ** 2)
    alpha = float(_GAMMA_GRID[np.argmin(np.abs(1.0 / _ggd_rho() - r_hat_norm))])
    constant = np.sqrt(gamma_fn(1.0 / alpha) / gamma_fn(3.0 / alpha))
    mean = (right_std - left_std) * (gamma_fn(2.0 / alpha) / gamma_fn(1.0 / alpha)) * constant
    return alpha, float(mean), float(left_std), float(right_std)


def _paired_products(mscn):
    """Horizontal, vertical and two diagonal neighbouring products."""
    return {
        "horizontal": mscn[:, :-1] * mscn[:, 1:],
        "vertical": mscn[:-1, :] * mscn[1:, :],
        "main_diagonal": mscn[:-1, :-1] * mscn[1:, 1:],
        "secondary_diagonal": mscn[1:, :-1] * mscn[:-1, 1:],
    }


def nss_features(image):
    """18-dimensional NSS feature vector at a single scale.

    Features: GGD (alpha, sigma²) of the MSCN coefficients, then AGGD
    (alpha, mean, left σ², right σ²) of the four orientation products.
    """
    mscn = mscn_coefficients(image)
    alpha, sigma = fit_ggd(mscn)
    features = [alpha, sigma ** 2]
    for product in _paired_products(mscn).values():
        p_alpha, p_mean, p_left, p_right = fit_aggd(product)
        features.extend([p_alpha, p_mean, p_left ** 2, p_right ** 2])
    return np.asarray(features, dtype=np.float64)


def multiscale_nss_features(image, scales=2):
    """Concatenate :func:`nss_features` over ``scales`` dyadic scales."""
    gray = ensure_gray(to_float(image))
    features = []
    for scale in range(scales):
        features.append(nss_features(gray))
        if scale != scales - 1:
            height, width = gray.shape
            gray = gray[: height - height % 2, : width - width % 2]
            gray = 0.25 * (gray[0::2, 0::2] + gray[1::2, 0::2] + gray[0::2, 1::2] + gray[1::2, 1::2])
    return np.concatenate(features)
