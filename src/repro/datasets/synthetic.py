"""Procedural natural-image synthesis.

The paper evaluates on Kodak (24 photos at 768×512), CLIC and CIFAR-10; none
can be downloaded offline, so the datasets in this package generate
*natural-image-like* content procedurally.  The generator combines the
ingredients that matter for compression and masking experiments:

* a 1/f-style multi-octave noise field (natural power spectrum → realistic
  local pixel correlation, which is what the Easz reconstruction exploits);
* smooth illumination gradients and colour casts;
* piecewise-constant regions with sharp boundaries (objects / occlusions,
  which stress blocking artifacts and erase-mask placement);
* oriented texture patches (stripes / gratings) that behave like fabric,
  grass or water in real photos.

Every image is fully determined by a seed, so experiments are reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SyntheticImageGenerator"]


class SyntheticImageGenerator:
    """Deterministic generator of natural-looking RGB or grayscale images.

    Parameters
    ----------
    height, width:
        Output resolution.
    color:
        Generate RGB (``True``) or grayscale (``False``) images.
    texture_strength, edge_density:
        Knobs controlling how much high-frequency texture and how many
        object boundaries appear; the dataset profiles (Kodak-like vs
        CLIC-like) use different presets.
    """

    def __init__(self, height=512, width=768, color=True,
                 texture_strength=1.0, edge_density=1.0):
        self.height = height
        self.width = width
        self.color = color
        self.texture_strength = texture_strength
        self.edge_density = edge_density

    # ------------------------------------------------------------------ #
    def _octave_noise(self, rng):
        """Multi-octave smoothed noise with an approximately 1/f spectrum."""
        from scipy.ndimage import gaussian_filter

        field = np.zeros((self.height, self.width))
        amplitude = 1.0
        sigma = max(self.height, self.width) / 8.0
        while sigma >= 1.0:
            noise = rng.standard_normal((self.height, self.width))
            field += amplitude * gaussian_filter(noise, sigma, mode="reflect")
            amplitude *= 0.55
            sigma /= 2.0
        field -= field.min()
        field /= max(field.max(), 1e-9)
        return field

    def _illumination(self, rng):
        """Smooth global illumination gradient."""
        yy, xx = np.mgrid[0:self.height, 0:self.width]
        yy = yy / self.height
        xx = xx / self.width
        gradient = rng.uniform(-0.4, 0.4) * xx + rng.uniform(-0.4, 0.4) * yy
        vignette = 1.0 - 0.3 * ((xx - 0.5) ** 2 + (yy - 0.5) ** 2)
        return gradient + vignette

    def _objects(self, rng):
        """Piecewise-constant elliptical and rectangular regions."""
        field = np.zeros((self.height, self.width))
        yy, xx = np.mgrid[0:self.height, 0:self.width]
        num_objects = max(1, int(rng.integers(3, 8) * self.edge_density))
        for _ in range(num_objects):
            kind = rng.choice(["ellipse", "rectangle"])
            value = rng.uniform(-0.45, 0.45)
            cy, cx = rng.uniform(0.1, 0.9) * self.height, rng.uniform(0.1, 0.9) * self.width
            ry = rng.uniform(0.05, 0.25) * self.height
            rx = rng.uniform(0.05, 0.25) * self.width
            if kind == "ellipse":
                mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 < 1.0
            else:
                angle = rng.uniform(0, np.pi)
                u = (xx - cx) * np.cos(angle) + (yy - cy) * np.sin(angle)
                v = -(xx - cx) * np.sin(angle) + (yy - cy) * np.cos(angle)
                mask = (np.abs(u) < rx) & (np.abs(v) < ry)
            field[mask] += value
        return field

    def _texture(self, rng):
        """Oriented gratings restricted to random regions."""
        field = np.zeros((self.height, self.width))
        yy, xx = np.mgrid[0:self.height, 0:self.width]
        num_patches = max(1, int(rng.integers(2, 5) * self.texture_strength))
        for _ in range(num_patches):
            angle = rng.uniform(0, np.pi)
            frequency = rng.uniform(0.05, 0.35)
            phase = rng.uniform(0, 2 * np.pi)
            grating = np.sin(frequency * ((xx * np.cos(angle) + yy * np.sin(angle))) + phase)
            cy, cx = rng.uniform(0.2, 0.8) * self.height, rng.uniform(0.2, 0.8) * self.width
            ry = rng.uniform(0.1, 0.4) * self.height
            rx = rng.uniform(0.1, 0.4) * self.width
            window = np.exp(-(((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2))
            field += 0.12 * grating * window
        return field

    # ------------------------------------------------------------------ #
    def generate_luma(self, seed):
        """Generate one grayscale image in ``[0, 1]`` for ``seed``."""
        rng = np.random.default_rng(seed)
        luma = (
            0.55 * self._octave_noise(rng)
            + 0.25 * self._illumination(rng)
            + self._objects(rng)
            + self.texture_strength * self._texture(rng)
        )
        # fine grain: sensor-like noise, kept subtle
        luma += 0.01 * rng.standard_normal(luma.shape)
        luma -= luma.min()
        luma /= max(luma.max(), 1e-9)
        return luma

    def generate(self, seed):
        """Generate one image (RGB when ``color=True``) for ``seed``."""
        from scipy.ndimage import gaussian_filter

        luma = self.generate_luma(seed)
        if not self.color:
            return luma
        rng = np.random.default_rng(seed + 10_000)
        # chroma: low-frequency colour fields modulated by the luma structure
        chroma_a = gaussian_filter(rng.standard_normal(luma.shape), 24, mode="reflect")
        chroma_b = gaussian_filter(rng.standard_normal(luma.shape), 24, mode="reflect")
        chroma_a = 0.12 * chroma_a / max(np.abs(chroma_a).max(), 1e-9)
        chroma_b = 0.12 * chroma_b / max(np.abs(chroma_b).max(), 1e-9)
        cast = rng.uniform(-0.05, 0.05, size=3)
        red = luma + chroma_a + cast[0]
        green = luma - 0.5 * chroma_a - 0.5 * chroma_b + cast[1]
        blue = luma + chroma_b + cast[2]
        rgb = np.stack([red, green, blue], axis=-1)
        return np.clip(rgb, 0.0, 1.0)
