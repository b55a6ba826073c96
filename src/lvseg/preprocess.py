"""Input preprocessing: the thresholded contrast channel and elastic
deformation augmentation.

The contrast channel applies the mean-plus-k-sigma threshold rule with
the statistics taken over the whole image (global use), which brightens
wall structures relative to the rest of the frame; the result feeds the
network as a second input channel.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .dataset import ImageSample
from .errors import ContractViolation


def niblack_threshold(image: np.ndarray, k: float = 2.0) -> np.ndarray:
    """Global mean + k * population-std threshold; returns {0, 255} uint8.

    Pixels strictly above T = m + k*sigma map to 255. A constant image
    has sigma = 0, so nothing exceeds T and the output is all zero.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.size == 0:
        raise ContractViolation("niblack_threshold on an empty image")
    t = img.mean() + k * img.std()
    return np.where(img > t, 255, 0).astype(np.uint8)


def displacement_field(shape: tuple[int, int], alpha: float, sigma: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Random per-pixel displacements: uniform +-1 noise per axis,
    Gaussian-smoothed with width sigma, scaled by alpha."""
    raw = rng.uniform(-1.0, 1.0, size=(2,) + shape)
    return np.stack([alpha * ndimage.gaussian_filter(raw[i], sigma, mode="reflect")
                     for i in range(2)])


def elastic_deform(sample: ImageSample, alpha: float = 2.0, sigma: float = 6.0,
                   seed: int = 0) -> ImageSample:
    """Warp image (bilinear) and mask (nearest) by one smoothed random
    displacement field; deterministic for a fixed seed."""
    if alpha < 0:
        raise ContractViolation(f"alpha must be >= 0, got {alpha}")
    if sigma <= 0:
        raise ContractViolation(f"sigma must be > 0, got {sigma}")
    rng = np.random.default_rng(seed)
    h, w = sample.image.shape
    disp = displacement_field((h, w), alpha, sigma, rng)
    rows, cols = np.meshgrid(np.arange(h, dtype=np.float64),
                             np.arange(w, dtype=np.float64), indexing="ij")
    coords = np.stack([rows + disp[0], cols + disp[1]])

    warped_img = ndimage.map_coordinates(sample.image.astype(np.float64), coords,
                                         order=1, mode="reflect")
    warped_img = np.clip(np.rint(warped_img), 0, 255).astype(np.uint8)
    warped_mask = ndimage.map_coordinates(sample.mask.astype(np.uint8), coords,
                                          order=0, mode="constant", cval=0)
    return ImageSample(image=warped_img, mask=warped_mask,
                       calibration=sample.calibration, phase=sample.phase,
                       subject=sample.subject, sample_id=sample.sample_id)


def compose_input(sample: ImageSample | np.ndarray, k: float = 2.0,
                  dtype=np.float32) -> np.ndarray:
    """Stack the raw image (``sample.image``, or ``sample`` itself when it is
    an image array) and its thresholded contrast channel into the (2, H, W)
    network input, both scaled to [0, 1]."""
    image = sample.image if isinstance(sample, ImageSample) else sample
    raw = image.astype(dtype) / 255.0
    contrast = niblack_threshold(image, k=k).astype(dtype) / 255.0
    return np.stack([raw, contrast])
