"""Synthetic cardiac phantoms: a dark crescent/ellipse cavity with a
bright wall on a mid-gray speckled background, plus analytic helpers so
tests can compare rasterized measurements against closed-form values.

The cavity is an ellipse optionally truncated by a flat base chord (a
"bullet": rounded apex, flat valve plane), which is the shape family the
measurement pipeline expects. The end-systolic frame reuses the same
center and orientation with both semi-axes shrunk linearly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .dataset import ImageSample
from .errors import ContractViolation
from .units import MAX_EXTENT_PX

DEFAULT_CALIBRATION = 0.3  # mm per pixel


def ellipse_mask(shape: tuple[int, int], center: tuple[float, float],
                 semi_axes: tuple[float, float], angle: float = 0.0,
                 base_cut: float | None = None) -> np.ndarray:
    """Rasterize a rotated ellipse at pixel centers; (a, b) are the semi-
    axes along the major (apex-pointing) and minor directions.

    ``angle`` tilts the major axis away from image-up (radians). With
    ``base_cut`` = f in (0, 1], the region below the chord at distance
    f*a from the center on the base side is removed, flattening the base
    while keeping the apex rounded.
    """
    h, w = shape
    a, b = semi_axes
    if a <= 0 or b <= 0:
        raise ContractViolation(f"semi-axes must be positive, got {semi_axes}")
    cx, cy = center
    ys, xs = np.mgrid[0:h, 0:w]
    # unit vector toward the apex (up in image coordinates when angle = 0)
    ux, uy = math.sin(angle), -math.cos(angle)
    dx = xs - cx
    dy = ys - cy
    xi = dx * ux + dy * uy        # along major axis, positive toward apex
    eta = -dx * uy + dy * ux      # along minor axis
    inside = (xi / a) ** 2 + (eta / b) ** 2 <= 1.0
    if base_cut is not None:
        inside &= xi >= -base_cut * a
    return inside.astype(np.uint8)


def ellipse_area(a: float, b: float) -> float:
    return math.pi * a * b


def bullet_area(a: float, b: float, base_cut: float) -> float:
    """Area of an ellipse truncated at distance base_cut*a below center."""
    f = base_cut
    cap = a * b * (math.acos(f) - f * math.sqrt(1.0 - f * f))
    return math.pi * a * b - cap


def bullet_height(a: float, base_cut: float) -> float:
    """Apex-to-base distance of the truncated ellipse."""
    return a * (1.0 + base_cut)


def _render(mask: np.ndarray, wall_px: int, rng: np.random.Generator) -> np.ndarray:
    wall = ndimage.binary_dilation(
        mask, structure=ndimage.generate_binary_structure(2, 1), iterations=wall_px)
    wall = wall & ~mask.astype(bool)
    img = np.full(mask.shape, 100.0)
    img[mask.astype(bool)] = 35.0
    img[wall] = 210.0
    speckle = rng.gamma(shape=25.0, scale=1.0 / 25.0, size=mask.shape)
    return np.clip(np.rint(img * speckle), 0, 255).astype(np.uint8)


def generate_phantom(n: int, seed: int,
                     calibration: float = DEFAULT_CALIBRATION) -> tuple[ImageSample, ImageSample]:
    """End-diastolic and end-systolic frames of one synthetic subject.

    The ES cavity is the ED cavity with both semi-axes shrunk by a random
    linear factor in [0.6, 0.85], so the ES mask area is strictly smaller
    for every seed.
    """
    if n < 32:
        raise ContractViolation(f"phantom extent must be >= 32, got {n}")
    if n > MAX_EXTENT_PX:
        raise ContractViolation(f"phantom extent must be <= {MAX_EXTENT_PX}, got {n}")
    rng = np.random.default_rng(seed)
    a = n * rng.uniform(0.26, 0.33)
    # keep the cavity elongated: apex identification needs the
    # apex-to-base distance to exceed sqrt(3) x the base half-width
    b = a * rng.uniform(0.45, 0.56)
    angle = rng.uniform(-0.12, 0.12)
    # small cuts keep the base at the widest chord, where the annulus
    # landmarks are unambiguous
    base_cut = rng.uniform(0.10, 0.30)
    center = (n * (0.5 + rng.uniform(-0.03, 0.03)),
              n * (0.5 + rng.uniform(-0.02, 0.04)))
    shrink = rng.uniform(0.60, 0.85)
    wall_px = int(rng.integers(2, 5))
    subject = f"phantom{seed:04d}"

    ed_mask = ellipse_mask((n, n), center, (a, b), angle, base_cut)
    es_mask = ellipse_mask((n, n), center, (a * shrink, b * shrink), angle, base_cut)
    ed = ImageSample(image=_render(ed_mask, wall_px, rng), mask=ed_mask,
                     calibration=calibration, phase="ED", subject=subject,
                     sample_id=f"{subject}_ED")
    es = ImageSample(image=_render(es_mask, wall_px, rng), mask=es_mask,
                     calibration=calibration, phase="ES", subject=subject,
                     sample_id=f"{subject}_ES")
    return ed, es


def generate_phantom_set(count: int, n: int, seed: int) -> list[ImageSample]:
    """``count`` subjects, two frames each, with per-subject seeds derived
    from one master seed."""
    children = np.random.SeedSequence(seed).spawn(count)
    samples: list[ImageSample] = []
    for i, child in enumerate(children):
        sub_seed = int(child.generate_state(1)[0])
        ed, es = generate_phantom(n, sub_seed)
        subject = f"subj{i:03d}"
        ed.subject = es.subject = subject
        ed.sample_id = f"{subject}_ED"
        es.sample_id = f"{subject}_ES"
        samples.extend([ed, es])
    return samples
