"""Segmentation agreement metrics: overlap scores on masks (Dice,
Jaccard) and contour distances (Hausdorff, mean absolute distance).

Distances are in pixels unless a calibration (mm per pixel) is supplied,
which must be finite and positive; nearest-point distances come from
``scipy.spatial.distance.cdist``.
When both masks are empty the overlap scores are defined as 1: trivially
perfect agreement, which keeps aggregation over background-only crops
well defined.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ContractViolation


def _as_bool(mask: np.ndarray) -> np.ndarray:
    return np.asarray(mask) > 0


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """2|A n B| / (|A| + |B|)."""
    a, b = _as_bool(a), _as_bool(b)
    if a.shape != b.shape:
        raise ContractViolation(f"mask shapes differ: {a.shape} vs {b.shape}")
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / total


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """|A n B| / |A u B|."""
    a, b = _as_bool(a), _as_bool(b)
    if a.shape != b.shape:
        raise ContractViolation(f"mask shapes differ: {a.shape} vs {b.shape}")
    union = int((a | b).sum())
    if union == 0:
        return 1.0
    return int((a & b).sum()) / union


def _point_set(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ContractViolation(f"need a non-empty (n, 2) point set, got shape {pts.shape}")
    return pts


def _mm_per_px(calibration: float | None) -> float:
    """The distance scale: 1 for None (pixels), else a finite positive calibration."""
    if calibration is None:
        return 1.0
    if not 0 < calibration < math.inf:
        raise ContractViolation(f"calibration must be positive and finite, got {calibration}")
    return calibration


def contour_distances(a: np.ndarray, b: np.ndarray,
                      calibration: float | None = None) -> tuple[float, float]:
    """``(hausdorff(a, b), mad(a, b))`` from one distance matrix."""
    d = cdist(_point_set(a), _point_set(b))
    scale = _mm_per_px(calibration)
    near = d.min(axis=1)
    return (float(max(near.max(), d.min(axis=0).max())) * scale,
            float(np.mean(near)) * scale)


def hausdorff(a: np.ndarray, b: np.ndarray, calibration: float | None = None) -> float:
    """Symmetric worst-case nearest-point distance between two contours."""
    return contour_distances(a, b, calibration)[0]


def mad(a: np.ndarray, b: np.ndarray, calibration: float | None = None) -> float:
    """Mean distance from each point of the automatic contour ``a`` to the
    reference contour ``b`` (asymmetric by definition)."""
    return contour_distances(a, b, calibration)[1]
