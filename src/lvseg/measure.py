"""Clinical measurement pipeline for a segmented left-ventricle mask.

From a binary mask: trace the cavity contour, wrap it in its minimum
enclosing triangle, recover the three anatomical landmarks (the two
mitral-annulus points and the apex) as the contour points nearest the
triangle vertices, then measure

  length  D: distance from the annulus-segment midpoint, along the
             perpendicular to the annulus baseline, to the farthest
             contour intersection on the apex side (cm);
  area    S: foreground pixel count scaled by the calibration (cm^2);
  volume  V: 8*S^2 / (3*pi*D) (mL, single-plane area-length model);
  EF      : 100 * (V_ED - V_ES) / V_ED.

The apex is taken as the landmark farthest from the line through the
other two, which matches the geometry of a triangle whose flush side is
the valve plane.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, MeasurementError
from .geometry import convex_hull, extract_contour, min_enclosing_triangle
from .units import px_area_to_cm2, px_to_cm

Landmarks = tuple[np.ndarray, np.ndarray, np.ndarray]  # annulus_a, annulus_b, apex


@dataclass
class LVMeasures:
    """Per-image measurement bundle; volume always satisfies the
    area-length formula exactly."""

    length_cm: float
    area_cm2: float
    volume_ml: float
    landmarks: Landmarks | None = None
    phase: str = "other"


def _point_line_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    d = b - a
    L = float(np.hypot(*d))
    if L < 1e-12:
        return float(np.hypot(*(p - a)))
    return abs(float(d[0] * (p[1] - a[1]) - d[1] * (p[0] - a[0]))) / L


def lv_landmarks(contour: np.ndarray, triangle: np.ndarray) -> Landmarks:
    """Nearest contour point to each triangle vertex; the landmark
    farthest from the line through the other two is the apex, the
    remaining two are the annulus points. Ties pick the lower contour
    index."""
    contour = np.asarray(contour, dtype=np.float64)
    triangle = np.asarray(triangle, dtype=np.float64)
    if len(contour) < 3 or triangle.shape != (3, 2):
        raise MeasurementError("landmarks need a contour and a 3-vertex triangle")
    picks = []
    for v in triangle:
        d2 = (contour[:, 0] - v[0]) ** 2 + (contour[:, 1] - v[1]) ** 2
        picks.append(contour[int(np.argmin(d2))])
    spans = [_point_line_distance(picks[k], picks[(k + 1) % 3], picks[(k + 2) % 3])
             for k in range(3)]
    apex_idx = int(np.argmax(spans))
    rest = [picks[k] for k in range(3) if k != apex_idx]
    return rest[0], rest[1], picks[apex_idx]


def lv_length(contour: np.ndarray, landmarks: Landmarks, calibration: float) -> float:
    """LV length in cm: erect the perpendicular to the annulus baseline at
    the annulus-segment midpoint and take the farthest contour
    intersection on the apex side."""
    annulus_a, annulus_b, apex = (np.asarray(p, dtype=np.float64) for p in landmarks)
    contour = np.asarray(contour, dtype=np.float64)
    base = annulus_b - annulus_a
    base_len = float(np.hypot(*base))
    if base_len < 1e-9:
        raise MeasurementError("annulus landmarks coincide; baseline undefined")
    mid = 0.5 * (annulus_a + annulus_b)
    perp = np.array([-base[1], base[0]]) / base_len
    side = float(np.dot(perp, apex - mid))
    if abs(side) < 1e-12:
        raise MeasurementError("apex lies on the annulus baseline")
    d = perp if side > 0 else -perp

    eps = 1e-9
    rel = contour - mid
    rel_next = np.roll(rel, -1, axis=0)
    e = np.roll(contour, -1, axis=0) - contour
    denom = d[0] * e[:, 1] - d[1] * e[:, 0]
    off_line = rel[:, 0] * d[1] - rel[:, 1] * d[0]
    parallel = np.abs(denom) < 1e-12
    # a segment parallel to the perpendicular counts with both endpoints if collinear
    along = parallel & (np.abs(off_line) < 1e-9)
    crossing = ~parallel
    denom = denom[crossing]
    t = (rel[crossing, 0] * e[crossing, 1] - rel[crossing, 1] * e[crossing, 0]) / denom
    u = off_line[crossing] / denom
    ts = np.concatenate([rel[along] @ d, rel_next[along] @ d, t[(-eps <= u) & (u <= 1 + eps)]])
    apex_side = ts[ts > eps]
    if not apex_side.size:
        raise MeasurementError("perpendicular does not meet the contour on the apex side; "
                               "segmentation is likely malformed")
    return px_to_cm(float(apex_side.max()), calibration)


def lv_area(mask: np.ndarray, calibration: float) -> float:
    """Segmented area in cm^2: pixel census times the pixel dimensions."""
    m = np.asarray(mask)
    return px_area_to_cm2(float(np.count_nonzero(m)), calibration)


def lv_volume(area_cm2: float, length_cm: float) -> float:
    """Single-plane area-length volume in mL."""
    if length_cm <= 0:
        raise ContractViolation(f"length must be positive, got {length_cm}")
    return 8.0 * area_cm2 * area_cm2 / (3.0 * math.pi * length_cm)


def ejection_fraction(v_ed: float, v_es: float) -> float:
    """Percent volume change between end diastole and end systole."""
    if v_ed <= 0:
        raise ContractViolation(f"end-diastolic volume must be positive, got {v_ed}")
    if not 0 <= v_es <= v_ed:
        warnings.warn(f"end-systolic volume {v_es} outside [0, {v_ed}]; "
                      "EF computed anyway", stacklevel=2)
    return 100.0 * (v_ed - v_es) / v_ed


def measure_mask(mask: np.ndarray, calibration: float, phase: str = "other") -> LVMeasures:
    """Run the full pipeline: contour, hull, enclosing triangle,
    landmarks, then length/area/volume."""
    contour = extract_contour(mask)
    hull = convex_hull(contour)
    triangle = min_enclosing_triangle(hull)
    landmarks = lv_landmarks(contour, triangle)
    length = lv_length(contour, landmarks, calibration)
    area = lv_area(mask, calibration)
    volume = lv_volume(area, length)
    return LVMeasures(length_cm=length, area_cm2=area, volume_ml=volume,
                      landmarks=landmarks, phase=phase)
