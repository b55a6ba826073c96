import math

import numpy as np
import pytest

from lvseg.errors import ContractViolation, MeasurementError
from lvseg.geometry import convex_hull, extract_contour, min_enclosing_triangle
from lvseg.measure import (ejection_fraction, lv_area, lv_landmarks, lv_length,
                           lv_volume, measure_mask)
from lvseg.phantom import (bullet_area, bullet_height, ellipse_area, ellipse_mask)
from lvseg.units import px_area_to_cm2, px_to_cm


def _bullet(n=160, a=50.0, b=30.0, cut=0.0, angle=0.0, center=None):
    center = center or (n / 2, n / 2)
    return ellipse_mask((n, n), center, (a, b), angle=angle, base_cut=cut), center


# -- landmarks ---------------------------------------------------------------

def test_landmarks_lie_on_contour():
    mask, _ = _bullet(96, 28, 14, cut=0.1)
    contour = extract_contour(mask)
    tri = min_enclosing_triangle(convex_hull(contour))
    marks = lv_landmarks(contour, tri)
    as_set = set(map(tuple, contour.tolist()))
    for p in marks:
        assert tuple(p.tolist()) in as_set


def test_landmark_apex_near_construction_apex():
    # bullet with apex at the top center: the apex landmark must land
    # within 2 px of the analytic tip
    n, a, b = 128, 40.0, 20.0
    mask, center = _bullet(n, a, b, cut=0.15)
    contour = extract_contour(mask)
    tri = min_enclosing_triangle(convex_hull(contour))
    _, _, apex = lv_landmarks(contour, tri)
    expected = np.array([center[0], center[1] - a])
    assert np.hypot(*(apex - expected)) <= 2.0


def test_apex_is_farthest_from_other_two_brute_force():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        a_ax = rng.uniform(22, 30)
        mask = ellipse_mask((96, 96), (48 + rng.uniform(-5, 5), 48 + rng.uniform(-5, 5)),
                            (a_ax, a_ax * rng.uniform(0.45, 0.55)),
                            angle=rng.uniform(-0.3, 0.3), base_cut=rng.uniform(0.1, 0.3))
        contour = extract_contour(mask)
        tri = min_enclosing_triangle(convex_hull(contour))
        a, b, apex = lv_landmarks(contour, tri)
        picks = [a, b, apex]

        def line_dist(p, q, r):
            d = r - q
            L = np.hypot(*d)
            return abs(d[0] * (p[1] - q[1]) - d[1] * (p[0] - q[0])) / L if L > 0 else 0.0

        spans = [line_dist(picks[k], picks[(k + 1) % 3], picks[(k + 2) % 3])
                 for k in range(3)]
        assert spans[2] == max(spans)


# -- length -------------------------------------------------------------------

def test_length_on_axis_aligned_rectangle():
    w, h, cal = 9, 21, 0.3
    mask = np.zeros((32, 32), dtype=np.uint8)
    mask[5:5 + h, 10:10 + w] = 1
    contour = extract_contour(mask)
    # annulus on the short bottom side, apex at the top
    annulus_a = np.array([10.0, 5.0 + h - 1])
    annulus_b = np.array([10.0 + w - 1, 5.0 + h - 1])
    apex = np.array([10.0 + (w - 1) / 2, 5.0])
    d = lv_length(contour, (annulus_a, annulus_b, apex), cal)
    assert abs(d - px_to_cm(h, cal)) <= px_to_cm(1.0, cal) + 1e-12


def test_length_on_ellipse_base_on_minor_side():
    # annulus points flank the bottom tip of the major axis -> D ~ 2a
    n, a, b, cal = 200, 70.0, 40.0, 0.25
    cx, cy = n / 2, n / 2
    mask = ellipse_mask((n, n), (cx, cy), (a, b))
    contour = extract_contour(mask)

    def nearest(p):
        d2 = (contour[:, 0] - p[0]) ** 2 + (contour[:, 1] - p[1]) ** 2
        return contour[int(np.argmin(d2))]

    t = math.acos(0.98)
    annulus_a = nearest((cx - b * math.sin(t), cy + a * 0.98))
    annulus_b = nearest((cx + b * math.sin(t), cy + a * 0.98))
    apex = nearest((cx, cy - a))
    d = lv_length(contour, (annulus_a, annulus_b, apex), cal)
    assert abs(d - px_to_cm(2 * a, cal)) / px_to_cm(2 * a, cal) < 0.02


def test_length_scale_invariance():
    mask, _ = _bullet(160, 60, 30, cut=0.1)
    cal = 0.3
    d1 = measure_mask(mask, cal).length_cm
    big = np.kron(mask, np.ones((2, 2), dtype=np.uint8))
    d2 = measure_mask(big, cal / 2).length_cm
    assert abs(d2 - d1) / d1 < 0.01


def test_length_requires_apex_side_intersection():
    mask, _ = _bullet(96, 30, 18)
    contour = extract_contour(mask)
    annulus_a = contour[0]
    annulus_b = contour[1]
    # apex placed on the baseline makes the side undefined
    with pytest.raises(MeasurementError):
        lv_length(contour, (annulus_a, annulus_b, (annulus_a + annulus_b) / 2), 0.3)


def test_length_degenerate_annulus():
    mask, _ = _bullet(96, 30, 18)
    contour = extract_contour(mask)
    with pytest.raises(MeasurementError):
        lv_length(contour, (contour[0], contour[0], contour[5]), 0.3)


def _lv_length_loop(contour, landmarks, calibration):
    """Reference: lv_length's intersection search as a per-segment loop."""
    annulus_a, annulus_b, apex = (np.asarray(p, dtype=np.float64) for p in landmarks)
    base = annulus_b - annulus_a
    mid = 0.5 * (annulus_a + annulus_b)
    perp = np.array([-base[1], base[0]]) / float(np.hypot(*base))
    d = perp if float(np.dot(perp, apex - mid)) > 0 else -perp
    eps = 1e-9
    ts = []
    for p, q in zip(contour, np.roll(contour, -1, axis=0)):
        e = q - p
        denom = d[0] * e[1] - d[1] * e[0]
        rel = p - mid
        if abs(denom) < 1e-12:
            if abs(rel[0] * d[1] - rel[1] * d[0]) < 1e-9:
                ts.extend([float(np.dot(rel, d)), float(np.dot(q - mid, d))])
            continue
        t = (rel[0] * e[1] - rel[1] * e[0]) / denom
        u = (rel[0] * d[1] - rel[1] * d[0]) / denom
        if -eps <= u <= 1 + eps and t > eps:
            ts.append(t)
    return px_to_cm(max(t for t in ts if t > eps), calibration)


def test_length_matches_per_segment_loop():
    # a contour edge lying on the perpendicular exercises the collinear branch
    step = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [2.0, 3.0], [2.0, 6.0], [0.0, 6.0]])
    cases = [(step, (step[0], step[1], np.array([1.0, 6.0])))]
    for seed in range(12):
        rng = np.random.default_rng(seed)
        a = rng.uniform(22, 40)
        mask, _ = _bullet(112, a, a * rng.uniform(0.45, 0.56), cut=rng.uniform(0.1, 0.3),
                          angle=0.0 if seed < 4 else rng.uniform(-0.3, 0.3))
        contour = extract_contour(mask)
        cases.append((contour, lv_landmarks(contour, min_enclosing_triangle(convex_hull(contour)))))
    for contour, marks in cases:
        assert lv_length(contour, marks, 0.37) == _lv_length_loop(contour, marks, 0.37)
    assert lv_length(*cases[0], 1.0) == px_to_cm(6.0, 1.0)


# -- area / volume / EF ---------------------------------------------------------

def test_area_empty_mask_zero():
    assert lv_area(np.zeros((8, 8), dtype=np.uint8), 0.3) == 0.0


def test_area_unit_arithmetic():
    mask = np.zeros((20, 20), dtype=np.uint8)
    mask[:10, :10] = 1  # 100 px
    assert math.isclose(lv_area(mask, 0.3), 0.09, rel_tol=1e-12)


def test_area_translation_invariant_and_exact_census():
    rng = np.random.default_rng(4)
    mask = (rng.uniform(size=(16, 16)) < 0.3).astype(np.uint8)
    a1 = lv_area(mask, 0.41)
    rolled = np.roll(mask, (3, 5), axis=(0, 1))
    assert lv_area(rolled, 0.41) == a1
    census = sum(int(v) for v in mask.reshape(-1))
    assert a1 == px_area_to_cm2(census, 0.41)


def test_volume_formula():
    assert lv_volume(0.0, 5.0) == 0.0
    assert math.isclose(lv_volume(20.0, 8.0), 3200.0 / (24.0 * math.pi), rel_tol=1e-15)
    assert math.isclose(lv_volume(40.0, 8.0), 4.0 * lv_volume(20.0, 8.0), rel_tol=1e-15)
    with pytest.raises(ContractViolation):
        lv_volume(10.0, 0.0)


def test_ejection_fraction_cases():
    assert ejection_fraction(120.0, 120.0) == 0.0
    assert ejection_fraction(120.0, 60.0) == 50.0
    assert ejection_fraction(120.0, 0.0) == 100.0
    with pytest.raises(ContractViolation):
        ejection_fraction(0.0, 10.0)
    with pytest.warns(UserWarning):
        assert ejection_fraction(100.0, 110.0) == -10.0


# -- full pipeline ----------------------------------------------------------------

def test_pipeline_volume_matches_analytic_half_ellipse():
    n, a, b, cut, cal = 192, 60.0, 30.0, 0.0, 0.3
    mask, _ = _bullet(n, a, b, cut=cut)
    m = measure_mask(mask, cal)
    s_true = px_area_to_cm2(bullet_area(a, b, cut), cal)
    d_true = px_to_cm(bullet_height(a, cut), cal)
    v_true = lv_volume(s_true, d_true)
    assert abs(m.volume_ml - v_true) / v_true < 0.03
    # the returned volume always satisfies the area-length formula exactly
    assert math.isclose(m.volume_ml, lv_volume(m.area_cm2, m.length_cm), rel_tol=1e-15)


def test_pipeline_units_invariance():
    mask, _ = _bullet(112, 40, 20, cut=0.15)
    cal = 0.36
    base = measure_mask(mask, cal)
    for s in (2, 3):
        scaled = np.kron(mask, np.ones((s, s), dtype=np.uint8))
        m = measure_mask(scaled, cal / s)
        assert abs(m.length_cm - base.length_cm) / base.length_cm < 0.02
        assert abs(m.area_cm2 - base.area_cm2) / base.area_cm2 < 0.02
        assert abs(m.volume_ml - base.volume_ml) / base.volume_ml < 0.02


def test_pipeline_rejects_empty_mask():
    with pytest.raises(MeasurementError):
        measure_mask(np.zeros((16, 16), dtype=np.uint8), 0.3)
