import math

import numpy as np
import pytest

from lvseg.errors import ContractViolation
from lvseg.metrics import contour_distances, dice, hausdorff, jaccard, mad


def _rand_mask(rng, shape, p):
    return (rng.uniform(size=shape) < p).astype(np.uint8)


# -- dice / jaccard ----------------------------------------------------------

def test_dice_identical_masks():
    m = np.eye(6, dtype=np.uint8)
    assert dice(m, m) == 1.0


def test_dice_disjoint():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    a[0, 0] = 1
    b[3, 3] = 1
    assert dice(a, b) == 0.0


def test_dice_half_overlap():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    a[0, :4] = 1          # |A| = 4
    b[0, 2:] = 1
    b[1, :2] = 1          # |B| = 4, |A n B| = 2
    assert dice(a, b) == 0.5
    assert jaccard(a, b) == pytest.approx(1.0 / 3.0, abs=0)


def test_both_empty_convention():
    z = np.zeros((3, 3), dtype=np.uint8)
    assert dice(z, z) == 1.0
    assert jaccard(z, z) == 1.0


def test_dice_jaccard_identity_and_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        shape = (int(rng.integers(2, 20)), int(rng.integers(2, 20)))
        a = _rand_mask(rng, shape, rng.uniform(0.1, 0.9))
        b = _rand_mask(rng, shape, rng.uniform(0.1, 0.9))
        dm, j = dice(a, b), jaccard(a, b)
        assert 0.0 <= dm <= 1.0 and 0.0 <= j <= 1.0
        assert dm == dice(b, a)
        assert j == jaccard(b, a)
        assert abs(dm - 2.0 * j / (1.0 + j)) < 1e-12


def test_shape_mismatch_rejected():
    with pytest.raises(ContractViolation):
        dice(np.zeros((2, 2)), np.zeros((3, 3)))


# -- hausdorff / mad -----------------------------------------------------------

def test_hausdorff_identical_zero():
    pts = np.array([[0.0, 0.0], [2.0, 1.0], [5.0, 5.0]])
    assert hausdorff(pts, pts) == 0.0


def test_hausdorff_single_points():
    assert hausdorff(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0


def test_hausdorff_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(0, 10, size=(rng.integers(1, 30), 2))
        b = rng.uniform(0, 10, size=(rng.integers(1, 30), 2))
        assert hausdorff(a, b) == hausdorff(b, a)


def test_hausdorff_metric_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(30):
        a = rng.uniform(0, 8, size=(rng.integers(2, 15), 2))
        b = rng.uniform(0, 8, size=(rng.integers(2, 15), 2))
        c = rng.uniform(0, 8, size=(rng.integers(2, 15), 2))
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12


def test_mad_example_and_asymmetry():
    a = np.array([[0.0, 0.0], [0.0, 2.0]])
    b = np.array([[0.0, 1.0]])
    assert mad(a, b) == 1.0
    # averaged over the first argument only
    c = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 4.0]])
    assert mad(c, b) != mad(b, c)


def test_mad_bounded_by_hausdorff():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = rng.uniform(0, 8, size=(rng.integers(1, 25), 2))
        b = rng.uniform(0, 8, size=(rng.integers(1, 25), 2))
        assert mad(a, b) <= hausdorff(a, b) + 1e-12


def test_empty_point_set_rejected():
    with pytest.raises(ContractViolation):
        hausdorff(np.zeros((0, 2)), np.array([[0.0, 0.0]]))
    with pytest.raises(ContractViolation):
        mad(np.array([[0.0, 0.0]]), np.zeros((0, 2)))


def test_calibration_scales_distances():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert hausdorff(a, b, calibration=0.3) == pytest.approx(1.5)
    assert mad(a, b, calibration=0.3) == pytest.approx(1.5)


@pytest.mark.parametrize("calibration", [0.0, -0.5, math.nan, math.inf])
def test_distances_reject_a_calibration_that_is_not_finite_and_positive(calibration):
    a = np.array([[0.0, 0.0]])
    b = np.array([[0.0, 4.0]])
    for distance in (hausdorff, mad):
        with pytest.raises(ContractViolation, match="positive and finite"):
            distance(a, b, calibration)
    assert hausdorff(a, b, None) == mad(a, b, None) == 4.0  # None stays pixels


# -- brute-force oracle equality --------------------------------------------------

def _brute_metrics(a_mask, b_mask):
    """Direct-definition O(n^2) evaluation on foreground coordinate sets."""
    a_pts = [(float(x), float(y)) for y, x in zip(*np.nonzero(a_mask))]
    b_pts = [(float(x), float(y)) for y, x in zip(*np.nonzero(b_mask))]

    def min_d2(p, pts):
        return min((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for q in pts)

    h_ab = max(min_d2(p, b_pts) for p in a_pts)
    h_ba = max(min_d2(p, a_pts) for p in b_pts)
    hd = math.sqrt(max(h_ab, h_ba))
    md = float(np.mean(np.sqrt(np.array([min_d2(p, b_pts) for p in a_pts]))))

    inter = int(((a_mask > 0) & (b_mask > 0)).sum())
    na, nb = int((a_mask > 0).sum()), int((b_mask > 0).sum())
    union = na + nb - inter
    return 2.0 * inter / (na + nb), inter / union, hd, md


def test_metrics_match_brute_force_exactly():
    rng = np.random.default_rng(77)
    for _ in range(40):
        shape = (int(rng.integers(4, 33)), int(rng.integers(4, 33)))
        a = _rand_mask(rng, shape, rng.uniform(0.05, 0.4))
        b = _rand_mask(rng, shape, rng.uniform(0.05, 0.4))
        if not a.any() or not b.any():
            continue
        dm_o, jc_o, hd_o, md_o = _brute_metrics(a, b)
        a_pts = np.argwhere(a)[:, ::-1].astype(np.float64)
        b_pts = np.argwhere(b)[:, ::-1].astype(np.float64)
        assert dice(a, b) == dm_o
        assert jaccard(a, b) == jc_o
        assert hausdorff(a_pts, b_pts) == hd_o
        assert mad(a_pts, b_pts) == md_o


def test_sub_pixel_distances_match_brute_force_within_two_ulp():
    # off the integer grid a squared distance rounds, so the oracle is the
    # definition itself, each distance a correctly rounded hypot
    rng = np.random.default_rng(91)
    for _ in range(30):
        a = rng.uniform(-40.0, 40.0, size=(int(rng.integers(1, 60)), 2))
        b = rng.uniform(-40.0, 40.0, size=(int(rng.integers(1, 60)), 2))
        ab = [min(math.hypot(p[0] - q[0], p[1] - q[1]) for q in b) for p in a]
        ba = [min(math.hypot(p[0] - q[0], p[1] - q[1]) for q in a) for p in b]
        hd_o, md_o = max(ab + ba), math.fsum(ab) / len(ab)
        assert abs(hausdorff(a, b) - hd_o) <= 2 * np.spacing(hd_o)
        assert abs(mad(a, b) - md_o) <= 2 * np.spacing(md_o)


def test_contour_distances_equal_a_distance_matrix_each_bit_for_bit():
    from scipy.spatial.distance import cdist
    rng = np.random.default_rng(23)
    for k in range(40):
        a = rng.uniform(-40.0, 40.0, size=(int(rng.integers(1, 80)), 2))
        b = rng.integers(-40, 40, size=(int(rng.integers(1, 80)), 2)).astype(np.float64)
        calibration = None if k % 4 == 0 else float(rng.uniform(0.05, 2.0))
        scale = 1.0 if calibration is None else calibration
        d_ab, d_ba = cdist(a, b), cdist(a, b)  # one matrix per distance, as each once had
        expected = (float(max(d_ab.min(axis=1).max(), d_ab.min(axis=0).max())) * scale,
                    float(np.mean(d_ba.min(axis=1))) * scale)
        got = contour_distances(a, b, calibration)
        assert got == expected
        assert (hausdorff(a, b, calibration), mad(a, b, calibration)) == got
