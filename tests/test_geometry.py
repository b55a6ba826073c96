import warnings

import numpy as np
import pytest
from scipy import ndimage, optimize

from lvseg import geometry
from lvseg.errors import ContractViolation, MeasurementError
from lvseg.geometry import (convex_hull, extract_contour, min_enclosing_triangle,
                            signed_area)
from lvseg.phantom import ellipse_mask, generate_phantom


# -- contour tracing --------------------------------------------------------

def test_single_pixel_contour():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[3, 3] = 1
    poly = extract_contour(mask)
    assert poly.tolist() == [[3.0, 3.0]]


def test_three_by_three_ring():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[2:5, 2:5] = 1
    poly = extract_contour(mask)
    assert len(poly) == 8
    assert [2.0, 2.0] not in poly.tolist() or True
    assert [3.0, 3.0] not in poly.tolist()  # center pixel is interior


def test_rectangle_perimeter_census():
    for w, h in [(7, 5), (4, 9), (2, 2), (10, 3)]:
        mask = np.zeros((h + 4, w + 4), dtype=np.uint8)
        mask[2:2 + h, 2:2 + w] = 1
        poly = extract_contour(mask)
        assert len(poly) == 2 * w + 2 * h - 4


def test_contour_counterclockwise_closed():
    mask = generate_phantom(64, 3)[0].mask
    poly = extract_contour(mask)
    assert signed_area(poly) > 0


def test_empty_mask_rejected():
    with pytest.raises(MeasurementError):
        extract_contour(np.zeros((5, 5), dtype=np.uint8))


def test_multi_component_takes_largest_with_warning():
    mask = np.zeros((12, 12), dtype=np.uint8)
    mask[1, 1] = 1
    mask[5:10, 5:10] = 1
    with pytest.warns(UserWarning, match="2 components"):
        poly = extract_contour(mask)
    assert len(poly) == 2 * 5 + 2 * 5 - 4


def _boundary_sets(mask):
    """Brute-force 4- and 8-boundaries of the foreground w.r.t. the
    exterior background region."""
    fg = mask > 0
    bg = ~fg
    # exterior: background 8-connected to the frame
    padded = np.pad(bg, 1, constant_values=True)
    lab, _ = ndimage.label(padded, structure=np.ones((3, 3), dtype=int))
    exterior = (lab == lab[0, 0])[1:-1, 1:-1]
    h, w = fg.shape
    four, eight = set(), set()
    for r in range(h):
        for c in range(w):
            if not fg[r, c]:
                continue
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    ext = not (0 <= rr < h and 0 <= cc < w) or exterior[rr, cc]
                    if ext:
                        eight.add((r, c))
                        if dr == 0 or dc == 0:
                            four.add((r, c))
    return four, eight


def test_trace_covers_edge_boundary_on_blobs():
    for seed in range(6):
        mask = generate_phantom(64, seed)[0].mask
        poly = extract_contour(mask)
        traced = {(int(y), int(x)) for x, y in poly}
        four, eight = _boundary_sets(mask)
        assert four <= traced <= eight


def _nonzero_start_contour(mask):
    """extract_contour as it was with the start pixel taken from np.nonzero."""
    binary = mask > 0
    labels, count = ndimage.label(binary, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    if count > 1:
        sizes = ndimage.sum_labels(binary, labels, index=range(1, count + 1))
        binary = labels == (int(np.argmax(sizes)) + 1)
    rows, cols = np.nonzero(binary)
    trace = geometry._moore_trace(binary, (int(rows[0]), int(cols[0])))
    poly = np.array([(c, r) for r, c in trace], dtype=np.float64)
    if len(poly) >= 3 and signed_area(poly) < 0:
        poly = poly[::-1].copy()
    return poly


def test_contour_equals_the_nonzero_start_trace():
    rng = np.random.default_rng(11)
    masks = [generate_phantom(n, seed)[0].mask for n in (64, 128, 256) for seed in range(3)]
    for seed in range(12):  # smoothed noise: several components, some touching the frame
        noise = ndimage.gaussian_filter(rng.normal(size=(48, 40)), 2.0)
        masks.append((noise > 0.1).astype(np.uint8))
    masks.append((rng.random((30, 50)) < 0.3).astype(np.uint8))  # scattered pixels
    for mask in masks:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert np.array_equal(extract_contour(mask), _nonzero_start_contour(mask))


def test_contour_signed_area_is_never_negative_on_random_masks():
    # the Moore walk starts at the top-left pixel and turns clockwise on
    # screen, counterclockwise in (x, y); nothing reverses its polygon
    rng = np.random.default_rng(27)
    traced = 0
    for k in range(600):
        h, w = rng.integers(1, 40, size=2)
        if k % 2:
            noise = ndimage.gaussian_filter(rng.normal(size=(h, w)), rng.uniform(0.5, 3.0))
            mask = noise > rng.uniform(-0.2, 0.3)
        else:
            mask = rng.random((h, w)) < rng.uniform(0.05, 0.9)
        if not mask.any():
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            poly = extract_contour(mask)
        if len(poly) >= 3:
            traced += 1
            assert signed_area(poly) >= 0, (k, poly.tolist())
    assert traced > 500


# -- convex hull --------------------------------------------------------------

def test_hull_of_triangle_is_itself():
    pts = np.array([[0.0, 0.0], [4.0, 1.0], [1.0, 3.0]])
    hull = convex_hull(pts)
    assert sorted(map(tuple, hull.tolist())) == sorted(map(tuple, pts.tolist()))


def test_hull_drops_interior_point():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.4, 0.6]])
    hull = convex_hull(pts)
    assert len(hull) == 4
    assert (0.4, 0.6) not in set(map(tuple, hull.tolist()))


def test_hull_counterclockwise_strictly_convex():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(40, 2))
    hull = convex_hull(pts)
    n = len(hull)
    for i in range(n):
        o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
        cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        assert cross > 0


def test_hull_against_left_of_edge_oracle():
    # every input point lies left of (or on) every CCW hull edge
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-5, 5, size=(50, 2))
        hull = convex_hull(pts)
        as_set = set(map(tuple, pts.tolist()))
        assert set(map(tuple, hull.tolist())) <= as_set
        n = len(hull)
        for i in range(n):
            a, b = hull[i], hull[(i + 1) % n]
            e = b - a
            side = e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])
            assert side.min() > -1e-9


def test_hull_degenerate_rejected():
    with pytest.raises(MeasurementError):
        convex_hull(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    with pytest.raises(MeasurementError):
        convex_hull(np.array([[0.0, 0.0], [1.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hull_rejects_non_finite_points(bad):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [bad, 1.0], [0.0, 1.0]])
    with pytest.raises(MeasurementError, match="finite"):
        convex_hull(pts)


def test_hull_of_only_duplicates_rejected():
    for pts in ([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]], [[2.0, 3.0]] * 5,
                [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]):
        with pytest.raises(MeasurementError, match="distinct"):
            convex_hull(np.array(pts))


def _monotone_chain_hull(points):
    """convex_hull as it was before Qhull: Andrew's monotone chain."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise MeasurementError(f"points must be (n, 2), got {pts.shape}")
    uniq = sorted(set(map(tuple, pts.tolist())))
    if len(uniq) < 3:
        raise MeasurementError(f"convex hull needs >= 3 distinct points, have {len(uniq)}")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in uniq:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(uniq):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise MeasurementError("points are collinear; hull is degenerate")
    return np.array(hull, dtype=np.float64)


def test_hull_equals_monotone_chain():
    point_sets = [_bullet_contour(seed, n) for n in (64, 128, 256) for seed in range(40)]
    point_sets += [_bullet_contour(seed, n, frame)
                   for n in (64, 128, 256) for frame in ((n, n * 3 // 4), (n * 3 // 4, n))
                   for seed in range(4)]
    point_sets += [extract_contour(generate_phantom(n, seed)[0].mask)
                   for n in (64, 128, 256) for seed in range(3)]
    rng = np.random.default_rng(17)
    for _ in range(300):
        k = int(rng.integers(3, 200))
        point_sets.append(rng.normal(size=(k, 2)) * rng.uniform(0.01, 100.0))
        # integer grids: duplicates, collinear runs, some all on one line
        point_sets.append(rng.integers(0, 8, size=(k, 2)).astype(np.float64))
        point_sets.append(rng.integers(0, 3, size=(int(rng.integers(3, 6)), 2)).astype(np.float64))

    def hull_or_error(hull_fn, pts):
        try:
            return hull_fn(pts)
        except MeasurementError as exc:
            return str(exc)

    errors = 0
    for pts in point_sets:
        expected = hull_or_error(_monotone_chain_hull, pts)
        got = hull_or_error(convex_hull, pts)
        if isinstance(expected, str):
            errors += 1
            assert got == expected
        else:
            assert np.array_equal(got, expected)
    assert errors  # the two error messages are compared too


# -- minimum enclosing triangle -------------------------------------------------

def _tri_area(tri):
    return abs(signed_area(np.asarray(tri)))


def _poly_area(poly):
    return abs(signed_area(np.asarray(poly)))


def _contains(tri, pts, tol=1e-7):
    tri = np.asarray(tri)
    if signed_area(tri) < 0:
        tri = tri[::-1]
    for k in range(3):
        a, b = tri[k], tri[(k + 1) % 3]
        e = b - a
        side = e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])
        if side.min() < -tol:
            return False
    return True


def _support_angle_area(angles, hull):
    """Area of the triangle bounded by the three hull support lines with
    outward normal directions ``angles``; inf when unbounded."""
    ns = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cs = (hull @ ns.T).max(axis=0)
    pts = []
    pairs = ((0, 1), (1, 2), (2, 0))
    for i, j in pairs:
        det = ns[i, 0] * ns[j, 1] - ns[i, 1] * ns[j, 0]
        if abs(det) < 1e-12:
            return np.inf
        pts.append(((cs[i] * ns[j, 1] - cs[j] * ns[i, 1]) / det,
                    (ns[i, 0] * cs[j] - ns[j, 0] * cs[i]) / det))
    tri = np.array(pts)
    for k, (i, j) in enumerate(pairs):
        third = 3 - i - j
        if float(ns[third] @ tri[k]) > cs[third] + 1e-9:
            return np.inf
    area = _tri_area(tri)
    # concurrent or near-parallel support lines degenerate to slivers or a
    # single point; a genuine enclosing triangle is at least as big as the hull
    if area < _poly_area(hull) - 1e-9:
        return np.inf
    if not _contains(tri, hull, tol=1e-7 * max(1.0, float(np.abs(tri).max()))):
        return np.inf
    return area


def _numeric_min_triangle_area(hull, restarts=30, seed=0):
    """Independent oracle: minimize the support-angle parametrization from
    many random starts."""
    rng = np.random.default_rng(seed)
    best = np.inf
    with np.errstate(invalid="ignore"):  # Nelder-Mead probes inf regions
        for _ in range(restarts):
            x0 = np.sort(rng.uniform(0, 2 * np.pi, 3))
            res = optimize.minimize(_support_angle_area, x0, args=(hull,),
                                    method="Nelder-Mead",
                                    options={"xatol": 1e-9, "fatol": 1e-11,
                                             "maxiter": 800})
            if res.fun < best:
                best = res.fun
                best_x = res.x
        # polish the winner
        res = optimize.minimize(_support_angle_area, best_x, args=(hull,),
                                method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-14,
                                         "maxiter": 4000})
    return min(best, res.fun)


def _point_segment_dist(p, a, b):
    d = b - a
    L2 = float(d @ d)
    t = 0.0 if L2 == 0 else float(np.clip((p - a) @ d / L2, 0.0, 1.0))
    return float(np.hypot(*(p - (a + t * d))))


def _dist_to_polygon_boundary(p, poly):
    n = len(poly)
    return min(_point_segment_dist(p, poly[i], poly[(i + 1) % n]) for i in range(n))


def _line_intersection(n1, c1, n2, c2):
    det = n1[0] * n2[1] - n1[1] * n2[0]
    if abs(det) < 1e-14:
        return None
    x = (c1 * n2[1] - c2 * n1[1]) / det
    y = (n1[0] * c2 - n2[0] * c1) / det
    return np.array([x, y])


def _triangle_area(tri):
    a, b, c = tri
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def _enumerated_min_triangle(hull):
    """Reference oracle: the smallest valid member of the three candidate
    families of a locally minimal enclosing triangle (three flush sides;
    two flush sides plus a side bisected by a hull vertex; one flush side
    plus two sides bisected by hull vertices at equal support height,
    with the apex sampled along its line). O(n^4); earlier versions of
    ``min_enclosing_triangle`` ran exactly this enumeration."""
    hull = convex_hull(np.asarray(hull, dtype=np.float64))
    n = len(hull)
    edges = np.roll(hull, -1, axis=0) - hull
    # inward normals of a CCW polygon point left of each directed edge
    normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1)
    norms = np.linalg.norm(normals, axis=1)
    normals = normals / norms[:, None]
    offsets = np.einsum("ij,ij->i", normals, hull)

    scale = float(np.max(np.ptp(hull, axis=0)))
    tol = 1e-9 * max(scale, 1.0)

    best_area = np.inf
    best_tri = None

    def consider(tri):
        nonlocal best_area, best_tri
        area = _triangle_area(tri)
        if area < best_area - 1e-15 and area > tol and _contains(tri, hull, tol):
            best_area = area
            best_tri = tri

    # family 1: three flush sides
    for i in range(n):
        for j in range(i + 1, n):
            q_ij = _line_intersection(normals[i], offsets[i], normals[j], offsets[j])
            if q_ij is None:
                continue
            for k in range(j + 1, n):
                q_ik = _line_intersection(normals[i], offsets[i], normals[k], offsets[k])
                q_jk = _line_intersection(normals[j], offsets[j], normals[k], offsets[k])
                if q_ik is None or q_jk is None:
                    continue
                consider(np.array([q_ij, q_ik, q_jk]))

    # family 2: two flush sides, third side bisected by a hull vertex
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            q = _line_intersection(normals[i], offsets[i], normals[j], offsets[j])
            if q is None:
                continue
            for w in hull:
                # X on line i, Y on line j, with w the midpoint of X-Y
                y = _line_intersection(normals[j], offsets[j], normals[i],
                                       2.0 * float(np.dot(normals[i], w)) - offsets[i])
                if y is None:
                    continue
                x = 2.0 * w - y
                consider(np.array([q, x, y]))

    # family 3: one flush side, both other sides bisected by hull vertices
    # at (numerically) equal support height; all members share one area,
    # so sampling the apex along its line suffices.
    heights = hull @ normals.T - offsets[None, :]  # height of vertex v over edge line i
    for i in range(n):
        h_i = heights[:, i]
        for a in range(n):
            if h_i[a] <= tol:
                continue
            for b in range(a + 1, n):
                if abs(h_i[a] - h_i[b]) > 1e-7 * max(scale, 1.0):
                    continue
                u, v = hull[a], hull[b]
                h = 0.5 * (h_i[a] + h_i[b])
                mid = 0.5 * (u + v)
                foot = mid + normals[i] * (2.0 * h - (float(np.dot(normals[i], mid)) - offsets[i]))
                tangent = np.array([-normals[i][1], normals[i][0]])
                for t in np.linspace(-2.0 * scale, 2.0 * scale, 41):
                    c = foot + t * tangent
                    consider(np.array([2.0 * u - c, 2.0 * v - c, c]))

    assert best_tri is not None, "no enclosing triangle found"
    return best_tri


def test_triangle_input_returns_itself():
    tri = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
    out = min_enclosing_triangle(tri)
    assert abs(_tri_area(out) - _tri_area(tri)) < 1e-9


def test_unit_square_area_two():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    out = min_enclosing_triangle(square)
    assert abs(_tri_area(out) - 2.0) < 1e-6
    assert _contains(out, square)


def test_containment_and_area_bounds_on_random_hulls():
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        pts = rng.normal(size=(rng.integers(5, 15), 2)) * rng.uniform(0.5, 4.0)
        hull = convex_hull(pts)
        tri = min_enclosing_triangle(hull)
        assert _contains(tri, hull, tol=1e-6)
        hull_area = _poly_area(hull)
        assert hull_area - 1e-9 <= _tri_area(tri) <= 2.0 * hull_area + 1e-9


def test_matches_numeric_support_angle_oracle():
    for seed in range(6):
        rng = np.random.default_rng(7 + seed)
        pts = rng.uniform(-3, 3, size=(rng.integers(4, 10), 2))
        hull = convex_hull(pts)
        tri_area = _tri_area(min_enclosing_triangle(hull))
        oracle = _numeric_min_triangle_area(hull, seed=seed)
        assert tri_area <= oracle + 1e-7
        assert oracle - tri_area <= 1e-5 * max(oracle, 1.0)


def test_flush_side_and_midpoint_touch():
    for seed in range(8):
        rng = np.random.default_rng(40 + seed)
        pts = rng.normal(size=(10, 2)) * 3
        hull = convex_hull(pts)
        tri = min_enclosing_triangle(hull)
        scale = float(np.max(np.ptp(hull, axis=0)))
        # at least one triangle side collinear with a hull edge
        flush = 0
        n = len(hull)
        for k in range(3):
            a, b = tri[k], tri[(k + 1) % 3]
            e = b - a
            for i in range(n):
                p, q = hull[i], hull[(i + 1) % n]
                c1 = abs(e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0]))
                c2 = abs(e[0] * (q[1] - a[1]) - e[1] * (q[0] - a[0]))
                if c1 < 1e-6 * scale * np.hypot(*e) and c2 < 1e-6 * scale * np.hypot(*e):
                    flush += 1
                    break
        assert flush >= 1
        # midpoint of every side touches the hull boundary
        for k in range(3):
            mid = 0.5 * (tri[k] + tri[(k + 1) % 3])
            assert _dist_to_polygon_boundary(mid, hull) < 1e-6 * scale


def test_triangle_on_rasterized_ellipse_hull():
    mask = ellipse_mask((96, 96), (48, 48), (30, 18), angle=0.2)
    hull = convex_hull(extract_contour(mask))
    tri = min_enclosing_triangle(hull)
    assert _contains(tri, hull, tol=1e-6)
    assert _poly_area(hull) <= _tri_area(tri) <= 2 * _poly_area(hull)


def _bullet_contour(seed, n=64, frame=None):
    """Pixel contour of a seeded bullet in the benchmark's shape ranges,
    centred in an (n, n) frame or in ``frame`` = (h, w)."""
    h, w = frame or (n, n)
    rng = np.random.default_rng(seed)
    a = n * rng.uniform(0.26, 0.33)
    mask = ellipse_mask((h, w), (w / 2 + rng.uniform(-3, 3), h / 2 + rng.uniform(-3, 3)),
                        (a, a * rng.uniform(0.45, 0.56)), angle=rng.uniform(-0.12, 0.12),
                        base_cut=rng.uniform(0.1, 0.3))
    return extract_contour(mask)


def _bullet_hull(seed, n=64):
    """Pixel hull of a seeded bullet in the benchmark's shape ranges."""
    return convex_hull(_bullet_contour(seed, n))


def _random_hull(seed):
    rng = np.random.default_rng(300 + seed)
    return convex_hull(rng.uniform(-5, 5, size=(rng.integers(4, 16), 2)) * rng.uniform(0.1, 20))


_ORACLE_CASES = {
    "unit-square": np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    "triangle": np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]]),
    "rectangle": np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 2.0], [0.0, 2.0]]),
    "hexagon-parallel-pairs": np.array([[0.0, 0.0], [3.0, 0.0], [4.0, 2.0], [3.0, 4.0],
                                        [0.0, 4.0], [-1.0, 2.0]]),
    **{f"bullet-{seed}": _bullet_hull(seed) for seed in range(6)},
    **{f"random-{seed}": _random_hull(seed) for seed in range(10)},
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_matches_enumeration_oracle(name):
    hull = _ORACLE_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tri = min_enclosing_triangle(hull)
    expected = _tri_area(_enumerated_min_triangle(hull))
    assert abs(_tri_area(tri) - expected) <= 1e-12 * expected
    assert signed_area(tri) > 0
    assert _contains(tri, convex_hull(hull), tol=1e-9)


@pytest.mark.parametrize("polygon", [
    [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]],  # clockwise square
    [[0.0, 0.0], [4.0, 0.0], [1.0, 1.0], [0.0, 4.0]],  # non-convex quadrilateral
    [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],              # collinear
    [[0.0, 0.0], [1.0, 0.0]],                          # too few vertices
    [[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]],
], ids=["clockwise", "non-convex", "collinear", "two-vertices", "non-finite"])
def test_triangle_requires_a_counterclockwise_convex_polygon(polygon):
    with pytest.raises(ContractViolation, match="counterclockwise|finite"):
        min_enclosing_triangle(np.array(polygon))


def _full_frame_contour(mask):
    """extract_contour as it was with every component labelled over the
    whole frame and the largest traced from the frame's own box."""
    binary = np.asarray(mask) > 0
    labels, count = ndimage.label(binary, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    if count > 1:
        sizes = ndimage.sum_labels(binary, labels, index=range(1, count + 1))
        binary = labels == (int(np.argmax(sizes)) + 1)
    start = divmod(int(np.argmax(binary)), binary.shape[1])
    poly = geometry._moore_trace(binary, start)[:, ::-1].astype(np.float64)
    if len(poly) >= 3 and signed_area(poly) < 0:
        poly = poly[::-1].copy()
    return poly


@pytest.mark.parametrize("n", [64, 128, 256])
def test_contour_in_the_foreground_box_equals_the_full_frame_trace(n):
    rng = np.random.default_rng(n)
    masks = []
    for k in range(6):
        centre = tuple(rng.uniform(0.3 * n, 0.7 * n, size=2))
        ring = (ellipse_mask((n, n), centre, (0.25 * n, 0.2 * n))
                & ~ellipse_mask((n, n), centre, (0.1 * n, 0.08 * n)))  # a hole
        blob = ellipse_mask((n, n), tuple(rng.uniform(0, n, size=2)), (0.1 * n, 0.15 * n))
        masks.append((ring | blob).astype(np.uint8))
        corners = np.zeros((n, n), dtype=np.uint8)  # components in opposite corners
        corners[:3 + k, :5] = 1
        corners[n - 4 - k:, n - 2:] = 1
        corners[n // 2, n // 3] = 1
        masks.append(corners)
        noise = ndimage.gaussian_filter(rng.normal(size=(n, n)), 1.5)
        masks.append((noise > 0.12).astype(np.uint8))  # many components and holes
    for mask in masks:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert np.array_equal(extract_contour(mask), _full_frame_contour(mask))


def _exhaustive_triangle(hull):
    """Reference: every edge pair searched with the hyperbola search's own
    arithmetic, one row of pairs (i, j > i) at a time, and the first pair of
    least area in ``np.triu_indices`` order kept; the triangle is built as
    ``min_enclosing_triangle`` builds it."""
    hull = np.asarray(hull, dtype=np.float64)
    n = len(hull)
    edges = np.roll(hull, -1, axis=0) - hull
    cross = np.outer(edges[:, 0], edges[:, 1]) - np.outer(edges[:, 1], edges[:, 0])
    rel = hull[None, :, :] - hull[:, None, :]
    height = edges[:, None, 0] * rel[..., 1] - edges[:, None, 1] * rel[..., 0]
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    best_area, best = np.inf, None
    for i in range(n - 1):
        j = np.arange(i + 1, n)
        hi, hj, si, sj = height[i], height[j], cross[i], cross[j]
        curv = si * sj
        concave = curv < 0
        t = np.zeros_like(curv)
        t[concave] = np.clip(-(hi * sj + hj * si)[concave] / (2.0 * curv[concave]), 0.0, 1.0)
        prod = (hi + t * si) * (hj + t * sj)
        span = np.abs(cross[i, j])
        area = np.divide(2.0 * prod.max(axis=1), span, out=np.full(len(j), np.inf),
                         where=span > 1e-12 * lengths[i] * lengths[j])
        w = int(np.argmin(area))
        if area[w] < best_area:
            k = int(np.argmax(prod[w]))
            best_area, best = area[w], (i, j[w], k, t[w, k])
    i, j, k, t = best
    x = cross[i, j]
    apex = hull[i] + edges[i] * ((rel[i, j, 0] * edges[j, 1] - rel[i, j, 1] * edges[j, 0]) / x)
    touch = hull[k] + t * edges[k]
    on_i = apex - edges[i] * (2.0 * (height[j, k] + t * cross[j, k]) / x)
    tri = np.array([apex, on_i, 2.0 * touch - on_i])
    return tri[::-1].copy() if signed_area(tri) < 0 else tri


def _regular_polygon(m, radius=10.0, phase=0.0):
    angles = phase + 2 * np.pi * np.arange(m) / m
    return convex_hull(radius * np.stack([np.cos(angles), np.sin(angles)], axis=1))


def _near_parallel_hulls():
    """Hulls with pairs of edges whose lines are parallel or within ~1e-9 rad."""
    hulls = []
    for eps in (0.0, 1e-12, 1e-9, 1e-6):
        hulls.append(convex_hull(np.array([[0.0, 0.0], [6.0, eps], [6.0, 2.0], [0.0, 2.0]])))
        hulls.append(convex_hull(np.array([[0.0, 0.0], [3.0, 0.0], [4.0, 2.0 + eps],
                                           [3.0, 4.0], [0.0, 4.0 + eps], [-1.0, 2.0]])))
        hulls.append(convex_hull(np.array([[0.0, 0.0], [1e4, eps * 1e4], [1e4 + 1.0, 1.0],
                                           [1.0, 1.0 + eps]])))
    return hulls


def _normal_hull(seed):
    rng = np.random.default_rng(seed)
    return convex_hull(rng.normal(size=(int(rng.integers(3, 80)), 2)) * rng.uniform(0.01, 100.0))


_SEARCH_CASES = {
    "random": lambda: [_random_hull(seed) for seed in range(60)]
    + [_normal_hull(seed) for seed in range(60)],
    "pixel": lambda: [_bullet_hull(seed, n) for n in (64, 256) for seed in range(10)]
    + [convex_hull(np.random.default_rng(seed).integers(0, 40, size=(30, 2)).astype(float))
       for seed in range(20)],
    "regular": lambda: [_regular_polygon(m, phase=p) for m in range(3, 41)
                        for p in (0.0, 0.3)]
    + [convex_hull(np.array(pts, dtype=float)) for pts in (
        [[0, 0], [2, 0], [2, 2], [0, 2]],
        [[1, 0], [2, 0], [3, 1], [3, 2], [2, 3], [1, 3], [0, 2], [0, 1]])],
    "near-parallel": _near_parallel_hulls,
}


@pytest.mark.parametrize("kind", sorted(_SEARCH_CASES))
def test_bounded_search_equals_the_exhaustive_search_bit_for_bit(kind):
    for hull in _SEARCH_CASES[kind]():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tri = min_enclosing_triangle(hull)
        assert tri.tobytes() == _exhaustive_triangle(hull).tobytes(), len(hull)


def test_bounded_search_over_several_passes_equals_the_exhaustive_search(monkeypatch):
    # 150 points on a circle: 11,175 pairs x 150 vertices is more than one pass
    angles = np.sort(np.random.default_rng(11).uniform(0, 2 * np.pi, 150))
    large = convex_hull(40.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1))
    assert len(large) * (len(large) * (len(large) - 1) // 2) > geometry._PASS_ELEMENTS
    assert min_enclosing_triangle(large).tobytes() == _exhaustive_triangle(large).tobytes()
    # passes of a few pairs each, on hulls of every kind
    hulls = [_regular_polygon(12), _random_hull(3), _bullet_hull(2), *_near_parallel_hulls()[:3]]
    for elements in (1, 40, 200):
        monkeypatch.setattr(geometry, "_PASS_ELEMENTS", elements)
        for hull in hulls:
            assert min_enclosing_triangle(hull).tobytes() == _exhaustive_triangle(hull).tobytes()
