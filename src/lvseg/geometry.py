"""Planar geometry for mask measurement: boundary tracing, convex hulls
from Qhull (Barber, Dobkin & Huhdanpaa, ACM TOMS 22, 1996, through
``scipy.spatial.ConvexHull``), and minimum-area enclosing triangles.

The enclosing triangle is exact. By O'Rourke, Aggarwal, Maddila &
Baldwin (J. Algorithms 7, 1986) a minimal triangle has a side flush with
a hull edge and every side's midpoint on the hull; from that, the
optimum has two flush sides, and for each pair of hull-edge lines the
best third side is the tangent to a hyperbola over the wedge they bound
(see ``min_enclosing_triangle``).

Points are (x, y) = (column, row) pixel coordinates; polygons are (n, 2)
float arrays ordered counterclockwise in the mathematical sense (positive
shoelace area).
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
from scipy import ndimage
from scipy.spatial import ConvexHull, QhullError

from .errors import ContractViolation, MeasurementError

# Moore neighborhood in clockwise order starting north, as (row, col) offsets.
_RING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
# A step to ring neighbour i follows a background probe at ring i - 1 of the
# old pixel; seen from the new pixel that probe sits at ring _BACK[i], and
# the next search starts just after it.
_BACK = tuple(_RING.index((_RING[i - 1][0] - _RING[i][0], _RING[i - 1][1] - _RING[i][1]))
              for i in range(8))


def _next(a: np.ndarray) -> np.ndarray:
    """``np.roll(a, -1, axis=0)``: each row's successor, cyclically."""
    return np.concatenate((a[1:], a[:1]))


def signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, _next(y)) - np.dot(y, _next(x)))


def _foreground_box(mask: np.ndarray) -> tuple[int, int, int, int]:
    """(top, bottom, left, right) of the nonzero pixels, ends exclusive."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def _moore_trace(mask: np.ndarray, start: tuple[int, int]) -> np.ndarray:
    """Boundary walk with Jacob's stopping criterion: terminate when the
    start pixel is about to repeat its first move. Returns the (row, col)
    pixels of the walk, one per row of an (n, 2) integer array.

    The walk runs on the mask padded by one background pixel and held as
    bytes, stepping by flat offsets: the padding stands in for every bounds
    check. ``extract_contour`` passes the component cropped to its box."""
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = mask != 0  # np.pad of the bools takes ~2.5x as long
    width = padded.shape[1]
    buf = padded.tobytes()
    offsets = [dr * width + dc for dr, dc in _RING]
    # for each back index, the (ring index, flat offset) probes in order
    probes = [[((back + step) % 8, offsets[(back + step) % 8]) for step in range(1, 9)]
              for back in range(8)]

    first = cur = (start[0] + 1) * width + start[1] + 1
    walk = [first]
    back = 6  # entered the start pixel from the west during the scan
    first_idx = None
    for _ in range(8 * len(buf) + 8):
        for idx, off in probes[back]:
            if buf[cur + off]:
                break
        else:
            break  # isolated pixel
        if cur == first and idx == first_idx:
            walk.pop()  # drop the closing revisit of the start pixel
            break
        if first_idx is None:
            first_idx = idx
        cur += off
        walk.append(cur)
        back = _BACK[idx]
    else:
        raise MeasurementError("boundary trace failed to close")  # pragma: no cover
    r, c = np.divmod(np.array(walk), width)
    return np.stack([r - 1, c - 1], axis=1)


def extract_contour(mask: np.ndarray) -> np.ndarray:
    """Closed Moore boundary of the mask's foreground as an (n, 2) polygon.

    The mask should hold a single 4-connected component; if several are
    present the largest is traced and a warning is issued.
    """
    m = np.asarray(mask)
    if m.ndim != 2:
        raise MeasurementError(f"mask must be 2-D, got shape {m.shape}")
    binary = m > 0
    if not binary.any():
        raise MeasurementError("cannot trace the contour of an empty mask")
    # components are labelled, picked and traced inside the foreground's box
    top, bottom, left, right = _foreground_box(binary)
    binary = binary[top:bottom, left:right]
    labels, count = ndimage.label(binary, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    if count > 1:
        warnings.warn(f"mask has {count} components; tracing the largest", stacklevel=2)
        sizes = ndimage.sum_labels(binary, labels, index=range(1, count + 1))
        binary = labels == (int(np.argmax(sizes)) + 1)
    # the first foreground pixel in row-major order: topmost, then leftmost
    start = divmod(int(np.argmax(binary)), binary.shape[1])

    # the walk turns clockwise on screen from the top-left pixel, which is
    # counterclockwise in (x, y): the polygon's signed area is never negative
    trace = _moore_trace(binary, start)
    return (trace + (top, left))[:, ::-1].astype(np.float64)


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull from Qhull: vertices counterclockwise from the least
    (x, then y), points on hull edges dropped. ``MeasurementError`` for
    NaN or inf, fewer than 3 distinct points, or collinear points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise MeasurementError(f"points must be (n, 2), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise MeasurementError("convex hull needs finite points, got NaN or inf")
    try:
        hull = pts[ConvexHull(pts).vertices]  # counterclockwise in 2-D
    except (QhullError, ValueError):  # ValueError: no points at all
        distinct = len(np.unique(pts, axis=0))
        if distinct < 3:
            raise MeasurementError(f"convex hull needs >= 3 distinct points, have {distinct}")
        raise MeasurementError("points are collinear; hull is degenerate")
    return np.roll(hull, -int(np.lexsort((hull[:, 1], hull[:, 0]))[0]), axis=0)


def _contains(tri: np.ndarray, pts: np.ndarray, tol: float) -> bool:
    """Whether every point is on or left of each side of a counterclockwise triangle."""
    e = _next(tri) - tri
    side = (e[:, 0, None] * (pts[:, 1] - tri[:, 1, None])
            - e[:, 1, None] * (pts[:, 0] - tri[:, 0, None]))
    return not side.min() < -tol


# Bound on the (edge pairs x hull vertices) elements searched per numpy
# pass, so a large hull costs several passes rather than unbounded memory.
_PASS_ELEMENTS = 1 << 20
# Relative slack on the vertex bound: far above the rounding by which an
# edge's stationary product can fall short of a vertex product, so no pair
# that ties the optimum is ruled out.
_BOUND_SLACK = 1e-9


@functools.lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The edge pairs i < j in the search's order, ``np.triu_indices(n, 1)``,
    read-only since every call with this n shares them."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def min_enclosing_triangle(hull: np.ndarray) -> np.ndarray:
    """Minimum-area triangle, vertices counterclockwise, containing a
    convex polygon given counterclockwise as ``convex_hull`` returns it
    (it is not hulled again; anything else raises ``ContractViolation``);
    exact up to floating-point rounding.

    A locally minimal enclosing triangle has at least one side flush with
    a hull edge, and the midpoint of every side touches the hull
    (O'Rourke, Aggarwal, Maddila & Baldwin, "An optimal algorithm for
    finding minimal enclosing triangles", J. Algorithms 7, 1986). The
    optimum has two flush sides. Where only one side is flush, the other
    two are bisected by hull vertices a and b, which must sit at equal
    height h over the flush side; every such triangle has the same area
    2h|(a - b).t| whatever its apex (t the flush side's direction). Each
    hull point constrains the apex linearly, so the valid apexes form an
    interval, and at either end of it a second side lies flush with a
    hull edge: a triangle of the same area with two flush sides.

    The search therefore runs over pairs of hull-edge lines i, j, which
    bound a wedge holding the hull, with apex q. Write each point as
    p - q = u d_i + v d_j, with d_i, d_j along the wedge's rays. The
    smallest cut of the wedge that holds the hull is the tangent to the
    hyperbola uv = max(uv) over the hull; the tangent point is the new
    side's midpoint, and the area is 2 max(uv) |d_i x d_j|. In terms of
    H_i(p) = e_i x (p - p_i), the height of p over edge i times |e_i|,
    the area is 2 max(H_i H_j) / |e_i x e_j|. The maximum over the
    boundary lies at a vertex or, on an edge where the product is a
    concave quadratic, at its stationary point; the latter also covers
    triangles with three flush sides.

    The maximum over the vertices alone bounds each pair's area from
    below. The search runs in full on the pairs in rising order of that
    bound, 2n pairs at a time, and stops once the next bound exceeds the
    least area found: no pair left can reach it. Of all pairs searched, the
    first of least area in ``np.triu_indices`` order wins, which is the
    triangle a search of every pair returns. The bound costs one product
    per (pair, vertex), O(n^3) for n hull vertices; the full search, about
    ten operations per element, runs only on the chunks the bound lets
    through. On 20-29-vertex pixel hulls 10-53 of the 190-406 pairs pass,
    so one chunk of 2n pairs is searched.
    """
    hull = np.asarray(hull, dtype=np.float64)
    if hull.ndim != 2 or hull.shape[1] != 2 or len(hull) < 3 or not np.isfinite(hull).all():
        raise ContractViolation(f"hull must be finite and (n, 2) with n >= 3, got {hull.shape}")
    n = len(hull)
    edges = _next(hull) - hull
    ex, ey = edges[:, 0], edges[:, 1]
    # cross[i, k] = e_i x e_k is also the change of H_i along edge k;
    # height[i, k] = H_i(p_k) >= 0 on a counterclockwise hull
    cross = ex[:, None] * ey - ey[:, None] * ex
    dx, dy = (c - c[:, None] for c in hull.T)  # p_k - p_i
    height = ex[:, None] * dy - ey[:, None] * dx
    lengths = np.hypot(ex, ey)
    tol = 1e-9 * max(float(dx.max()), float(dy.max()), 1.0)  # the hull's extents
    if not signed_area(hull) > 0 or (height < -tol * lengths[:, None]).any():
        raise ContractViolation("hull must be a counterclockwise convex polygon")

    first, second = _pairs(n)
    span = np.abs(cross[first, second])
    wedge = span > 1e-12 * lengths[first] * lengths[second]  # parallel lines bound none
    step = max(1, _PASS_ELEMENTS // n)

    def area(pick, peak):
        return np.divide(2.0 * peak, span[pick], out=np.full(len(peak), np.inf),
                         where=wedge[pick])

    def search(pick):
        i, j = first[pick], second[pick]
        hi, hj, si, sj = height[i], height[j], cross[i], cross[j]
        # H_i H_j along edge k is hi hj + (hi sj + hj si) t + si sj t^2, t in [0, 1]
        curv = si * sj
        concave = curv < 0
        t = np.zeros_like(curv)
        t[concave] = np.clip(-(hi * sj + hj * si)[concave] / (2.0 * curv[concave]), 0.0, 1.0)
        prod = (hi + t * si) * (hj + t * sj)
        return area(pick, prod.max(axis=1)), prod, t

    # The vertex products, copied to (vertex, pair) order for the maximum:
    # numpy reduces a (pair, vertex) array along its short rows ~3x slower.
    bound = np.concatenate([
        area(slice(lo, lo + step),
             (height[first[lo:lo + step]] * height[second[lo:lo + step]]).T.copy().max(axis=0))
        for lo in range(0, len(first), step)])
    order = np.argsort(bound)
    chunk = min(2 * n, step)
    # the least (area, pair) wins; -1 keeps a pair of infinite area from winning
    best_area, best_pair, best = np.inf, -1, None
    for lo in range(0, len(order), chunk):
        if bound[order[lo]] > best_area * (1.0 + _BOUND_SLACK):
            break  # no pair left can reach the least area found
        pick = np.sort(order[lo:lo + chunk])
        areas, prod, t = search(pick)
        w = int(np.argmin(areas))
        if (areas[w], pick[w]) < (best_area, best_pair):
            k = int(np.argmax(prod[w]))
            best_area, best_pair = areas[w], pick[w]
            best = first[best_pair], second[best_pair], k, t[w, k]
    if best is None:
        raise MeasurementError("no enclosing triangle found (degenerate hull?)")

    i, j, k, t = best
    x = cross[i, j]
    apex = hull[i] + edges[i] * ((dx[i, j] * ey[j] - dy[i, j] * ex[j]) / x)
    touch = hull[k] + t * edges[k]
    on_i = apex - edges[i] * (2.0 * (height[j, k] + t * cross[j, k]) / x)
    tri = np.array([apex, on_i, 2.0 * touch - on_i])
    if signed_area(tri) < 0:
        tri = tri[::-1].copy()
    if not _contains(tri, hull, tol):
        raise MeasurementError("enclosing triangle misses the hull (degenerate hull?)")
    return tri
