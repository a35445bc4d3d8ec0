"""Low-level geometry shared by the mesh and crack modules.

Everything here works on plain numpy arrays. Incidence predicates use the
``tolerance`` of the domain's points (REL_TOL times their diameter), while
crossing parameters are computed at threshold zero so that points lying
exactly on element edges come out exact. A segment moving less than the
tolerance across an edge's line is parallel to it: no crossing there, and
wholly inside the edge's half-plane when either end is, so a crack along a
rounded element edge is not cut at an arbitrary point.
"""

from __future__ import annotations

import numpy as np

# relative geometric tolerance, scaled by the domain diameter at call sites
REL_TOL = 1e-12

# reach of a tolerance test, in tolerances: moving each edge out by tol takes
# a corner of angle a up to tol / sin(a / 2) past its vertex, and bisection
# keeps angles above 15 degrees, so every point a tol-fattened triangle
# covers lies within 7.7 tol of it
REACH = 8.0


def bbox_diameter(points: np.ndarray) -> float:
    """Diagonal length of the axis-aligned bounding box of (n, 2) points."""
    span = points.max(axis=0) - points.min(axis=0)
    return float(np.hypot(span[0], span[1]))


def tolerance(points: np.ndarray) -> float:
    """Absolute geometric tolerance of (n, 2) points: REL_TOL times their
    bounding-box diameter, and at least REL_TOL."""
    return REL_TOL * max(bbox_diameter(points), 1.0)


def clip_segments_to_triangles(p, q, tris, tol):
    """Closed-set clip of segments against triangles.

    p and q are (k, 2) float arrays of segment ends, segment i paired with
    triangle i of the (k, 3, 2) float array ``tris``, counterclockwise.
    Returns (lo, hi, touched, near): parameter intervals at threshold zero,
    a boolean mask of triangles the segment touches when each is fattened
    by ``tol``, and the mask of those it passes when fattened by ``REACH *
    tol``, which contains ``touched``. Grazing contacts (touched but empty
    zero-interval) report the degenerate interval midpoint in both lo and
    hi.
    """
    k = tris.shape[0]
    # contiguous rows: x and y of the corners (3, k) and of the ends (k,),
    # the corners again with corner 0 after corner 2, so that edge i runs
    # from row i to row i + 1; every kernel below acts on all three edges
    (x, y), (px, py), (qx, qy) = (np.ascontiguousarray(a.T) for a in (tris, p, q))
    x, y = np.concatenate([x, x[:1]]), np.concatenate([y, y[:1]])
    ex, ey = x[1:] - x[:3], y[1:] - y[:3]

    def mean_cross(vx, vy):
        # inward normal of a CCW triangle edge, not normalized, the mean from
        # both ends: the edge's other triangle gets its negation, bit for bit
        dx, dy = vx - x, vy - y
        return 0.5 * ((ex * dy[:3] - ey * dx[:3]) + (ex * dy[1:] - ey * dx[1:]))

    f0, f1 = mean_cross(px, py), mean_cross(qx, qy)
    length = np.sqrt(ex * ex + ey * ey)  # the bits of np.linalg.norm
    # row 0 clips against the closed triangle, rows 1 and 2 against it with
    # each edge moved out by tol and by REACH * tol: unnormalized signed
    # distances >= -tol * |e|; (3 thresholds, 3 edges, k)
    theta = np.stack([np.zeros((3, k)), -tol * length, -REACH * tol * length])
    denom = f1 - f0
    # parallel edge: the segment moves less than tol across its line
    flat = np.abs(denom) <= tol * length
    t = (theta - f0) / np.where(flat, 1.0, denom)
    rising = denom > 0
    # each edge in turn raises lo or lowers hi, in edge order (ties of signed
    # zeros keep their bits); an edge that does not bound lo gives it -inf,
    # hi inf: a plain maximum, where a ufunc's where= mask is slow
    up, down = ~flat & rising, ~flat & ~rising
    lo, hi = np.zeros((3, k)), np.ones((3, k))
    for i in range(3):
        lo = np.maximum(lo, np.where(up[i], t[:, i], -np.inf))
        hi = np.minimum(hi, np.where(down[i], t[:, i], np.inf))
    # a parallel edge holds the whole segment when either end is in, else none
    live = ~(flat & (np.maximum(f0, f1) < theta)).any(axis=1)
    (lo0, lo_t, lo_r), (hi0, hi_t, hi_r) = lo, hi
    touched = live[1] & (lo_t <= hi_t)
    exact = live[0] & (lo0 <= hi0)
    graze = touched & ~exact
    mid = 0.5 * (lo_t + hi_t)
    lo = np.where(exact, lo0, np.where(graze, mid, 1.0))
    hi = np.where(exact, hi0, np.where(graze, mid, -1.0))
    return lo, hi, touched, live[2] & (lo_r <= hi_r)


def corners(vertices, triangles):
    """x and y of the three corners of each triangle, as two (3, k) arrays.

    Row i holds corner i of every triangle, contiguous. Whole-mesh kernels
    work on these rows: on a (k, 3, 2) gather numpy loops over the length-2
    and length-3 axes in tiny steps.
    """
    ids = np.asarray(triangles).T
    return vertices[:, 0][ids], vertices[:, 1][ids]


def expand_ranges(start, count) -> np.ndarray:
    """The ranges start[k], ..., start[k] + count[k] - 1, concatenated."""
    count = np.asarray(count, dtype=np.int64)
    offsets = np.cumsum(count) - count
    shift = np.repeat(np.asarray(start, dtype=np.int64) - offsets, count)
    return np.arange(int(count.sum()), dtype=np.int64) + shift


class SpatialGrid:
    """Candidate index of triangles that each lie in one lattice cell: cell
    (i, j), code j * nx + i, is [xs[i], xs[i + 1]] x [ys[j], ys[j + 1]]. With
    codes sorted by triangle, cell c holds triangles first[c] to first[c + 1] - 1."""

    def __init__(self, xs, ys, first):
        self._lines, self._first = (xs, ys), first

    @classmethod
    def for_triangles(cls, xs, ys, cells):
        """Index of triangles with the non-decreasing cell codes ``cells``."""
        n_cells = (len(xs) - 1) * (len(ys) - 1)
        return cls(xs, ys, np.searchsorted(cells, np.arange(n_cells + 1)))

    def query(self, lo, hi):
        """Pairs (k, tri) of the (k, 2) query boxes [lo[k], hi[k]] and the
        triangles of every cell a closed box meets, sorted by (k, tri)."""
        spans = []
        for lines, a, b in zip(self._lines, lo.T, hi.T):
            # the cells i with lines[i + 1] >= a and lines[i] <= b
            first = np.maximum(np.searchsorted(lines, a) - 1, 0)
            end = np.minimum(np.searchsorted(lines, b, side="right"), len(lines) - 1)
            spans += [first, np.maximum(end - first, 0)]
        i0, ni, j0, nj = spans
        query = np.repeat(np.arange(len(lo)), ni * nj)
        # row by row, so the codes, and with them the triangle ids, rise
        row, col = np.divmod(expand_ranges(np.zeros_like(ni), ni * nj), ni[query])
        code = (j0[query] + row) * (len(self._lines[0]) - 1) + i0[query] + col
        first = self._first[code]
        count = self._first[code + 1] - first
        return np.repeat(query, count), expand_ranges(first, count)
