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
    # row 0 clips against the closed triangle, rows 1 and 2 against it with
    # each edge moved out by tol and by REACH * tol: unnormalized signed
    # distances >= -tol * |e|
    lo = np.zeros((3, k))
    hi = np.ones((3, k))
    cross = lambda e, v, a: e[:, 0] * (v[:, 1] - a[:, 1]) - e[:, 1] * (v[:, 0] - a[:, 0])
    for i in range(3):
        a, b = tris[:, i, :], tris[:, (i + 1) % 3, :]
        e = b - a
        # inward normal of a CCW triangle edge, not normalized, the mean from
        # both ends: the edge's other triangle gets its negation, bit for bit
        f0 = 0.5 * (cross(e, p, a) + cross(e, p, b))
        f1 = 0.5 * (cross(e, q, a) + cross(e, q, b))
        length = np.linalg.norm(e, axis=1)
        theta = np.stack([np.zeros(k), -tol * length, -REACH * tol * length])
        denom = f1 - f0
        # parallel edge: the segment moves less than tol across its line
        flat = np.abs(denom) <= tol * length
        safe = np.where(flat, 1.0, denom)
        t = (theta - f0) / safe
        rising = denom > 0
        lo = np.where(~flat & rising, np.maximum(lo, t), lo)
        hi = np.where(~flat & ~rising, np.minimum(hi, t), hi)
        # the whole segment is in when either end is, else out
        dead = flat & (np.maximum(f0, f1) < theta)
        lo = np.where(dead, 1.0, lo)
        hi = np.where(dead, -1.0, hi)
    (lo0, lo_t, lo_r), (hi0, hi_t, hi_r) = lo, hi
    touched = lo_t <= hi_t
    exact = lo0 <= hi0
    graze = touched & ~exact
    mid = 0.5 * (lo_t + hi_t)
    lo = np.where(exact, lo0, np.where(graze, mid, 1.0))
    hi = np.where(exact, hi0, np.where(graze, mid, -1.0))
    return lo, hi, touched, lo_r <= hi_r


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
