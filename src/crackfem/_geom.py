"""Low-level geometry shared by the mesh and crack modules.

Everything here works on plain numpy arrays. Incidence predicates use a
tolerance that callers derive from the domain diameter (REL_TOL * diameter),
while crossing parameters are computed at threshold zero so that points
lying exactly on element edges come out exact. A segment moving less than
the tolerance across an edge's line is parallel to it: no crossing there,
and wholly inside the edge's half-plane when either end is, so a crack along
a rounded element edge is not cut at an arbitrary point.
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
    """Diagonal length of the axis-aligned bounding box of a point set."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    span = pts.max(axis=0) - pts.min(axis=0)
    return float(np.hypot(span[0], span[1]))


def clip_segments_to_triangles(p, q, tris, tol):
    """Closed-set clip of segments against triangles.

    p and q are (2,) endpoints of one segment clipped against every
    triangle, or (k, 2) arrays pairing segment i with triangle i; the
    triangles are (k, 3, 2), counterclockwise. Returns (lo, hi, touched,
    near): parameter intervals at threshold zero, a boolean mask of
    triangles the segment touches when each is fattened by ``tol``, and the
    mask of those it passes when fattened by ``REACH * tol``, which
    contains ``touched``. Grazing contacts (touched but empty
    zero-interval) report the degenerate interval midpoint in both lo and
    hi.
    """
    tris = np.asarray(tris, dtype=float).reshape(-1, 3, 2)
    k = tris.shape[0]
    if k == 0:
        empty = np.empty(0, dtype=bool)
        return np.empty(0), np.empty(0), empty, empty
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    # row 0 clips against the closed triangle, rows 1 and 2 against it with
    # each edge moved out by tol and by REACH * tol: unnormalized signed
    # distances >= -tol * |e|
    lo = np.zeros((3, k))
    hi = np.ones((3, k))
    for i in range(3):
        a = tris[:, i, :]
        e = tris[:, (i + 1) % 3, :] - a
        # inward normal of a CCW triangle edge, not normalized
        f0 = e[:, 0] * (p[..., 1] - a[:, 1]) - e[:, 1] * (p[..., 0] - a[:, 0])
        f1 = e[:, 0] * (q[..., 1] - a[:, 1]) - e[:, 1] * (q[..., 0] - a[:, 0])
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


def point_segment_distances(points, a, b):
    """Distances from each point to each segment. Returns (n, m)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    d = b - a  # (m, 2)
    len2 = np.einsum("ij,ij->i", d, d)
    len2 = np.where(len2 == 0.0, 1.0, len2)
    rel = pts[:, None, :] - a[None, :, :]  # (n, m, 2)
    t = np.einsum("nmj,mj->nm", rel, d) / len2
    t = np.clip(t, 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.linalg.norm(pts[:, None, :] - proj, axis=2)


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
    """Uniform grid over axis-aligned boxes, for candidate queries.

    The index holds one entry per (cell, box) overlap, sorted by cell code,
    so a query finds the boxes of each cell it covers by binary search.
    """

    def __init__(self, lo, hi, cell_size: float):
        lo = np.asarray(lo, dtype=float).reshape(-1, 2)
        hi = np.asarray(hi, dtype=float).reshape(-1, 2)
        self._origin = lo.min(axis=0)
        self._cell = float(cell_size)
        if self._cell <= 0.0:
            raise ValueError("cell_size must be positive")
        self._n = len(lo)
        ihi = self._cells(hi)
        self._shape = ihi.max(axis=0) + 1
        box, code = self._cover(self._cells(lo), ihi)
        order = np.argsort(code, kind="stable")
        self._codes = code[order]
        self._boxes = box[order]

    @classmethod
    def for_triangles(cls, vertices, triangles, cell_size):
        x, y = corners(vertices, triangles)
        lo = np.column_stack([x.min(axis=0), y.min(axis=0)])
        hi = np.column_stack([x.max(axis=0), y.max(axis=0)])
        return cls(lo, hi, cell_size)

    def _cells(self, points) -> np.ndarray:
        return np.floor((points - self._origin) / self._cell).astype(np.int64)

    def _cover(self, ilo, ihi):
        """(box, cell code) of every grid cell inside each cell range."""
        ilo = np.maximum(ilo, 0)
        ihi = np.minimum(ihi, self._shape - 1)
        span = np.maximum(ihi - ilo + 1, 0)
        count = span[:, 0] * span[:, 1]
        box = np.repeat(np.arange(len(ilo)), count)
        local = expand_ranges(np.zeros_like(count), count)
        ix = ilo[box, 0] + local // span[box, 1]
        iy = ilo[box, 1] + local % span[box, 1]
        return box, ix * self._shape[1] + iy

    def query(self, lo, hi):
        """Pairs (k, box) of query box k = [lo[k], hi[k]] and the stored
        boxes sharing a cell with it, unique and sorted by (k, box)."""
        lo = np.asarray(lo, dtype=float).reshape(-1, 2)
        hi = np.asarray(hi, dtype=float).reshape(-1, 2)
        query, code = self._cover(self._cells(lo), self._cells(hi))
        first = np.searchsorted(self._codes, code, side="left")
        count = np.searchsorted(self._codes, code, side="right") - first
        boxes = self._boxes[expand_ranges(first, count)]
        pairs = np.unique(np.repeat(query, count) * self._n + boxes)
        return pairs // self._n, pairs % self._n
