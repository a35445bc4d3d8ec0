"""Low-level geometry shared by the mesh and crack modules.

Everything here works on plain numpy arrays. Incidence predicates use a
tolerance that callers derive from the domain diameter (REL_TOL * diameter),
while crossing parameters are computed at threshold zero so that points
lying exactly on element edges come out exact.
"""

from __future__ import annotations

import numpy as np

# relative geometric tolerance, scaled by the domain diameter at call sites
REL_TOL = 1e-12


def bbox_diameter(points: np.ndarray) -> float:
    """Diagonal length of the axis-aligned bounding box of a point set."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    span = pts.max(axis=0) - pts.min(axis=0)
    return float(np.hypot(span[0], span[1]))


def _clip_interval(p, q, tris, thresholds):
    """Clip the segment p->q against each triangle, one half-plane at a time.

    Parameters
    ----------
    p, q : (2,) arrays, segment endpoints.
    tris : (k, 3, 2) array of triangle vertices, counterclockwise.
    thresholds : (k, 3) array; edge i accepts points with signed (unnormalized)
        distance >= thresholds[:, i]. Zero gives the exact closed triangle.

    Returns
    -------
    lo, hi : (k,) parameter bounds in [0, 1]; empty intersections have lo > hi.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    k = tris.shape[0]
    lo = np.zeros(k)
    hi = np.ones(k)
    for i in range(3):
        a = tris[:, i, :]
        e = tris[:, (i + 1) % 3, :] - a
        # inward normal of a CCW triangle edge, not normalized
        f0 = e[:, 0] * (p[1] - a[:, 1]) - e[:, 1] * (p[0] - a[:, 0])
        f1 = e[:, 0] * (q[1] - a[:, 1]) - e[:, 1] * (q[0] - a[:, 0])
        theta = thresholds[:, i]
        denom = f1 - f0
        zero = denom == 0.0
        safe = np.where(zero, 1.0, denom)
        t = (theta - f0) / safe
        rising = denom > 0
        lo = np.where(~zero & rising, np.maximum(lo, t), lo)
        hi = np.where(~zero & ~rising, np.minimum(hi, t), hi)
        # parallel edge: the whole segment is in or out
        dead = zero & (f0 < theta)
        lo = np.where(dead, 1.0, lo)
        hi = np.where(dead, -1.0, hi)
    return lo, hi


def clip_segments_to_triangles(p, q, tris, tol):
    """Closed-set clip of one segment against many triangles.

    Returns (lo, hi, touched): parameter intervals at threshold zero and a
    boolean mask of triangles the segment touches when each is fattened by
    ``tol``. Grazing contacts (touched but empty zero-interval) report the
    degenerate interval midpoint in both lo and hi.
    """
    tris = np.asarray(tris, dtype=float).reshape(-1, 3, 2)
    k = tris.shape[0]
    if k == 0:
        return np.empty(0), np.empty(0), np.empty(0, dtype=bool)
    zeros = np.zeros((k, 3))
    lo0, hi0 = _clip_interval(p, q, tris, zeros)
    edge_len = np.linalg.norm(np.roll(tris, -1, axis=1) - tris, axis=2)
    lo_t, hi_t = _clip_interval(p, q, tris, -tol * edge_len)
    touched = lo_t <= hi_t
    exact = lo0 <= hi0
    graze = touched & ~exact
    mid = 0.5 * (lo_t + hi_t)
    lo = np.where(exact, lo0, np.where(graze, mid, 1.0))
    hi = np.where(exact, hi0, np.where(graze, mid, -1.0))
    return lo, hi, touched


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


class SpatialGrid:
    """Uniform hash grid over axis-aligned boxes, for candidate queries."""

    def __init__(self, lo, hi, cell_size: float):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        self._origin = lo.min(axis=0)
        self._cell = float(cell_size)
        if self._cell <= 0.0:
            raise ValueError("cell_size must be positive")
        ilo = np.floor((lo - self._origin) / self._cell).astype(np.int64)
        ihi = np.floor((hi - self._origin) / self._cell).astype(np.int64)
        self._buckets: dict[tuple[int, int], list[int]] = {}
        for idx in range(len(lo)):
            for ix in range(ilo[idx, 0], ihi[idx, 0] + 1):
                for iy in range(ilo[idx, 1], ihi[idx, 1] + 1):
                    self._buckets.setdefault((ix, iy), []).append(idx)

    @classmethod
    def for_triangles(cls, vertices, triangles, cell_size):
        coords = vertices[triangles]  # (m, 3, 2)
        return cls(coords.min(axis=1), coords.max(axis=1), cell_size)

    def query(self, lo, hi) -> np.ndarray:
        """Sorted unique indices of boxes whose cells overlap [lo, hi]."""
        ilo = np.floor((np.asarray(lo) - self._origin) / self._cell).astype(np.int64)
        ihi = np.floor((np.asarray(hi) - self._origin) / self._cell).astype(np.int64)
        found: list[int] = []
        for ix in range(ilo[0], ihi[0] + 1):
            for iy in range(ilo[1], ihi[1] + 1):
                hit = self._buckets.get((ix, iy))
                if hit:
                    found.extend(hit)
        if not found:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.asarray(found, dtype=np.int64))
