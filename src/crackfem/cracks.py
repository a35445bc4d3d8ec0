"""Crack networks: graphs of one-dimensional chains and their mesh intersections.

A crack is a graph of nodes (junctions and tips) connected by chains, each
chain a polyline with its own tangential permeability and line source.
``cut_chains`` slices every chain into per-triangle segments so that the
interface bilinear form can be assembled by walking segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._geom import REL_TOL, bbox_diameter, expand_ranges, point_segment_distances
# not called here; bound because bench/tracing.py wraps this module attribute
from ._geom import clip_segments_to_triangles  # noqa: F401


class CrackGeometryError(ValueError):
    pass


@dataclass
class Chain:
    """One crack branch: an open or closed polyline with material data.

    Parameters
    ----------
    points : (k, 2) array
        Polyline vertices in order. k >= 2

    permeability : float
        Tangential permeability coefficient of the branch, >= 0.
    source : callable or float
        Line source density along the branch; a callable takes one (k, 2)
        point array and returns (k,) values.
    """

    points: np.ndarray
    permeability: float = 0.0
    source: object = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise CrackGeometryError("chain needs at least two 2d points")
        if not np.isfinite(pts).all():
            raise CrackGeometryError("chain has non-finite coordinates")
        if not self.permeability >= 0.0:
            raise CrackGeometryError("chain permeability must be >= 0")
        self.points = pts
        self.points.setflags(write=False)

    @property
    def length(self) -> float:
        return float(np.linalg.norm(np.diff(self.points, axis=0), axis=1).sum())

    @property
    def is_closed(self) -> bool:
        return bool(np.all(self.points[0] == self.points[-1]))


class CrackGraph:
    """Chains plus the nodes (junctions and tips) their endpoints meet at.

    Nodes are the chain endpoints clustered within the geometric tolerance,
    numbered in order of first appearance; ``chain_nodes[j]`` holds the
    (start, end) node ids of chain j.
    """

    def __init__(self, chains):
        self.chains: list[Chain] = list(chains)
        scale = 1.0
        if self.chains:
            scale = bbox_diameter(np.vstack([c.points for c in self.chains]))
        tol = REL_TOL * max(scale, 1.0)
        for j, c in enumerate(self.chains):
            if c.length <= tol:
                raise CrackGeometryError(
                    f"chain {j} is no longer than the crack tolerance "
                    f"{tol:.3e} (zero-length)"
                )
        nodes = np.empty((0, 2))
        self.chain_nodes = np.empty((len(self.chains), 2), dtype=np.int64)
        for j, c in enumerate(self.chains):
            for side, p in enumerate((c.points[0], c.points[-1])):
                dist = np.hypot(*(nodes - p).T)
                if dist.size and dist.min() <= tol:
                    self.chain_nodes[j, side] = int(np.argmin(dist))
                else:
                    self.chain_nodes[j, side] = len(nodes)
                    nodes = np.vstack([nodes, p])
        self.nodes = nodes
        self.nodes.setflags(write=False)
        self.chain_nodes.setflags(write=False)

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @classmethod
    def empty(cls) -> "CrackGraph":
        return cls([])

    def parts(self):
        """(starts, ends): the endpoints of every polyline part, chain after
        chain, as two (p, 2) arrays. Incidence part ids index these."""
        if not self.chains:
            return np.empty((0, 2)), np.empty((0, 2))
        starts = np.vstack([c.points[:-1] for c in self.chains])
        ends = np.vstack([c.points[1:] for c in self.chains])
        return starts, ends


def arc_curve(center, radius, angle0, angle1):
    """Circular arc, angles in radians, traversed from angle0 to angle1."""
    center = np.asarray(center, dtype=float)
    if radius <= 0.0:
        raise CrackGeometryError("arc radius must be positive")

    def curve(t):
        t = np.asarray(t, dtype=float)
        ang = angle0 + t * (angle1 - angle0)
        return center + radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    curve.arc_length = abs(angle1 - angle0) * radius
    curve.is_closed = False
    return curve


def circle_curve(center, radius):
    """Full circle, closed, starting and ending at angle zero."""
    curve = arc_curve(center, radius, 0.0, 2.0 * np.pi)
    curve.is_closed = True
    return curve


def sample_curve(curve, spacing: float) -> np.ndarray:
    """Sample a parametric curve into a polyline with parts of equal arc length.

    Parameters
    ----------
    curve : callable
        Maps parameter arrays in [0, 1] to (..., 2) points. Optional
        attributes ``arc_length`` (exact length) and ``is_closed`` are honored.
    spacing : float
        Upper bound for the arc length of every polyline part.

    Returns
    -------
    (k, 2) array. Closed curves come back with an exactly repeated last point.
    """
    if not spacing > 0.0:
        raise CrackGeometryError("spacing must be positive")
    dense_t = np.linspace(0.0, 1.0, 4097)
    dense = curve(dense_t)
    seg = np.linalg.norm(np.diff(dense, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    length = getattr(curve, "arc_length", float(cum[-1]))
    if length <= 0.0:
        raise CrackGeometryError("curve has zero length")
    n = max(1, int(np.ceil(length / spacing - 1e-12)))
    # invert the cumulative-length table to get equal-arc parameters
    targets = np.linspace(0.0, cum[-1], n + 1)
    t = np.interp(targets, cum, dense_t)
    t[0] = 0.0
    t[-1] = 1.0
    pts = np.asarray(curve(t), dtype=float)
    closed = getattr(curve, "is_closed", False)
    if not closed:
        closed = np.hypot(*(pts[0] - pts[-1])) <= REL_TOL * max(bbox_diameter(pts), 1.0)
    if closed:
        pts[-1] = pts[0]
    return pts


@dataclass
class SegmentedCrack:
    """Chains cut into per-triangle segments, ordered along each chain.

    Arrays are aligned: segment s lives in triangle ``triangle_index[s]``,
    spans ``points[s, 0]`` to ``points[s, 1]``, and belongs to chain
    ``chain_index[s]``. Node and incidence data are copied from the graph so
    downstream consumers need no other object.
    """

    triangle_index: np.ndarray  # (s,)
    points: np.ndarray  # (s, 2, 2)
    length: np.ndarray  # (s,)
    chain_index: np.ndarray  # (s,)
    chain_permeability: np.ndarray  # (n_chains,)
    chain_source: list  # per chain, callable or float
    nodes: np.ndarray  # (n_nodes, 2)
    chain_nodes: np.ndarray  # (n_chains, 2) node ids (start, end)
    chain_length: np.ndarray = field(default=None)  # (n_chains,) polyline length

    @property
    def n_segments(self) -> int:
        return int(self.triangle_index.shape[0])

    @property
    def n_chains(self) -> int:
        return int(self.chain_permeability.shape[0])

    def segments_of_chain(self, j: int) -> np.ndarray:
        return np.nonzero(self.chain_index == j)[0]

    def midpoints(self) -> np.ndarray:
        return self.points.mean(axis=1)

    def tangents(self) -> np.ndarray:
        d = self.points[:, 1, :] - self.points[:, 0, :]
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    def permeability(self) -> np.ndarray:
        """Per-segment tangential permeability."""
        if self.n_segments == 0:
            return np.empty(0)
        return self.chain_permeability[self.chain_index]

    def crossed_triangles(self) -> np.ndarray:
        return np.unique(self.triangle_index)

    @classmethod
    def empty(cls) -> "SegmentedCrack":
        return cls(
            triangle_index=np.empty(0, dtype=np.int64),
            points=np.empty((0, 2, 2)),
            length=np.empty(0),
            chain_index=np.empty(0, dtype=np.int64),
            chain_permeability=np.empty(0),
            chain_source=[],
            nodes=np.empty((0, 2)),
            chain_nodes=np.empty((0, 2), dtype=np.int64),
            chain_length=np.empty(0),
        )


def cut_chains(mesh, crack: CrackGraph, hits=None) -> SegmentedCrack:
    """Slice every chain of the crack graph into per-triangle segments.

    All parts longer than the mesh tolerance are cut in one array pass. With
    ``tol_t`` the tolerance over the part length, clip interval ends within
    ``tol_t`` of 0 or 1 snap there. Of the breakpoints 0, 1 and the interval
    ends, sorted along each part, each one within ``tol_t`` of the one before
    it is dropped (a run spaced closer than ``tol_t`` merges into its first),
    and the last one is set to 1. Each sub-segment goes to the lowest-index
    triangle whose interval covers its midpoint within ``tol_t``, so parts
    along shared element edges get a unique owner. ``hits`` is the
    ``mesh.incidence`` of ``crack.parts()``, as ``refine_near_crack`` returns
    it; None queries it here. Raises CrackGeometryError when a chain has no
    part longer than the tolerance or a sub-segment has no owner.
    """
    if crack.n_chains == 0:
        return SegmentedCrack.empty()
    tol = mesh.tolerance
    starts, ends = crack.parts()
    n_parts = np.asarray([len(c.points) - 1 for c in crack.chains])
    chain_of = np.repeat(np.arange(crack.n_chains), n_parts)
    plen = np.linalg.norm(ends - starts, axis=1)
    cut = plen > tol
    uncut = np.bincount(chain_of[cut], minlength=crack.n_chains) == 0
    if uncut.any():
        raise CrackGeometryError(
            f"chain {int(np.argmax(uncut))} is no longer than the mesh "
            f"tolerance {tol:.3e}"
        )
    if hits is None:
        hits = mesh.incidence(starts, ends)
    tol_t = tol / np.maximum(plen, tol)

    keep = (hits.hi > hits.lo) & cut[hits.part]
    part, tri = hits.part[keep], hits.tri[keep]
    snap = tol_t[part]
    lo, hi = (
        np.where(x < snap, 0.0, np.where(x > 1.0 - snap, 1.0, x))
        for x in (hits.lo[keep], hits.hi[keep])
    )
    ids = np.nonzero(cut)[0]
    k = np.concatenate([ids, ids, part, part])
    t = np.concatenate([np.zeros(ids.size), np.ones(ids.size), lo, hi])
    order = np.lexsort((t, k))
    k, t = k[order], t[order]
    kept = np.concatenate([[True], (k[1:] != k[:-1]) | (np.diff(t) > tol_t[k[1:]])])
    k, t = k[kept], t[kept]
    last = np.append(k[1:] != k[:-1], True)
    t[last] = 1.0
    start = np.nonzero(~last)[0]
    k, b0, b1 = k[start], t[start], t[start + 1]
    mids = 0.5 * (b0 + b1)

    # hits are sorted by (part, tri): the first cover is the lowest triangle
    first = np.searchsorted(part, k, side="left")
    count = np.searchsorted(part, k, side="right") - first
    sub = np.repeat(np.arange(k.size), count)
    pair = expand_ranges(first, count)
    m, slack = mids[sub], tol_t[k][sub]
    covers = (lo[pair] <= m + slack) & (hi[pair] >= m - slack)
    owned, first_cover = np.unique(sub[covers], return_index=True)
    if owned.size < k.size:
        s = np.setdiff1d(np.arange(k.size), owned)[0]
        j = chain_of[k[s]]
        where = (starts[k[s]] + mids[s] * (ends[k[s]] - starts[k[s]])).tolist()
        raise CrackGeometryError(
            f"chain {j} part {k[s] - n_parts[:j].sum()} leaves the mesh near {where}"
        )
    p, d = starts[k], (ends - starts)[k]
    return SegmentedCrack(
        triangle_index=tri[pair[covers][first_cover]],
        points=np.stack([p + b0[:, None] * d, p + b1[:, None] * d], axis=1),
        length=(b1 - b0) * plen[k],
        chain_index=chain_of[k],
        chain_permeability=np.asarray([c.permeability for c in crack.chains]),
        chain_source=[c.source for c in crack.chains],
        nodes=crack.nodes.copy(),
        chain_nodes=crack.chain_nodes.copy(),
        chain_length=np.asarray([c.length for c in crack.chains]),
    )


def signed_distance_to_crack(points, crack: CrackGraph):
    """Distance to the nearest chain; signed for a single closed chain.

    With exactly one closed chain the distance is positive inside the
    enclosed region and negative outside it. For open chains and networks
    the unsigned distance is returned. Points on a chain give zero.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = pts.reshape(-1, 2)
    if crack.n_chains == 0:
        raise CrackGeometryError("empty crack has no distance function")
    best = np.full(len(pts), np.inf)
    for chain in crack.chains:
        a = chain.points[:-1]
        b = chain.points[1:]
        d = point_segment_distances(pts, a, b).min(axis=1)
        best = np.minimum(best, d)
    if crack.n_chains == 1 and crack.chains[0].is_closed:
        poly = crack.chains[0].points
        inside = _points_in_polygon(pts, poly)
        best = np.where(inside, best, -best)
    if single:
        return float(best[0])
    return best


def _points_in_polygon(pts, poly):
    """Even-odd rule against a closed polyline (first point == last)."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    ax, ay = poly[:-1, 0], poly[:-1, 1]
    bx, by = poly[1:, 0], poly[1:, 1]
    for i in range(len(ax)):
        crosses = (ay[i] > y) != (by[i] > y)
        if not crosses.any():
            continue
        xs = ax[i] + (y - ay[i]) / (by[i] - ay[i]) * (bx[i] - ax[i])
        inside ^= crosses & (x < xs)
    return inside
