"""Crack networks: graphs of one-dimensional chains and their mesh intersections.

A crack is a graph of nodes (junctions and tips) connected by chains, each
chain a polyline with its own tangential permeability and line source.
``cut_chains`` slices every chain into per-triangle segments so that the
interface bilinear form can be assembled by walking segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._geom import REL_TOL, expand_ranges, tolerance
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
        if not 0.0 <= self.permeability < np.inf:
            raise CrackGeometryError("chain permeability must be >= 0 and finite")
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
        tol = REL_TOL
        if self.chains:
            tol = tolerance(np.vstack([c.points for c in self.chains]))
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


def arc_points(center, radius, angles, spacing) -> np.ndarray:
    """(n + 1, 2) points of the circular arc from angles[0] to angles[1]
    (radians): n = ceil(arc length / spacing) parts of equal angle. Ends
    within the points' tolerance close exactly, so (0, 2 pi) is a circle."""
    if not radius > 0.0:  # also false for NaN
        raise CrackGeometryError("arc radius must be positive")
    if not spacing > 0.0:
        raise CrackGeometryError("spacing must be positive")
    (a0, a1), center = angles, np.asarray(center, dtype=float)
    length = radius * abs(a1 - a0)
    if length <= 0.0:
        raise CrackGeometryError("curve has zero length")
    if not np.isfinite(length):
        raise CrackGeometryError("arc length is not finite")
    n = max(1, int(np.ceil(length / spacing - 1e-12)))
    theta = a0 + np.linspace(0.0, 1.0, n + 1) * (a1 - a0)
    pts = center + radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    if np.hypot(*(pts[0] - pts[-1])) <= tolerance(pts):
        pts[-1] = pts[0]
    return pts


@dataclass
class SegmentedCrack:
    """Chains cut into per-triangle segments, ordered along each chain.

    Arrays are aligned: segment s lives in triangle ``triangle_index[s]``,
    spans ``points[s, 0]`` to ``points[s, 1]``, and belongs to chain
    ``chain_index[s]`` of ``graph``, the crack graph the segments were cut
    from, which holds each chain's material data and end nodes.
    """

    triangle_index: np.ndarray  # (s,)
    points: np.ndarray  # (s, 2, 2)
    length: np.ndarray  # (s,)
    chain_index: np.ndarray  # (s,)
    graph: CrackGraph

    @property
    def n_segments(self) -> int:
        return int(self.triangle_index.shape[0])

    def segments_of_chain(self, j: int) -> np.ndarray:
        return np.nonzero(self.chain_index == j)[0]

    def midpoints(self) -> np.ndarray:
        return self.points.mean(axis=1)

    def tangents(self) -> np.ndarray:
        d = self.points[:, 1, :] - self.points[:, 0, :]
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    def permeability(self) -> np.ndarray:
        """Per-segment tangential permeability."""
        return np.asarray([c.permeability for c in self.graph.chains])[self.chain_index]

    @classmethod
    def empty(cls) -> "SegmentedCrack":
        return cls(
            triangle_index=np.empty(0, dtype=np.int64),
            points=np.empty((0, 2, 2)),
            length=np.empty(0),
            chain_index=np.empty(0, dtype=np.int64),
            graph=CrackGraph.empty(),
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
        graph=crack,
    )


def _points_in_polygon(pts, poly):
    """Even-odd rule against a closed polyline (first point == last).

    An edge from a to b is crossed by the rightward ray of each point with
    y in [min(ay, by), max(ay, by)) and x left of the edge; the points in
    that range are one run of the points sorted by y.
    """
    x, y = pts[:, 0], pts[:, 1]
    order = np.argsort(y, kind="stable")
    ys = y[order]
    inside = np.zeros(len(pts), dtype=bool)
    ax, ay = poly[:-1, 0], poly[:-1, 1]
    bx, by = poly[1:, 0], poly[1:, 1]
    first = np.searchsorted(ys, np.minimum(ay, by))
    end = np.searchsorted(ys, np.maximum(ay, by))
    for i in range(len(ax)):
        run = order[first[i] : end[i]]
        xs = ax[i] + (y[run] - ay[i]) / (by[i] - ay[i]) * (bx[i] - ax[i])
        inside[run] ^= x[run] < xs
    return inside
