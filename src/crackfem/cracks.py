"""Crack networks: graphs of one-dimensional chains and their mesh intersections.

A crack is a graph of nodes (junctions and tips) connected by chains, each
chain a polyline with its own tangential permeability and line source.
``cut_chains`` slices every chain into per-triangle segments so that the
interface bilinear form can be assembled by walking segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._geom import REL_TOL, bbox_diameter, point_segment_distances
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
        Line source density along the branch; callables take (x, y) arrays.
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
        if self.permeability < 0.0:
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
    """Nodes plus chains; every chain endpoint must coincide with a node.

    Parameters
    ----------
    chains : list of Chain
    nodes : (n, 2) array, optional
        Junction and tip coordinates. When omitted, nodes are derived from
        chain endpoints by clustering within the geometric tolerance.
    """

    def __init__(self, chains, nodes=None):
        self.chains: list[Chain] = list(chains)
        for c in self.chains:
            if c.length == 0.0:
                raise CrackGeometryError("zero-length chain")
        scale = self._scale()
        tol = REL_TOL * max(scale, 1.0)
        if nodes is None:
            nodes = self._derive_nodes(tol)
        self.nodes = np.asarray(nodes, dtype=float).reshape(-1, 2)
        if not np.isfinite(self.nodes).all():
            raise CrackGeometryError("node has non-finite coordinates")
        self.nodes.setflags(write=False)
        self.chain_nodes = self._match_endpoints(tol)
        self.chain_nodes.setflags(write=False)

    def _scale(self) -> float:
        if not self.chains:
            return 1.0
        return bbox_diameter(np.vstack([c.points for c in self.chains]))

    def _derive_nodes(self, tol):
        nodes: list[np.ndarray] = []
        for c in self.chains:
            for p in (c.points[0], c.points[-1]):
                if not any(np.hypot(*(p - n)) <= tol for n in nodes):
                    nodes.append(p.copy())
        return np.asarray(nodes, dtype=float).reshape(-1, 2)

    def _match_endpoints(self, tol):
        pairs = np.empty((len(self.chains), 2), dtype=np.int64)
        for j, c in enumerate(self.chains):
            for side, p in enumerate((c.points[0], c.points[-1])):
                if self.nodes.size == 0:
                    raise CrackGeometryError("chain endpoint matches no node")
                dist = np.hypot(*(self.nodes - p).T)
                i = int(np.argmin(dist))
                if dist[i] > tol:
                    raise CrackGeometryError(
                        f"chain {j} endpoint {p.tolist()} matches no node "
                        f"(closest node is {dist[i]:.3e} away)"
                    )
                pairs[j, side] = i
        return pairs

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @classmethod
    def empty(cls) -> "CrackGraph":
        return cls([], nodes=np.empty((0, 2)))


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
    if spacing <= 0.0:
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


def _dedupe_sorted(values: np.ndarray, tol: float) -> np.ndarray:
    """Merge sorted values closer than tol, keeping the first of each cluster."""
    kept = [values[0]]
    for v in values[1:]:
        if v - kept[-1] > tol:
            kept.append(v)
    return np.asarray(kept)


def cut_chains(mesh, crack: CrackGraph) -> SegmentedCrack:
    """Slice every chain of the crack graph into per-triangle segments.

    Each polyline part longer than the mesh tolerance is clipped against
    the triangles it touches (``Mesh.incidence``); the resulting breakpoints
    partition the part, and every sub-segment is assigned to the
    lowest-index triangle containing it (so parts running along shared
    element edges get a unique owner). Raises CrackGeometryError when a
    chain has no part longer than the tolerance or a chain portion lies
    outside every triangle.
    """
    if crack.n_chains == 0:
        return SegmentedCrack.empty()
    tol = mesh.tolerance
    pts = [c.points for c in crack.chains]
    starts = np.vstack([c[:-1] for c in pts])
    ends = np.vstack([c[1:] for c in pts])
    chain_of = np.concatenate([np.full(len(c) - 1, j) for j, c in enumerate(pts)])
    part_of = np.concatenate([np.arange(len(c) - 1) for c in pts])
    plen = np.linalg.norm(ends - starts, axis=1)
    cut = np.nonzero(plen > tol)[0]
    uncut = np.bincount(chain_of[cut], minlength=crack.n_chains) == 0
    if uncut.any():
        raise CrackGeometryError(
            f"chain {int(np.argmax(uncut))} is no longer than the mesh "
            f"tolerance {tol:.3e}"
        )

    tri_idx: list[np.ndarray] = []
    seg_pts: list[np.ndarray] = []
    seg_len: list[np.ndarray] = []
    seg_chain: list[np.ndarray] = []
    for k, (owners, lo, hi) in zip(cut, mesh.incidence(starts[cut], ends[cut])):
        j, i, p, q = chain_of[k], part_of[k], starts[k], ends[k]
        keep = hi > lo
        lo, hi, owners = lo[keep], hi[keep], owners[keep]
        if owners.size == 0:
            raise CrackGeometryError(
                f"chain {j} part {i} lies outside the mesh near {p.tolist()}"
            )
        tol_t = tol / plen[k]
        lo = np.where(lo < tol_t, 0.0, lo)
        lo = np.where(lo > 1.0 - tol_t, 1.0, lo)
        hi = np.where(hi < tol_t, 0.0, hi)
        hi = np.where(hi > 1.0 - tol_t, 1.0, hi)
        breaks = np.sort(np.concatenate([[0.0, 1.0], lo, hi]))
        breaks = _dedupe_sorted(breaks, tol_t)
        breaks[0] = 0.0
        breaks[-1] = 1.0
        b0, b1 = breaks[:-1], breaks[1:]
        mids = 0.5 * (b0 + b1)
        # owner per sub-segment: lowest triangle whose interval covers it
        covers = (lo[None, :] <= mids[:, None] + tol_t) & (
            hi[None, :] >= mids[:, None] - tol_t
        )
        if not covers.any(axis=1).all():
            m = int(np.nonzero(~covers.any(axis=1))[0][0])
            where = (p + mids[m] * (q - p)).tolist()
            raise CrackGeometryError(f"chain {j} part {i} leaves the mesh near {where}")
        own = owners[np.argmax(covers, axis=1)]
        d = q - p
        tri_idx.append(own)
        seg_pts.append(np.stack([p + b0[:, None] * d, p + b1[:, None] * d], axis=1))
        seg_len.append((b1 - b0) * plen[k])
        seg_chain.append(np.full(own.shape, j, dtype=np.int64))

    return SegmentedCrack(
        triangle_index=np.concatenate(tri_idx),
        points=np.concatenate(seg_pts),
        length=np.concatenate(seg_len),
        chain_index=np.concatenate(seg_chain),
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
