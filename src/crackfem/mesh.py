"""Conforming triangle meshes with newest-vertex bisection refinement.

Triangles are stored counterclockwise with the newest vertex first, so the
refinement edge of triangle (v0, v1, v2) is always (v1, v2). Bisection at the
midpoint m of that edge produces children (m, v0, v1) and (m, v2, v0), which
keeps orientation and hands the old legs down as the children's refinement
edges. A marked-edge closure pass before each subdivision keeps the mesh
conforming, and repeated bisection cycles through a bounded set of shape
classes, so minimum angles stay bounded away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._geom import (
    REACH,
    REL_TOL,
    SpatialGrid,
    bbox_diameter,
    clip_segments_to_triangles,
    expand_ranges,
)
from .cracks import CrackGraph


class MeshError(ValueError):
    pass


class RefinementError(RuntimeError):
    pass


class Incidence(NamedTuple):
    """Crack–triangle incidence as flat arrays sorted by (part, tri).

    Entry i says that segment ``part[i]`` touches triangle ``tri[i]`` within
    the mesh tolerance, over the clip interval [lo[i], hi[i]] of its
    parameter, as returned by ``clip_segments_to_triangles``.
    """

    part: np.ndarray
    tri: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


class Mesh:
    """Immutable conforming triangulation.

    Parameters
    ----------
    vertices : (n, 2) float array
    triangles : (m, 3) int array
        Counterclockwise; vertex 0 is the newest vertex, edge (1, 2) the
        refinement edge.
    boundary_edges : (b, 2) int array
        Vertex pairs tracing the domain boundary.
    boundary_tags : sequence of str, one tag per boundary edge.
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_tags):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self.boundary_tags = np.asarray(boundary_tags)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be (n, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be (m, 3)")
        if len(self.boundary_edges) != len(self.boundary_tags):
            raise MeshError("one tag per boundary edge required")
        for arr in (self.vertices, self.triangles, self.boundary_edges):
            arr.setflags(write=False)
        self._areas = None
        self._diameters = None
        self._tolerance = None
        self._edges = None

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def triangle_areas(self) -> np.ndarray:
        if self._areas is None:
            v = self.vertices[self.triangles]
            d1 = v[:, 1] - v[:, 0]
            d2 = v[:, 2] - v[:, 0]
            self._areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
            self._areas.setflags(write=False)
        return self._areas

    def hat_gradients(self, tri_ids=slice(None)) -> np.ndarray:
        """Constant hat-function gradients of the selected triangles, (k, 3, 2).

        Entry [t, i] is the gradient of the hat of vertex i: the opposite
        edge rotated a quarter turn, divided by twice the area.
        """
        # areas first, so their cached computation's temporaries are freed
        # before the (k, 3, 2) arrays exist; the other order raises peak RSS
        area = self.triangle_areas()[tri_ids]
        v = self.vertices[self.triangles[tri_ids]]
        grads = np.empty(v.shape)
        for i in range(3):
            e = v[:, (i + 2) % 3] - v[:, (i + 1) % 3]
            grads[:, i, 0] = -e[:, 1]
            grads[:, i, 1] = e[:, 0]
        grads /= (2.0 * area)[:, None, None]
        return grads

    def hat_values(self, tri_ids, points) -> np.ndarray:
        """Hats of triangle tri_ids[k] at points[k, ...], shape (k, ..., 3).

        P1 hats are affine: 1/3 at the centroid plus gradient times offset.
        """
        pts = np.asarray(points, dtype=float)
        centroids = self.vertices[self.triangles[tri_ids]].mean(axis=1)
        centroids = centroids.reshape((-1,) + (1,) * (pts.ndim - 2) + (2,))
        grads = self.hat_gradients(tri_ids)
        return 1.0 / 3.0 + np.einsum("kid,k...d->k...i", grads, pts - centroids)

    def triangle_diameters(self, tri_ids=None) -> np.ndarray:
        """Longest edge of each triangle (cached), or of the triangles tri_ids."""
        if tri_ids is None:
            if self._diameters is None:
                self._diameters = self.triangle_diameters(slice(None))
                self._diameters.setflags(write=False)
            return self._diameters
        v = self.vertices[self.triangles[tri_ids]]
        return np.linalg.norm(np.roll(v, -1, axis=1) - v, axis=2).max(axis=1)

    @property
    def h_max(self) -> float:
        return float(self.triangle_diameters().max())

    @property
    def tolerance(self) -> float:
        """Absolute geometric tolerance of incidence tests on this mesh."""
        if self._tolerance is None:
            self._tolerance = REL_TOL * max(bbox_diameter(self.vertices), 1.0)
        return self._tolerance

    def incidence(self, starts, ends) -> Incidence:
        """Triangles touched by the segments starts[k] -> ends[k].

        The one full query: every candidate pair is clipped. Returns the
        ``Incidence`` of the closed segments within ``tolerance``; a point
        is the segment with starts[k] == ends[k].
        """
        starts = np.asarray(starts, dtype=float).reshape(-1, 2)
        ends = np.asarray(ends, dtype=float).reshape(-1, 2)
        return self.clip_pairs(starts, ends, *self.candidate_pairs(starts, ends))[0]

    def candidate_pairs(self, starts, ends):
        """Pairs (part, tri), unique and sorted, of each segment
        starts[k] -> ends[k] and every triangle whose grid cells meet the
        segment's box padded by ``REACH * tolerance``: a superset of the
        triangles the segment passes within that distance of."""
        pad = REACH * self.tolerance
        grid = SpatialGrid.for_triangles(self.vertices, self.triangles, self.h_max)
        return grid.query(np.minimum(starts, ends) - pad, np.maximum(starts, ends) + pad)

    def clip_pairs(self, starts, ends, part, tri):
        """Clip segment part[i] against triangle tri[i], over candidate pairs
        sorted by (part, tri). Returns the ``Incidence`` among them and the
        near pairs (part, tri), sorted, of segments passing within
        ``REACH * tolerance`` of a triangle; they contain the incidence."""
        lo, hi, touched, near = clip_segments_to_triangles(
            starts[part], ends[part], self.vertices[self.triangles[tri]], self.tolerance
        )
        hits = Incidence(part[touched], tri[touched], lo[touched], hi[touched])
        return hits, (part[near], tri[near])

    def edge_codes(self):
        """Unique undirected edges as codes a * n + b (a < b), plus the
        (m, 3) map from triangles to edge ids. Edge 0 of a triangle is its
        refinement edge."""
        t = self.triangles
        pairs = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]])
        pairs = np.sort(pairs, axis=1)
        codes = pairs[:, 0] * self.n_vertices + pairs[:, 1]
        unique, inverse = np.unique(codes, return_inverse=True)
        t2e = inverse.reshape(3, self.n_triangles).T
        return unique, t2e

    def edge_table(self):
        """Undirected edges as (e, 2) vertex pairs (a < b), plus the (m, 3)
        map from triangles to edge ids, edge 0 the refinement edge. A mesh
        from ``refine_marked`` carries its table; otherwise it is built
        once from ``edge_codes``, in code order."""
        if self._edges is None:
            codes, t2e = self.edge_codes()
            pairs = np.column_stack([codes // self.n_vertices, codes % self.n_vertices])
            self._set_edges(pairs, t2e)
        return self._edges

    def _set_edges(self, pairs, t2e) -> None:
        for arr in (pairs, t2e):
            arr.setflags(write=False)
        self._edges = (pairs, t2e)

    def validate(self) -> None:
        """Raise MeshError on any violated invariant."""
        if not np.isfinite(self.vertices).all():
            raise MeshError("non-finite vertex coordinates")
        if self.triangles.min(initial=0) < 0 or (
            self.triangles.max(initial=-1) >= self.n_vertices
        ):
            raise MeshError("triangle vertex index out of range")
        if (self.triangle_areas() <= 0.0).any():
            raise MeshError("non-positive triangle area (orientation broken)")
        unique, t2e = self.edge_codes()
        counts = np.bincount(t2e.ravel(), minlength=len(unique))
        if (counts > 2).any():
            raise MeshError("edge shared by more than two triangles")
        be = np.sort(self.boundary_edges, axis=1)
        bcodes = be[:, 0] * self.n_vertices + be[:, 1]
        if len(np.unique(bcodes)) != len(bcodes):
            raise MeshError("duplicate boundary edge")
        boundary_set = np.isin(unique, bcodes)
        if not (counts[boundary_set] == 1).all():
            raise MeshError("boundary edge shared by two triangles")
        # an interior (count 1) edge missing from the boundary list means a
        # hanging node or a hole
        once = counts == 1
        if not np.isin(unique[once], bcodes).all():
            raise MeshError("non-conforming mesh: unmatched single edge")
        if not np.isin(bcodes, unique).all():
            raise MeshError("boundary edge not part of the triangulation")


RECTANGLE_TAGS = ("bottom", "top", "left", "right")


def build_rectangle_mesh(bounds, target_h: float) -> Mesh:
    """Structured triangulation of an axis-aligned rectangle.

    The rectangle is split into ceil(side / target_h) cells per direction,
    so the grid spacing never exceeds target_h, and each square cell is cut
    along its up diagonal. Cell diagonals are the refinement edges, which
    makes the mesh compatible with newest-vertex bisection from the start.
    Element diameters are the cell diagonals, at most sqrt(2) * target_h.

    Parameters
    ----------
    bounds : (xmin, xmax, ymin, ymax)
    target_h : float
        Grid spacing bound; must be positive and no larger than the shorter
        rectangle side.
    """
    xmin, xmax, ymin, ymax = (float(b) for b in bounds)
    w, h = xmax - xmin, ymax - ymin
    if not (w > 0.0 and h > 0.0):
        raise MeshError("bounds must describe a non-empty rectangle")
    if not target_h > 0.0:
        raise MeshError("target_h must be positive")
    if target_h > min(w, h) * (1.0 + 1e-12):
        raise MeshError("target_h exceeds the shorter rectangle side")
    nx = max(1, int(np.ceil(w / target_h - 1e-12)))
    ny = max(1, int(np.ceil(h / target_h - 1e-12)))
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    xg, yg = np.meshgrid(xs, ys)
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny))
    ii, jj = ii.ravel(), jj.ravel()
    p00 = vid(ii, jj)
    p10 = vid(ii + 1, jj)
    p01 = vid(ii, jj + 1)
    p11 = vid(ii + 1, jj + 1)
    # per cell: two triangles whose refinement edge is the cell diagonal
    lower = np.column_stack([p10, p11, p00])
    upper = np.column_stack([p01, p00, p11])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    # boundary edges (start, start + step), side by side in RECTANGLE_TAGS order
    i, j = np.arange(nx), np.arange(ny)
    starts = np.concatenate([vid(i, 0), vid(i, ny), vid(0, j), vid(nx, j)])
    steps = np.repeat([1, 1, nx + 1, nx + 1], [nx, nx, ny, ny])
    tags = np.repeat(RECTANGLE_TAGS, [nx, nx, ny, ny])
    return Mesh(vertices, triangles, np.column_stack([starts, starts + steps]), tags)


def refine_marked(mesh: Mesh, marked):
    """One generation of newest-vertex bisection with conforming closure.

    The closure marks the refinement edge of any triangle with a marked
    edge, starting from those of the ``marked`` triangles (ids or a boolean
    mask). Each triangle whose refinement edge is marked is bisected at its
    midpoint, then each child whose refinement edge is marked, giving 2 to 4
    children. Vertices of the input keep their indices, and the midpoints
    follow in (a, b) order of the split edges (a < b).

    The output carries its edge table (``Mesh.edge_table``) and tolerance.
    Kept edges keep their ids; a split edge (a, b) with midpoint m keeps its
    id for (a, m), and (b, m) is appended, in midpoint order; then come the
    edges (apex, midpoint) each bisection adds, first those of the input's
    triangles, then those of their children, in triangle order.

    Returns (refined, parent): ``parent[i]`` is the input triangle that
    output triangle i lies in. Children of one parent are consecutive, in
    parent order, so ``parent`` is non-decreasing.
    """
    marked = np.asarray(marked)
    m = mesh.n_triangles
    if marked.dtype == bool:
        if marked.shape != (m,):
            raise MeshError("a boolean marking needs one entry per triangle")
        marked = np.nonzero(marked)[0]
    if marked.size == 0:
        return mesh, np.arange(m)
    if marked.min() < 0 or marked.max() >= m:
        raise MeshError("marked triangle ids must lie in [0, n_triangles)")
    n = mesh.n_vertices
    pairs, t2e = mesh.edge_table()
    n_edges = len(pairs)
    edge_marked = np.zeros(n_edges, dtype=bool)
    edge_marked[t2e[marked, 0]] = True
    while True:
        any_marked = edge_marked[t2e].any(axis=1)
        need = any_marked & ~edge_marked[t2e[:, 0]]
        if not need.any():
            break
        edge_marked[t2e[need, 0]] = True

    split = np.nonzero(edge_marked)[0]
    split_codes = pairs[split, 0] * n + pairs[split, 1]
    order = np.argsort(split_codes)
    split, split_codes = split[order], split_codes[order]
    n_split = len(split)
    new_ids = n + np.arange(n_split)
    edge_newv = np.full(n_edges, -1, dtype=np.int64)
    edge_newv[split] = new_ids
    vertices = np.vstack([mesh.vertices, mesh.vertices[pairs[split]].mean(axis=1)])

    def half(e, v):
        """Id of the half of split edge e that ends at vertex v."""
        return np.where(pairs[e, 0] == v, e, n_edges + edge_newv[e] - n)

    out, out_t2e, parent = mesh.triangles, t2e, np.arange(m)
    out_pairs = [pairs, np.column_stack([pairs[split, 1], new_ids])]
    # (v0, v1, v2) with midpoint m of (v1, v2) becomes (m, v0, v1) and (m, v2, v0),
    # whose refinement edges are input edges: the second step needs no closure
    for _ in range(2):
        bisect = edge_marked[out_t2e[:, 0]]
        cut = np.nonzero(bisect)[0]
        v0, v1, v2 = out[cut].T
        e0, e1, e2 = out_t2e[cut].T
        mid = edge_newv[e0]
        new = sum(map(len, out_pairs)) + np.arange(len(cut))
        out = np.repeat(out, 1 + bisect, axis=0)
        out_t2e = np.repeat(out_t2e, 1 + bisect, axis=0)
        parent = np.repeat(parent, 1 + bisect)
        left = cut + np.arange(len(cut))
        out[left] = np.column_stack([mid, v0, v1])
        out[left + 1] = np.column_stack([mid, v2, v0])
        out_t2e[left] = np.column_stack([e2, half(e0, v1), new])
        out_t2e[left + 1] = np.column_stack([e1, new, half(e0, v2)])
        out_pairs.append(np.sort(np.column_stack([v0, mid]), axis=1))
    out_pairs = np.concatenate(out_pairs)
    out_pairs[split, 1] = new_ids

    # split boundary edges in place, inheriting tags
    be = np.sort(mesh.boundary_edges, axis=1)
    bcodes = be[:, 0] * n + be[:, 1]
    pos = np.minimum(np.searchsorted(split_codes, bcodes), n_split - 1)
    bsplit = split_codes[pos] == bcodes
    bmid = new_ids[pos[bsplit]]
    reps = 1 + bsplit
    # edge (a, b) through midpoint m becomes (a, m), (m, b)
    bfirst = np.cumsum(reps) - reps
    edges = np.repeat(mesh.boundary_edges, reps, axis=0)
    edges[bfirst[bsplit], 1] = bmid
    edges[bfirst[bsplit] + 1, 0] = bmid
    refined = Mesh(vertices, out, edges, np.repeat(mesh.boundary_tags, reps))
    refined._set_edges(out_pairs, out_t2e)
    # midpoints lie in their edges' bounding boxes: the mesh's box is unchanged
    refined._tolerance = mesh.tolerance
    return refined, parent


def mark_crack_elements(mesh: Mesh, crack: CrackGraph, hits=None):
    """Indices of triangles the crack touches, closed-set semantics.

    A triangle is marked when any chain part intersects it, including
    touching its boundary within the geometric tolerance. ``hits`` is the
    ``mesh.incidence`` of ``crack.parts()``, as refinement keeps it; None
    queries it here. Returns a sorted integer array.
    """
    if hits is None:
        hits = mesh.incidence(*crack.parts())
    return np.unique(hits.tri)


def _vertex_neighborhood(mesh: Mesh, tri_ids) -> np.ndarray:
    """Triangles sharing at least one vertex with the given set (inclusive)."""
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    mask[mesh.triangles[tri_ids].ravel()] = True
    return np.nonzero(mask[mesh.triangles].any(axis=1))[0]


@dataclass
class RefinementConfig:
    """Two-parameter mesh sizing: a global h and a near-crack target.

    rule "none" leaves the mesh alone, "fixed" refines the crack band to the
    explicit crack_h, and "quadratic" uses coefficient * global_h ** 2.
    """

    global_h: float
    rule: str = "none"
    crack_h: float | None = None
    coefficient: float = 1.0
    max_generations: int = 64

    def __post_init__(self):
        if not self.global_h > 0.0:  # also false for NaN
            raise ValueError("global_h must be positive")
        if self.rule not in ("none", "fixed", "quadratic"):
            raise ValueError(f"unknown refinement rule {self.rule!r}")
        if self.rule == "fixed":
            if self.crack_h is None or not self.crack_h > 0.0:
                raise ValueError("rule 'fixed' needs a positive crack_h")
        if self.rule == "quadratic" and not self.coefficient > 0.0:
            raise ValueError("rule 'quadratic' needs a positive coefficient")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")

    def crack_target(self) -> float | None:
        if self.rule == "none":
            return None
        if self.rule == "fixed":
            return float(self.crack_h)
        return float(self.coefficient * self.global_h**2)


def refine_near_crack(mesh: Mesh, crack: CrackGraph, config: RefinementConfig):
    """Bisect crack-band triangles until they meet the near-crack size target.

    Each generation takes the triangles the crack touches, extends the set
    by one ring of vertex neighbors, and bisects every member whose diameter
    exceeds the target. Raises RefinementError when max_generations is
    exhausted.

    Returns (refined, hits): ``hits`` is ``refined.incidence`` of the crack
    parts (``crack.parts()``), or None when the rule asks for no refinement
    or the crack is empty; the refined mesh is the input itself when nothing
    needs refining.

    Generation 0 clips the candidate pairs of the full query. Each later
    generation clips, for each part, only the children of the triangles it
    was near in the one before: those it passes within ``REACH *
    tolerance`` of. A child lies inside its parent, so a part that close to
    a child is as close to its parent; by induction, the candidates hold
    every triangle the part passes that close to. Every point a triangle's
    tolerance test covers lies that close to it (``_geom.REACH``), so the
    incidence equals a fresh query wherever the crack lies inside the mesh.
    """
    target = config.crack_target()
    if target is None or crack.n_chains == 0:
        return mesh, None
    starts, ends = crack.parts()
    current = mesh
    part, tri = mesh.candidate_pairs(starts, ends)
    for _ in range(config.max_generations):
        hits, (near_part, near_tri) = current.clip_pairs(starts, ends, part, tri)
        band = _vertex_neighborhood(current, mark_crack_elements(current, crack, hits))
        band_diameters = current.triangle_diameters(band)
        need = band[band_diameters > target]
        if need.size == 0:
            # only bisection reads the carried edge table: release it rather
            # than hold it through assembly and the solve
            current._edges = None
            return current, hits
        current, parent = refine_marked(current, need)
        # children of sorted near pairs come out sorted by (part, tri)
        first = np.searchsorted(parent, near_tri, side="left")
        count = np.searchsorted(parent, near_tri, side="right") - first
        part, tri = np.repeat(near_part, count), expand_ranges(first, count)
    raise RefinementError(
        f"near-crack target {target:.3e} not reached within "
        f"{config.max_generations} generations (mesh has {current.n_triangles} "
        f"triangles, worst band diameter before the last bisection "
        f"{band_diameters.max():.3e})"
    )


def _write_rows(f, line: str, rows: np.ndarray) -> None:
    """Write ``line % tuple(row)`` for each row of a 2-D array, 64k rows per
    call. ``tolist`` gives Python floats and ints, whose ``%r`` and ``%d``
    are their ``repr`` and ``str``: the bytes of one f-string per row."""
    for start in range(0, len(rows), 1 << 16):
        chunk = rows[start : start + (1 << 16)]
        f.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


def export_mesh_text(mesh: Mesh, path) -> None:
    """Plain-text mesh: counts header, vertex lines, triangle lines."""
    with open(path, "w") as f:
        f.write(f"vertices {mesh.n_vertices} / triangles {mesh.n_triangles}\n")
        _write_rows(f, "%r %r\n", mesh.vertices)
        _write_rows(f, "%d %d %d\n", mesh.triangles)


def export_vtk(mesh: Mesh, path, point_data: dict | None = None) -> None:
    """Legacy ASCII VTK unstructured grid, with optional vertex scalars. A
    ``point_data`` field needs a name without whitespace and one real value
    per vertex, else ValueError is raised before the file is opened."""
    n, nt = mesh.n_vertices, mesh.n_triangles
    fields = {k: np.asarray(v) for k, v in (point_data or {}).items()}
    for name, values in fields.items():
        named = isinstance(name, str) and name.split() == [name]
        if not named or values.shape != (n,) or values.dtype.kind not in "biuf":
            raise ValueError(
                f"point_data field {name!r}: need a name without whitespace "
                f"and {n} real values, got {values.dtype} {values.shape}"
            )
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\ncrackfem mesh\nASCII\n")
        f.write(f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n")
        _write_rows(f, "%r %r 0.0\n", mesh.vertices)
        f.write(f"CELLS {nt} {4 * nt}\n")
        _write_rows(f, "3 %d %d %d\n", mesh.triangles)
        f.write(f"CELL_TYPES {nt}\n" + "5\n" * nt)
        if fields:
            f.write(f"POINT_DATA {n}\n")
        for name, values in fields.items():
            f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            _write_rows(f, "%r\n", values.astype(np.float64)[:, None])
