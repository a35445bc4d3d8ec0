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

import numpy as np

from ._geom import REL_TOL, SpatialGrid, bbox_diameter, clip_segments_to_triangles
from .cracks import CrackGraph


class MeshError(ValueError):
    pass


class RefinementError(RuntimeError):
    pass


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

    def triangle_diameters(self) -> np.ndarray:
        """Longest edge of each triangle."""
        if self._diameters is None:
            v = self.vertices[self.triangles]
            e = np.linalg.norm(np.roll(v, -1, axis=1) - v, axis=2)
            self._diameters = e.max(axis=1)
            self._diameters.setflags(write=False)
        return self._diameters

    @property
    def h_max(self) -> float:
        return float(self.triangle_diameters().max())

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in degrees."""
        v = self.vertices[self.triangles]
        angles = np.empty((self.n_triangles, 3))
        for i in range(3):
            a = v[:, (i + 1) % 3] - v[:, i]
            b = v[:, (i + 2) % 3] - v[:, i]
            cosang = np.einsum("ij,ij->i", a, b) / (
                np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
            )
            angles[:, i] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        return float(angles.min())

    @property
    def tolerance(self) -> float:
        """Absolute geometric tolerance of incidence tests on this mesh."""
        return REL_TOL * max(bbox_diameter(self.vertices), 1.0)

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
    if w <= 0.0 or h <= 0.0:
        raise MeshError("bounds must describe a non-empty rectangle")
    if target_h <= 0.0:
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

    edges = []
    tags = []
    for i in range(nx):
        edges.append((vid(i, 0), vid(i + 1, 0)))
        tags.append("bottom")
    for i in range(nx):
        edges.append((vid(i, ny), vid(i + 1, ny)))
        tags.append("top")
    for j in range(ny):
        edges.append((vid(0, j), vid(0, j + 1)))
        tags.append("left")
    for j in range(ny):
        edges.append((vid(nx, j), vid(nx, j + 1)))
        tags.append("right")
    return Mesh(vertices, triangles, np.asarray(edges, dtype=np.int64), tags)


def refine_marked(mesh: Mesh, marked) -> Mesh:
    """One generation of newest-vertex bisection with conforming closure.

    All marked triangles are bisected at their refinement edges; the closure
    marks the refinement edge of any triangle with a marked edge, so the
    output is conforming. Vertices of the input keep their indices.
    """
    marked = np.asarray(marked)
    if marked.dtype == bool:
        marked = np.nonzero(marked)[0]
    if marked.size == 0:
        return mesh
    t = mesh.triangles
    n, m = mesh.n_vertices, mesh.n_triangles
    codes, t2e = mesh.edge_codes()
    edge_marked = np.zeros(len(codes), dtype=bool)
    edge_marked[t2e[marked, 0]] = True
    while True:
        any_marked = edge_marked[t2e].any(axis=1)
        need = any_marked & ~edge_marked[t2e[:, 0]]
        if not need.any():
            break
        edge_marked[t2e[need, 0]] = True

    split_ids = np.nonzero(edge_marked)[0]
    pairs = np.column_stack([codes[split_ids] // n, codes[split_ids] % n])
    midpoints = mesh.vertices[pairs].mean(axis=1)
    edge_newv = np.full(len(codes), -1, dtype=np.int64)
    edge_newv[split_ids] = n + np.arange(len(split_ids))
    vertices = np.vstack([mesh.vertices, midpoints])

    flags = edge_marked[t2e]
    counts = 1 + flags.sum(axis=1)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    out = np.empty((offsets[-1], 3), dtype=np.int64)
    v0, v1, v2 = t[:, 0], t[:, 1], t[:, 2]
    m0 = edge_newv[t2e[:, 0]]
    m1 = edge_newv[t2e[:, 1]]
    m2 = edge_newv[t2e[:, 2]]

    def put(mask, slot, a, b, c):
        rows = offsets[:-1][mask] + slot
        out[rows, 0] = a[mask]
        out[rows, 1] = b[mask]
        out[rows, 2] = c[mask]

    keep = counts == 1
    put(keep, 0, v0, v1, v2)
    only_ref = flags[:, 0] & ~flags[:, 1] & ~flags[:, 2]
    put(only_ref, 0, m0, v0, v1)
    put(only_ref, 1, m0, v2, v0)
    with_e1 = flags[:, 0] & flags[:, 1] & ~flags[:, 2]
    put(with_e1, 0, m0, v0, v1)
    put(with_e1, 1, m1, m0, v2)
    put(with_e1, 2, m1, v0, m0)
    with_e2 = flags[:, 0] & ~flags[:, 1] & flags[:, 2]
    put(with_e2, 0, m2, m0, v0)
    put(with_e2, 1, m2, v1, m0)
    put(with_e2, 2, m0, v2, v0)
    full = flags.all(axis=1)
    put(full, 0, m2, m0, v0)
    put(full, 1, m2, v1, m0)
    put(full, 2, m1, m0, v2)
    put(full, 3, m1, v0, m0)

    # split boundary edges in place, inheriting tags
    be = np.sort(mesh.boundary_edges, axis=1)
    bcodes = be[:, 0] * n + be[:, 1]
    pos = np.searchsorted(codes, bcodes)
    bmid = edge_newv[pos]
    new_edges = []
    new_tags = []
    for k in range(len(bcodes)):
        a, b = mesh.boundary_edges[k]
        tag = mesh.boundary_tags[k]
        if bmid[k] >= 0:
            new_edges.append((a, bmid[k]))
            new_edges.append((bmid[k], b))
            new_tags.extend([tag, tag])
        else:
            new_edges.append((a, b))
            new_tags.append(tag)
    return Mesh(vertices, out, np.asarray(new_edges, dtype=np.int64), new_tags)


def mark_crack_elements(mesh: Mesh, crack: CrackGraph, tol: float | None = None):
    """Indices of triangles the crack touches, closed-set semantics.

    A triangle is marked when any chain part intersects it, including
    touching its boundary within the geometric tolerance. Returns a sorted
    integer array.
    """
    if crack.n_chains == 0:
        return np.empty(0, dtype=np.int64)
    if tol is None:
        tol = mesh.tolerance
    coords = mesh.vertices[mesh.triangles]
    grid = SpatialGrid.for_triangles(mesh.vertices, mesh.triangles, mesh.h_max)
    hit = np.zeros(mesh.n_triangles, dtype=bool)
    for chain in crack.chains:
        pts = chain.points
        for i in range(len(pts) - 1):
            p, q = pts[i], pts[i + 1]
            cand = grid.query(np.minimum(p, q) - tol, np.maximum(p, q) + tol)
            if cand.size == 0:
                continue
            cand = cand[~hit[cand]]
            if cand.size == 0:
                continue
            _, _, touched = clip_segments_to_triangles(p, q, coords[cand], tol)
            hit[cand[touched]] = True
    return np.nonzero(hit)[0]


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
        if self.global_h <= 0.0:
            raise ValueError("global_h must be positive")
        if self.rule not in ("none", "fixed", "quadratic"):
            raise ValueError(f"unknown refinement rule {self.rule!r}")
        if self.rule == "fixed":
            if self.crack_h is None or self.crack_h <= 0.0:
                raise ValueError("rule 'fixed' needs a positive crack_h")
        if self.rule == "quadratic" and self.coefficient <= 0.0:
            raise ValueError("rule 'quadratic' needs a positive coefficient")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")

    def crack_target(self) -> float | None:
        if self.rule == "none":
            return None
        if self.rule == "fixed":
            return float(self.crack_h)
        return float(self.coefficient * self.global_h**2)


def refine_near_crack(mesh: Mesh, crack: CrackGraph, config: RefinementConfig) -> Mesh:
    """Bisect crack-band triangles until they meet the near-crack size target.

    Each generation re-marks the triangles the crack touches, extends the set
    by one ring of vertex neighbors, and bisects every member whose diameter
    exceeds the target. Returns the input mesh unchanged when nothing needs
    refining. Raises RefinementError when max_generations is exhausted.
    """
    target = config.crack_target()
    if target is None or crack.n_chains == 0:
        return mesh
    current = mesh
    for _ in range(config.max_generations):
        marked = mark_crack_elements(current, crack)
        if marked.size == 0:
            return current
        band = _vertex_neighborhood(current, marked)
        band_diameters = current.triangle_diameters()[band]
        need = band[band_diameters > target]
        if need.size == 0:
            return current
        current = refine_marked(current, need)
    raise RefinementError(
        f"near-crack target {target:.3e} not reached within "
        f"{config.max_generations} generations (mesh has {current.n_triangles} "
        f"triangles, worst band diameter before the last bisection "
        f"{band_diameters.max():.3e})"
    )


def export_mesh_text(mesh: Mesh, path) -> None:
    """Plain-text mesh: counts header, vertex lines, triangle lines."""
    lines = [f"vertices {mesh.n_vertices} / triangles {mesh.n_triangles}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for a, b, c in mesh.triangles:
        lines.append(f"{a} {b} {c}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def export_vtk(mesh: Mesh, path, point_data: dict | None = None) -> None:
    """Legacy ASCII VTK unstructured grid, with optional vertex scalars."""
    lines = [
        "# vtk DataFile Version 3.0",
        "crackfem mesh",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r} 0.0")
    lines.append(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {mesh.n_triangles}")
    lines.extend(["5"] * mesh.n_triangles)
    if point_data:
        lines.append(f"POINT_DATA {mesh.n_vertices}")
        for name, values in point_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{float(v)!r}" for v in np.asarray(values))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
