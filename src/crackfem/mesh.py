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
    SpatialGrid,
    clip_segments_to_triangles,
    corners,
    expand_ranges,
    tolerance,
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


class Lattice(NamedTuple):
    """Lattice lines xs, ys and each triangle's cell code j * nx + i,
    non-decreasing: the triangle lies in [xs[i], xs[i + 1]] x [ys[j], ys[j + 1]];
    ``cells`` None means triangles 2c and 2c + 1 fill cell c. Meshes from
    ``build_rectangle_mesh`` and ``refine_marked`` keep the len(xs) * len(ys)
    lattice points as their leading vertices, in ``np.meshgrid(xs, ys)``
    order, and are unrefined exactly when they have no other vertex."""

    xs: np.ndarray
    ys: np.ndarray
    cells: np.ndarray | None

    def triangle_cells(self, m: int) -> np.ndarray:
        """Cell codes of the m triangles of a mesh on this lattice."""
        return np.arange(m) // 2 if self.cells is None else self.cells


class Mesh:
    """Immutable conforming triangulation.

    Parameters
    ----------
    vertices : (n, 2) float array
    triangles : (m, 3) int array
        Counterclockwise; vertex 0 is the newest vertex, edge (1, 2) the
        refinement edge.
    lattice : Lattice, optional
        Default one cell over the vertex box, exact and cheap at test sizes.
        Its box, the vertex box (midpoints stay in their edges' boxes), gives
        ``tolerance``, the absolute tolerance of incidence tests.
    """

    def __init__(self, vertices, triangles, lattice=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be (n, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be (m, 3)")
        ids = self.triangles
        if ids.size and not 0 <= ids.min() <= ids.max() < self.n_vertices:
            raise MeshError("triangle vertex ids must lie in [0, n_vertices)")
        for arr in (self.vertices, self.triangles):
            arr.setflags(write=False)
        if lattice is None:
            box = np.stack([self.vertices.min(axis=0), self.vertices.max(axis=0)], 1)
            lattice = Lattice(*box, np.zeros(self.n_triangles, dtype=np.int64))
        xs, ys, _ = self.lattice = lattice
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite vertices
            self.tolerance = tolerance(np.array([[xs[0], ys[0]], [xs[-1], ys[-1]]]))
        self._areas = self._edges = self._rows = None

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def triangle_areas(self) -> np.ndarray:
        if self._areas is None:
            self._areas = np.empty(self.n_triangles)
            for start in range(0, self.n_triangles, 1 << 14):  # cache-sized temporaries
                blk = slice(start, start + (1 << 14))
                x, y = corners(self.vertices, self.triangles[blk])
                d1x, d1y = x[1] - x[0], y[1] - y[0]
                d2x, d2y = x[2] - x[0], y[2] - y[0]
                np.multiply(0.5, d1x * d2y - d1y * d2x, out=self._areas[blk])
            self._areas.setflags(write=False)
        return self._areas

    def hat_gradients(self, tri_ids=slice(None), rows=None) -> np.ndarray:
        """Constant hat-function gradients of the selected triangles, (3, 2, k).

        Entry [i, :, t] is the gradient of the hat of vertex i of triangle t:
        the opposite edge rotated a quarter turn, divided by twice the area.
        ``rows`` are the caller's corner rows x, y of these triangles
        (``corners``), which are then not gathered again.
        """
        # areas first, so their cached computation's temporaries are freed
        # before the gradients exist; the other order raises peak RSS
        twice = 2.0 * self.triangle_areas()[tri_ids]
        x, y = corners(self.vertices, self.triangles[tri_ids]) if rows is None else rows
        grads = np.empty((3, 2, len(twice)))
        for i in range(3):
            a, b = (i + 1) % 3, (i + 2) % 3
            # e_y / -2A is -e_y / 2A to the bit, signed zeros included
            np.divide(y[b] - y[a], -twice, out=grads[i, 0])
            np.divide(x[b] - x[a], twice, out=grads[i, 1])
        return grads

    def hat_values(self, tri_ids, points) -> np.ndarray:
        """Hats of triangle tri_ids[k] at points[k, ...], shape (k, ..., 3).

        P1 hats are affine: 1/3 at the centroid plus gradient times offset.
        """
        pts = np.asarray(points, dtype=float)
        centroids = self.vertices[self.triangles[tri_ids]].mean(axis=1)
        centroids = centroids.reshape((-1,) + (1,) * (pts.ndim - 2) + (2,))
        grads = self.hat_gradients(tri_ids)
        return 1.0 / 3.0 + np.einsum("idk,k...d->k...i", grads, pts - centroids)

    def triangle_diameters(self, tri_ids=slice(None)) -> np.ndarray:
        """Longest edge of each selected triangle, shape (k,)."""
        x, y = corners(self.vertices, self.triangles[tri_ids])
        dx, dy = x[[1, 2, 0]] - x, y[[1, 2, 0]] - y
        # sqrt is monotone: the root of the longest square is the longest root
        return np.sqrt((dx * dx + dy * dy).max(axis=0))

    @property
    def is_lattice(self) -> bool:
        """True when the mesh is its lattice, as ``build_rectangle_mesh``
        makes it: the lattice points are all its vertices, in
        ``np.meshgrid(xs, ys)`` order, and each cell's two triangles follow
        in cell order, cut along the cell's up diagonal."""
        xs, ys, cells = self.lattice
        return cells is None and self.n_vertices == len(xs) * len(ys)

    @property
    def h_max(self) -> float:
        if self.is_lattice:  # two triangles per cell: the longest is a cell diagonal
            dx, dy = np.diff(self.lattice.xs), np.diff(self.lattice.ys)
            return float(np.sqrt((dx * dx).max() + (dy * dy).max()))
        return float(self.triangle_diameters().max())

    def incidence(self, starts, ends) -> Incidence:
        """Triangles touched by the segments starts[k] -> ends[k], two (k, 2)
        float arrays.

        The one full query: every candidate pair is clipped. Returns the
        ``Incidence`` of the closed segments within ``tolerance``; a point
        is the segment with starts[k] == ends[k].
        """
        return self.clip_pairs(starts, ends, *self.candidate_pairs(starts, ends))[0]

    def candidate_pairs(self, starts, ends):
        """Pairs (part, tri), unique and sorted, of each segment
        starts[k] -> ends[k] and every triangle in a lattice cell that meets
        the segment's box padded by ``REACH * tolerance``: a superset of the
        triangles the segment passes within that distance of, from a cell
        index built per call (a run queries each mesh once)."""
        cells = self.lattice.triangle_cells(self.n_triangles)
        grid = SpatialGrid.for_triangles(*self.lattice[:2], cells)
        pad = REACH * self.tolerance
        lo, hi = np.minimum(starts, ends) - pad, np.maximum(starts, ends) + pad
        return grid.query(lo, hi)

    def clip_pairs(self, starts, ends, part, tri):
        """Clip segment part[i] against triangle tri[i], over candidate pairs
        sorted by (part, tri). Returns the ``Incidence`` among them and the
        near pairs (part, tri), sorted, of segments passing within
        ``REACH * tolerance`` of a triangle; they contain the incidence."""
        # np.take copies whole rows, where the fancy gather vertices[triangles[tri]]
        # loops over its length-2 and length-3 axes (several times slower)
        tris = np.take(self.vertices, np.take(self.triangles, tri, axis=0), axis=0)
        p, q = np.take(starts, part, axis=0), np.take(ends, part, axis=0)
        lo, hi, touched, near = clip_segments_to_triangles(p, q, tris, self.tolerance)
        # index gathers: boolean masks with no pattern are several times slower
        touched, near = np.flatnonzero(touched), np.flatnonzero(near)
        hits = Incidence(*(np.take(a, touched) for a in (part, tri, lo, hi)))
        return hits, (np.take(part, near), np.take(tri, near))

    def edge_map(self) -> np.ndarray:
        """(m, 3) map from triangles to undirected edge ids: edge i of a
        triangle runs from its corner (i + 1) % 3 to (i + 2) % 3, so edge 0
        is the refinement edge. A mesh from ``refine_marked`` carries its
        map; otherwise the edges are numbered once, in order of their codes
        a * n + b (a < b)."""
        if self._edges is None:
            t = self.triangles
            pairs = np.sort(np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]]), axis=1)
            codes = pairs[:, 0] * self.n_vertices + pairs[:, 1]
            self._edges = np.unique(codes, return_inverse=True)[1].reshape(3, -1).T
            self._edges.setflags(write=False)
        return self._edges

    def text_rows(self) -> tuple[str, str]:
        """Vertex rows ``"x y\n"`` (``%r``) and triangle rows ``"a b c\n"``
        (``%d``), each as one string, rendered once (cached); every export
        layout is derived from them. Leading vertices that are the lattice
        points, bit for bit, are rendered as the x reprs joined once per y;
        the other vertices go through ``_render``, the triangles through
        ``_render_ids``."""
        if self._rows is None:
            xs, ys = self.lattice.xs.tolist(), self.lattice.ys.tolist()
            pts = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
            if not np.array_equal(self.vertices[: len(pts)].view(np.int64), pts.view(np.int64)):
                ys = []  # they are not: every row goes through _render
            xreprs = [repr(x) for x in xs]
            lead = "".join((tail := " " + repr(y) + "\n").join(xreprs) + tail for y in ys)
            self._rows = (
                lead + _render("%r %r\n", self.vertices[len(xs) * len(ys) :]),
                _render_ids(self.triangles, self.n_vertices),
            )
        return self._rows


RECTANGLE_TAGS = ("bottom", "top", "left", "right")


def rectangle_cells(bounds, target_h: float) -> tuple:
    """(nx, ny): ceil(side / target_h) lattice cells along each side.

    Raises MeshError unless the bounds (xmin, xmax, ymin, ymax) are a
    non-empty rectangle, 0 < target_h <= its shorter side and the lattice has
    at most 2**31 - 1 vertices.
    """
    xmin, xmax, ymin, ymax = (float(b) for b in bounds)
    w, h = xmax - xmin, ymax - ymin
    if not (w > 0.0 and h > 0.0):
        raise MeshError("bounds must describe a non-empty rectangle")
    if not target_h > 0.0:
        raise MeshError("target_h must be positive")
    if target_h > min(w, h) * (1.0 + 1e-12):
        raise MeshError(
            f"target_h {target_h!r} exceeds the shorter rectangle side {min(w, h)!r}"
        )
    # counted in floats: finite bounds can give a side, and a count, of inf
    nx, ny = (np.ceil(side / target_h - 1e-12) for side in (w, h))
    if not (nx + 1) * (ny + 1) <= 2**31 - 1:  # also false for inf and NaN
        raise MeshError(f"{nx:.0f} x {ny:.0f} cells have more than 2**31 - 1 vertices")
    return max(1, int(nx)), max(1, int(ny))


def build_rectangle_mesh(bounds, target_h: float) -> Mesh:
    """Structured triangulation of an axis-aligned rectangle.

    The rectangle is split into the ``rectangle_cells(bounds, target_h)``
    lattice, whose spacing never exceeds target_h, and each cell is cut
    along its up diagonal. Cell diagonals are the refinement edges, which
    makes the mesh compatible with newest-vertex bisection from the start.
    Element diameters are the cell diagonals, at most sqrt(2) * target_h.

    Parameters
    ----------
    bounds : (xmin, xmax, ymin, ymax)
    target_h : float
        Grid spacing bound, checked by ``rectangle_cells``.
    """
    nx, ny = rectangle_cells(bounds, target_h)
    xmin, xmax, ymin, ymax = (float(b) for b in bounds)
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
    triangles = np.stack([lower, upper], axis=1).reshape(-1, 3)
    return Mesh(vertices, triangles, Lattice(xs, ys, None))


def refine_marked(mesh: Mesh, marked):
    """One generation of newest-vertex bisection with conforming closure.

    The closure marks the refinement edge of any triangle with a marked
    edge, starting from those of the ``marked`` triangle ids. Each triangle
    whose refinement edge is marked is bisected at its midpoint, then each
    child whose refinement edge is marked, giving 2 to 4 children. Vertices
    of the input keep their indices, and the midpoints follow in (a, b)
    order of the split edges (a < b).

    The output carries its edge map (``Mesh.edge_map``) and the input's lattice.
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
    if marked.size == 0:
        return mesh, np.arange(m)
    if marked.min() < 0 or marked.max() >= m:
        raise MeshError("marked triangle ids must lie in [0, n_triangles)")
    n = mesh.n_vertices
    t2e = mesh.edge_map()
    n_edges = int(t2e.max()) + 1  # every id names an edge of some triangle
    edge_marked = np.zeros(n_edges, dtype=bool)
    edge_marked[t2e[marked, 0]] = True
    while True:
        # column gathers OR'd: the bits of .any(axis=1) without an (m, 3) gather
        bisect = edge_marked[t2e[:, 0]]
        need = (edge_marked[t2e[:, 1]] | edge_marked[t2e[:, 2]]) & ~bisect
        if not need.any():
            break
        edge_marked[t2e[need, 0]] = True

    # the band: each triangle is bisected at m0 into (m0, v0, v1) and
    # (m0, v2, v0); the first again at m2 if edge 2 is split, the second at
    # m1 if edge 1 is. Rows (3, k) of its corners v and edges e
    cut = np.flatnonzero(bisect)
    v = np.take(mesh.triangles, cut, axis=0).T
    e = np.take(t2e.T, cut, axis=1)
    # every split edge is the refinement edge (v1, v2) of a band triangle,
    # which gives its ends a < b, and so the midpoints' (a, b) order
    low, high = np.empty(n_edges, dtype=np.int64), np.empty(n_edges, dtype=np.int64)
    low[e[0]], high[e[0]] = np.minimum(v[1], v[2]), np.maximum(v[1], v[2])
    split = np.flatnonzero(edge_marked)
    split = split[np.argsort(np.take(low, split) * n + np.take(high, split))]
    edge_newv = np.full(n_edges, -1, dtype=np.int64)
    edge_newv[split] = n + np.arange(len(split))
    first, second = (np.take(mesh.vertices, np.take(end, split), axis=0) for end in (low, high))
    vertices = np.concatenate([mesh.vertices, (first + second) / 2])  # the bits of their mean

    # midpoints m and each edge's halves: a ends at the edge's first corner,
    # b at its other. Edge i runs from corner i + 1 to corner i + 2 (mod 3),
    # and the half ending at the lower vertex keeps the edge's id
    mid = edge_newv[e]
    own, other = v[[1, 2, 0]] < v[[2, 0, 1]], n_edges + mid - n
    a, b = np.where(own, e, other), np.where(own, other, e)
    (v0, v1, v2), (_, e1, e2), (m0, m1, m2), (a0, a1, a2), (b0, b1, b2) = v, e, mid, a, b
    f1, f2 = edge_marked[e1], edge_marked[e2]
    # new edge ids: (v0, m0) of each band triangle, then (m0, m2) and
    # (m0, m1) of its children, in triangle order
    twice = f1.astype(np.int64) + f2
    s1, s2 = np.flatnonzero(f1), np.flatnonzero(f2)
    i0 = n_edges + len(split) + np.arange(len(cut))
    i2 = n_edges + len(split) + len(cut) + np.cumsum(twice) - twice
    i1 = i2 + f2

    # children of one parent are consecutive: copy every row to the place
    # of its first child, then write the band's children column by column
    counts = np.ones(m, dtype=np.int64)
    counts[cut] = 2 + twice
    parent = np.repeat(np.arange(m), counts)
    out = np.take(mesh.triangles, parent, axis=0)
    # component-major, as ``edge_map`` numbers it: contiguous columns
    out_t2e = np.take(t2e.T, parent, axis=1)
    left = cut + np.cumsum(1 + twice) - (1 + twice)
    right = left + 1 + f2
    sel = lambda flag, yes, no: [np.where(flag, y, x) for y, x in zip(yes, no)]
    take = lambda sub, arrays: [np.take(x, sub) for x in arrays]
    # rows and six columns (corners, then edge ids) of each group of children
    for rows, values in (
        (left, sel(f2, (m2, m0, v0, i0, a2, i2), (m0, v0, v1, e2, a0, i0))),
        (np.take(left + 1, s2), take(s2, (m2, v1, m0, a0, i2, b2))),
        (right, sel(f1, (m1, m0, v2, b0, a1, i1), (m0, v2, v0, e1, i0, b0))),
        (np.take(right + 1, s1), take(s1, (m1, v0, m0, i0, i1, b1))),
    ):
        for column, value in zip((*out.T, *out_t2e), values):
            column[rows] = value
    cells = np.take(mesh.lattice.triangle_cells(m), parent)
    refined = Mesh(vertices, out, mesh.lattice._replace(cells=cells))
    out_t2e.setflags(write=False)
    refined._edges = out_t2e.T
    return refined, parent


def mark_crack_elements(hits: Incidence):
    """Indices of the triangles a crack touches, closed-set semantics, from
    its incidence ``hits``: a triangle is marked when any chain part
    intersects it, including touching its boundary within the geometric
    tolerance. Returns a sorted integer array.
    """
    # np.unique's bits, sorted and deduplicated here: it takes several times
    # as long on these arrays
    tri = np.sort(hits.tri)
    first = np.ones(len(tri), dtype=bool)
    first[1:] = tri[1:] != tri[:-1]
    return tri[first]


def _vertex_neighborhood(mesh: Mesh, tri_ids) -> np.ndarray:
    """Triangles sharing at least one vertex with the given set (inclusive),
    sorted; the corner columns OR'd, not ``mask[triangles].any(axis=1)``."""
    t = mesh.triangles
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    mask[np.take(t, tri_ids, axis=0).ravel()] = True
    corner = np.take(mask, t)  # one (m, 3) row gather beats three column gathers
    return np.flatnonzero(corner[:, 0] | corner[:, 1] | corner[:, 2])


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
        for name in ("crack_h", "coefficient"):
            if not abs(getattr(self, name) or 0.0) < np.inf:  # an inf target refines nothing
                raise ValueError(f"{name} must be finite")
        if self.rule not in ("none", "fixed", "quadratic"):
            raise ValueError(f"unknown refinement rule {self.rule!r}")
        if self.rule == "fixed":
            if self.crack_h is None or not self.crack_h > 0.0:
                raise ValueError("rule 'fixed' needs a positive crack_h")
        if self.rule == "quadratic" and not self.coefficient > 0.0:
            raise ValueError("rule 'quadratic' needs a positive coefficient")
        # NaN, non-integers such as 2.5 and booleans fail the integer test
        n = self.max_generations
        if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and n >= 1):
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
        band = _vertex_neighborhood(current, mark_crack_elements(hits))
        band_diameters = current.triangle_diameters(band)
        need = band[band_diameters > target]
        if need.size == 0:
            # only bisection reads the carried edge map: release it rather
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


# rows per rendering call and per solution.txt write, characters per write of
# a VTK section: bounds the separate strings and copies held at once
_TEXT_BLOCK = 1 << 16


def _render(line: str, rows: np.ndarray) -> str:
    """``line % tuple(row)`` for each row of a 2-D array, joined,
    ``_TEXT_BLOCK`` rows per ``%`` call; ``line`` holds ``%r`` fields.
    ``tolist`` gives Python floats and ints, whose ``%r`` is their ``repr``:
    the bytes of one f-string per row. Id rows go through ``_render_ids``."""
    chunks = (rows[i : i + _TEXT_BLOCK] for i in range(0, len(rows), _TEXT_BLOCK))
    return "".join((line * len(c)) % tuple(c.ravel().tolist()) for c in chunks)


def _render_ids(rows: np.ndarray, n: int) -> str:
    """``"%d %d %d\n" % tuple(row)`` for each (m, 3) row of ids in [0, n),
    joined. A table holds each id 0 .. n - 1 once as its decimal digits,
    right-aligned in a fixed-width uint8 row with NUL padding on the left and
    a space after; each ``_TEXT_BLOCK`` of rows is one gather from it, with
    the last space of a row turned into a newline and the NULs dropped."""
    width = len(str(max(n - 1, 0)))
    table = np.full((n, width + 1), ord(" "), np.uint8)
    ids = np.arange(n)
    for place in range(width):  # units first; ids below 10**place have no digit there
        column = table[:, width - 1 - place]
        column[:] = ids % 10 + ord("0")
        column[: 10**place if place else 0] = 0
        ids //= 10
    blocks = []
    for i in range(0, len(rows), _TEXT_BLOCK):
        chunk = np.take(table, rows[i : i + _TEXT_BLOCK], axis=0)
        chunk[:, 2, -1] = ord("\n")
        flat = chunk.ravel()
        blocks.append(flat[flat != 0].tobytes().decode("ascii"))
    return "".join(blocks)


def _line_blocks(text: str, size: int):
    """Pieces of ``text``, a run of ``"...\n"`` lines, that join back to it:
    each ends at the first newline at least ``size`` characters past its
    start, or at the end."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + size - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def export_mesh_text(mesh: Mesh, path) -> None:
    """Plain-text mesh: counts header, vertex lines, triangle lines."""
    with open(path, "w") as f:
        f.write(f"vertices {mesh.n_vertices} / triangles {mesh.n_triangles}\n")
        f.writelines(mesh.text_rows())


def export_vtk(mesh: Mesh, path, solution=None) -> None:
    """Legacy ASCII VTK unstructured grid; a ``solution`` on the mesh adds
    its vertex values as the point scalars ``u``, from its cached
    ``value_rows``. The POINTS and CELLS lines are the mesh's cached
    ``text_rows``, written a block of whole lines at a time (``_line_blocks``
    of ``_TEXT_BLOCK`` characters), each block with its VTK suffix or prefix
    added, so no whole-section copy is made."""
    n, nt = mesh.n_vertices, mesh.n_triangles
    vertex_rows, triangle_rows = mesh.text_rows()
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\ncrackfem mesh\nASCII\n")
        f.write(f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n")
        for block in _line_blocks(vertex_rows, _TEXT_BLOCK):
            f.write(block.replace("\n", " 0.0\n"))
        f.write(f"CELLS {nt} {4 * nt}\n")
        for block in _line_blocks(triangle_rows, _TEXT_BLOCK):
            f.write("3 " + block[:-1].replace("\n", "\n3 ") + "\n")
        f.write(f"CELL_TYPES {nt}\n" + "5\n" * nt)
        if solution is not None:
            f.write(f"POINT_DATA {n}\nSCALARS u double 1\nLOOKUP_TABLE default\n")
            f.write(solution.value_rows())
