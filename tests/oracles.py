"""Independent reference computations used only by the tests.

These reproduce quantities the package computes (or checks it against) by a
different route: continuous Galerkin forms on subdivided quadrature, the
energy error by expansion, the error norms on finer rules, the P1 gradients
and stiffness matrices of a single element, a single segment/triangle clip,
point membership in one triangle, node incidence of a crack graph,
near-crack degree-of-freedom counts, one generation of newest-vertex
bisection as a table of six child cases and as two whole-mesh bisection
steps, the clip one edge at a time on (k, 3, 2) corner columns, the chain
cut one part at a time,
the one-sided branches of the radial exact solution, the smallest angle of a
mesh, the three text exports written one f-string per line, the direct solve
with SuperLU's default column ordering and partial pivoting, point location
and point evaluation of a P1 field, the whole-mesh P1 kernels in their
einsum, (m, 3, 2)-gather and sparse-product forms, the stiffness summed
from one COO matrix of all its element blocks, the lattice stencil solve
allocating every transform anew, and the exact solutions' value and
gradient as the separate formulas they were; also point-to-segment
distances, the signed distance to a crack with its even-odd loop over all
points, and the mesh invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from crackfem import (
    Coefficients,
    CrackGeometryError,
    CrackGraph,
    ExactRadialSolution,
    Mesh,
    MeshError,
    SegmentedCrack,
    SineProductSolution,
    mark_crack_elements,
)
from crackfem._geom import REACH, REL_TOL, bbox_diameter, clip_segments_to_triangles
from crackfem.analysis import _GAUSS2_T, _GAUSS2_W, _TRI_MID_W, NormReport
from crackfem.assembly import _canonical_segment_order
from crackfem.mesh import _vertex_neighborhood

# barycentric weights of the degree-2 rule of ``error_norms``: point q is the
# midpoint of the edge from corner q to corner q + 1 (mod 3)
_TRI_MID_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])

# degree-5 exact 7-point rule
_S15 = np.sqrt(15.0)
_A1 = (6.0 - _S15) / 21.0
_A2 = (6.0 + _S15) / 21.0
_TRI7_BARY = np.array(
    [[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]]
    + [np.roll([1.0 - 2.0 * _A1, _A1, _A1], i).tolist() for i in range(3)]
    + [np.roll([1.0 - 2.0 * _A2, _A2, _A2], i).tolist() for i in range(3)]
)
_TRI7_W = np.concatenate(
    [[9.0 / 40.0], np.full(3, (155.0 - _S15) / 1200.0), np.full(3, (155.0 + _S15) / 1200.0)]
)

# four-point Gauss rule on [0, 1]
_G4 = np.array([0.3399810435848563, 0.8611363115940526])
_GAUSS4_T = 0.5 + 0.5 * np.array([-_G4[1], -_G4[0], _G4[0], _G4[1]])
_GAUSS4_W = 0.5 * np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)


def _subdivided_rule(levels: int):
    """Degree-5 rule replicated over a uniform 4^levels subdivision."""
    tris = [np.eye(3)]
    for _ in range(levels):
        finer = []
        for t in tris:
            m01 = 0.5 * (t[0] + t[1])
            m12 = 0.5 * (t[1] + t[2])
            m20 = 0.5 * (t[2] + t[0])
            finer.extend(
                [
                    np.array([t[0], m01, m20]),
                    np.array([m01, t[1], m12]),
                    np.array([m20, m12, t[2]]),
                    np.array([m01, m12, m20]),
                ]
            )
        tris = finer
    scale = 0.25**levels
    bary = np.vstack([_TRI7_BARY @ t for t in tris])
    w = np.tile(_TRI7_W * scale, len(tris))
    return bary, w


def continuous_gradient_integrals(
    mesh, exact, refine_triangles=None, levels: int = 4
) -> np.ndarray:
    """Per-triangle integral of the exact gradient, shape (m, 2).

    Triangles listed in ``refine_triangles`` (typically the ones the
    interface crosses, where the gradient has a kink) are integrated on a
    uniformly subdivided degree-5 rule; the rest use the plain rule.
    """
    coords = mesh.vertices[mesh.triangles]
    area = mesh.triangle_areas()
    out = np.zeros((mesh.n_triangles, 2))

    def accumulate(ids, bary, w):
        pts = np.einsum("qi,mid->mqd", bary, coords[ids])
        g = exact_gradient(exact, pts.reshape(-1, 2)).reshape(pts.shape)
        out[ids] = np.einsum("mqd,q,m->md", g, w, area[ids])

    all_ids = np.arange(mesh.n_triangles)
    if refine_triangles is None or len(refine_triangles) == 0:
        accumulate(all_ids, _TRI7_BARY, _TRI7_W)
        return out
    refine_triangles = np.asarray(refine_triangles)
    plain = np.setdiff1d(all_ids, refine_triangles)
    accumulate(plain, _TRI7_BARY, _TRI7_W)
    bary, w = _subdivided_rule(levels)
    accumulate(refine_triangles, bary, w)
    return out


def continuous_tangential_integrals(crack: SegmentedCrack, exact) -> np.ndarray:
    """Per-segment integral of the exact tangential derivative, shape (s,)."""
    if crack.n_segments == 0:
        return np.empty(0)
    a = crack.points[:, 0, :]
    d = crack.points[:, 1, :] - crack.points[:, 0, :]
    spts = a[:, None, :] + _GAUSS4_T[None, :, None] * d[:, None, :]
    g = exact_gradient(exact, spts.reshape(-1, 2)).reshape(spts.shape)
    t = crack.tangents()
    gt = np.einsum("sd,sqd->sq", t, g)
    return np.einsum("sq,q,s->s", gt, _GAUSS4_W, crack.length)


def continuous_form_apply(
    mesh, crack, coeffs, exact, vectors, refine_triangles=None, levels: int = 4
) -> np.ndarray:
    """A(u, v_h) for exact u and nodal test vectors, shape (k,).

    The bulk term reduces to a_T grad(v_h) . integral(grad u) because P1
    test gradients are constant per element; likewise on segments.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    grads = hat_gradients_rows(mesh)
    coords = mesh.vertices[mesh.triangles]
    a_elem = coeffs.element_permeability(mesh)
    bulk_int = continuous_gradient_integrals(mesh, exact, refine_triangles, levels)
    gv = np.einsum("kti,tid->ktd", vectors[:, mesh.triangles], grads)
    total = np.einsum("ktd,td,t->k", gv, bulk_int, a_elem)
    if crack is not None and crack.n_segments:
        seg_int = continuous_tangential_integrals(crack, exact)
        own = crack.triangle_index
        t = crack.tangents()
        gt_v = np.einsum("ksd,sd->ks", gv[:, own, :], t)
        total += np.einsum("ks,s,s->k", gt_v, seg_int, crack.permeability())
    return total


def energy_by_expansion(solution, exact, crack, coeffs) -> float:
    """Energy error via A(u,u) - 2 A(u,u_h) + A(u_h,u_h) on the standard rule.

    Uses the same quadrature points as error_norms, with the discrete term
    evaluated exactly through the assembled operator identity
    A(u_h, u_h) = sum over elements and segments of constant integrands.
    """
    mesh = solution.mesh
    if coeffs is None:
        coeffs = Coefficients()
    coords = mesh.vertices[mesh.triangles]
    area = mesh.triangle_areas()
    a_elem = coeffs.element_permeability(mesh)
    pts = np.einsum("qi,mid->mqd", _TRI_MID_BARY, coords)
    gex = exact_gradient(exact, pts.reshape(-1, 2)).reshape(pts.shape)
    gh = solution_gradients_einsum(solution)
    g2 = np.einsum("mqd,mqd->mq", gex, gex)
    cross = np.einsum("mqd,md->mq", gex, gh)
    hh = np.einsum("md,md->m", gh, gh)
    total = float(np.einsum("mq,q,m->", g2, _TRI_MID_W, area * a_elem))
    total -= 2.0 * float(np.einsum("mq,q,m->", cross, _TRI_MID_W, area * a_elem))
    total += float(hh @ (area * a_elem))
    if crack is not None and crack.n_segments:
        a = crack.points[:, 0, :]
        d = crack.points[:, 1, :] - crack.points[:, 0, :]
        spts = a[:, None, :] + _GAUSS2_T[None, :, None] * d[:, None, :]
        gex_s = exact_gradient(exact, spts.reshape(-1, 2)).reshape(spts.shape)
        t = crack.tangents()
        gt_ex = np.einsum("sd,sqd->sq", t, gex_s)
        gt_h = np.einsum("sd,sd->s", t, gh[crack.triangle_index])
        wl = crack.length * crack.permeability()
        total += float(np.einsum("sq,q,s->", gt_ex**2, _GAUSS2_W, wl))
        total -= 2.0 * float(np.einsum("sq,q,s->", gt_ex * gt_h[:, None], _GAUSS2_W, wl))
        total += float((gt_h**2) @ wl)
    return float(np.sqrt(max(total, 0.0)))


def fine_error_norms(solution, exact, crack, coeffs) -> dict:
    """The four norms of ``error_norms`` on finer rules: the degree-5 bulk
    rule and four-point Gauss on segments."""
    mesh = solution.mesh
    coords = mesh.vertices[mesh.triangles]
    area = mesh.triangle_areas()
    a_elem = coeffs.element_permeability(mesh)
    pts = np.einsum("qi,mid->mqd", _TRI7_BARY, coords)
    uh = np.einsum("qi,mi->mq", _TRI7_BARY, solution.values[mesh.triangles])
    uex = exact.value(pts.reshape(-1, 2)).reshape(uh.shape)
    gh = solution_gradients_einsum(solution)
    gdiff = gh[:, None, :] - exact_gradient(exact, pts.reshape(-1, 2)).reshape(pts.shape)
    gdiff2 = np.einsum("mqd,mqd->mq", gdiff, gdiff)
    l2_sq = np.einsum("mq,q,m->", (uh - uex) ** 2, _TRI7_W, area)
    h1_sq = np.einsum("mq,q,m->", gdiff2, _TRI7_W, area)
    energy_sq = np.einsum("mq,q,m->", gdiff2, _TRI7_W, area * a_elem)
    l2c_sq = 0.0
    if crack is not None and crack.n_segments:
        a = crack.points[:, 0, :]
        d = crack.points[:, 1, :] - a
        spts = a[:, None, :] + _GAUSS4_T[None, :, None] * d[:, None, :]
        own = crack.triangle_index
        phi = mesh.hat_values(own, spts)
        uh_s = np.einsum("sqi,si->sq", phi, solution.values[mesh.triangles[own]])
        uex_s = exact.value(spts.reshape(-1, 2)).reshape(uh_s.shape)
        l2c_sq = np.einsum("sq,q,s->", (uh_s - uex_s) ** 2, _GAUSS4_W, crack.length)
        t = crack.tangents()
        gex_s = exact_gradient(exact, spts.reshape(-1, 2)).reshape(spts.shape)
        gt_h = np.einsum("sd,sd->s", t, gh[own])
        gt_ex = np.einsum("sd,sqd->sq", t, gex_s)
        wl = crack.length * crack.permeability()
        energy_sq += np.einsum("sq,q,s->", (gt_h[:, None] - gt_ex) ** 2, _GAUSS4_W, wl)
    return {
        name: float(np.sqrt(value))
        for name, value in (
            ("l2", l2_sq),
            ("h1_semi", h1_sq),
            ("l2_crack", l2c_sq),
            ("energy", energy_sq),
        )
    }


def element_gradients(coords):
    """Hat-function gradients and area of one CCW triangle.

    Returns (grads, area) with grads[i] the constant gradient of the hat
    function of vertex i: the opposite edge rotated a quarter turn, divided
    by twice the area.
    """
    coords = np.asarray(coords, dtype=float).reshape(3, 2)
    d1 = coords[1] - coords[0]
    d2 = coords[2] - coords[0]
    area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
    if area <= 0.0:
        raise ValueError("triangle is degenerate or clockwise")
    grads = np.empty((3, 2))
    for i in range(3):
        e = coords[(i + 2) % 3] - coords[(i + 1) % 3]
        grads[i] = np.array([-e[1], e[0]]) / (2.0 * area)
    return grads, area


def bulk_element_matrix(coords, a: float = 1.0):
    """Stiffness a * area * G G^T of one triangle."""
    grads, area = element_gradients(coords)
    return a * area * (grads @ grads.T)


def interface_segment_matrix(coords, segment, a_seg: float = 1.0):
    """Tangential stiffness of one crack segment inside one triangle.

    Rank one and positive semidefinite: a_seg * |S| * (G t)(G t)^T with t the
    unit tangent of the segment and G the owning triangle's hat gradients.
    """
    grads, _ = element_gradients(coords)
    seg = np.asarray(segment, dtype=float).reshape(2, 2)
    d = seg[1] - seg[0]
    length = float(np.hypot(d[0], d[1]))
    if length == 0.0:
        return np.zeros((3, 3))
    t = d / length
    w = grads @ t
    return a_seg * length * np.outer(w, w)


def segment_triangle_intersection(p, q, triangle, tol: float | None = None):
    """Portion of segment [p, q] inside a closed triangle, or None.

    The result is at most one sub-segment, returned as a (2, 2) array whose
    endpoints follow the lexicographically smaller input endpoint, so swapping
    p and q returns the identical point set. Contacts within ``tol`` of the
    boundary count as intersections and may come back degenerate (a point).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    tri = np.asarray(triangle, dtype=float).reshape(3, 2)
    if tol is None:
        tol = REL_TOL * max(bbox_diameter(np.vstack([tri, p, q])), 1.0)
    if tuple(q) < tuple(p):
        p, q = q, p
    lo, hi, touched, _ = clip_segments_to_triangles(p[None], q[None], tri[None], tol)
    if not touched[0]:
        return None
    d = q - p
    return np.array([p + lo[0] * d, p + hi[0] * d])


def points_in_triangle(points, tri, tol):
    """Closed-set membership of points in a single CCW triangle."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    inside = np.ones(len(pts), dtype=bool)
    for i in range(3):
        a = tri[i]
        e = tri[(i + 1) % 3] - a
        f = e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])
        inside &= f >= -tol * np.hypot(e[0], e[1])
    return inside


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


def points_in_polygon_loop(pts, poly):
    """Even-odd rule against a closed polyline (first point == last), every
    edge tested against every point."""
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
        inside = points_in_polygon_loop(pts, poly)
        best = np.where(inside, best, -best)
    if single:
        return float(best[0])
    return best


def edge_pairs(mesh: Mesh):
    """Undirected edges as (e, 2) vertex pairs (a < b), read off the
    triangles through ``mesh.edge_map()``, plus that map: edge i of a
    triangle runs from its corner (i + 1) % 3 to (i + 2) % 3."""
    t, t2e = mesh.triangles, mesh.edge_map()
    pairs = np.empty((t2e.max(initial=-1) + 1, 2), dtype=np.int64)
    for i in range(3):
        pairs[t2e[:, i]] = np.sort(t[:, [(i + 1) % 3, (i + 2) % 3]], axis=1)
    return pairs, t2e


def validate_mesh(mesh: Mesh) -> None:
    """Raise MeshError on any violated invariant of a conforming mesh."""
    if not np.isfinite(mesh.vertices).all():
        raise MeshError("non-finite vertex coordinates")
    if mesh.triangles.min(initial=0) < 0 or (
        mesh.triangles.max(initial=-1) >= mesh.n_vertices
    ):
        raise MeshError("triangle vertex index out of range")
    if (mesh.triangle_areas() <= 0.0).any():
        raise MeshError("non-positive triangle area (orientation broken)")
    # edges numbered afresh: a carried map is what the check must not trust
    pairs, t2e = edge_pairs(Mesh(mesh.vertices, mesh.triangles, mesh.lattice))
    counts = np.bincount(t2e.ravel(), minlength=len(pairs))
    if (counts > 2).any():
        raise MeshError("edge shared by more than two triangles")
    # an edge of one triangle must lie on a side of the lattice box;
    # elsewhere it means a hanging node or a hole
    once = pairs[counts == 1]
    ends = mesh.vertices[once.T]
    xs, ys, _ = mesh.lattice
    on_box = np.zeros(len(once), dtype=bool)
    for axis, line in ((0, xs[0]), (0, xs[-1]), (1, ys[0]), (1, ys[-1])):
        on_box |= (ends[:, :, axis] == line).all(axis=0)
    if not on_box.all():
        raise MeshError("non-conforming mesh: single edge off the lattice box")


def side_vertices(mesh: Mesh, bounds) -> dict:
    """Vertex ids, sorted, on each side of the rectangle bounds (xmin, xmax,
    ymin, ymax), by name: the end points of the edges of one triangle whose
    two end points lie on that side's line."""
    pairs, t2e = edge_pairs(mesh)
    ends = pairs[np.bincount(t2e.ravel(), minlength=len(pairs)) == 1]
    xmin, xmax, ymin, ymax = bounds
    sides = {}
    for side, axis, line in (
        ("left", 0, xmin),
        ("right", 0, xmax),
        ("bottom", 1, ymin),
        ("top", 1, ymax),
    ):
        on = (mesh.vertices[ends][:, :, axis] == line).all(axis=1)
        sides[side] = np.unique(ends[on])
    return sides


def locate_points(mesh: Mesh, points) -> np.ndarray:
    """Containing triangle per point (lowest index wins), -1 if outside."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    hits = mesh.incidence(pts, pts)
    # pairs are sorted by (point, triangle): the first of each point wins
    found, first = np.unique(hits.part, return_index=True)
    where = np.full(len(pts), -1, dtype=np.int64)
    where[found] = hits.tri[first]
    return where


def evaluate_field(solution, points):
    """Point values of a P1 field by barycentric interpolation: a float
    for one point, else (k,)."""
    mesh = solution.mesh
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = pts.reshape(-1, 2)
    where = locate_points(mesh, pts)
    if (where < 0).any():
        bad = pts[where < 0][0]
        raise ValueError(f"point {bad.tolist()} lies outside the mesh")
    phi = mesh.hat_values(where, pts)
    vals = np.einsum("pi,pi->p", phi, solution.values[mesh.triangles[where]])
    return float(vals[0]) if single else vals


def node_chains(graph: CrackGraph, node: int) -> list[int]:
    """Indices of chains incident to the node (closed loops count once)."""
    return [j for j in range(graph.n_chains) if node in graph.chain_nodes[j]]


def node_degree(graph: CrackGraph, node: int) -> int:
    return int((graph.chain_nodes == node).sum())


@dataclass
class DofProfile:
    """Vertex and triangle counts split into near-crack and total."""

    n_vertices: int
    n_triangles: int
    n_near_crack_vertices: int
    n_crack_triangles: int


def dof_count_profile(mesh: Mesh, crack: CrackGraph) -> DofProfile:
    """Counts backing the N ~ h^-2 + crack_h^-1 storage accounting."""
    marked = mark_crack_elements(mesh.incidence(*crack.parts()))
    if marked.size == 0:
        return DofProfile(mesh.n_vertices, mesh.n_triangles, 0, 0)
    band = _vertex_neighborhood(mesh, marked)
    near = np.unique(mesh.triangles[band].ravel())
    return DofProfile(mesh.n_vertices, mesh.n_triangles, len(near), len(marked))


def refine_marked_table(mesh: Mesh, marked):
    """``refine_marked`` with both bisections of a triangle spelled out as a
    table of six child cases.

    All marked triangles are bisected at their refinement edges; the closure
    marks the refinement edge of any triangle with a marked edge, so the
    output is conforming. Vertices of the input keep their indices, and the
    midpoints follow in (a, b) order of the split edges (a < b).

    The output carries its edge map (``Mesh.edge_map``) and tolerance.
    Kept edges keep their ids; a split edge (a, b) with midpoint m keeps its
    id for (a, m), and (b, m) is appended, in midpoint order; then come the
    edges inside bisected triangles: (v0, m0) of each, then (m1, m0) and
    (m2, m0) of those whose edge 1 or 2 is split.

    Returns (refined, parent): ``parent[i]`` is the input triangle that
    output triangle i lies in. Children of one parent are consecutive, in
    parent order, so ``parent`` is non-decreasing.
    """
    marked = np.asarray(marked)
    if marked.size == 0:
        return mesh, np.arange(mesh.n_triangles)
    t = mesh.triangles
    n, m = mesh.n_vertices, mesh.n_triangles
    pairs, t2e = edge_pairs(mesh)
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

    flags = edge_marked[t2e]
    counts = 1 + flags.sum(axis=1)
    first = np.cumsum(counts) - counts
    # kept triangles in place; the children below fill every slot of the rest
    out = np.repeat(t, counts, axis=0)
    out_t2e = np.repeat(t2e, counts, axis=0)

    # bisected triangles: the child (m0, v0, v1) at the left of the first
    # bisection, split again at m2 when edge 2 is marked, then the right
    # child (m0, v2, v0), split again at m1 when edge 1 is marked
    cut = np.nonzero(counts > 1)[0]
    v0, v1, v2 = t[cut].T
    e0, e1, e2 = t2e[cut].T
    f1, f2 = flags[cut, 1], flags[cut, 2]
    m0, m1, m2 = edge_newv[e0], edge_newv[e1], edge_newv[e2]

    def half(e, v):
        """Id of the half of split edge e that ends at vertex v."""
        return np.where(pairs[e, 0] == v, e, n_edges + edge_newv[e] - n)

    a0, b0 = half(e0, v1), half(e0, v2)
    a1, b1 = half(e1, v2), half(e1, v0)
    a2, b2 = half(e2, v0), half(e2, v1)
    base = n_edges + n_split
    i0 = base + np.arange(len(cut))
    i1 = base + len(cut) + np.cumsum(f1) - 1
    i2 = base + len(cut) + int(f1.sum()) + np.cumsum(f2) - 1
    left, right = first[cut], first[cut] + 1 + f2
    for mask, rows, corners, edges in (
        (~f2, left, (m0, v0, v1), (e2, a0, i0)),
        (f2, left, (m2, m0, v0), (i0, a2, i2)),
        (f2, left + 1, (m2, v1, m0), (a0, i2, b2)),
        (~f1, right, (m0, v2, v0), (e1, i0, b0)),
        (f1, right, (m1, m0, v2), (b0, a1, i1)),
        (f1, right + 1, (m1, v0, m0), (i0, i1, b1)),
    ):
        out[rows[mask]] = np.column_stack([c[mask] for c in corners])
        out_t2e[rows[mask]] = np.column_stack([e[mask] for e in edges])

    refined = Mesh(vertices, out)
    refined._edges = out_t2e
    return refined, np.repeat(np.arange(m), counts)


def refine_marked_two_steps(mesh: Mesh, marked):
    """``refine_marked`` as two whole-mesh bisection steps: each repeats
    every row of the triangles, their edge ids and the parent map (a
    two-dimensional ``np.repeat``), then writes the children of the
    bisected rows as stacked rows. The same closure, midpoints, edge map,
    lattice cells and parent map, bit for bit.
    """
    marked = np.asarray(marked)
    m = mesh.n_triangles
    if marked.size == 0:
        return mesh, np.arange(m)
    n = mesh.n_vertices
    pairs, t2e = edge_pairs(mesh)
    n_edges = len(pairs)
    edge_marked = np.zeros(n_edges, dtype=bool)
    edge_marked[t2e[marked, 0]] = True
    while True:
        need = (edge_marked[t2e[:, 1]] | edge_marked[t2e[:, 2]]) & ~edge_marked[t2e[:, 0]]
        if not need.any():
            break
        edge_marked[t2e[need, 0]] = True

    split = np.nonzero(edge_marked)[0]
    split = split[np.argsort(pairs[split, 0] * n + pairs[split, 1])]
    new_ids = n + np.arange(len(split))
    edge_newv = np.full(n_edges, -1, dtype=np.int64)
    edge_newv[split] = new_ids
    vertices = np.vstack([mesh.vertices, mesh.vertices[pairs[split]].mean(axis=1)])

    def half(e, v):
        """Id of the half of split edge e that ends at vertex v."""
        return np.where(pairs[e, 0] == v, e, n_edges + edge_newv[e] - n)

    out, out_t2e, parent = mesh.triangles, t2e, np.arange(m)
    n_out_edges = n_edges + len(split)
    # (v0, v1, v2) with midpoint m of (v1, v2) becomes (m, v0, v1) and (m, v2, v0),
    # whose refinement edges are input edges: the second step needs no closure
    for _ in range(2):
        bisect = edge_marked[out_t2e[:, 0]]
        cut = np.nonzero(bisect)[0]
        v0, v1, v2 = out[cut].T
        e0, e1, e2 = out_t2e[cut].T
        mid = edge_newv[e0]
        new = n_out_edges + np.arange(len(cut))
        n_out_edges += len(cut)
        out = np.repeat(out, 1 + bisect, axis=0)
        out_t2e = np.repeat(out_t2e, 1 + bisect, axis=0)
        parent = np.repeat(parent, 1 + bisect)
        left = cut + np.arange(len(cut))
        out[left] = np.column_stack([mid, v0, v1])
        out[left + 1] = np.column_stack([mid, v2, v0])
        out_t2e[left] = np.column_stack([e2, half(e0, v1), new])
        out_t2e[left + 1] = np.column_stack([e1, new, half(e0, v2)])
    lattice = mesh.lattice._replace(cells=mesh.lattice.triangle_cells(m)[parent])
    refined = Mesh(vertices, out, lattice)
    refined._edges = out_t2e
    return refined, parent


def clip_segments_per_edge(p, q, tris, tol):
    """``clip_segments_to_triangles`` one edge at a time on the strided
    columns of the (k, 3, 2) corners, masking each edge's bounds with
    ``np.where``: the same intervals and masks, bit for bit."""
    k = tris.shape[0]
    lo = np.zeros((3, k))
    hi = np.ones((3, k))
    cross = lambda e, v, a: e[:, 0] * (v[:, 1] - a[:, 1]) - e[:, 1] * (v[:, 0] - a[:, 0])
    for i in range(3):
        a, b = tris[:, i, :], tris[:, (i + 1) % 3, :]
        e = b - a
        f0 = 0.5 * (cross(e, p, a) + cross(e, p, b))
        f1 = 0.5 * (cross(e, q, a) + cross(e, q, b))
        length = np.linalg.norm(e, axis=1)
        theta = np.stack([np.zeros(k), -tol * length, -REACH * tol * length])
        denom = f1 - f0
        flat = np.abs(denom) <= tol * length
        safe = np.where(flat, 1.0, denom)
        t = (theta - f0) / safe
        rising = denom > 0
        lo = np.where(~flat & rising, np.maximum(lo, t), lo)
        hi = np.where(~flat & ~rising, np.minimum(hi, t), hi)
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


def _dedupe_sorted(values: np.ndarray, tol: float) -> np.ndarray:
    """Drop each sorted value within tol of the one before it."""
    kept = [values[0]]
    for before, v in zip(values[:-1], values[1:]):
        if v - before > tol:
            kept.append(v)
    return np.asarray(kept)


def cut_chains_per_part(mesh, crack: CrackGraph, hits) -> SegmentedCrack:
    """``cut_chains`` one polyline part at a time."""
    tol = mesh.tolerance
    pts = [c.points for c in crack.chains]
    starts, ends = crack.parts()
    chain_of = np.concatenate([np.full(len(c) - 1, j) for j, c in enumerate(pts)])
    part_of = np.concatenate([np.arange(len(c) - 1) for c in pts])
    plen = np.linalg.norm(ends - starts, axis=1)
    cut = np.nonzero(plen > tol)[0]
    if hits is None:
        hits = mesh.incidence(starts, ends)
    bounds = np.searchsorted(hits.part, np.arange(len(starts) + 1))
    tri_idx, seg_pts, seg_len, seg_chain = [], [], [], []
    for k in cut:
        at = slice(bounds[k], bounds[k + 1])
        owners, lo, hi = hits.tri[at], hits.lo[at], hits.hi[at]
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
        graph=crack,
    )


def value_inner(exact, r):
    """The inner branch of an ``ExactRadialSolution`` at radii r."""
    return exact._c1 * np.log(r)


def value_outer(exact, r):
    """The outer branch of an ``ExactRadialSolution`` at radii r."""
    return exact._c2 * (np.log(r) - 1.25) + 1.0


def gradient_inner(exact, points) -> np.ndarray:
    """Gradient of the inner branch of an ``ExactRadialSolution``."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    r = np.hypot(pts[:, 0], pts[:, 1])
    return (exact._c1 / r**2)[:, None] * pts


def gradient_outer(exact, points) -> np.ndarray:
    """Gradient of the outer branch of an ``ExactRadialSolution``."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    r = np.hypot(pts[:, 0], pts[:, 1])
    return (exact._c2 / r**2)[:, None] * pts


def radial_flux_jump(exact, angles) -> np.ndarray:
    """Jump of the radial flux across the circle at the given angles:
    the outer one-sided limit of du/dr minus the inner one (unit bulk
    permeability). Equals -1, so a unit interface source balances it."""
    angles = np.asarray(angles, dtype=float)
    e = exact.interface_radius
    return np.full(angles.shape, (exact._c2 - exact._c1) / e)


def min_angle(mesh: Mesh) -> float:
    """Smallest interior angle over all triangles, in degrees."""
    v = mesh.vertices[mesh.triangles]
    angles = np.empty((mesh.n_triangles, 3))
    for i in range(3):
        a = v[:, (i + 1) % 3] - v[:, i]
        b = v[:, (i + 2) % 3] - v[:, i]
        cosang = np.einsum("ij,ij->i", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        )
        angles[:, i] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(angles.min())


def export_mesh_text(mesh: Mesh, path) -> None:
    """The plain-text mesh written one f-string per line."""
    lines = [f"vertices {mesh.n_vertices} / triangles {mesh.n_triangles}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for a, b, c in mesh.triangles:
        lines.append(f"{a} {b} {c}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def export_vtk(mesh: Mesh, path, solution=None) -> None:
    """The legacy ASCII VTK grid written one f-string per line."""
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
    if solution is not None:
        lines.append(f"POINT_DATA {mesh.n_vertices}")
        lines.append("SCALARS u double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{float(v)!r}" for v in solution.values)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def export_solution_text(solution, path) -> None:
    """The ``# x y u`` solution rows written one f-string per line."""
    lines = ["# x y u"]
    for (x, y), u in zip(solution.mesh.vertices, solution.values):
        lines.append(f"{float(x)!r} {float(y)!r} {float(u)!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def vertex_neighborhood_any(mesh: Mesh, tri_ids) -> np.ndarray:
    """Triangles sharing at least one vertex with the given set, by
    ``.any(axis=1)`` over the (m, 3) corner gather of the set's vertex mask."""
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    mask[mesh.triangles[tri_ids].ravel()] = True
    return np.nonzero(mask[mesh.triangles].any(axis=1))[0]


def splu_default_solve(A, b) -> np.ndarray:
    """Solve A x = b with SuperLU's defaults: COLAMD column ordering and
    partial pivoting, the factorization ``solve`` used before it ordered
    A + A^T symmetrically."""
    return spla.splu(A.tocsc()).solve(b)


def triangle_areas_rows(mesh: Mesh) -> np.ndarray:
    """Triangle areas from the (m, 3, 2) corner gather."""
    v = mesh.vertices[mesh.triangles]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def hat_gradients_rows(mesh: Mesh, tri_ids=slice(None)) -> np.ndarray:
    """Hat gradients from the (k, 3, 2) corner gather, divided in place."""
    v = mesh.vertices[mesh.triangles[tri_ids]]
    grads = np.empty(v.shape)
    for i in range(3):
        e = v[:, (i + 2) % 3] - v[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * mesh.triangle_areas()[tri_ids])[:, None, None]
    return grads


def triangle_diameters_norm(mesh: Mesh, tri_ids=slice(None)) -> np.ndarray:
    """Longest edge per triangle as the largest of three edge norms."""
    v = mesh.vertices[mesh.triangles[tri_ids]]
    return np.linalg.norm(np.roll(v, -1, axis=1) - v, axis=2).max(axis=1)


def eliminate_by_products(K0, cons):
    """Symmetric elimination as the sparse products P K0 P + D, with P the
    free-vertex and D the constrained-vertex diagonal."""
    free_mask = np.ones(K0.shape[0])
    free_mask[cons] = 0.0
    P = sp.diags(free_mask, format="csr")
    D = sp.diags(1.0 - free_mask, format="csr")
    K = (P @ K0 @ P + D).tocsr()
    K.sum_duplicates()
    K.sort_indices()
    return K


def assemble_operator_coo(mesh: Mesh, crack: SegmentedCrack, coeffs) -> sp.csr_matrix:
    """The unconstrained stiffness as one COO matrix of every element block,
    (m, 3, 3) by einsum then the segment blocks, each row-major, summed by
    one CSR conversion."""
    m = mesh.n_triangles
    tri = mesh.triangles
    seg_local = np.empty((0, 3, 3))
    if crack.n_segments:
        order = _canonical_segment_order(crack)
        perm = crack.permeability()[order]
        active = perm > 0.0
        order = order[active]
        if order.size:
            perm = perm[active]
            own = crack.triangle_index[order]
            d = crack.points[order, 1, :] - crack.points[order, 0, :]
            length = np.linalg.norm(d, axis=1)
            t = d / length[:, None]
            w = np.einsum("sid,sd->si", hat_gradients_rows(mesh, own), t)
            seg_local = np.einsum("s,si,sj->sij", perm * length, w, w)
            tri = np.concatenate([tri, tri[own]])
    local = np.empty((len(tri), 3, 3))
    weight = coeffs.element_permeability(mesh) * mesh.triangle_areas()
    grads = hat_gradients_rows(mesh)
    np.einsum("t,tid,tjd->tij", weight, grads, grads, out=local[:m])
    local[m:] = seg_local
    n = mesh.n_vertices
    tri = tri.astype(np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    return sp.coo_matrix(
        (
            local.ravel(),
            (np.repeat(tri, 3, axis=1).ravel(), np.tile(tri, (1, 3)).ravel()),
        ),
        shape=(n, n),
    ).tocsr()


def solution_gradients_einsum(solution) -> np.ndarray:
    """Per-triangle gradients of a P1 field as one einsum."""
    u = solution.values[solution.mesh.triangles]
    return np.einsum("ti,tid->td", u, hat_gradients_rows(solution.mesh))


def midpoint_rule_values(solution):
    """Points (m, 3, 2) and field values (m, 3) of the bulk rule of
    ``error_norms``, by einsum over its barycentric weights."""
    mesh = solution.mesh
    pts = np.einsum("qi,mid->mqd", _TRI_MID_BARY, mesh.vertices[mesh.triangles])
    uh = np.einsum("qi,mi->mq", _TRI_MID_BARY, solution.values[mesh.triangles])
    return pts, uh


def error_norms_einsum(solution, exact, crack=None, coeffs=None, level=0):
    """``error_norms`` with its bulk rule applied by einsum over the
    barycentric weights and the (m, 3, 2) corner gather."""
    mesh = solution.mesh
    if coeffs is None:
        coeffs = Coefficients()
    bw = _TRI_MID_W
    area = mesh.triangle_areas()
    pts, uh = midpoint_rule_values(solution)
    uex = exact.value(pts.reshape(-1, 2)).reshape(uh.shape)
    l2_sq = float(np.einsum("mq,q,m->", (uh - uex) ** 2, bw, area))
    gh = solution_gradients_einsum(solution)
    gdiff = gh[:, None, :] - exact_gradient(exact, pts.reshape(-1, 2)).reshape(pts.shape)
    gdiff2 = np.einsum("mqd,mqd->mq", gdiff, gdiff)
    h1_sq = float(np.einsum("mq,q,m->", gdiff2, bw, area))
    a_elem = coeffs.element_permeability(mesh)
    energy_sq = float(np.einsum("mq,q,m->", gdiff2, bw, area * a_elem))
    l2c_sq = 0.0
    h_crack = float(triangle_diameters_norm(mesh).max())
    h = h_crack
    if crack is not None and crack.n_segments:
        a = crack.points[:, 0, :]
        d = crack.points[:, 1, :] - crack.points[:, 0, :]
        spts = a[:, None, :] + _GAUSS2_T[None, :, None] * d[:, None, :]
        own = crack.triangle_index
        phi = mesh.hat_values(own, spts)
        uh_s = np.einsum("sqi,si->sq", phi, solution.values[mesh.triangles[own]])
        uex_s = exact.value(spts.reshape(-1, 2)).reshape(uh_s.shape)
        l2c_sq = float(
            np.einsum("sq,q,s->", (uh_s - uex_s) ** 2, _GAUSS2_W, crack.length)
        )
        t = crack.tangents()
        gt_h = np.einsum("sd,sd->s", t, gh[own])
        gex_s = exact_gradient(exact, spts.reshape(-1, 2)).reshape(spts.shape)
        gt_ex = np.einsum("sd,sqd->sq", t, gex_s)
        tdiff2 = (gt_h[:, None] - gt_ex) ** 2
        wl = crack.length * crack.permeability()
        energy_sq += float(np.einsum("sq,q,s->", tdiff2, _GAUSS2_W, wl))
        diam = triangle_diameters_norm(mesh, np.unique(crack.triangle_index))
        h_crack = float(diam.max())
    return NormReport(
        level=level,
        h=h,
        h_crack=h_crack,
        n_dofs=mesh.n_vertices,
        l2=float(np.sqrt(l2_sq)),
        h1_semi=float(np.sqrt(h1_sq)),
        l2_crack=float(np.sqrt(l2c_sq)),
        energy=float(np.sqrt(energy_sq)),
    )


def dst1_per_call(x):
    """Minus the DST-I of each row of x, from a freshly allocated zero-padded
    copy: the imaginary part of the rfft of the row after one zero, padded
    to length 2 (n + 1)."""
    ext = np.zeros((x.shape[0], x.shape[1] + 1))
    ext[:, 1:] = x  # C order, so rows are contiguous also for a transposed x
    return np.fft.rfft(ext, 2 * ext.shape[1])[:, 1:-1].imag


def stencil_solver_per_call(nx, ny, hx, hy, a):
    """The 2-D DST-I inverse of ``a`` times the 5-point stencil, allocating
    every transform's input and output anew."""
    lam = lambda n, r: r * (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n) / n))
    scale = 4.0 / (nx * ny) / (a * (lam(ny, hx / hy)[:, None] + lam(nx, hy / hx)))
    dst2 = lambda x: dst1_per_call(dst1_per_call(x.T).T)
    return lambda r: dst2(dst2(r.reshape(ny - 1, nx - 1)) * scale).ravel()


def exact_value(exact, points) -> np.ndarray:
    """Value of an exact solution at (k, 2) points, each branch or factor
    evaluated on its own."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if isinstance(exact, SineProductSolution):
        return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    r = np.hypot(pts[:, 0], pts[:, 1])
    return np.where(
        r <= exact.interface_radius, value_inner(exact, r), value_outer(exact, r)
    )


def exact_gradient(exact, points) -> np.ndarray:
    """Gradient of an exact field at (k, 2) points, shape (k, 2): for the
    package's two solutions the separate formula each had before
    ``value_and_gradient``, for any other field its ``value_and_gradient``."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if isinstance(exact, SineProductSolution):
        sx, cx = np.sin(np.pi * pts[:, 0]), np.cos(np.pi * pts[:, 0])
        sy, cy = np.sin(np.pi * pts[:, 1]), np.cos(np.pi * pts[:, 1])
        return np.pi * np.column_stack([cx * sy, sx * cy])
    if isinstance(exact, ExactRadialSolution):
        r = np.hypot(pts[:, 0], pts[:, 1])
        c = np.where(r <= exact.interface_radius, exact._c1, exact._c2)
        return (c / r**2)[:, None] * pts
    _, gx, gy = exact.value_and_gradient(pts[:, 0], pts[:, 1])
    return np.column_stack([gx, gy])
