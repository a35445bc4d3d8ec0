"""Independent reference computations used only by the tests.

These reproduce quantities the package computes (or checks it against) by a
different route: continuous Galerkin forms on subdivided quadrature, the
energy error by expansion, the error norms on finer rules, the P1 gradients
and stiffness matrices of a single element, a single segment/triangle clip,
point membership in one triangle, node incidence of a crack graph,
near-crack degree-of-freedom counts, one generation of newest-vertex
bisection as a table of six child cases, the chain cut one part at a time,
straight parametric segments, the one-sided branches of the radial exact
solution, the smallest angle of a mesh, the three text exports written one
f-string per line, and the direct solve with SuperLU's default column
ordering and partial pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from crackfem import (
    Coefficients,
    CrackGeometryError,
    CrackGraph,
    Mesh,
    SegmentedCrack,
    mark_crack_elements,
)
from crackfem._geom import REL_TOL, bbox_diameter, clip_segments_to_triangles
from crackfem.analysis import _GAUSS2_T, _GAUSS2_W, _TRI_MID_BARY, _TRI_MID_W
from crackfem.mesh import _vertex_neighborhood

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
        g = exact.gradient(pts.reshape(-1, 2)).reshape(pts.shape)
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
    g = exact.gradient(spts.reshape(-1, 2)).reshape(spts.shape)
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
    grads = mesh.hat_gradients()
    coords = mesh.vertices[mesh.triangles]
    a_elem = coeffs.element_permeability(coords.mean(axis=1))
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
    a_elem = coeffs.element_permeability(coords.mean(axis=1))
    pts = np.einsum("qi,mid->mqd", _TRI_MID_BARY, coords)
    gex = exact.gradient(pts.reshape(-1, 2)).reshape(pts.shape)
    gh = solution.gradients()
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
        gex_s = exact.gradient(spts.reshape(-1, 2)).reshape(spts.shape)
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
    a_elem = coeffs.element_permeability(coords.mean(axis=1))
    pts = np.einsum("qi,mid->mqd", _TRI7_BARY, coords)
    uh = np.einsum("qi,mi->mq", _TRI7_BARY, solution.values[mesh.triangles])
    uex = exact.value(pts.reshape(-1, 2)).reshape(uh.shape)
    gh = solution.gradients()
    gdiff = gh[:, None, :] - exact.gradient(pts.reshape(-1, 2)).reshape(pts.shape)
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
        gex_s = exact.gradient(spts.reshape(-1, 2)).reshape(spts.shape)
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
    lo, hi, touched, _ = clip_segments_to_triangles(p, q, tri[None, :, :], tol)
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
    marked = mark_crack_elements(mesh, crack)
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

    The output carries its edge table (``Mesh.edge_table``) and tolerance.
    Kept edges keep their ids; a split edge (a, b) with midpoint m keeps its
    id for (a, m), and (b, m) is appended, in midpoint order; then come the
    edges inside bisected triangles: (v0, m0) of each, then (m1, m0) and
    (m2, m0) of those whose edge 1 or 2 is split.

    Returns (refined, parent): ``parent[i]`` is the input triangle that
    output triangle i lies in. Children of one parent are consecutive, in
    parent order, so ``parent`` is non-decreasing.
    """
    marked = np.asarray(marked)
    if marked.dtype == bool:
        marked = np.nonzero(marked)[0]
    if marked.size == 0:
        return mesh, np.arange(mesh.n_triangles)
    t = mesh.triangles
    n, m = mesh.n_vertices, mesh.n_triangles
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

    out_pairs = np.concatenate(
        [
            pairs,
            np.column_stack([pairs[split, 1], new_ids]),
            np.column_stack([v0, m0]),
            np.column_stack([np.minimum(m1, m0), np.maximum(m1, m0)])[f1],
            np.column_stack([np.minimum(m2, m0), np.maximum(m2, m0)])[f2],
        ]
    )
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
    return refined, np.repeat(np.arange(m), counts)


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
        chain_permeability=np.asarray([c.permeability for c in crack.chains]),
        chain_source=[c.source for c in crack.chains],
        nodes=crack.nodes.copy(),
        chain_nodes=crack.chain_nodes.copy(),
        chain_length=np.asarray([c.length for c in crack.chains]),
    )


def segment_curve(p, q):
    """Parametric straight segment from p to q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)

    def curve(t):
        t = np.asarray(t, dtype=float)
        return p + t[..., None] * (q - p)

    curve.arc_length = float(np.hypot(*(q - p)))
    curve.is_closed = False
    return curve


def gradient_inner(exact, points) -> np.ndarray:
    """Gradient of the inner branch of an ``ExactRadialSolution``."""
    r, pts = exact._radius(points)
    return (exact._c1 / r**2)[:, None] * pts


def gradient_outer(exact, points) -> np.ndarray:
    """Gradient of the outer branch of an ``ExactRadialSolution``."""
    r, pts = exact._radius(points)
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


def export_vtk(mesh: Mesh, path, point_data: dict | None = None) -> None:
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
    if point_data:
        lines.append(f"POINT_DATA {mesh.n_vertices}")
        for name, values in point_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{float(v)!r}" for v in np.asarray(values))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def export_solution_text(solution, path) -> None:
    """The ``# x y u`` solution rows written one f-string per line."""
    lines = ["# x y u"]
    for (x, y), u in zip(solution.mesh.vertices, solution.values):
        lines.append(f"{float(x)!r} {float(y)!r} {float(u)!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def splu_default_solve(A, b) -> np.ndarray:
    """Solve A x = b with SuperLU's defaults: COLAMD column ordering and
    partial pivoting, the factorization ``solve`` used before it ordered
    A + A^T symmetrically."""
    return spla.splu(A.tocsc()).solve(b)
