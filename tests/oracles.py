"""Independent reference computations used only by the tests.

These reproduce quantities the package computes (or checks it against) by a
different route: continuous Galerkin forms on subdivided quadrature, the
energy error by expansion, a single segment/triangle clip, node incidence of
a crack graph, near-crack degree-of-freedom counts and straight parametric
segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crackfem import Coefficients, CrackGraph, Mesh, SegmentedCrack, mark_crack_elements
from crackfem._geom import REL_TOL, bbox_diameter, clip_segments_to_triangles
from crackfem.analysis import (
    _GAUSS2_T,
    _GAUSS2_W,
    _GAUSS4_T,
    _GAUSS4_W,
    _TRI7_BARY,
    _TRI7_W,
    _TRI_MID_BARY,
    _TRI_MID_W,
)
from crackfem.mesh import _vertex_neighborhood


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
    lo, hi, touched = clip_segments_to_triangles(p, q, tri[None, :, :], tol)
    if not touched[0]:
        return None
    d = q - p
    return np.array([p + lo[0] * d, p + hi[0] * d])


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
