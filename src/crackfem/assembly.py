"""Assembly of the bulk diffusion form plus the superimposed crack form.

The bulk uses continuous P1 elements. Crack segments add tangential
stiffness a_seg * |S| * (t . grad phi_i)(t . grad phi_j) evaluated with the
bulk hat functions of the owning triangle, so no extra unknowns appear.
Loads use the three-point vertex rule in the bulk and the midpoint rule on
segments. Dirichlet constraints are eliminated symmetrically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .cracks import SegmentedCrack
from .mesh import Mesh


class SingularSystemError(ValueError):
    pass


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


@dataclass
class Coefficients:
    """Bulk material data: per-region permeabilities and the volume source.

    ``region`` classifies points into region 1 or 2 when a1 != a2; it takes
    (k, 2) points and returns an integer array of 1s and 2s. With a1 == a2
    no classifier is needed.
    """

    a1: float = 1.0
    a2: float = 1.0
    source: object = 0.0
    region: object = None

    def __post_init__(self):
        if self.a1 <= 0.0 or self.a2 <= 0.0:
            raise ValueError("bulk permeabilities must be positive")

    def element_permeability(self, centroids) -> np.ndarray:
        centroids = np.asarray(centroids, dtype=float).reshape(-1, 2)
        if self.a1 == self.a2:
            return np.full(len(centroids), float(self.a1))
        if self.region is None:
            raise ValueError("a1 != a2 requires a region classifier")
        labels = np.asarray(self.region(centroids))
        if not np.isin(labels, (1, 2)).all():
            raise ValueError("region classifier must return labels 1 or 2")
        return np.where(labels == 1, float(self.a1), float(self.a2))


@dataclass
class BoundarySpec:
    """Boundary conditions by edge tag.

    ``dirichlet`` maps tags to values (floats or callables of (x, y) arrays);
    ``neumann`` lists tags with natural (zero-flux) conditions. Every tag on
    the mesh must be covered and at least one Dirichlet tag is required.
    """

    dirichlet: dict = field(default_factory=dict)
    neumann: tuple = ()

    def __post_init__(self):
        if not self.dirichlet:
            raise SingularSystemError(
                "no Dirichlet boundary: the system would be singular"
            )
        overlap = set(self.dirichlet) & set(self.neumann)
        if overlap:
            raise ValueError(f"tags in both maps: {sorted(overlap)}")

    def constrained_vertices(self, mesh: Mesh):
        """Dirichlet vertex ids and values, tags applied in sorted order."""
        present = set(str(t) for t in mesh.boundary_tags)
        covered = set(self.dirichlet) | set(self.neumann)
        missing = present - covered
        if missing:
            raise ValueError(f"boundary tags without a condition: {sorted(missing)}")
        values = {}
        for tag in sorted(self.dirichlet):
            g = self.dirichlet[tag]
            on_tag = mesh.boundary_edges[mesh.boundary_tags == tag]
            verts = np.unique(on_tag.ravel())
            if verts.size == 0:
                continue
            xy = mesh.vertices[verts]
            if callable(g):
                vals = np.asarray(g(xy[:, 0], xy[:, 1]), dtype=float)
            else:
                vals = np.full(len(verts), float(g))
            for v, val in zip(verts, vals):
                values[int(v)] = float(val)
        idx = np.array(sorted(values), dtype=np.int64)
        return idx, np.array([values[i] for i in idx])


@dataclass
class LinearSystem:
    """Constrained sparse system K u = b with Dirichlet bookkeeping.

    ``matrix`` has identity rows and columns at constrained vertices and
    ``rhs`` carries the eliminated couplings; ``operator`` is the raw
    unconstrained stiffness, kept for energy evaluations.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    constrained: np.ndarray
    values: np.ndarray
    operator: sp.csr_matrix
    mesh: Mesh

    @property
    def n(self) -> int:
        return self.rhs.shape[0]

    def free_indices(self) -> np.ndarray:
        mask = np.ones(self.n, dtype=bool)
        mask[self.constrained] = False
        return np.nonzero(mask)[0]

    def reduced(self):
        """Free-vertex block and right-hand side."""
        free = self.free_indices()
        return self.matrix[free][:, free].tocsr(), self.rhs[free], free


def _canonical_segment_order(crack: SegmentedCrack) -> np.ndarray:
    """Order segments by owner triangle, then midpoint: independent of chain
    numbering, so permuting chains yields a bitwise-identical matrix."""
    mids = crack.midpoints()
    return np.lexsort((mids[:, 1], mids[:, 0], crack.triangle_index))


def assemble_operator(mesh: Mesh, crack: SegmentedCrack, coeffs: Coefficients):
    """Unconstrained stiffness: bulk diffusion plus crack superposition.

    Chains with permeability exactly zero contribute nothing, not even
    explicit zeros, so the sparsity pattern matches the crack-free matrix.
    """
    grads = mesh.hat_gradients()
    v = mesh.vertices[mesh.triangles]
    a_elem = coeffs.element_permeability(v.mean(axis=1))
    local = np.einsum("t,tid,tjd->tij", a_elem * mesh.triangle_areas(), grads, grads)
    rows = [np.repeat(mesh.triangles, 3, axis=1).ravel()]
    cols = [np.tile(mesh.triangles, (1, 3)).ravel()]
    data = [local.ravel()]

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
            w = np.einsum("sid,sd->si", grads[own], t)
            seg_local = np.einsum("s,si,sj->sij", perm * length, w, w)
            tri = mesh.triangles[own]
            rows.append(np.repeat(tri, 3, axis=1).ravel())
            cols.append(np.tile(tri, (1, 3)).ravel())
            data.append(seg_local.ravel())

    n = mesh.n_vertices
    K = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    K.sum_duplicates()
    K.sort_indices()
    return K


def assemble_load(mesh: Mesh, crack: SegmentedCrack, coeffs: Coefficients):
    """Load vector: vertex rule for the bulk source, midpoint rule on segments."""
    n = mesh.n_vertices
    b = np.zeros(n)
    area = mesh.triangle_areas()
    src = coeffs.source
    if callable(src):
        fv = np.asarray(src(mesh.vertices[:, 0], mesh.vertices[:, 1]), dtype=float)
        fv = fv[mesh.triangles]
    else:
        if float(src) == 0.0:
            fv = None
        else:
            fv = np.full((mesh.n_triangles, 3), float(src))
    if fv is not None:
        np.add.at(b, mesh.triangles, (area / 3.0)[:, None] * fv)

    if crack.n_segments:
        mids = crack.midpoints()
        own = crack.triangle_index
        fs = np.zeros(crack.n_segments)
        for j, src_j in enumerate(crack.chain_source):
            on = crack.chain_index == j
            if not on.any():
                continue
            if callable(src_j):
                fs[on] = np.asarray(src_j(mids[on, 0], mids[on, 1]), dtype=float)
            else:
                fs[on] = float(src_j)
        weights = fs * crack.length
        if np.any(weights != 0.0):
            phi = mesh.hat_values(own, mids)
            np.add.at(b, mesh.triangles[own], weights[:, None] * phi)
    return b


def assemble(
    mesh: Mesh,
    crack: SegmentedCrack,
    coeffs: Coefficients,
    boundary: BoundarySpec,
) -> LinearSystem:
    """Build the constrained linear system for the crack-diffusion problem.

    Dirichlet values are interpolated at boundary vertices and eliminated
    symmetrically: constrained rows and columns become identity, their
    couplings move to the right-hand side.
    """
    K0 = assemble_operator(mesh, crack, coeffs)
    b = assemble_load(mesh, crack, coeffs)
    cons, vals = boundary.constrained_vertices(mesh)
    if cons.size == 0:
        raise SingularSystemError("Dirichlet tags matched no boundary vertices")
    n = mesh.n_vertices
    free_mask = np.ones(n)
    free_mask[cons] = 0.0
    lift = np.zeros(n)
    lift[cons] = vals
    b = b - K0 @ lift
    b[cons] = vals
    P = sp.diags(free_mask, format="csr")
    D = sp.diags(1.0 - free_mask, format="csr")
    K = (P @ K0 @ P + D).tocsr()
    K.sum_duplicates()
    K.sort_indices()
    return LinearSystem(
        matrix=K, rhs=b, constrained=cons, values=vals, operator=K0, mesh=mesh
    )
