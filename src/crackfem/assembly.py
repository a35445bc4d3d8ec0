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
from .mesh import RECTANGLE_TAGS, Mesh


class SingularSystemError(ValueError):
    pass


class NonFiniteValueError(ValueError):
    pass


def _values_at(value, points, what: str) -> np.ndarray:
    """A number, or a function of (k, 2) points, evaluated at points with
    numpy's warnings off (say log(0)): (k,) values, all finite; ``what``
    names them in the error."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = value(points) if callable(value) else np.full(len(points), float(value))
        values = np.asarray(values, dtype=float)
    if values.shape != (len(points),):
        raise ValueError(
            "a function of position must return one value per point: "
            f"expected ({len(points)},), got {values.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteValueError(f"{what} is {values[bad[0]]} at {points[bad[0]].tolist()}")
    return values


@dataclass
class Coefficients:
    """Bulk material data: per-region permeabilities and the volume source.

    ``source`` is a number or a function of one (k, 2) point array
    returning (k,) values. ``region`` classifies points into region 1 or 2
    when a1 != a2; it takes (k, 2) points and returns an integer array of
    1s and 2s. With a1 == a2 no classifier is needed.
    """

    a1: float = 1.0
    a2: float = 1.0
    source: object = 0.0
    region: object = None

    def __post_init__(self):
        if not (0.0 < self.a1 < np.inf and 0.0 < self.a2 < np.inf):
            raise ValueError("bulk permeabilities must be positive and finite")

    def element_permeability(self, mesh: Mesh) -> np.ndarray:
        """Permeability of each triangle, by the region of its centroid."""
        if self.a1 == self.a2:
            return np.full(mesh.n_triangles, float(self.a1))
        if self.region is None:
            raise ValueError("a1 != a2 requires a region classifier")
        labels = np.asarray(self.region(mesh.vertices[mesh.triangles].mean(axis=1)))
        if not np.isin(labels, (1, 2)).all():
            raise ValueError("region classifier must return labels 1 or 2")
        return np.where(labels == 1, float(self.a1), float(self.a2))


@dataclass
class BoundarySpec:
    """Dirichlet conditions by side of the mesh's lattice box.

    ``dirichlet`` maps sides in ``RECTANGLE_TAGS`` to values: numbers, or
    functions of one (k, 2) point array returning (k,) values. The other
    sides are natural (zero flux). At least one side is required.
    """

    dirichlet: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.dirichlet:
            raise SingularSystemError(
                "no Dirichlet boundary: the system would be singular"
            )
        unknown = set(self.dirichlet) - set(RECTANGLE_TAGS)
        if unknown:
            raise ValueError(f"unknown sides {sorted(unknown)} (known: {list(RECTANGLE_TAGS)})")

    def constrained_vertices(self, mesh: Mesh):
        """Dirichlet vertex ids and values, sides in sorted order, so a corner
        takes the later side's value. Side left is x == xs[0] of the mesh's
        lattice, right x == xs[-1], bottom y == ys[0] and top y == ys[-1]:
        exact, as lattice ends are ``linspace`` end points and a midpoint of
        two equal coordinates is that coordinate."""
        x, y = mesh.vertices.T
        (x0, x1), (y0, y1) = mesh.lattice.xs[[0, -1]], mesh.lattice.ys[[0, -1]]
        lines = {"left": (x, x0), "right": (x, x1), "bottom": (y, y0), "top": (y, y1)}
        values = np.empty(mesh.n_vertices)
        on = np.zeros(mesh.n_vertices, dtype=bool)
        for side in sorted(self.dirichlet):
            coord, end = lines[side]
            verts = np.flatnonzero(coord == end)
            values[verts] = _values_at(
                self.dirichlet[side], mesh.vertices[verts], f"the Dirichlet value on {side}"
            )
            on[verts] = True
        return np.flatnonzero(on), values[on]


@dataclass
class LinearSystem:
    """Free-vertex system ``matrix @ u[free] = rhs`` with Dirichlet bookkeeping.

    ``matrix`` is the free-free block of the stiffness and ``rhs`` carries
    the couplings to the constrained vertices, which take ``values``. ``n``
    counts all vertices. ``a`` is the one bulk permeability, None if a1 != a2.
    ``free`` runs by y, then x, as lattice ids do (so on a lattice it is
    ascending): neighbours get nearby rows, and the direct factor fills less.
    ``crack_rows`` are the rows the crack's segment blocks reach: the
    positions in ``free`` of the vertices of triangles that own a segment
    of positive permeability.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free: np.ndarray
    constrained: np.ndarray
    values: np.ndarray
    mesh: Mesh
    a: float | None = None
    crack_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def n(self) -> int:
        return self.mesh.n_vertices


def _canonical_segment_order(crack: SegmentedCrack) -> np.ndarray:
    """Order segments by owner triangle, then midpoint: independent of chain
    numbering, so permuting chains yields a bitwise-identical matrix."""
    mids = crack.midpoints()
    return np.lexsort((mids[:, 1], mids[:, 0], crack.triangle_index))


def assemble_operator(mesh: Mesh, crack: SegmentedCrack, coeffs: Coefficients):
    """Unconstrained stiffness: bulk diffusion plus crack superposition.

    Chains of permeability exactly zero add nothing, not even explicit
    zeros. On a mesh that is its lattice (``Mesh.is_lattice``) the bulk
    comes in closed form (``_lattice_stiffness``), with no zero stored, and
    the segment blocks are added to it. Elsewhere the triangle blocks, then
    the segment blocks, are summed as one COO matrix.
    """
    n = mesh.n_vertices
    seg_elems, seg_local = _segment_blocks(mesh, crack)
    if not mesh.is_lattice:
        return _summed_blocks(
            np.concatenate([mesh.triangles, seg_elems]),
            np.concatenate([_element_blocks(mesh, coeffs), seg_local]),
            n,
        )
    K0 = _lattice_stiffness(mesh, coeffs)
    # adding the segment blocks drops entries that cancel to zero
    return K0 + _summed_blocks(seg_elems, seg_local, n) if len(seg_local) else K0


def _summed_blocks(elems, local, n) -> sp.csr_matrix:
    """The (n, n) sum of row-major (k, 9) element blocks on (k, 3) vertex
    ids: one COO matrix, its ids cast up front to the CSR index type, which
    its CSR conversion keeps while summing duplicates in COO order."""
    elems = elems.astype(np.int64 if max(n, local.size) > np.iinfo(np.int32).max else np.int32)
    rows, cols = np.repeat(elems, 3, axis=1), np.tile(elems, (1, 3))
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr()


def _segment_blocks(mesh: Mesh, crack: SegmentedCrack):
    """Owner triangles (s, 3) and row-major (s, 9) blocks of the segments
    of positive permeability, in canonical order: a_seg |S| (t . grad
    phi_i)(t . grad phi_j) with the hats of the owner triangle."""
    order = _canonical_segment_order(crack)
    perm = crack.permeability()[order]
    order, perm = order[perm > 0.0], perm[perm > 0.0]
    if not order.size:
        return np.empty((0, 3), dtype=np.int64), np.empty((0, 9))
    own = crack.triangle_index[order]
    d = crack.points[order, 1, :] - crack.points[order, 0, :]
    length = np.linalg.norm(d, axis=1)
    t = d / length[:, None]
    w = np.einsum("ids,sd->si", mesh.hat_gradients(own), t)
    return mesh.triangles[own], np.einsum("s,si,sj->sij", perm * length, w, w).reshape(-1, 9)


def _lattice_stiffness(mesh: Mesh, coeffs: Coefficients) -> sp.csr_matrix:
    """Bulk stiffness of a mesh that is its lattice: the 5-point rows of
    ``_lattice_rows``, columns sorted, without the slots off the lattice or
    any zero entry. The zero couplings across cell diagonals have no slot."""
    n = mesh.n_vertices
    # no view of the padded rows outlives this del, so they are freed
    # before the column ids exist
    rows = _lattice_rows(mesh, coeffs).reshape(5, n).T
    keep = rows != 0.0
    data = rows[keep]
    del rows
    nx = len(mesh.lattice.xs) - 1
    idx = np.int64 if 5 * n > np.iinfo(np.int32).max else np.int32
    offsets = np.array([-(nx + 1), -1, 0, 1, nx + 1], dtype=idx)
    indices = (np.arange(n, dtype=idx)[:, None] + offsets)[keep]
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(keep.sum(axis=1, dtype=idx), out=indptr[1:])
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _lattice_rows(mesh: Mesh, coeffs: Coefficients) -> np.ndarray:
    """The bulk row of each lattice vertex (j, i), slot-major, (5, ny + 1,
    nx + 1): the couplings down and left, the diagonal, the couplings right
    and up, zero where there is no neighbour.

    A cell of sides dx, dy holds the triangles lower (p10, p11, p00) and
    upper (p01, p00, p11), right-angled at their first corner with legs
    along the sides. With weight w = a |T| and p = dy / 2|T|, q = dx / 2|T|
    the hat gradients' components, a triangle's block puts (w p) p + (w q) q
    on its right-angle corner, (w q) q and (w p) p on the far ends of its
    vertical and horizontal legs, minus those as the couplings along the
    legs, and zero across the diagonal. These are the element path's
    floats, as ``Mesh.hat_gradients`` gives p and q; a vertex sums its up to
    six diagonal terms in the fixed order of the slices below.
    """
    xs, ys, _ = mesh.lattice
    nx, ny = len(xs) - 1, len(ys) - 1
    dx, dy = xs[1:] - xs[:-1], (ys[1:] - ys[:-1])[:, None]
    area = 0.5 * (dx * dy)
    p, q = dy / (2.0 * area), dx / (2.0 * area)
    # per triangle, lower then upper: P = (w p) p and Q = (w q) q
    a = coeffs.element_permeability(mesh).reshape(ny, nx, 2)
    w = np.stack([a[..., 0] * area, a[..., 1] * area])
    del a
    P = w * p
    P *= p
    Q = np.multiply(w, q, out=w)
    Q *= q
    del area, p, q

    slots = np.zeros((5, ny + 1, nx + 1))
    down, left, diag, right, up = slots
    diag[:-1, 1:] += P[0] + Q[0]
    diag[1:, 1:] += Q[0]
    diag[:-1, :-1] += P[0]
    diag[1:, :-1] += P[1] + Q[1]
    diag[:-1, :-1] += Q[1]
    diag[1:, 1:] += P[1]
    right[:-1, :-1] -= P[0]
    right[1:, :-1] -= P[1]
    up[:-1, 1:] -= Q[0]
    up[:-1, :-1] -= Q[1]
    left[:, 1:] = right[:, :-1]
    down[1:] = up[:-1]
    return slots


def _element_blocks(mesh: Mesh, coeffs: Coefficients) -> np.ndarray:
    """Row-major (m, 9) triangle blocks: a |T| grad phi_i . grad phi_j."""
    weight = coeffs.element_permeability(mesh) * mesh.triangle_areas()
    g = mesh.hat_gradients()
    return np.einsum("t,idt,jdt->tij", weight, g, g).reshape(-1, 9)


def assemble_load(mesh: Mesh, crack: SegmentedCrack, coeffs: Coefficients):
    """Load vector: vertex rule for the bulk source, midpoint rule on segments."""
    n = mesh.n_vertices
    b = np.zeros(n)
    # a zero source adds nothing; a function never equals 0
    if coeffs.source != 0.0:
        fv = _values_at(coeffs.source, mesh.vertices, "the source")[mesh.triangles]
        w = (mesh.triangle_areas() / 3.0)[:, None] * fv
        b = np.bincount(mesh.triangles.ravel(), w.ravel(), minlength=n)

    if crack.n_segments:
        mids = crack.midpoints()
        own = crack.triangle_index
        fs = np.zeros(crack.n_segments)
        for j, chain in enumerate(crack.graph.chains):
            on = crack.chain_index == j
            if on.any():
                fs[on] = _values_at(chain.source, mids[on], f"the source of chain {j}")
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
    """Build the free-vertex linear system for the crack-diffusion problem.

    Dirichlet values are interpolated at boundary vertices and eliminated
    symmetrically: their couplings move to the right-hand side and only the
    free-free block of the stiffness, without explicit zeros, is kept.
    """
    K0 = assemble_operator(mesh, crack, coeffs)
    b = assemble_load(mesh, crack, coeffs)
    cons, vals = boundary.constrained_vertices(mesh)
    if cons.size == 0:
        raise SingularSystemError("Dirichlet sides matched no mesh vertices")
    lift = np.zeros(mesh.n_vertices)
    lift[cons] = vals
    free = np.delete(np.arange(mesh.n_vertices), cons)
    if not mesh.is_lattice:  # lattice ids already run by y, then x
        # by y, then x, stably: lexsort's order from one complex sort key
        v, key = np.take(mesh.vertices, free, axis=0), np.empty(len(free), dtype=complex)
        key.real, key.imag = v[:, 1], v[:, 0]
        free = free[np.argsort(key, kind="stable")]
    K = K0[free][:, free]
    K.eliminate_zeros()
    b = (b - K0 @ lift)[free]
    a = float(coeffs.a1) if coeffs.a1 == coeffs.a2 else None
    crossed = np.zeros(mesh.n_vertices, dtype=bool)
    crossed[mesh.triangles[crack.triangle_index[crack.permeability() > 0.0]]] = True
    return LinearSystem(K, b, free, cons, vals, mesh, a, np.flatnonzero(crossed[free]))
