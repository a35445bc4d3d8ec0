"""Exact solutions, error norms, convergence rates, junction flux balance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._geom import corners
from .cracks import SegmentedCrack
from .assembly import Coefficients

# degree-2 exact rule: edge midpoints, equal weights; point q is the midpoint
# of the edge from corner q to corner q + 1 (mod 3)
_TRI_MID_W = np.array([1.0, 1.0, 1.0]) / 3.0

# two-point Gauss rule on [0, 1]
_GAUSS2_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GAUSS2_W = np.array([0.5, 0.5])

# triangles per block of the bulk norms, which bounds their whole-mesh
# memory to the two (m, 3) squared-error arrays; a block's own arrays take
# about 6 MiB, and ran faster than at 1 << 16
_NORM_BLOCK = 1 << 14


class ExactRadialSolution:
    """Closed-form radial field with a conducting circular interface.

    Two logarithmic branches meet on the circle r = e centered at the
    origin: inside, u = log(r) (4 + e) / 5; outside,
    u = (4 - 4e) / 5 (log(r) - 5/4) + 1. The field is continuous across the
    circle, equals 0 at r = 1 and 1 at r = exp(5/4), and its radial flux
    drops by exactly 1 across the interface, balancing a unit line source
    there. The natural domain is the square (1, exp(5/4))^2, which the
    circle crosses as a single arc.
    """

    def __init__(self):
        self.interface_radius = float(np.e)
        self.outer_radius = float(np.exp(1.25))
        self.inner_radius = 1.0
        e = self.interface_radius
        self._c1 = (4.0 + e) / 5.0
        self._c2 = (4.0 - 4.0 * e) / 5.0
        self.interface_value = self._c1
        self.domain = (1.0, self.outer_radius, 1.0, self.outer_radius)
        self.crack_angles = (float(np.arcsin(1.0 / e)), float(np.arccos(1.0 / e)))

    def value(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return self.value_and_gradient(pts[:, 0], pts[:, 1])[0]

    def value_and_gradient(self, x, y):
        """u, du/dx, du/dy at points (x, y) of any one shape; one hypot, one log."""
        r = np.hypot(x, y)
        inner, log = r <= self.interface_radius, np.log(r)
        u = np.where(inner, self._c1 * log, self._c2 * (log - 1.25) + 1.0)
        c = np.where(inner, self._c1, self._c2) / r**2
        return u, c * x, c * y


class SineProductSolution:
    """u = sin(pi x) sin(pi y), the classical clean-convergence baseline."""

    def value(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return self.value_and_gradient(pts[:, 0], pts[:, 1])[0]

    def value_and_gradient(self, x, y):
        """u, du/dx, du/dy at points (x, y) of any one shape; one sin, cos each."""
        px, py = np.pi * x, np.pi * y
        sx, cx, sy, cy = np.sin(px), np.cos(px), np.sin(py), np.cos(py)
        return sx * sy, np.pi * (cx * sy), np.pi * (sx * cy)

    def load(self, points) -> np.ndarray:
        """The source -laplace(u) = 2 pi^2 u."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return 2.0 * np.pi**2 * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])


@dataclass
class NormReport:
    """Error norms of one discrete solution against an exact field."""

    level: int
    h: float
    h_crack: float
    n_dofs: int
    l2: float
    h1_semi: float
    l2_crack: float
    energy: float

    CSV_HEADER = "level,h,h_crack,n_dofs,l2,h1_semi,l2_crack,energy"

    def as_csv_row(self) -> str:
        return (
            f"{self.level},{self.h!r},{self.h_crack!r},{self.n_dofs},"
            f"{self.l2!r},{self.h1_semi!r},{self.l2_crack!r},{self.energy!r}"
        )


def error_norms(
    solution,
    exact,
    crack: SegmentedCrack,
    coeffs: Coefficients,
    level: int = 0,
) -> NormReport:
    """L2, H1-seminorm, interface L2 and energy error of a discrete field.

    The bulk rule is exact for quadratics (edge midpoints); segments use
    two-point Gauss. Straddling elements are not subdivided; the exact
    field chooses its branch per quadrature point.
    """
    mesh = solution.mesh
    bw = _TRI_MID_W
    m = mesh.n_triangles
    area = mesh.triangle_areas()
    diff2, gdiff2 = np.empty((m, 3)), np.empty((m, 3))
    for start in range(0, m, _NORM_BLOCK):
        blk = slice(start, start + _NORM_BLOCK)
        tris = mesh.triangles[blk]
        # corner rows (3, k), gathered once: the gradients read them first,
        # then each is turned in place into the rule's rows:
        # 0.5 * corner q + 0.5 * corner q + 1 (mod 3), the einsum's bits
        x, y, uh = (*corners(mesh.vertices, tris), solution.values[tris.T])
        gh = solution.gradients(blk, (x, y, uh))
        for c in (x, y, uh):
            c *= 0.5
            c += c[[1, 2, 0]]
        uex, gx, gy = exact.value_and_gradient(x, y)
        uh -= uex
        np.square(uh, out=diff2[blk].T)
        gx -= gh[0]  # the negated error, whose square is the same
        gy -= gh[1]
        g2 = np.multiply(gx, gx, out=gdiff2[blk].T)
        g2 += np.square(gy, out=gy)
    l2_sq = float(np.einsum("mq,q,m->", diff2, bw, area))
    del diff2  # before the weighted areas exist
    h1_sq = float(np.einsum("mq,q,m->", gdiff2, bw, area))
    a_elem = coeffs.element_permeability(mesh)
    energy_sq = float(np.einsum("mq,q,m->", gdiff2, bw, area * a_elem))

    l2c_sq = 0.0
    h = h_crack = mesh.h_max
    if crack.n_segments:
        st, sw = _GAUSS2_T, _GAUSS2_W
        a = crack.points[:, 0, :]
        d = crack.points[:, 1, :] - crack.points[:, 0, :]
        spts = a[:, None, :] + st[None, :, None] * d[:, None, :]
        own = crack.triangle_index
        phi = mesh.hat_values(own, spts)
        uh_s = np.einsum("sqi,si->sq", phi, solution.values[mesh.triangles[own]])
        uex_s, *gex_s = exact.value_and_gradient(spts[..., 0], spts[..., 1])
        l2c_sq = float(
            np.einsum("sq,q,s->", (uh_s - uex_s) ** 2, sw, crack.length)
        )
        t = crack.tangents()
        gt_h = solution.tangential_derivative(crack)
        gt_ex = np.einsum("sd,dsq->sq", t, gex_s)
        tdiff2 = (gt_h[:, None] - gt_ex) ** 2
        energy_sq += float(
            np.einsum("sq,q,s->", tdiff2, sw, crack.length * crack.permeability())
        )
        h_crack = float(mesh.triangle_diameters(own).max())

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


def eoc(reports) -> dict:
    """Least-squares convergence slopes of each norm against h.

    Needs at least three reports with strictly decreasing h. Norms that
    vanish somewhere get a nan slope.
    """
    if len(reports) < 3:
        raise ValueError("eoc needs at least three levels")
    h = np.array([r.h for r in reports])
    if not (np.diff(h) < 0.0).all():
        raise ValueError("mesh sizes must be strictly decreasing")
    logh = np.log(h)
    slopes = {}
    for name in ("l2", "h1_semi", "l2_crack", "energy"):
        err = np.array([getattr(r, name) for r in reports])
        if (err <= 0.0).any():
            slopes[name] = float("nan")
            continue
        slopes[name] = float(np.polyfit(logh, np.log(err), 1)[0])
    return slopes


def kirchhoff_residual(solution, crack: SegmentedCrack) -> np.ndarray:
    """Net tangential flux into each crack node, one magnitude per node.

    For every chain incident to a node, the flux permeability * du/dt of the
    chain's segment touching that node is taken along the exterior tangent
    (pointing out of the chain); their sum vanishes for the exact solution
    at interior junctions. Degenerate at degree-1 tips, where it simply
    reports the tip flux.
    """
    tang = solution.tangential_derivative(crack)
    graph = crack.graph
    out = np.zeros(len(graph.nodes))
    for j, chain in enumerate(graph.chains):
        segs = crack.segments_of_chain(j)
        if segs.size == 0:
            continue
        a = chain.permeability
        start_node, end_node = graph.chain_nodes[j]
        out[start_node] -= a * tang[segs[0]]
        out[end_node] += a * tang[segs[-1]]
    return np.abs(out)
