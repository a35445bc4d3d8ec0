"""Exact solutions, error norms, convergence rates, junction flux balance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cracks import SegmentedCrack
from .assembly import Coefficients

# degree-2 exact rule: edge midpoints, equal weights
_TRI_MID_BARY = np.array(
    [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
)
_TRI_MID_W = np.array([1.0, 1.0, 1.0]) / 3.0

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

# Gauss rules on [0, 1]
_GAUSS2_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GAUSS2_W = np.array([0.5, 0.5])
_G4 = np.array([0.3399810435848563, 0.8611363115940526])
_GAUSS4_T = 0.5 + 0.5 * np.array([-_G4[1], -_G4[0], _G4[0], _G4[1]])
_GAUSS4_W = 0.5 * np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)


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

    def _radius(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return np.hypot(pts[:, 0], pts[:, 1]), pts

    def value_inner(self, r):
        return self._c1 * np.log(r)

    def value_outer(self, r):
        return self._c2 * (np.log(r) - 1.25) + 1.0

    def value(self, points) -> np.ndarray:
        r, _ = self._radius(points)
        return np.where(
            r <= self.interface_radius, self.value_inner(r), self.value_outer(r)
        )

    def gradient(self, points) -> np.ndarray:
        r, pts = self._radius(points)
        c = np.where(r <= self.interface_radius, self._c1, self._c2)
        return (c / r**2)[:, None] * pts

    def gradient_inner(self, points) -> np.ndarray:
        r, pts = self._radius(points)
        return (self._c1 / r**2)[:, None] * pts

    def gradient_outer(self, points) -> np.ndarray:
        r, pts = self._radius(points)
        return (self._c2 / r**2)[:, None] * pts

    def radial_flux_jump(self, angles) -> np.ndarray:
        """Jump of the radial flux across the circle at the given angles:
        the outer one-sided limit of du/dr minus the inner one (unit bulk
        permeability). Equals -1, so a unit interface source balances it."""
        angles = np.asarray(angles, dtype=float)
        e = self.interface_radius
        return np.full(angles.shape, (self._c2 - self._c1) / e)


class SineProductSolution:
    """u = sin(pi x) sin(pi y), the classical clean-convergence baseline."""

    def value(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def gradient(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        sx, cx = np.sin(np.pi * pts[:, 0]), np.cos(np.pi * pts[:, 0])
        sy, cy = np.sin(np.pi * pts[:, 1]), np.cos(np.pi * pts[:, 1])
        return np.pi * np.column_stack([cx * sy, sx * cy])

    def load(self, x, y):
        return 2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)


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


def _bulk_rule(quadrature: str):
    if quadrature == "standard":
        return _TRI_MID_BARY, _TRI_MID_W
    if quadrature == "fine":
        return _TRI7_BARY, _TRI7_W
    raise ValueError(f"unknown quadrature {quadrature!r}")


def _segment_rule(quadrature: str):
    if quadrature == "standard":
        return _GAUSS2_T, _GAUSS2_W
    return _GAUSS4_T, _GAUSS4_W


def error_norms(
    solution,
    exact,
    crack: SegmentedCrack | None = None,
    coeffs: Coefficients | None = None,
    quadrature: str = "standard",
    level: int = 0,
) -> NormReport:
    """L2, H1-seminorm, interface L2 and energy error of a discrete field.

    The bulk rule is exact for quadratics (edge midpoints); segments use
    two-point Gauss. ``quadrature="fine"`` switches to a degree-5 bulk rule
    and four-point Gauss for quadrature sensitivity checks. Straddling
    elements are not subdivided; the exact field chooses its branch per
    quadrature point.
    """
    mesh = solution.mesh
    if coeffs is None:
        coeffs = Coefficients()
    bary, bw = _bulk_rule(quadrature)
    coords = mesh.vertices[mesh.triangles]  # (m, 3, 2)
    area = mesh.triangle_areas()
    pts = np.einsum("qi,mid->mqd", bary, coords)  # (m, q, 2)
    uh = np.einsum("qi,mi->mq", bary, solution.values[mesh.triangles])
    uex = exact.value(pts.reshape(-1, 2)).reshape(uh.shape)
    diff2 = (uh - uex) ** 2
    l2_sq = float(np.einsum("mq,q,m->", diff2, bw, area))

    gh = solution.gradients()  # (m, 2)
    gex = exact.gradient(pts.reshape(-1, 2)).reshape(pts.shape)
    gdiff = gh[:, None, :] - gex
    gdiff2 = np.einsum("mqd,mqd->mq", gdiff, gdiff)
    h1_sq = float(np.einsum("mq,q,m->", gdiff2, bw, area))
    a_elem = coeffs.element_permeability(coords.mean(axis=1))
    energy_sq = float(np.einsum("mq,q,m->", gdiff2, bw, area * a_elem))

    l2c_sq = 0.0
    h_crack = mesh.h_max
    if crack is not None and crack.n_segments:
        st, sw = _segment_rule(quadrature)
        a = crack.points[:, 0, :]
        d = crack.points[:, 1, :] - crack.points[:, 0, :]
        spts = a[:, None, :] + st[None, :, None] * d[:, None, :]
        own = crack.triangle_index
        phi = mesh.hat_values(own, spts)
        uh_s = np.einsum("sqi,si->sq", phi, solution.values[mesh.triangles[own]])
        uex_s = exact.value(spts.reshape(-1, 2)).reshape(uh_s.shape)
        l2c_sq = float(
            np.einsum("sq,q,s->", (uh_s - uex_s) ** 2, sw, crack.length)
        )
        t = crack.tangents()
        gt_h = np.einsum("sd,sd->s", t, gh[own])
        gex_s = exact.gradient(spts.reshape(-1, 2)).reshape(spts.shape)
        gt_ex = np.einsum("sd,sqd->sq", t, gex_s)
        tdiff2 = (gt_h[:, None] - gt_ex) ** 2
        energy_sq += float(
            np.einsum("sq,q,s->", tdiff2, sw, crack.length * crack.permeability())
        )
        h_crack = float(mesh.triangle_diameters()[crack.crossed_triangles()].max())

    return NormReport(
        level=level,
        h=mesh.h_max,
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
    out = np.zeros(len(crack.nodes))
    for j in range(crack.n_chains):
        segs = crack.segments_of_chain(j)
        if segs.size == 0:
            continue
        a = crack.chain_permeability[j]
        start_node, end_node = crack.chain_nodes[j]
        out[start_node] -= a * tang[segs[0]]
        out[end_node] += a * tang[segs[-1]]
    return np.abs(out)
