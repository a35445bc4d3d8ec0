"""Linear solvers and the piecewise-linear solution field."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import LinearSystem
from .mesh import Mesh


class SolverError(RuntimeError):
    pass


@dataclass
class SolverConfig:
    """Solver selection: Jacobi-preconditioned CG or a direct factorization.

    method is "cg" or "direct" (SuperLU). rel_tolerance bounds the final true
    residual relative to the right-hand side.
    """

    method: str = "cg"
    rel_tolerance: float = 1e-10
    max_iterations: int = 20000

    def __post_init__(self):
        if self.method not in ("cg", "direct"):
            raise ValueError(f"unknown solver method {self.method!r}")
        if not 0.0 < self.rel_tolerance < 1.0:
            raise ValueError("rel_tolerance must be in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


def _pcg(A, b, rtol, max_iterations):
    """Jacobi-preconditioned conjugate gradients with true-residual checks."""
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    diag = A.diagonal()
    if (diag <= 0.0).any():
        raise SolverError("matrix diagonal has non-positive entries")
    inv_diag = 1.0 / diag
    x = np.zeros_like(b)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, max_iterations + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError(f"matrix not positive definite (iteration {k})")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if k % 128 == 0:
            r = b - A @ x
        if np.linalg.norm(r) <= rtol * bnorm:
            true_res = float(np.linalg.norm(b - A @ x))
            if true_res <= rtol * bnorm:
                return x, k
            r = b - A @ x
        z = inv_diag * r
        rz_new = float(r @ z)
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    res = float(np.linalg.norm(b - A @ x)) / bnorm
    raise SolverError(
        f"cg did not converge: relative residual {res:.3e} after "
        f"{max_iterations} iterations (target {rtol:.1e}, n={len(b)})"
    )


def solve(system: LinearSystem, config: SolverConfig | None = None) -> "SolutionField":
    """Solve the constrained system and wrap the result as a field.

    Constrained vertices carry their prescribed values exactly; the free
    block is solved to the configured relative residual.
    """
    if config is None:
        config = SolverConfig()
    A, rhs, free = system.reduced()
    if config.method == "cg":
        x, _ = _pcg(A, rhs, config.rel_tolerance, config.max_iterations)
    else:
        try:
            lu = spla.splu(A.tocsc())
        except RuntimeError as exc:
            raise SolverError(f"direct factorization failed: {exc}") from exc
        x = lu.solve(rhs)
        if not np.isfinite(x).all():
            raise SolverError("direct solve produced non-finite values")
        bnorm = float(np.linalg.norm(rhs))
        if bnorm > 0.0:
            res = float(np.linalg.norm(rhs - A @ x)) / bnorm
            if res > max(config.rel_tolerance, 1e-10):
                raise SolverError(
                    f"direct solve residual {res:.3e} exceeds tolerance "
                    f"(matrix likely ill-conditioned, n={len(rhs)})"
                )
    u = np.zeros(system.n)
    u[free] = x
    u[system.constrained] = system.values
    return SolutionField(system.mesh, u)


class SolutionField:
    """Continuous piecewise-linear field over a mesh."""

    def __init__(self, mesh: Mesh, values):
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (mesh.n_vertices,):
            raise ValueError("one value per vertex required")
        self.values.setflags(write=False)
        self._grads = None

    def gradients(self) -> np.ndarray:
        """Constant gradient per triangle, shape (m, 2)."""
        if self._grads is None:
            u = self.values[self.mesh.triangles]
            self._grads = np.einsum("ti,tid->td", u, self.mesh.hat_gradients())
            self._grads.setflags(write=False)
        return self._grads

    def tangential_derivative(self, crack) -> np.ndarray:
        """Directional derivative along each crack segment, shape (s,)."""
        t = crack.tangents()
        g = self.gradients()[crack.triangle_index]
        return np.einsum("sd,sd->s", t, g)

    def locate(self, points) -> np.ndarray:
        """Containing triangle per point (lowest index wins), -1 if outside."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        hits = self.mesh.incidence(pts, pts)
        return np.array([t[0] if t.size else -1 for t, _, _ in hits], dtype=np.int64)

    def evaluate(self, points) -> np.ndarray:
        """Point evaluation by barycentric interpolation."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = pts.reshape(-1, 2)
        where = self.locate(pts)
        if (where < 0).any():
            bad = pts[where < 0][0]
            raise ValueError(f"point {bad.tolist()} lies outside the mesh")
        phi = self.mesh.hat_values(where, pts)
        vals = np.einsum("pi,pi->p", phi, self.values[self.mesh.triangles[where]])
        return float(vals[0]) if single else vals
