"""Linear solvers and the piecewise-linear solution field."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import LinearSystem
from .mesh import Mesh, _render


class SolverError(RuntimeError):
    pass


@dataclass
class SolverConfig:
    """Solver selection: a direct factorization or Jacobi-preconditioned CG.

    method is "direct" (SuperLU ordering A + A^T by minimum degree and
    pivoting on the diagonal, as suits the SPD reduced systems) or "cg"
    (``scipy.sparse.linalg.cg`` with a Jacobi preconditioner, at most
    max_iterations steps). rel_tolerance bounds the final true residual
    relative to the right-hand side; the direct method takes at least 1e-10.
    """

    method: str = "direct"
    rel_tolerance: float = 1e-10
    max_iterations: int = 20000

    def __post_init__(self):
        if self.method not in ("cg", "direct"):
            raise ValueError(f"unknown solver method {self.method!r}")
        if not 0.0 < self.rel_tolerance < 1.0:
            raise ValueError("rel_tolerance must be in (0, 1)")
        # NaN and non-integers such as 2.5 fail the integer test
        n = self.max_iterations
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ValueError("max_iterations must be >= 1")


def solve(system: LinearSystem, config: SolverConfig) -> "SolutionField":
    """Solve the free-vertex system and wrap the result as a field.

    Constrained vertices carry their prescribed values exactly; the free
    block is solved to the configured relative residual.
    """
    A, rhs = system.matrix, system.rhs
    if config.method == "cg":
        diag = A.diagonal()
        if (diag <= 0.0).any():
            raise SolverError("matrix diagonal has non-positive entries")
        tol = config.rel_tolerance
        x, _ = spla.cg(
            A, rhs, rtol=tol, maxiter=config.max_iterations, M=sp.diags(1.0 / diag)
        )
    else:
        tol = max(config.rel_tolerance, 1e-10)
        try:
            # assembled systems are SPD; a zero diagonal still pivots off it
            lu = spla.splu(
                A.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise SolverError(f"direct factorization failed: {exc}") from exc
        x = lu.solve(rhs)
    # cg stops on its recursively updated residual, so both methods are
    # judged on the true one; a nan or inf solution fails the test too
    bnorm = float(np.linalg.norm(rhs))
    res = float(np.linalg.norm(rhs - A @ x))
    if not res <= tol * bnorm:
        raise SolverError(
            f"{config.method} did not converge: residual {res:.3e} against "
            f"|b| {bnorm:.3e} (relative target {tol:.1e}, n={len(rhs)})"
        )
    u = np.zeros(system.n)
    u[system.free] = x
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
        self._rows = None

    def gradients(self) -> np.ndarray:
        """Constant gradient per triangle, shape (m, 2)."""
        if self._grads is None:
            u = self.values[self.mesh.triangles.T]
            g = self.mesh.hat_gradients()
            grads = np.empty((len(g), 2))
            # the corner sum as einsum("ti,tid->td") forms it: in corner
            # order from +0.0, which is the plain sum with -0.0 made +0.0
            for d, col in enumerate(grads.T):
                np.multiply(u[0], g[:, 0, d], out=col)
                col += u[1] * g[:, 1, d]
                col += u[2] * g[:, 2, d]
            grads += 0.0
            grads.setflags(write=False)
            self._grads = grads
        return self._grads

    def value_rows(self) -> str:
        """The values as rows ``"u\n"`` (``%r``), one string, rendered once
        (cached) for every export that writes them."""
        if self._rows is None:
            self._rows = _render("%r\n", self.values[:, None])
        return self._rows

    def tangential_derivative(self, crack) -> np.ndarray:
        """Directional derivative along each crack segment, shape (s,)."""
        t = crack.tangents()
        g = self.gradients()[crack.triangle_index]
        return np.einsum("sd,sd->s", t, g)
