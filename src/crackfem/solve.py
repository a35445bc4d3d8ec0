"""Linear solvers and the piecewise-linear solution field."""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from ._geom import corners
from .assembly import LinearSystem
from .mesh import Mesh, _render


class SolverError(RuntimeError):
    pass


# the relative true residual every solve must reach, and the cap on CG steps
REL_TOLERANCE = 1e-10
MAX_CG_STEPS = 20000


def solve(system: LinearSystem) -> "SolutionField":
    """Solve the free-vertex system and wrap the result as a field.

    Where ``_lattice_preconditioner`` applies, the free block goes to
    ``scipy.sparse.linalg.cg`` with it; every other system, hand-built ones
    included, to the SuperLU factor of ``_factor``. Constrained vertices
    carry their prescribed values exactly; the free block is solved to the
    relative residual REL_TOLERANCE. The field's ``solve_stats`` holds the
    ``path``, ``cg_steps``, final ``rel_residual``, whether the SuperLU
    ``refined`` step ran and ``lu_nnz``, SuperLU's stored entries.
    """
    A, rhs = system.matrix, system.rhs
    bnorm = float(np.linalg.norm(rhs))
    residual = lambda x: float(np.linalg.norm(rhs - A @ x))
    lattice = _lattice_preconditioner(system)
    steps, refined, lu_nnz = [], False, 0  # steps: one None per CG step
    if lattice is None:
        path, lu = "SuperLU", _factor(A)
        x, lu_nnz = lu.solve(rhs), lu.nnz
        res = residual(x)
        # one step of iterative refinement where rounding in the factor misses
        refined = not res <= REL_TOLERANCE * bnorm
        if refined:
            x += lu.solve(rhs - A @ x)
            res = residual(x)
    else:
        path, M, count = "lattice CG", lattice[0], lambda _: steps.append(None)
        x, _ = spla.cg(A, rhs, rtol=REL_TOLERANCE, maxiter=MAX_CG_STEPS, M=M, callback=count)
        res = residual(x)
    # cg stops on its recursively updated residual, so both paths are
    # judged on the true one; a nan or inf solution fails the test too
    if not res <= REL_TOLERANCE * bnorm:
        raise SolverError(
            f"{path} did not converge: residual {res:.3e} against |b| "
            f"{bnorm:.3e} (relative target {REL_TOLERANCE:.1e}, n={len(rhs)})"
        )
    u = np.zeros(system.n)
    u[system.free] = x
    u[system.constrained] = system.values
    rel = res / bnorm if bnorm else 0.0
    stats = dict(path=path, cg_steps=len(steps), rel_residual=rel, refined=refined, lu_nnz=lu_nnz)
    return SolutionField(system.mesh, u, stats)


def _factor(A):
    """SuperLU factor of A; assembled systems are SPD, so it orders A + A^T
    by minimum degree and pivots on the diagonal (a zero one pivots off),
    with supernodes relaxed to 20 columns and panels 8 wide (faster)."""
    try:
        return spla.splu(
            A.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            relax=20, panel_size=8,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolverError(f"direct factorization failed: {exc}") from exc


def _dst1(x, buffers):
    """Minus the DST-I of each row of x: the imaginary part of the rfft of
    the row after one zero, padded to length 2 (n + 1), through the buffers
    of x's shape; a view of the complex one, valid until its next use."""
    ext, spec = buffers[x.shape]
    ext[:, 1 : x.shape[1] + 1] = x  # rows contiguous also for a transposed x
    return np.fft.rfft(ext, out=spec)[:, 1:-1].imag


def _stencil_solver(nx, ny, hx, hy, a):
    """Inverse of ``a`` times the 5-point stencil of P1 on an nx x ny-cell
    lattice, on its (nx - 1) x (ny - 1) interior with x fastest, by a 2-D
    DST-I, which diagonalises the stencil under Dirichlet sides. The
    transforms reuse their buffers; each apply returns a new array."""
    lam = lambda n, r: r * (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n) / n))
    # DST-I applied twice is (n / 2) times the identity along each axis
    scale = 4.0 / (nx * ny) / (a * (lam(ny, hx / hy)[:, None] + lam(nx, hy / hx)))
    # per shape, rows zero-padded to 2 (n + 1) floats and their rfft
    buffers = {(k, n): (np.zeros((k, 2 * n + 2)), np.empty((k, n + 2), complex))
               for k, n in {(nx - 1, ny - 1), (ny - 1, nx - 1)}}
    dst2 = lambda x: _dst1(_dst1(x.T, buffers).T, buffers)  # along y, then x; the signs cancel

    def apply(r):
        z = dst2(r.reshape(ny - 1, nx - 1))
        z *= scale
        return dst2(z).flatten()  # a copy, as a (1, 1) view would ravel to itself

    return apply


def _lattice_preconditioner(system: LinearSystem):
    """(M, B) for CG on an unrefined lattice, or None where it does not apply.

    It applies when the mesh is its lattice (``Mesh.is_lattice``), the bulk
    has one permeability ``system.a`` and the free vertices are the interior
    grid (only boundary vertices are ever constrained, so the count shows
    every side Dirichlet). Off the crack the matrix is then ``a`` times the
    5-point stencil; the crack adds positive semidefinite blocks on B,
    ``system.crack_rows``. One step of M solves the B block, the stencil
    and the B block again."""
    mesh, A, a = system.mesh, system.matrix, system.a
    xs, ys, _ = mesh.lattice
    nx, ny = len(xs) - 1, len(ys) - 1
    if a is None or not mesh.is_lattice or len(system.free) != (nx - 1) * (ny - 1):
        return None
    hx, hy = (xs[-1] - xs[0]) / nx, (ys[-1] - ys[0]) / ny
    apply = stencil = _stencil_solver(nx, ny, hx, hy, a)
    block = system.crack_rows
    if block.size:
        rows = A[block]
        lu = _factor(rows[:, block])
        # on B, r - A(z + zb) is -A z, as the first solve made A zb equal r there
        def apply(r):
            zb = lu.solve(r[block])
            z = stencil(r - rows.T @ zb)
            z[block] += zb - lu.solve(rows @ z)
            return z

    return spla.LinearOperator(A.shape, matvec=apply, dtype=float), block


class SolutionField:
    """Continuous piecewise-linear field over a mesh; ``solve_stats`` is the
    record of the solve that made it (see ``solve``), None otherwise."""

    def __init__(self, mesh: Mesh, values, solve_stats: dict | None = None):
        self.mesh = mesh
        self.solve_stats = solve_stats
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (mesh.n_vertices,):
            raise ValueError("one value per vertex required")
        self.values.setflags(write=False)
        self._rows = None

    def gradients(self, tri_ids=slice(None), rows=None) -> np.ndarray:
        """Constant gradient of each selected triangle, component-major
        (2, k): the corner values times the hat gradients. ``rows`` are the
        caller's corner rows x, y (``corners``) and values u, each (3, k),
        of these triangles, which are then not gathered again."""
        tris = self.mesh.triangles[tri_ids]
        x, y, u = rows or (*corners(self.mesh.vertices, tris), self.values[tris.T])
        return np.einsum("it,idt->dt", u, self.mesh.hat_gradients(tri_ids, (x, y)))

    def value_rows(self) -> str:
        """The values as rows ``"u\n"`` (``%r``), one string, rendered once
        (cached) for every export that writes them."""
        if self._rows is None:
            self._rows = _render("%r\n", self.values[:, None])
        return self._rows

    def tangential_derivative(self, crack) -> np.ndarray:
        """Directional derivative along each crack segment, shape (s,)."""
        t = crack.tangents()
        g = self.gradients(crack.triangle_index)
        return np.einsum("sd,ds->s", t, g)
