"""Linear solvers and point evaluation of the solution field."""

import numpy as np
import pytest
import scipy.sparse as sp

from crackfem import (
    BoundarySpec,
    Coefficients,
    LinearSystem,
    Mesh,
    SolutionField,
    SolverConfig,
    SolverError,
    assemble,
    build_rectangle_mesh,
    refine_marked,
    solve,
)
from crackfem.cracks import SegmentedCrack
from oracles import points_in_triangle

ZERO_WALLS = BoundarySpec(
    dirichlet={"left": 0.0, "right": 0.0, "bottom": 0.0, "top": 0.0}
)


def sine_system(h):
    mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), h)
    f = lambda x, y: 2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    return assemble(mesh, SegmentedCrack.empty(), Coefficients(source=f), ZERO_WALLS)


class TestSolverConfig:
    def test_cholesky_alias(self):
        # the direct path is SuperLU; there is no Cholesky alias for it
        with pytest.raises(ValueError, match="unknown solver"):
            SolverConfig(method="direct-cholesky")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown solver"):
            SolverConfig(method="gmres")

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError, match="rel_tolerance"):
            SolverConfig(rel_tolerance=0.0)
        with pytest.raises(ValueError, match="rel_tolerance"):
            SolverConfig(rel_tolerance=2.0)

    def test_rejects_bad_iteration_cap(self):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(max_iterations=0)


class TestSolve:
    def test_single_free_vertex_solved_exactly(self, square_mesh):
        # h = 0.5 with all walls clamped leaves only the center vertex free
        sys = assemble(
            square_mesh, SegmentedCrack.empty(), Coefficients(source=1.0), ZERO_WALLS
        )
        A, rhs, free = sys.reduced()
        assert A.shape == (1, 1)
        want = float(rhs[0] / A.toarray()[0, 0])
        for method in ("cg", "direct"):
            u = solve(sys, SolverConfig(method=method))
            assert u.values[free[0]] == pytest.approx(want, rel=1e-15)

    def test_identity_system_returns_rhs(self, square_mesh, rng):
        n = square_mesh.n_vertices
        eye = sp.identity(n, format="csr")
        b = rng.standard_normal(n)
        sys = LinearSystem(
            matrix=eye,
            rhs=b,
            constrained=np.empty(0, dtype=np.int64),
            values=np.empty(0),
            operator=eye,
            mesh=square_mesh,
        )
        for method in ("cg", "direct"):
            u = solve(sys, SolverConfig(method=method))
            assert np.allclose(u.values, b, atol=1e-14)

    def test_nodal_errors_shrink_quadratically(self):
        exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        errs = []
        for h in (0.25, 0.125, 0.0625):
            sys = sine_system(h)
            u = solve(sys, SolverConfig(method="direct"))
            v = sys.mesh.vertices
            errs.append(np.abs(u.values - exact(v[:, 0], v[:, 1])).max())
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.0 <= coarse / fine <= 5.0

    def test_cg_matches_direct_in_energy(self):
        sys = sine_system(0.0625)
        u_cg = solve(sys, SolverConfig(method="cg", rel_tolerance=1e-12)).values
        u_dir = solve(sys, SolverConfig(method="direct")).values
        d = u_cg - u_dir
        gap = np.sqrt(d @ (sys.operator @ d))
        scale = np.sqrt(u_dir @ (sys.operator @ u_dir))
        assert gap <= 1e-8 * scale

    def test_vertex_relabeling_relabels_the_solution(self, rng):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
        perm = rng.permutation(mesh.n_vertices)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(mesh.n_vertices)
        shuffled = Mesh(
            mesh.vertices[perm],
            inv[mesh.triangles],
            inv[mesh.boundary_edges],
            mesh.boundary_tags,
        )
        shuffled.validate()

        def run(m):
            sys = assemble(
                m, SegmentedCrack.empty(), Coefficients(source=1.0), ZERO_WALLS
            )
            return solve(sys, SolverConfig(method="direct")).values

        assert np.allclose(run(shuffled)[inv], run(mesh), atol=1e-12)

    def test_prescribed_values_come_back_bitwise(self):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
        spec = BoundarySpec(
            dirichlet={"left": 1.25, "right": -0.5, "bottom": 0.75, "top": 2.0}
        )
        sys = assemble(mesh, SegmentedCrack.empty(), Coefficients(), spec)
        u = solve(sys, SolverConfig(method="direct"))
        assert np.array_equal(u.values[sys.constrained], sys.values)

    def test_discrete_maximum_principle(self):
        sys = sine_system(0.125)
        u = solve(sys, SolverConfig(method="direct"))
        assert (u.values >= -1e-14).all()
        interior = np.setdiff1d(np.arange(sys.n), sys.constrained)
        assert u.values.argmax() in interior

    def test_iteration_cap_raises(self):
        # a sine load is an exact eigenvector here and converges in one
        # sweep, so use a constant source to keep cg honest
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.0625)
        sys = assemble(
            mesh, SegmentedCrack.empty(), Coefficients(source=1.0), ZERO_WALLS
        )
        with pytest.raises(SolverError, match="did not converge"):
            solve(sys, SolverConfig(method="cg", max_iterations=1))


class TestSolutionField:
    def test_needs_one_value_per_vertex(self, square_mesh):
        with pytest.raises(ValueError, match="per vertex"):
            SolutionField(square_mesh, np.zeros(3))

    def test_values_are_read_only(self, square_mesh):
        u = SolutionField(square_mesh, np.zeros(square_mesh.n_vertices))
        with pytest.raises(ValueError):
            u.values[0] = 1.0

    def test_gradient_of_linear_field_is_exact(self, fine_square_mesh):
        v = fine_square_mesh.vertices
        u = SolutionField(fine_square_mesh, 2.0 * v[:, 0] + 3.0 * v[:, 1] - 1.0)
        g = u.gradients()
        assert np.allclose(g, [2.0, 3.0], atol=1e-12)

    def test_evaluate_interpolates(self, fine_square_mesh, rng):
        v = fine_square_mesh.vertices
        u = SolutionField(fine_square_mesh, 2.0 * v[:, 0] + 3.0 * v[:, 1] - 1.0)
        pts = rng.uniform(0.0, 1.0, size=(40, 2))
        want = 2.0 * pts[:, 0] + 3.0 * pts[:, 1] - 1.0
        assert np.allclose(u.evaluate(pts), want, atol=1e-12)
        assert u.evaluate(pts[0]) == pytest.approx(want[0], abs=1e-12)

    def test_evaluate_outside_raises(self, square_mesh):
        u = SolutionField(square_mesh, np.zeros(square_mesh.n_vertices))
        with pytest.raises(ValueError, match="outside"):
            u.evaluate([3.0, 3.0])

    def test_locate_prefers_lowest_triangle_on_shared_edges(self, square_mesh):
        u = SolutionField(square_mesh, np.zeros(square_mesh.n_vertices))
        coords = square_mesh.vertices[square_mesh.triangles]
        # midpoint of the edge shared by triangles 0 and 1
        shared = sorted(
            set(map(tuple, coords[0])) & set(map(tuple, coords[1]))
        )
        mid = 0.5 * (np.array(shared[0]) + np.array(shared[1]))
        assert u.locate(mid[None])[0] == 0

    def test_locate_matches_brute_force_on_refined_mesh(self, fine_square_mesh, rng):
        mesh = fine_square_mesh
        for _ in range(3):
            mark = rng.choice(mesh.n_triangles, mesh.n_triangles // 8, replace=False)
            mesh = refine_marked(mesh, mark)
        coords = mesh.vertices[mesh.triangles]
        edge_mids = 0.5 * (coords + np.roll(coords, -1, axis=1))
        pts = np.vstack(
            [
                mesh.vertices,
                edge_mids.reshape(-1, 2)[::7],
                rng.uniform(0.0, 1.0, size=(50, 2)),
                [[1.5, 0.5]],
            ]
        )
        inside = np.column_stack(
            [points_in_triangle(pts, tri, mesh.tolerance) for tri in coords]
        )
        # lowest containing triangle, -1 for none
        want = np.where(inside.any(axis=1), np.argmax(inside, axis=1), -1)
        assert want[-1] == -1 and (want[:-1] >= 0).all()
        u = SolutionField(mesh, np.zeros(mesh.n_vertices))
        assert u.locate(pts).tolist() == want.tolist()
