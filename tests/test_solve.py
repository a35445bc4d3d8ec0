"""Linear solvers, the solution field, and its point evaluation oracle."""

import importlib
import inspect
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from crackfem import (
    BoundarySpec,
    Coefficients,
    LinearSystem,
    Mesh,
    ProblemConfig,
    SolutionField,
    SolverError,
    assemble,
    assemble_operator,
    build_preset,
    build_rectangle_mesh,
    refine_marked,
    run_single,
    solve,
)
from crackfem.cracks import SegmentedCrack
from oracles import (
    evaluate_field,
    locate_points,
    points_in_triangle,
    splu_default_solve,
    stencil_solver_per_call,
    validate_mesh,
)
from test_golden import case_config, pipeline_system
from test_kernels import assert_bitwise

# ``crackfem.solve`` as a package attribute is the function, not the module
solve_module = importlib.import_module("crackfem.solve")

ZERO_WALLS = BoundarySpec(
    dirichlet={"left": 0.0, "right": 0.0, "bottom": 0.0, "top": 0.0}
)


def sine_system(h):
    mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), h)
    f = lambda p: 2.0 * np.pi**2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    return assemble(mesh, SegmentedCrack.empty(), Coefficients(source=f), ZERO_WALLS)


def embedded_system(mesh, block, rhs):
    """An unconstrained system on ``mesh``: ``block`` on the first vertices,
    the identity on the rest."""
    block = sp.csr_matrix(block)
    k = block.shape[0]
    matrix = sp.block_diag(
        [block, sp.identity(mesh.n_vertices - k)], format="csr"
    )
    rhs = np.concatenate([rhs, np.ones(mesh.n_vertices - k)])
    return LinearSystem(
        matrix=matrix,
        rhs=rhs,
        free=np.arange(mesh.n_vertices),
        constrained=np.empty(0, dtype=np.int64),
        values=np.empty(0),
        mesh=mesh,
    )


class TestSolve:
    def test_single_free_vertex_solved_exactly(self, square_mesh):
        # h = 0.5 with all walls clamped leaves only the center vertex free;
        # as assembled it is a lattice system, without ``a`` a hand-built one
        sys = assemble(
            square_mesh, SegmentedCrack.empty(), Coefficients(source=1.0), ZERO_WALLS
        )
        assert sys.matrix.shape == (1, 1)
        want = float(sys.rhs[0] / sys.matrix.toarray()[0, 0])
        for system in (sys, replace(sys, a=None)):
            u = solve(system)
            assert u.values[sys.free[0]] == pytest.approx(want, rel=1e-15)

    def test_identity_system_returns_rhs(self, square_mesh, rng):
        n = square_mesh.n_vertices
        b = rng.standard_normal(n)
        sys = embedded_system(square_mesh, sp.identity(n), b)
        u = solve(sys)
        assert np.allclose(u.values, b, atol=1e-14)

    def test_nodal_errors_shrink_quadratically(self):
        exact = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        errs = []
        for h in (0.25, 0.125, 0.0625):
            sys = sine_system(h)
            u = solve(sys)
            v = sys.mesh.vertices
            errs.append(np.abs(u.values - exact(v)).max())
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.0 <= coarse / fine <= 5.0

    def test_cg_matches_direct_in_energy(self):
        sys = sine_system(0.0625)
        u_cg = solve(sys).values
        u_dir = u_cg.copy()
        u_dir[sys.free] = solve_module._factor(sys.matrix).solve(sys.rhs)
        d = u_cg - u_dir
        K0 = assemble_operator(sys.mesh, SegmentedCrack.empty(), Coefficients())
        gap = np.sqrt(d @ (K0 @ d))
        scale = np.sqrt(u_dir @ (K0 @ u_dir))
        assert gap <= 1e-8 * scale

    def test_vertex_relabeling_relabels_the_solution(self, rng):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
        perm = rng.permutation(mesh.n_vertices)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(mesh.n_vertices)
        shuffled = Mesh(mesh.vertices[perm], inv[mesh.triangles])
        validate_mesh(shuffled)

        def run(m):
            sys = assemble(
                m, SegmentedCrack.empty(), Coefficients(source=1.0), ZERO_WALLS
            )
            return solve(sys).values

        assert np.allclose(run(shuffled)[inv], run(mesh), atol=1e-12)

    def test_prescribed_values_come_back_bitwise(self):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
        spec = BoundarySpec(
            dirichlet={"left": 1.25, "right": -0.5, "bottom": 0.75, "top": 2.0}
        )
        sys = assemble(mesh, SegmentedCrack.empty(), Coefficients(), spec)
        u = solve(sys)
        assert np.array_equal(u.values[sys.constrained], sys.values)

    def test_discrete_maximum_principle(self):
        sys = sine_system(0.125)
        u = solve(sys)
        assert (u.values >= -1e-14).all()
        interior = np.setdiff1d(np.arange(sys.n), sys.constrained)
        assert u.values.argmax() in interior

    @pytest.mark.parametrize("path", ["lattice CG", "SuperLU"])
    def test_non_finite_solution_raises(self, fine_square_mesh, path):
        if path == "lattice CG":
            sys = sine_system(0.125)
        else:
            n = fine_square_mesh.n_vertices
            sys = embedded_system(fine_square_mesh, sp.identity(n), np.ones(n))
        sys.rhs[len(sys.rhs) // 2] = np.nan
        with pytest.raises(SolverError, match=f"^{path} did not converge"):
            solve(sys)

    def test_inexact_superlu_solve_raises(self, monkeypatch):
        # a finite answer whose residual misses REL_TOLERANCE fails the same
        # check as an unconverged CG; an offset in every solve survives the
        # one step of iterative refinement
        real = solve_module._factor
        monkeypatch.setattr(
            solve_module,
            "_factor",
            lambda A: SimpleNamespace(nnz=0, solve=lambda b: real(A).solve(b) + 1e-6),
        )
        with pytest.raises(SolverError, match="^SuperLU did not converge"):
            solve(replace(sine_system(0.125), a=None))

    @pytest.mark.parametrize("error, n_solves", [(1e-6, 2), (0.0, 1)])
    def test_superlu_refines_a_solve_that_misses_once(self, monkeypatch, error, n_solves):
        # a relative error of 1e-6 in each solve leaves 1e-12 after one step
        # of iterative refinement; a solve that meets the target is not refined
        sys = replace(sine_system(0.125), a=None)
        exact = solve(sys).values
        real, solves = solve_module._factor, []

        def scaled(A):
            lu = real(A)
            return SimpleNamespace(
                nnz=lu.nnz, solve=lambda b: solves.append(b) or lu.solve(b) * (1.0 + error)
            )

        monkeypatch.setattr(solve_module, "_factor", scaled)
        field = solve(sys)
        values = field.values
        assert len(solves) == n_solves
        assert field.solve_stats["refined"] == (n_solves == 2)
        assert np.abs(values - exact).max() <= 1e-10 * np.abs(exact).max()
        assert error or np.array_equal(values, exact)

    def test_hand_built_systems_take_superlu(self, solver_calls):
        # without ``a`` the lattice preconditioner does not apply, however
        # regular the system; as assembled, the same system runs lattice CG
        sys = sine_system(0.125)
        solve(replace(sys, a=None))
        assert solver_calls == [("splu", None)]
        solver_calls.clear()
        solve(sys)
        assert [name for name, _ in solver_calls] == ["cg"]


class TestSolveStats:
    """The record of the solve on the field ``solve`` returns."""

    KEYS = {"path", "cg_steps", "rel_residual", "refined", "lu_nnz"}

    def test_lattice_cg(self):
        _, sys = pipeline_system(case_config("radial-uniform:1"))
        stats = solve(sys).solve_stats
        assert stats.keys() == self.KEYS
        assert stats["path"] == "lattice CG" and stats["cg_steps"] == 7
        assert stats["refined"] is False and stats["lu_nnz"] == 0
        assert stats["rel_residual"] <= 1e-10

    def test_superlu(self):
        _, sys = pipeline_system(case_config("radial-local:1"))
        stats = solve(sys).solve_stats
        assert stats.keys() == self.KEYS
        assert stats["path"] == "SuperLU" and stats["cg_steps"] == 0
        assert stats["refined"] is False and stats["rel_residual"] <= 1e-10
        # the factor stores at least the matrix's own entries
        assert stats["lu_nnz"] >= sys.matrix.nnz

    def test_fields_built_directly_carry_none(self, square_mesh):
        assert SolutionField(square_mesh, np.zeros(square_mesh.n_vertices)).solve_stats is None


def stencil(nx, ny, hx, hy, a):
    """``a`` times the 5-point stencil on the interior of an nx x ny-cell
    lattice, x fastest."""
    second = lambda n: sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n - 1, n - 1))
    eye = lambda n: sp.identity(n - 1)
    return a * (
        (hy / hx) * sp.kron(eye(ny), second(nx)) + (hx / hy) * sp.kron(second(ny), eye(nx))
    ).tocsr()


def radial_uniform(level, permeability=1.0):
    """Config of the radial-uniform preset at a study level index, or at
    the finest level's global_h / 4 for level "fine"."""
    raw = build_preset("radial-uniform").to_dict()
    raw["chains"][0]["permeability"] = permeability
    config = ProblemConfig.from_dict(raw)
    levels = config.study["levels"]
    return config.with_global_h(levels[-1] / 4.0 if level == "fine" else levels[level])


# a circle splitting the unit square into two bulk regions, every side Dirichlet
TWO_REGIONS = {
    "domain": [0.0, 1.0, 0.0, 1.0],
    "chains": [
        {"geometry": {"kind": "circle", "center": [0.5, 0.5], "radius": 0.3}, "permeability": 1.0}
    ],
    "coefficients": {"a1": 1.0, "a2": 10.0, "source": 1.0},
    "boundary": {tag: {"dirichlet": 0.0} for tag in ZERO_WALLS.dirichlet},
    "refinement": {"global_h": 0.125},
}


class TestLatticePreconditioner:
    @pytest.mark.parametrize("top", [1.0, 0.7], ids=["square", "hx-ne-hy"])
    def test_bulk_is_the_five_point_stencil(self, top):
        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, top), 0.125)
        xs, ys, _ = mesh.lattice
        nx, ny = len(xs) - 1, len(ys) - 1
        hx, hy = 1.0 / nx, top / ny
        assert (hx == hy) == (top == 1.0)
        sys = assemble(mesh, SegmentedCrack.empty(), Coefficients(a1=2.5, a2=2.5), ZERO_WALLS)
        assert sys.a == 2.5
        want = stencil(nx, ny, hx, hy, 2.5)
        assert abs(sys.matrix - want).max() <= 1e-14 * abs(want).max()

    def test_stencil_solve_matches_spsolve(self, rng):
        nx, ny, hx, hy, a = 7, 5, 0.3, 0.2, 1.7
        r = rng.standard_normal((nx - 1) * (ny - 1))
        got = solve_module._stencil_solver(nx, ny, hx, hy, a)(r)
        want = spla.spsolve(stencil(nx, ny, hx, hy, a).tocsc(), r)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize(
        "nx, ny, hx, hy",
        [
            (8, 8, 0.125, 0.125),
            (6, 6, 0.3, 0.2),
            (7, 5, 0.3, 0.2),
            (1, 1, 1.0, 1.0),
            (2, 1, 0.5, 1.0),
            (2, 2, 0.5, 0.5),
        ],
        ids=["square", "hx-ne-hy", "nx-ne-ny", "1x1", "2x1", "2x2"],
    )
    def test_buffered_stencil_solve_is_the_per_call_one(self, nx, ny, hx, hy, rng):
        apply = solve_module._stencil_solver(nx, ny, hx, hy, 1.7)
        oracle = stencil_solver_per_call(nx, ny, hx, hy, 1.7)
        rs = rng.standard_normal((3, (nx - 1) * (ny - 1)))
        outs = [apply(r) for r in rs]
        # each output is still the oracle's after the later applies ran
        for r, got in zip(rs, outs):
            assert_bitwise(got, oracle(r))
        # the buffers the applies reuse, read from the solver's closure
        dst2 = inspect.getclosurevars(apply).nonlocals["dst2"]
        buffers = inspect.getclosurevars(dst2).nonlocals["buffers"]
        kept = [array for pair in buffers.values() for array in pair]
        assert len(kept) == (2 if nx == ny else 4)
        for i, got in enumerate(outs):
            assert got.flags.owndata and got.flags.writeable
            for other in outs[i + 1 :] + kept:
                assert not np.shares_memory(got, other)

    @pytest.mark.parametrize("level", range(5))
    def test_crack_block_is_the_free_vertices_of_crossed_triangles(self, level):
        segments, sys = pipeline_system(radial_uniform(level))
        _, block = solve_module._lattice_preconditioner(sys)
        crossed = sys.mesh.triangles[segments.triangle_index]
        assert np.array_equal(block, np.flatnonzero(np.isin(sys.free, crossed)))

    @pytest.mark.parametrize("level, rows, steps", [(1, 36, 7), ("fine", 1254, 23)])
    def test_crack_block_is_where_the_diagonal_leaves_the_stencil(self, level, rows, steps):
        # B comes from the crack's owner triangles; read off the matrix, it
        # is the rows whose diagonal differs from the stencil's
        _, sys = pipeline_system(radial_uniform(level))
        xs, ys, _ = sys.mesh.lattice
        nx, ny = len(xs) - 1, len(ys) - 1
        hx, hy = (xs[-1] - xs[0]) / nx, (ys[-1] - ys[0]) / ny
        d0 = 2.0 * sys.a * (hy / hx + hx / hy)
        off = np.flatnonzero(np.abs(sys.matrix.diagonal() - d0) > 1e-12 * d0)
        assert np.array_equal(sys.crack_rows, off) and len(off) == rows
        assert solve(sys).solve_stats["cg_steps"] == steps

    @pytest.mark.parametrize("permeability", [1.0, 100.0])
    def test_cg_iterations_are_bounded(self, permeability):
        counts = []
        for level in [*range(5), "fine"]:
            _, sys = pipeline_system(radial_uniform(level, permeability))
            stats = solve(sys).solve_stats
            assert stats["path"] == "lattice CG"
            counts.append(stats["cg_steps"])
        assert max(counts) <= 40

    def test_iteration_cap_raises(self, monkeypatch):
        _, sys = pipeline_system(radial_uniform(0))
        monkeypatch.setattr(solve_module, "MAX_CG_STEPS", 1)
        with pytest.raises(SolverError, match="^lattice CG did not converge"):
            solve(sys)

    def test_cg_stopped_short_of_the_target_raises(self, monkeypatch):
        # cg stopping at 1e-7 leaves a true residual of 2.6e-9 |b| here, which
        # the check against 1e-10 |b| must reject whatever cg's info says
        _, sys = pipeline_system(radial_uniform(1))
        real_cg = solve_module.spla.cg
        monkeypatch.setattr(
            solve_module.spla, "cg", lambda *a, **kw: real_cg(*a, **{**kw, "rtol": 1e-7})
        )
        with pytest.raises(SolverError, match="^lattice CG did not converge"):
            solve(sys)

    @pytest.mark.parametrize("level", range(5))
    def test_norms_match_the_direct_solve(self, level, monkeypatch):
        config = radial_uniform(level)
        cg = run_single(config).report
        # without the preconditioner, solve factors the system with SuperLU
        monkeypatch.setattr(solve_module, "_lattice_preconditioner", lambda system: None)
        direct = run_single(config).report
        for name in ("l2", "h1_semi", "l2_crack", "energy"):
            assert getattr(cg, name) == pytest.approx(getattr(direct, name), rel=1e-6)

    @pytest.mark.parametrize("case", ["refined", "neumann", "two-regions"])
    def test_other_systems_take_superlu(self, case, solver_calls):
        if case == "refined":
            config = case_config("radial-local:1")
        else:
            # crack-network has Neumann top and bottom sides
            raw = TWO_REGIONS if case == "two-regions" else build_preset("crack-network").to_dict()
            unrefined = {**raw["refinement"], "rule": "none"}
            config = ProblemConfig.from_dict({**raw, "refinement": unrefined})
        _, sys = pipeline_system(config)
        if case == "neumann":  # an unrefined lattice with one permeability
            assert sys.mesh.lattice.cells is None and sys.a == 1.0
        assert (sys.a is None) == (case == "two-regions")
        assert solve_module._lattice_preconditioner(sys) is None
        solve(sys)
        assert solver_calls == [("splu", None)]


class TestResidualTargetBeyondDoublePrecision:
    """ROADMAP item 1: on a circle of permeability 100 under a unit load
    with zero walls, the crack rows' entries of order p / h_crack dwarf the
    h^2-sized loads in |b|, so no double-precision solution meets the
    relative residual target 1e-10 |b| and the solve raises. Both paths
    fail today; the tests turn green when the acceptance test is mended."""

    @pytest.mark.xfail(strict=True, raises=SolverError, reason="ROADMAP item 1")
    @pytest.mark.parametrize(
        "global_h, rule, path",
        [(1.0 / 16.0, "quadratic", "SuperLU"), (1.0 / 128.0, "none", "lattice CG")],
    )
    def test_solve_accepts_the_best_double_precision_solution(self, global_h, rule, path):
        chain = {**TWO_REGIONS["chains"][0], "permeability": 100.0}
        raw = {**TWO_REGIONS, "chains": [chain], "coefficients": {"source": 1.0}}
        config = ProblemConfig.from_dict(
            {**raw, "refinement": {"global_h": global_h, "rule": rule}}
        )
        _, sys = pipeline_system(config)
        assert solve(sys).solve_stats["path"] == path


class TestDirectFactorization:
    @pytest.mark.parametrize(
        "case, rtol",
        [("radial-local:1", 1e-12), ("crack-network:default", 1e-12), ("radial-local:3", 1e-10)],
    )
    def test_agrees_with_default_ordering(self, case, rtol):
        _, system = pipeline_system(case_config(case))
        want = splu_default_solve(system.matrix, system.rhs)
        got = solve(system).values[system.free]
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()

    def test_symmetric_ordering_cuts_fill(self, monkeypatch):
        fill = []
        real_splu = solve_module.spla.splu

        def recording_splu(*args, **kwargs):
            lu = real_splu(*args, **kwargs)
            fill.append(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(solve_module.spla, "splu", recording_splu)
        _, system = pipeline_system(case_config("radial-local:1"))
        solve(system)
        splu_default_solve(system.matrix, system.rhs)
        ours, default = fill
        assert ours <= 0.7 * default

    # LinearSystem is public, so solve also sees matrices assembly never
    # builds; without partial pivoting it must still solve them within the
    # residual bound or raise SolverError
    @pytest.mark.parametrize(
        "block",
        [[[0.0, 1.0], [1.0, 0.0]], [[1e-20, 1.0], [1.0, 1.0]]],
        ids=["zero-diagonal", "tiny-pivot"],
    )
    def test_solves_without_a_usable_diagonal(self, square_mesh, block):
        b = np.array([1.0, 2.0])
        sys = embedded_system(square_mesh, block, b)
        u = solve(sys).values
        assert np.array_equal(u[:2], np.linalg.solve(block, b))
        assert np.array_equal(u[2:], np.ones(sys.n - 2))

    def test_solves_nonsymmetric_dominant(self, fine_square_mesh, rng):
        n = fine_square_mesh.n_vertices
        off = sp.random(n, n, density=0.05, random_state=rng, format="csr")
        off.setdiag(0.0)
        A = off + sp.diags(np.abs(off).sum(axis=1).A1 + 1.0)
        assert (A != A.T).nnz > 0
        b = rng.standard_normal(n)
        u = solve(embedded_system(fine_square_mesh, A, b))
        assert np.linalg.norm(A @ u.values - b) <= 1e-10 * np.linalg.norm(b)

    def test_singular_matrix_raises(self, square_mesh):
        sys = embedded_system(square_mesh, [[1.0, 1.0], [1.0, 1.0]], np.ones(2))
        with pytest.raises(SolverError, match="factorization failed"):
            solve(sys)


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
        assert g.shape == (2, fine_square_mesh.n_triangles)
        assert np.allclose(g.T, [2.0, 3.0], atol=1e-12)

    def test_evaluate_interpolates(self, fine_square_mesh, rng):
        v = fine_square_mesh.vertices
        u = SolutionField(fine_square_mesh, 2.0 * v[:, 0] + 3.0 * v[:, 1] - 1.0)
        pts = rng.uniform(0.0, 1.0, size=(40, 2))
        want = 2.0 * pts[:, 0] + 3.0 * pts[:, 1] - 1.0
        assert np.allclose(evaluate_field(u, pts), want, atol=1e-12)
        assert evaluate_field(u, pts[0]) == pytest.approx(want[0], abs=1e-12)

    def test_evaluate_outside_raises(self, square_mesh):
        u = SolutionField(square_mesh, np.zeros(square_mesh.n_vertices))
        with pytest.raises(ValueError, match="outside"):
            evaluate_field(u, [3.0, 3.0])

    def test_locate_prefers_lowest_triangle_on_shared_edges(self, square_mesh):
        coords = square_mesh.vertices[square_mesh.triangles]
        # midpoint of the edge shared by triangles 0 and 1
        shared = sorted(
            set(map(tuple, coords[0])) & set(map(tuple, coords[1]))
        )
        mid = 0.5 * (np.array(shared[0]) + np.array(shared[1]))
        assert locate_points(square_mesh, mid[None])[0] == 0

    def test_locate_matches_brute_force_on_refined_mesh(self, fine_square_mesh, rng):
        mesh = fine_square_mesh
        for _ in range(3):
            mark = rng.choice(mesh.n_triangles, mesh.n_triangles // 8, replace=False)
            mesh, _ = refine_marked(mesh, mark)
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
        assert locate_points(mesh, pts).tolist() == want.tolist()
