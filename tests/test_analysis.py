"""Exact fields, error norms, convergence rates, and junction flux balance."""

import numpy as np
import pytest

from crackfem import (
    Chain,
    Coefficients,
    CrackGraph,
    ExactRadialSolution,
    NormReport,
    SineProductSolution,
    SolutionField,
    SolverConfig,
    assemble,
    build_preset,
    build_rectangle_mesh,
    cut_chains,
    eoc,
    error_norms,
    kirchhoff_residual,
    refine_near_crack,
    run_single,
    solve,
)
from crackfem.config import (
    EXACT_SOLUTIONS,
    _build_boundary,
    _build_coefficients,
    _radial_levels,
    build_crack_graph,
)
from crackfem.mesh import RefinementConfig
from oracles import (
    continuous_form_apply,
    continuous_gradient_integrals,
    continuous_tangential_integrals,
    energy_by_expansion,
)


class ConstantGradientField:
    """u = g . x, handy because every norm against it is analytic."""

    def __init__(self, g):
        self.g = np.asarray(g, dtype=float)

    def value(self, points):
        return np.asarray(points, dtype=float).reshape(-1, 2) @ self.g

    def gradient(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return np.broadcast_to(self.g, pts.shape).copy()


@pytest.fixture(scope="module")
def radial_uniform_finest():
    config = build_preset("radial-uniform").with_global_h(_radial_levels()[-1])
    return run_single(config)


class TestExactRadialSolution:
    def test_continuous_across_the_interface(self):
        ex = ExactRadialSolution()
        e = ex.interface_radius
        assert ex.value_inner(e) == pytest.approx((4.0 + np.e) / 5.0, abs=1e-15)
        assert ex.value_inner(e) == pytest.approx(ex.value_outer(e), abs=1e-14)
        assert ex.interface_value == ex.value_inner(e)

    def test_boundary_values_are_zero_and_one(self):
        ex = ExactRadialSolution()
        assert ex.value([[1.0, 0.0]])[0] == 0.0
        assert ex.value([[ex.outer_radius, 0.0]])[0] == pytest.approx(1.0, abs=1e-14)

    def test_flux_jump_balances_a_unit_line_source(self):
        ex = ExactRadialSolution()
        angles = np.linspace(0.05, np.pi / 2.0 - 0.05, 100)
        assert np.allclose(ex.radial_flux_jump(angles), -1.0, atol=1e-14)
        # the same balance from one-sided gradients dotted with the normal
        on = ex.interface_radius * np.column_stack([np.cos(angles), np.sin(angles)])
        normal = on / ex.interface_radius
        jump = np.einsum(
            "pd,pd->p", ex.gradient_outer(on) - ex.gradient_inner(on), normal
        )
        assert np.abs(1.0 + jump).max() <= 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        ex = ExactRadialSolution()
        pts = rng.uniform(1.2, 2.4, size=(30, 2))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < ex.interface_radius - 0.1]
        step = 1e-6
        gx = (ex.value(pts + [step, 0.0]) - ex.value(pts - [step, 0.0])) / (2 * step)
        gy = (ex.value(pts + [0.0, step]) - ex.value(pts - [0.0, step])) / (2 * step)
        assert np.allclose(ex.gradient(pts), np.column_stack([gx, gy]), atol=1e-7)


class TestSineProductSolution:
    def test_gradient_and_load_match_finite_differences(self, rng):
        ex = SineProductSolution()
        pts = rng.uniform(0.1, 0.9, size=(30, 2))
        step = 1e-5
        gx = (ex.value(pts + [step, 0.0]) - ex.value(pts - [step, 0.0])) / (2 * step)
        gy = (ex.value(pts + [0.0, step]) - ex.value(pts - [0.0, step])) / (2 * step)
        assert np.allclose(ex.gradient(pts), np.column_stack([gx, gy]), atol=1e-8)
        lap = (
            ex.value(pts + [step, 0.0])
            + ex.value(pts - [step, 0.0])
            + ex.value(pts + [0.0, step])
            + ex.value(pts - [0.0, step])
            - 4.0 * ex.value(pts)
        ) / step**2
        assert np.allclose(-lap, ex.load(pts[:, 0], pts[:, 1]), atol=1e-5)


class TestErrorNorms:
    def test_exactly_represented_field_has_zero_error(self, fine_square_mesh):
        ex = ConstantGradientField([2.0, -1.0])
        v = fine_square_mesh.vertices
        u = SolutionField(fine_square_mesh, ex.value(v))
        chain = Chain(np.array([[0.1, 0.2], [0.8, 0.6]]), permeability=2.0)
        cut = cut_chains(fine_square_mesh, CrackGraph([chain]))
        rep = error_norms(u, ex, cut, level=3)
        assert rep.l2 <= 1e-13 and rep.h1_semi <= 1e-13
        assert rep.l2_crack <= 1e-13 and rep.energy <= 1e-13
        assert rep.level == 3
        assert rep.n_dofs == fine_square_mesh.n_vertices
        assert rep.h == fine_square_mesh.h_max

    def test_h_crack_tracks_crossed_triangles(self, fine_square_mesh):
        ex = ConstantGradientField([1.0, 0.0])
        u = SolutionField(fine_square_mesh, ex.value(fine_square_mesh.vertices))
        rep_plain = error_norms(u, ex)
        assert rep_plain.h_crack == fine_square_mesh.h_max
        chain = Chain(np.array([[0.1, 0.2], [0.8, 0.6]]))
        cut = cut_chains(fine_square_mesh, CrackGraph([chain]))
        rep = error_norms(u, ex, cut)
        diam = fine_square_mesh.triangle_diameters()
        assert rep.h_crack == diam[cut.crossed_triangles()].max()

    def test_interpolation_errors_shrink_at_known_rates(self):
        ex = SineProductSolution()
        reports = []
        for h in (0.125, 0.0625, 0.03125):
            mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), h)
            u = SolutionField(mesh, ex.value(mesh.vertices))
            reports.append(error_norms(u, ex))
        for coarse, fine in zip(reports, reports[1:]):
            assert 3.0 <= coarse.l2 / fine.l2 <= 5.4
            assert 1.7 <= coarse.h1_semi / fine.h1_semi <= 2.3

    def test_doubling_the_quadrature_barely_moves_norms(self, radial_uniform_finest):
        res = radial_uniform_finest
        exact = EXACT_SOLUTIONS[res.config.exact_solution]
        coeffs = _build_coefficients(res.config, res.crack)
        std = error_norms(res.solution, exact, res.segments, coeffs)
        fine = error_norms(
            res.solution, exact, res.segments, coeffs, quadrature="fine"
        )
        for name in ("l2", "h1_semi", "energy"):
            a, b = getattr(std, name), getattr(fine, name)
            assert abs(a - b) / b < 0.01

    def test_rejects_unknown_quadrature(self, square_mesh):
        u = SolutionField(square_mesh, np.zeros(square_mesh.n_vertices))
        with pytest.raises(ValueError, match="quadrature"):
            error_norms(u, ConstantGradientField([0.0, 0.0]), quadrature="huge")


class TestEoc:
    def _report(self, h, **norms):
        base = dict(
            level=0, h=h, h_crack=h, n_dofs=1, l2=1.0, h1_semi=1.0,
            l2_crack=1.0, energy=1.0,
        )
        base.update(norms)
        return NormReport(**base)

    def test_recovers_exact_slopes(self):
        hs = (0.5, 0.25, 0.125, 0.0625)
        reports = [
            self._report(h, l2=h**2, h1_semi=h, energy=h**1.5) for h in hs
        ]
        slopes = eoc(reports)
        assert slopes["l2"] == pytest.approx(2.0, abs=1e-12)
        assert slopes["h1_semi"] == pytest.approx(1.0, abs=1e-12)
        assert slopes["energy"] == pytest.approx(1.5, abs=1e-12)

    def test_zero_norm_gives_nan(self):
        reports = [self._report(h, l2_crack=0.0) for h in (0.5, 0.25, 0.125)]
        assert np.isnan(eoc(reports)["l2_crack"])

    def test_needs_three_decreasing_levels(self):
        reports = [self._report(h) for h in (0.5, 0.25)]
        with pytest.raises(ValueError, match="three"):
            eoc(reports)
        reports = [self._report(h) for h in (0.25, 0.5, 0.125)]
        with pytest.raises(ValueError, match="decreasing"):
            eoc(reports)


class TestEnergyAgreement:
    def test_two_energy_routes_agree(self, radial_coarse):
        res = radial_coarse
        exact = EXACT_SOLUTIONS[res.config.exact_solution]
        coeffs = _build_coefficients(res.config, res.crack)
        direct = res.report.energy
        expanded = energy_by_expansion(res.solution, exact, res.segments, coeffs)
        assert abs(direct - expanded) <= 1e-10 * direct


class TestGalerkinOrthogonality:
    def test_discrete_error_is_orthogonal_to_test_space(self, rng):
        # rebuild the radial problem with a finely sampled interface so the
        # polyline-versus-circle gap stays below the quadrature target
        h = _radial_levels()[0]
        config = build_preset("radial-local").with_global_h(h)
        rc = RefinementConfig(**config.refinement)
        graph = build_crack_graph(config, h / 40.0)  # spacing h / 400
        mesh = build_rectangle_mesh(config.domain, h)
        mesh = refine_near_crack(mesh, graph, rc)
        segments = cut_chains(mesh, graph)
        coeffs = _build_coefficients(config, graph)
        system = assemble(mesh, segments, coeffs, _build_boundary(config))
        u = solve(system, SolverConfig(method="direct"))
        exact = EXACT_SOLUTIONS[config.exact_solution]

        vectors = rng.standard_normal((5, system.n))
        vectors[:, system.constrained] = 0.0
        lhs = continuous_form_apply(
            mesh,
            segments,
            coeffs,
            exact,
            vectors,
            refine_triangles=segments.crossed_triangles(),
            levels=6,
        )
        K0 = system.operator
        rhs = vectors @ (K0 @ u.values)
        uu = np.sqrt(u.values @ (K0 @ u.values))
        vv = np.sqrt(np.einsum("kn,kn->k", vectors, (K0 @ vectors.T).T))
        rel = np.abs(lhs - rhs) / (uu * vv)
        assert rel.max() <= 1e-6


class TestContinuousFormPieces:
    def test_gradient_integrals_of_a_constant_field(self, fine_square_mesh):
        ex = ConstantGradientField([1.0, 2.0])
        out = continuous_gradient_integrals(fine_square_mesh, ex)
        want = fine_square_mesh.triangle_areas()[:, None] * ex.g
        assert np.allclose(out, want, atol=1e-14)

    def test_subdivided_rule_matches_plain_on_smooth_fields(self, fine_square_mesh):
        ex = SineProductSolution()
        plain = continuous_gradient_integrals(fine_square_mesh, ex)
        mixed = continuous_gradient_integrals(
            fine_square_mesh, ex, refine_triangles=[3, 17, 40], levels=3
        )
        assert np.allclose(plain, mixed, atol=1e-9)

    def test_tangential_integrals_of_a_straight_segment(self, fine_square_mesh):
        ex = ConstantGradientField([2.0, 1.0])
        chain = Chain(np.array([[0.1, 0.1], [0.7, 0.55]]), permeability=1.0)
        cut = cut_chains(fine_square_mesh, CrackGraph([chain]))
        out = continuous_tangential_integrals(cut, ex)
        t = cut.tangents()
        want = (t @ ex.g) * cut.length
        assert np.allclose(out, want, atol=1e-14)

    def test_form_apply_is_linear_in_the_test_vector(self, fine_square_mesh, rng):
        ex = SineProductSolution()
        v = rng.standard_normal((2, fine_square_mesh.n_vertices))
        single = continuous_form_apply(
            fine_square_mesh, None, Coefficients(), ex, v[0] + 2.0 * v[1]
        )
        pair = continuous_form_apply(fine_square_mesh, None, Coefficients(), ex, v)
        assert single[0] == pytest.approx(pair[0] + 2.0 * pair[1], rel=1e-12)


class TestKirchhoffResidual:
    def test_collinear_chains_balance_exactly(self, fine_square_mesh):
        a = Chain(np.array([[0.125, 0.5], [0.5, 0.5]]), permeability=2.0)
        b = Chain(np.array([[0.5, 0.5], [0.875, 0.5]]), permeability=2.0)
        graph = CrackGraph([a, b])
        cut = cut_chains(fine_square_mesh, graph)
        v = fine_square_mesh.vertices
        u = SolutionField(fine_square_mesh, 3.0 * v[:, 0])
        res = kirchhoff_residual(u, cut)
        shared = int(
            np.nonzero((graph.nodes == [0.5, 0.5]).all(axis=1))[0][0]
        )
        assert res[shared] <= 1e-13
        tips = np.setdiff1d(np.arange(len(graph.nodes)), [shared])
        assert np.allclose(res[tips], 6.0, atol=1e-12)

    def test_zero_permeability_means_zero_residual(self, fine_square_mesh, rng):
        crack = CrackGraph(
            [Chain(np.array([[0.1, 0.3], [0.6, 0.8]]), permeability=0.0)]
        )
        cut = cut_chains(fine_square_mesh, crack)
        u = SolutionField(
            fine_square_mesh, rng.standard_normal(fine_square_mesh.n_vertices)
        )
        assert np.array_equal(kirchhoff_residual(u, cut), np.zeros(2))


class TestCsvRows:
    def test_header_and_roundtrip(self):
        rep = NormReport(
            level=2, h=0.125, h_crack=0.015625, n_dofs=1234,
            l2=1.234e-5, h1_semi=6.7e-3, l2_crack=8.9e-6, energy=7.1e-3,
        )
        assert NormReport.CSV_HEADER == "level,h,h_crack,n_dofs,l2,h1_semi,l2_crack,energy"
        row = rep.as_csv_row()
        parts = row.split(",")
        assert int(parts[0]) == 2 and int(parts[3]) == 1234
        assert float(parts[1]) == rep.h
        assert float(parts[4]) == rep.l2 and float(parts[7]) == rep.energy
