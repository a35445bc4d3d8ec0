"""Acceptance gate: the six headline checks, one printed verdict per item.

Verdict lines bypass pytest capture so the log always shows them, pass or
fail. Bounds are fixed here; supporting evidence lives in the unit suites.
"""

import time

import numpy as np

from crackfem import (
    CrackGraph,
    Coefficients,
    ExactRadialSolution,
    ProblemConfig,
    SegmentedCrack,
    assemble_operator,
    build_preset,
    build_rectangle_mesh,
    cut_chains,
    kirchhoff_residual,
    refine_marked,
    run_convergence_study,
    run_single,
)
from crackfem.config import _build_coefficients
from conftest import make_y_crack
from oracles import (
    bulk_element_matrix,
    gradient_inner,
    gradient_outer,
    interface_segment_matrix,
    min_angle,
    node_degree,
    value_inner,
    value_outer,
)


def verdict(capsys, ok: bool, name: str, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def drop_factors(values):
    return [a / b for a, b in zip(values, values[1:])]


def run_study(preset: str):
    start = time.perf_counter()
    result = run_convergence_study(build_preset(preset))
    elapsed = time.perf_counter() - start
    return result, elapsed


def slope_window(slopes, name, center, width):
    return center - width <= slopes[name] <= center + width


def errors_mostly_monotone(reports, name):
    vals = [getattr(r, name) for r in reports]
    return all(b <= 1.2 * a for a, b in zip(vals, vals[1:]))


class TestAcceptance:
    uniform_l2_slope = None

    def test_1_uniform_meshes_halve_the_order(self, capsys):
        result, elapsed = run_study("radial-uniform")
        s = result.slopes
        ok = (
            slope_window(s, "h1_semi", 0.5, 0.15)
            and slope_window(s, "l2", 1.0, 0.2)
            and errors_mostly_monotone(result.reports, "l2")
            and len(result.reports) >= 5
            and elapsed < 60.0
        )
        TestAcceptance.uniform_l2_slope = s["l2"]
        verdict(
            capsys,
            ok,
            "1 uniform interface slopes",
            f"h1={s['h1_semi']:.3f} (0.50+/-0.15) l2={s['l2']:.3f} "
            f"(1.00+/-0.20) levels={len(result.reports)} time={elapsed:.1f}s",
        )

    def test_2_interface_refinement_restores_the_order(self, capsys):
        result, elapsed = run_study("radial-local")
        s = result.slopes
        ok = (
            slope_window(s, "h1_semi", 1.0, 0.15)
            and slope_window(s, "l2", 2.0, 0.25)
            and errors_mostly_monotone(result.reports, "l2")
            and len(result.reports) >= 5
            and elapsed < 60.0
        )
        if TestAcceptance.uniform_l2_slope is not None:
            ok = ok and TestAcceptance.uniform_l2_slope <= s["l2"]
        verdict(
            capsys,
            ok,
            "2 interface-local slopes",
            f"h1={s['h1_semi']:.3f} (1.00+/-0.15) l2={s['l2']:.3f} "
            f"(2.00+/-0.25) levels={len(result.reports)} time={elapsed:.1f}s",
        )

    def test_3_zero_permeability_cracks_vanish(self, capsys):
        d = build_preset("crack-network").to_dict()
        for chain in d["chains"]:
            chain["permeability"] = 0.0
        config = ProblemConfig.from_dict(d)
        res = run_single(config)
        coeffs = _build_coefficients(config, res.crack)
        K_crack = assemble_operator(res.mesh, res.segments, coeffs)
        K_plain = assemble_operator(res.mesh, SegmentedCrack.empty(), coeffs)
        bitwise = (
            np.array_equal(K_crack.data, K_plain.data)
            and np.array_equal(K_crack.indices, K_plain.indices)
            and np.array_equal(K_crack.indptr, K_plain.indptr)
        )
        plane = 1.0 - res.mesh.vertices[:, 0] / 13.0
        gap = float(np.abs(res.solution.values - plane).max())
        ok = bitwise and gap <= 1e-8
        verdict(
            capsys,
            ok,
            "3 zero-permeability superposition",
            f"matrix bitwise={bitwise} plane gap={gap:.3e} (<=1e-8)",
        )

    def test_4_reference_interface_solution_is_consistent(self, capsys):
        ex = ExactRadialSolution()
        e = ex.interface_radius
        cont = abs(value_inner(ex, e) - value_outer(ex, e))
        pinned = abs(value_inner(ex, e) - (4.0 + np.e) / 5.0)
        u0 = abs(ex.value([[1.0, 0.0]])[0])
        u1 = abs(ex.value([[ex.outer_radius, 0.0]])[0] - 1.0)
        angles = np.linspace(1e-3, np.pi / 2.0 - 1e-3, 100)
        on = e * np.column_stack([np.cos(angles), np.sin(angles)])
        jump = np.einsum(
            "pd,pd->p", gradient_outer(ex, on) - gradient_inner(ex, on), on / e
        )
        balance = float(np.abs(1.0 + jump).max())
        ok = (
            cont <= 1e-14
            and pinned <= 1e-14
            and u0 <= 1e-14
            and u1 <= 1e-14
            and balance <= 1e-12
        )
        verdict(
            capsys,
            ok,
            "4 closed-form interface field",
            f"continuity={cont:.2e} endpoints=({u0:.2e},{u1:.2e}) "
            f"flux balance={balance:.2e} (<=1e-12) at 100 points",
        )

    def test_5_structural_property_bundle(self, rng, capsys):
        checks = {}

        want_bulk = np.array(
            [[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]]
        )
        want_iface = np.array(
            [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        )
        tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        checks["element oracles"] = np.array_equal(
            bulk_element_matrix(tri), want_bulk
        ) and np.array_equal(
            interface_segment_matrix(tri, [[0.0, 0.0], [1.0, 0.0]]), want_iface
        )

        mesh = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.125)
        crack = make_y_crack(permeabilities=(3.0, 3.0, 3.0))
        cut = cut_chains(mesh, crack)
        K = assemble_operator(mesh, cut, Coefficients())
        checks["constant patch"] = (
            float(np.abs(K @ np.full(K.shape[0], 2.75)).max()) <= 1e-12
        )
        sym = (K - K.T).tocoo()
        checks["symmetry"] = (
            sym.nnz == 0 or np.abs(sym.data).max() <= 1e-14 * np.abs(K.data).max()
        )
        spd = True
        for _ in range(20):
            v = rng.standard_normal(K.shape[0])
            spd = spd and float(v @ (K @ v)) > 0.0
        checks["positive energy"] = spd

        lengths_ok = True
        for j in range(crack.n_chains):
            total = cut.length[cut.segments_of_chain(j)].sum()
            lengths_ok = lengths_ok and abs(
                total - crack.chains[j].length
            ) <= 1e-10 * crack.chains[j].length
        checks["length conservation"] = lengths_ok

        angles_ok = True
        for _ in range(10):
            m = build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), 0.25)
            for _ in range(4):
                marked = rng.choice(
                    m.n_triangles, size=max(1, m.n_triangles // 8), replace=False
                )
                m, _ = refine_marked(m, marked)
                angles_ok = angles_ok and min_angle(m) >= 15.0
        checks["refinement angles"] = angles_ok

        shuffled = CrackGraph([crack.chains[i] for i in (2, 0, 1)])
        Kb = assemble_operator(mesh, cut_chains(mesh, shuffled), Coefficients())
        checks["chain order"] = (
            np.array_equal(K.data, Kb.data)
            and np.array_equal(K.indices, Kb.indices)
            and np.array_equal(K.indptr, Kb.indptr)
        )

        ok = all(checks.values())
        detail = " ".join(
            f"{name}={'ok' if good else 'FAIL'}" for name, good in checks.items()
        )
        verdict(capsys, ok, "5 structural properties", detail)

    def test_6_junction_balance_improves_under_refinement(self, capsys):
        config = build_preset("crack-network")
        per_level = []
        for h in (0.5, 0.25, 0.125):
            res = run_single(config.with_global_h(h))
            residual = kirchhoff_residual(res.solution, res.segments)
            junctions = [
                n
                for n in range(len(res.crack.nodes))
                if node_degree(res.crack, n) >= 2
            ]
            per_level.append(residual[junctions])
        worst = [float(r.max()) for r in per_level]
        per_node_monotone = all(
            (b < a).all() for a, b in zip(per_level, per_level[1:])
        )
        factors = drop_factors(worst)
        ok = per_node_monotone and all(f >= 1.5 for f in factors)
        verdict(
            capsys,
            ok,
            "6 junction flux residual",
            f"max residuals={['%.3e' % w for w in worst]} "
            f"drop factors={['%.2f' % f for f in factors]} (>=1.50)",
        )
