"""JSON config validation, presets, study orchestration, and the CLI."""

import json
import re

import numpy as np
import pytest

from crackfem import (
    Chain,
    Coefficients,
    ConfigError,
    MeshError,
    ProblemConfig,
    build_preset,
    list_presets,
    load_config,
    run_convergence_study,
    run_single,
    build_rectangle_mesh,
    sample_curve,
    save_config,
)
from crackfem import config as config_module
from crackfem.cli import main
from crackfem.config import FUNCTIONS, resolve_scalar
from crackfem.cracks import CrackGeometryError

MINIMAL = {"domain": [0.0, 1.0, 0.0, 1.0], "refinement": {"global_h": 0.5}}


def raw(**overrides):
    d = json.loads(json.dumps(MINIMAL))
    d.update(overrides)
    return d


def one_chain(**geometry):
    return [{"geometry": geometry}]


# a global_h larger than the shorter domain side, as refinement and study level
OVERSIZED = [
    ({"refinement": {"global_h": 2}}, "refinement.global_h"),
    ({"study": {"levels": [2.0, 0.5, 0.25]}}, "study.levels"),
]

# (overrides of the minimal config, dotted path the error must name)
MALFORMED = [
    ({"refinement": {"global_h": 0.5, "max_generations": "abc"}}, "refinement.max_generations"),
    ({"refinement": {"global_h": 0.5, "max_generations": 2.7}}, "refinement.max_generations"),
    ({"refinement": {"global_h": 0.5, "max_generations": True}}, "refinement.max_generations"),
    ({"refinement": {"global_h": float("nan")}}, "refinement.global_h"),
    ({"refinement": {"global_h": float("inf")}}, "refinement.global_h"),
    ({"refinement": [1, 2]}, "refinement"),
    ({"solver": {"max_iterations": None}}, "solver.max_iterations"),
    ({"domain": 5}, "domain"),
    ({"coefficients": "x"}, "coefficients"),
    ({"study": {"levels": 3}}, "study.levels"),
    ({"study": {"levels": [0.25, 0.125, -0.0625]}}, "study.levels"),
    ({"refinement": {"global_h": 0.5, "rule": 5}}, "refinement.rule"),
    ({"chains": 5}, "chains"),
    ({"chains": one_chain(kind="polyline", points=[1, 2])}, "chains[0].geometry.points"),
    (
        {"chains": one_chain(kind="arc", center=[0, 0], radius=0.5, angles=1)},
        "chains[0].geometry.angles",
    ),
    (
        {"chains": one_chain(kind="arc", center=5, radius=0.5, angles=[0, 1])},
        "chains[0].geometry.center",
    ),
    ({"exact_solution": []}, "exact_solution"),
    ({"boundary": {"lft": {"dirichlet": 0.0}}}, "boundary.lft"),
    *OVERSIZED,
]

# the unit square's geometric tolerance
_TOL = 1e-12 * np.sqrt(2.0)

# (polylines, the chain leaving the unit square that the error must name)
OUTSIDE = [
    ([[[0.5, 0.5], [1.5, 0.5]]], 0),
    # beside the corner (1, 0), after a chain inside the domain
    (
        [
            [[0.9, 0.1], [0.99, 0.01]],
            [[1.0 + 0.9 * _TOL, -2.2 * _TOL], [1.01, -0.5 * _TOL]],
        ],
        1,
    ),
]


class TestResolveScalar:
    def test_numbers_become_floats(self):
        assert resolve_scalar(3, "x") == 3.0
        assert isinstance(resolve_scalar(3, "x"), float)

    def test_booleans_are_rejected(self):
        with pytest.raises(ConfigError, match="booleans"):
            resolve_scalar(True, "x")

    def test_registry_names_become_callables(self):
        fn = resolve_scalar("sine-product", "x")
        assert fn is FUNCTIONS["sine-product"]

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_registry_functions_take_one_point_array(self, name, rng):
        values = FUNCTIONS[name](rng.uniform(1.0, 3.0, size=(7, 2)))
        assert values.shape == (7,)
        assert np.isfinite(values).all()

    def test_unknown_names_list_the_registry(self):
        with pytest.raises(ConfigError, match="known:"):
            resolve_scalar("no-such-fn", "x")


NAN = float("nan")


def x_axis(t):
    return np.stack([t, 0.0 * t], axis=-1)


# library entry points the config does not reach with NaN
NAN_INPUTS = [
    pytest.param(
        lambda: Chain([[0.0, 0.0], [1.0, 0.0]], permeability=NAN),
        CrackGeometryError,
        "permeability must be >= 0",
        id="chain-permeability",
    ),
    pytest.param(
        lambda: Coefficients(a1=NAN), ValueError, "must be positive", id="a1"
    ),
    pytest.param(
        lambda: Coefficients(a2=NAN), ValueError, "must be positive", id="a2"
    ),
    pytest.param(
        lambda: build_rectangle_mesh((0.0, NAN, 0.0, 1.0), 0.5),
        MeshError,
        "non-empty rectangle",
        id="mesh-bounds",
    ),
    pytest.param(
        lambda: build_rectangle_mesh((0.0, 1.0, 0.0, 1.0), NAN),
        MeshError,
        "target_h must be positive",
        id="mesh-target_h",
    ),
    pytest.param(
        lambda: sample_curve(x_axis, NAN),
        CrackGeometryError,
        "spacing must be positive",
        id="curve-spacing",
    ),
]


@pytest.mark.parametrize("call, error, message", NAN_INPUTS)
def test_library_entry_points_reject_nan(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestConfigValidation:
    def test_minimal_config_fills_defaults(self):
        config = ProblemConfig.from_dict(raw())
        assert config.coefficients["a1"] == 1.0
        assert config.solver.method == "direct"
        assert config.refinement.rule == "none"
        assert config.boundary == {"left": {"dirichlet": 0.0}}

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing keys.*refinement"):
            ProblemConfig.from_dict({"domain": [0.0, 1.0, 0.0, 1.0]})

    def test_unknown_keys_are_flagged_with_path(self):
        with pytest.raises(ConfigError, match="config: unknown keys.*typo"):
            ProblemConfig.from_dict(raw(typo=1))

    def test_schema_version_gate(self):
        with pytest.raises(ConfigError, match="schema_version"):
            ProblemConfig.from_dict(raw(schema_version=99))

    def test_empty_domain(self):
        with pytest.raises(ConfigError, match="empty rectangle"):
            ProblemConfig.from_dict(raw(domain=[0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(ConfigError, match="xmin"):
            ProblemConfig.from_dict(raw(domain=[0.0, 1.0]))

    def test_chain_geometry_errors_carry_paths(self):
        bad_kind = raw(chains=[{"geometry": {"kind": "spiral"}}])
        with pytest.raises(ConfigError, match=r"chains\[0\].geometry.kind"):
            ProblemConfig.from_dict(bad_kind)
        three_point_segment = raw(
            chains=[
                {
                    "geometry": {
                        "kind": "segment",
                        "points": [[0, 0], [1, 0], [2, 0]],
                    }
                }
            ]
        )
        with pytest.raises(ConfigError, match="exactly two points"):
            ProblemConfig.from_dict(three_point_segment)
        flat_arc = raw(
            chains=[
                {
                    "geometry": {
                        "kind": "arc",
                        "center": [0, 0],
                        "radius": 1.0,
                        "angles": [0.5, 0.5],
                    }
                }
            ]
        )
        with pytest.raises(ConfigError, match="distinct angles"):
            ProblemConfig.from_dict(flat_arc)

    def test_negative_chain_permeability(self):
        bad = raw(
            chains=[
                {
                    "geometry": {"kind": "segment", "points": [[0, 0], [1, 0]]},
                    "permeability": -2.0,
                }
            ]
        )
        with pytest.raises(ConfigError, match=r"chains\[0\].permeability"):
            ProblemConfig.from_dict(bad)

    def test_nonpositive_bulk_permeability(self):
        with pytest.raises(ConfigError, match="positive"):
            ProblemConfig.from_dict(raw(coefficients={"a1": 0.0}))

    def test_boundary_needs_dirichlet(self):
        with pytest.raises(ConfigError, match="at least one Dirichlet"):
            ProblemConfig.from_dict(raw(boundary={"left": "neumann"}))
        with pytest.raises(ConfigError, match="boundary.left"):
            ProblemConfig.from_dict(raw(boundary={"left": 3}))

    def test_refinement_and_solver_errors_are_wrapped(self):
        with pytest.raises(ConfigError, match="refinement:"):
            ProblemConfig.from_dict(
                raw(refinement={"global_h": 0.5, "rule": "cubic"})
            )
        with pytest.raises(ConfigError, match="solver:"):
            ProblemConfig.from_dict(raw(solver={"method": "gmres"}))

    def test_unknown_exact_solution(self):
        with pytest.raises(ConfigError, match="exact_solution"):
            ProblemConfig.from_dict(raw(exact_solution="mystery"))

    @pytest.mark.parametrize(
        "overrides, path", MALFORMED, ids=[p for _, p in MALFORMED]
    )
    def test_malformed_values_name_their_path(self, overrides, path):
        with pytest.raises(ConfigError, match="^" + re.escape(path) + ":"):
            ProblemConfig.from_dict(raw(**overrides))

    def test_unnamed_sides_are_natural(self):
        # the minimal config's one Dirichlet side is enough to run
        result = run_single(ProblemConfig.from_dict(raw()))
        assert np.array_equal(result.solution.values, np.zeros(9))
        # left 1, right 0, top and bottom no-flux: u = 1 - x exactly
        d = raw(boundary={"left": {"dirichlet": 1.0}, "right": {"dirichlet": 0.0}})
        result = run_single(ProblemConfig.from_dict(d))
        x = result.mesh.vertices[:, 0]
        assert np.allclose(result.solution.values, 1.0 - x, atol=1e-12)

    def test_study_levels_validation(self):
        with pytest.raises(ConfigError, match="three levels"):
            ProblemConfig.from_dict(raw(study={"levels": [0.5, 0.25]}))
        with pytest.raises(ConfigError, match="decreasing"):
            ProblemConfig.from_dict(raw(study={"levels": [0.5, 0.5, 0.25]}))


class TestPresetsAndRoundTrips:
    def test_preset_names(self):
        assert list_presets() == [
            "crack-network",
            "poisson-square",
            "radial-local",
            "radial-uniform",
        ]

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            build_preset("nope")

    @pytest.mark.parametrize("name", list_presets())
    def test_dict_round_trip(self, name):
        config = build_preset(name)
        again = ProblemConfig.from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()

    @pytest.mark.parametrize("name", list_presets())
    def test_file_round_trip(self, name, tmp_path):
        config = build_preset(name)
        path = tmp_path / f"{name}.json"
        save_config(config, path)
        assert load_config(path).to_dict() == config.to_dict()

    def test_with_global_h_drops_the_study(self):
        config = build_preset("poisson-square").with_global_h(0.25)
        assert config.refinement.global_h == 0.25
        assert config.study is None

    def test_with_global_h_rejects_a_bad_h(self):
        config = build_preset("poisson-square")
        for h in (0.0, -0.25, float("nan")):
            with pytest.raises(ConfigError, match="^refinement: global_h"):
                config.with_global_h(h)

    def test_with_global_h_must_fit_the_domain(self):
        config = build_preset("poisson-square")
        with pytest.raises(ConfigError, match="^refinement.global_h: 2.0 exceeds"):
            config.with_global_h(2.0)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestStudies:
    def small_poisson(self, levels=(0.25, 0.125, 0.0625)):
        d = build_preset("poisson-square").to_dict()
        d["study"] = {"levels": list(levels)}
        return ProblemConfig.from_dict(d)

    def test_poisson_slopes_hit_the_textbook_rates(self):
        result = run_convergence_study(self.small_poisson())
        assert result.slopes["h1_semi"] == pytest.approx(1.0, abs=0.2)
        assert result.slopes["l2"] == pytest.approx(2.0, abs=0.2)
        assert [r.level for r in result.reports] == [0, 1, 2]

    def test_parallel_levels_match_serial_bitwise(self):
        config = self.small_poisson()
        serial = run_convergence_study(config, threads=1)
        parallel = run_convergence_study(config, threads=2)
        for a, b in zip(serial.reports, parallel.reports):
            assert a.as_csv_row() == b.as_csv_row()

    def test_study_requires_sections(self):
        no_study = build_preset("crack-network")
        with pytest.raises(ConfigError, match="no study"):
            run_convergence_study(no_study)
        d = no_study.to_dict()
        d["study"] = {"levels": [0.5, 0.25, 0.125]}
        with pytest.raises(ConfigError, match="exact_solution"):
            run_convergence_study(ProblemConfig.from_dict(d))

    def test_study_writes_rates_and_slopes(self, tmp_path):
        result = run_convergence_study(self.small_poisson(), out_dir=tmp_path)
        rates = (tmp_path / "rates.csv").read_text().splitlines()
        assert rates[0] == "level,h,h_crack,n_dofs,l2,h1_semi,l2_crack,energy"
        assert len(rates) == 4
        slopes = json.loads((tmp_path / "slopes.json").read_text())
        assert set(slopes) == {"l2", "h1_semi", "l2_crack", "energy"}


class TestRunSingle:
    def test_repeat_runs_are_bitwise_identical(self, tmp_path):
        config = build_preset("poisson-square")
        a = run_single(config, out_dir=tmp_path / "a")
        b = run_single(config, out_dir=tmp_path / "b")
        assert np.array_equal(a.solution.values, b.solution.values)
        sa = (tmp_path / "a" / "solution.txt").read_bytes()
        sb = (tmp_path / "b" / "solution.txt").read_bytes()
        assert sa == sb

    def test_outputs_inventory(self, tmp_path):
        config = build_preset("poisson-square")
        result = run_single(config, out_dir=tmp_path)
        for key in (
            "mesh_text",
            "mesh_vtk",
            "solution_text",
            "solution_vtk",
            "norms_csv",
        ):
            assert key in result.outputs
            assert (tmp_path / result.outputs[key].split("/")[-1]).exists()


    @pytest.mark.parametrize("polylines, bad", OUTSIDE)
    def test_chain_leaving_the_domain_is_rejected_by_name(self, polylines, bad):
        chains = [{"geometry": {"kind": "polyline", "points": p}} for p in polylines]
        refinement = {"global_h": 0.25, "rule": "fixed", "crack_h": 1 / 64}
        config = ProblemConfig.from_dict(raw(chains=chains, refinement=refinement))
        with pytest.raises(CrackGeometryError, match=f"^chain {bad} leaves the domain"):
            run_single(config)

    def test_chain_ending_on_the_boundary_within_rounding_runs(self):
        end = [1.0 + 0.5 * _TOL, 0.5]
        chains = [{"geometry": {"kind": "segment", "points": [[0.5, 0.5], end]}}]
        result = run_single(ProblemConfig.from_dict(raw(chains=chains)))
        assert result.segments.length.sum() == pytest.approx(0.5, rel=1e-12)


class TestCli:
    def test_presets_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list_presets()

    def test_presets_show_is_valid_json(self, capsys):
        assert main(["presets", "show", "radial-local"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact_solution"] == "radial-exact"

    def test_run_prints_errors_and_writes_artifacts(self, tmp_path, capsys):
        rc = main(["run", "poisson-square", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "errors: l2=" in out
        assert (tmp_path / "norms.csv").exists()

    def test_solver_override(self, capsys):
        assert main(["run", "poisson-square", "--solver", "direct"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["run", "study"])
    def test_solver_flag_reaches_solve(self, command, monkeypatch, tmp_path, capsys):
        methods = []
        real_solve = config_module.solve

        def recording_solve(system, config):
            methods.append(config.method)
            return real_solve(system, config)

        monkeypatch.setattr(config_module, "solve", recording_solve)
        d = build_preset("poisson-square").to_dict()  # configured for cg
        d["refinement"]["global_h"] = 0.25
        d["study"] = {"levels": [0.25, 0.125, 0.0625]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        n_solves = 3 if command == "study" else 1
        assert main([command, str(path)]) == 0
        assert methods == ["cg"] * n_solves
        methods.clear()
        assert main([command, str(path), "--solver", "direct"]) == 0
        assert methods == ["direct"] * n_solves
        capsys.readouterr()

    def test_study_prints_csv_and_slopes(self, capsys, tmp_path):
        d = build_preset("poisson-square").to_dict()
        d["study"] = {"levels": [0.25, 0.125, 0.0625]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert main(["study", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "level,h,h_crack,n_dofs,l2,h1_semi,l2_crack,energy"
        assert lines[4].startswith("slopes: ")
        slopes = json.loads(lines[4][len("slopes: "):])
        assert slopes["l2"] == pytest.approx(2.0, abs=0.2)

    def test_bad_config_exits_two(self, capsys, tmp_path):
        assert main(["run", "definitely-not-a-preset"]) == 2
        assert "error:" in capsys.readouterr().err
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        capsys.readouterr()
        # Python's json writes and reads NaN, so a file can carry one
        path.write_text(json.dumps(raw(refinement={"global_h": float("nan")})))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: refinement.global_h:")
        for overrides, where in OVERSIZED:
            path.write_text(json.dumps(raw(**overrides)))
            assert main(["run", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {where}: ")

    def test_geometry_failure_exits_one(self, capsys, tmp_path):
        # a chain leaving the domain, and one shorter than the mesh tolerance
        for points, message in (
            ([[0.5, 0.5], [2.0, 0.5]], "error: chain 0 leaves the domain near [2.0, 0.5]"),
            ([[0.5, 0.5], [0.5000000000001, 0.5]], "error: chain 0 is no longer"),
        ):
            d = raw(
                chains=[
                    {
                        "geometry": {"kind": "segment", "points": points},
                        "permeability": 1.0,
                    }
                ]
            )
            path = tmp_path / "bad_chain.json"
            path.write_text(json.dumps(d))
            assert main(["run", str(path)]) == 1
            assert message in capsys.readouterr().err
