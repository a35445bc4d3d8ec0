"""JSON config validation, presets, study orchestration, and the CLI."""

import json
import re

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

from crackfem import (
    Chain,
    Coefficients,
    ConfigError,
    MeshError,
    ProblemConfig,
    RefinementConfig,
    arc_points,
    build_preset,
    list_presets,
    load_config,
    run_convergence_study,
    run_single,
    build_rectangle_mesh,
    save_config,
)
from crackfem import config as config_module
from crackfem.cli import main
from crackfem.config import FUNCTIONS, resolve_scalar
from crackfem.cracks import CrackGeometryError
from oracles import signed_distance_to_crack
from test_golden import case_config

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

# range checks the runtime objects make (Chain, arc_points, Coefficients,
# BoundarySpec, rectangle_cells) and the arc-length bound, reported under the
# config path
RUNTIME_CHECKED = [
    (
        {
            "chains": [
                {
                    "geometry": {"kind": "segment", "points": [[0, 0], [1, 0]]},
                    "permeability": -2,
                }
            ]
        },
        "chains[0]",
    ),
    ({"chains": one_chain(kind="arc", center=[0, 0], radius=0, angles=[0, 1])}, "chains[0]"),
    ({"chains": one_chain(kind="arc", center=[0, 0], radius=0.5, angles=[1, 1])}, "chains[0]"),
    ({"coefficients": {"a1": 0}}, "coefficients"),
    ({"boundary": {tag: "neumann" for tag in ("left", "right", "top", "bottom")}}, "boundary"),
    ({"domain": [0.0, 1.0, 0.5, 0.5]}, "domain"),
    # 0.4 and 0.34 both give the 3 x 3 lattice of the unit square
    ({"study": {"levels": [0.4, 0.34, 0.25]}}, "study.levels"),
    # finite numbers whose width, or cell count, overflows to inf
    ({"domain": [-1e308, 1e308, 0.0, 1.0]}, "domain"),
    ({"refinement": {"global_h": 1e-320}}, "refinement.global_h"),
    # a 10^9 x 10^9 lattice: more than 2**31 - 1 vertices, rejected before
    # a 7.45 GiB allocation
    ({"refinement": {"global_h": 1e-9}}, "refinement.global_h"),
    # a circle far longer than the domain perimeter, rejected before a
    # 93.6 GiB sampling allocation
    ({"chains": one_chain(kind="circle", center=[0.5, 0.5], radius=1e8)}, "chains[0]"),
    # an angle difference that overflows to inf
    (
        {"chains": one_chain(kind="arc", center=[0.5, 0.5], radius=0.25, angles=[-1e308, 1e308])},
        "chains[0]",
    ),
    # 3.2e9 turns of a circle that fits, rejected before a 745 GiB sampling
    # allocation
    (
        {"chains": one_chain(kind="arc", center=[0.5, 0.5], radius=0.25, angles=[-1e10, 1e10])},
        "chains[0]",
    ),
]

# (overrides of the minimal config, dotted path the error must name)
MALFORMED = [
    ({"refinement": {"global_h": 0.5, "max_generations": "abc"}}, "refinement.max_generations"),
    ({"refinement": {"global_h": 0.5, "max_generations": 2.7}}, "refinement.max_generations"),
    ({"refinement": {"global_h": 0.5, "max_generations": True}}, "refinement.max_generations"),
    ({"refinement": {"global_h": float("nan")}}, "refinement.global_h"),
    ({"refinement": {"global_h": float("inf")}}, "refinement.global_h"),
    ({"refinement": [1, 2]}, "refinement"),
    ({"domain": 5}, "domain"),
    ({"coefficients": "x"}, "coefficients"),
    ({"study": {"levels": 3}}, "study.levels"),
    ({"study": {"levels": [0.25, 0.125, -0.0625]}}, "study.levels"),
    ({"refinement": {"global_h": 0.5, "rule": 5}}, "refinement.rule"),
    ({"refinement": {"global_h": 0.5, "crack_h": "x"}}, "refinement.crack_h"),
    ({"refinement": {"global_h": 0.5, "coefficient": "x"}}, "refinement.coefficient"),
    ({"refinement": {}}, "refinement"),
    ({"refinement": {"global_h": 0.5, "depth": 3}}, "refinement"),
    ({"refinement": {"global_h": 0.5, "rule": "fixed", "crack_h": None}}, "refinement"),
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
    *RUNTIME_CHECKED,
    # two bulk regions without one closed chain to split them, before meshing
    ({"coefficients": {"a1": 1, "a2": 2}}, "coefficients"),
    ({"coefficients": {"source": [1]}}, "coefficients.source"),
    (
        {"chains": one_chain(kind="arc", center=[0.5], radius=0.2, angles=[0, 1])},
        "chains[0].geometry.center",
    ),
    ({"boundary": []}, "boundary"),
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


# library entry points the config does not reach with NaN or a non-integer
# count
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
        lambda: arc_points([0.0, 0.0], 1.0, (0.0, 1.0), NAN),
        CrackGeometryError,
        "spacing must be positive",
        id="curve-spacing",
    ),
    pytest.param(
        lambda: arc_points([0.0, 0.0], NAN, (0.0, 1.0), 0.1),
        CrackGeometryError,
        "arc radius must be positive",
        id="arc-radius",
    ),
    *(
        pytest.param(
            lambda n=n: RefinementConfig(
                global_h=0.5, rule="fixed", crack_h=0.1, max_generations=n
            ),
            ValueError,
            "max_generations must be >= 1",
            id=f"max_generations-{n}",
        )
        for n in (NAN, 2.5)
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
        with pytest.raises(ConfigError, match=r"^chains\[0\]: curve has zero length"):
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
        message = r"^chains\[0\]: chain permeability must be >= 0"
        with pytest.raises(ConfigError, match=message):
            ProblemConfig.from_dict(bad)

    def test_nonpositive_bulk_permeability(self):
        with pytest.raises(ConfigError, match="positive"):
            ProblemConfig.from_dict(raw(coefficients={"a1": 0.0}))

    def test_boundary_needs_dirichlet(self):
        with pytest.raises(ConfigError, match="^boundary: no Dirichlet boundary"):
            ProblemConfig.from_dict(raw(boundary={"left": "neumann"}))
        with pytest.raises(ConfigError, match="boundary.left"):
            ProblemConfig.from_dict(raw(boundary={"left": 3}))

    def test_refinement_errors_are_wrapped(self):
        with pytest.raises(ConfigError, match="refinement:"):
            ProblemConfig.from_dict(
                raw(refinement={"global_h": 0.5, "rule": "cubic"})
            )

    def test_solver_is_not_a_config_key(self):
        # the system picks its solver; there is nothing to configure
        with pytest.raises(ConfigError, match=re.escape("config: unknown keys ['solver']")):
            ProblemConfig.from_dict(raw(solver={"method": "direct"}))

    def test_unknown_exact_solution(self):
        with pytest.raises(ConfigError, match="exact_solution"):
            ProblemConfig.from_dict(raw(exact_solution="mystery"))

    @pytest.mark.parametrize(
        "overrides, path", MALFORMED, ids=[p for _, p in MALFORMED]
    )
    def test_malformed_values_name_their_path(self, overrides, path):
        with pytest.raises(ConfigError, match="^" + re.escape(path) + ":"):
            ProblemConfig.from_dict(raw(**overrides))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"coefficients": {"source": [1]}}, "expected number or function name"),
            (
                {"chains": one_chain(kind="arc", center=[0.5], radius=0.2, angles=[0, 1])},
                "expected two numbers",
            ),
            (
                {"coefficients": {"a1": 1, "a2": 2}},
                "a1 != a2 needs a single closed chain to split regions",
            ),
        ],
        ids=["source", "center", "regions"],
    )
    def test_malformed_values_say_what_is_wrong(self, overrides, message):
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            ProblemConfig.from_dict(raw(**overrides))

    def test_unreadable_files_name_the_reason(self, tmp_path):
        for path in (tmp_path / "missing.json", tmp_path):
            with pytest.raises(ConfigError, match=re.escape(f"{path}: cannot read (")):
                load_config(path)

    def test_arcs_longer_than_the_domain_perimeter_fail_at_load(self):
        # one turn of radius 3 is 6 pi long, the unit square's perimeter 4
        big = one_chain(kind="circle", center=[0.5, 0.5], radius=3)
        message = (
            "chains[0]: an arc of length 18.8496 is longer than the domain perimeter 4"
        )
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            ProblemConfig.from_dict(raw(chains=big))
        # an arc longer than the perimeter by less than the domain tolerance
        # loads (it leaves the square at run time), and so does an arc of two
        # turns no longer than the perimeter
        for radius, angles in ((1.0, [0.0, 4.0 + 1e-12]), (0.3, [0.0, 4.0 * np.pi])):
            arc = one_chain(kind="arc", center=[0.5, 0.5], radius=radius, angles=angles)
            ProblemConfig.from_dict(raw(chains=arc))

    def test_unnamed_sides_are_natural(self):
        # the minimal config's one Dirichlet side is enough to run
        result = run_single(ProblemConfig.from_dict(raw()))
        assert np.array_equal(result.solution.values, np.zeros(9))
        # left 1, right 0, top and bottom no-flux: u = 1 - x exactly
        d = raw(boundary={"left": {"dirichlet": 1.0}, "right": {"dirichlet": 0.0}})
        result = run_single(ProblemConfig.from_dict(d))
        x = result.mesh.vertices[:, 0]
        assert np.allclose(result.solution.values, 1.0 - x, atol=1e-12)

    def test_study_levels_must_give_distinct_meshes(self):
        with pytest.raises(
            ConfigError, match=r"^study.levels: 0.4 and 0.34 give the same 3 x 3 mesh$"
        ):
            ProblemConfig.from_dict(raw(study={"levels": [0.4, 0.34, 0.2]}))
        # one cell apart is enough
        config = ProblemConfig.from_dict(raw(study={"levels": [0.5, 1 / 3, 0.25]}))
        assert config.study["levels"] == [0.5, 1 / 3, 0.25]

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
        for h, where in [
            (0.0, "refinement: global_h"),
            (-0.25, "refinement: global_h"),
            (float("nan"), "refinement: global_h"),
            (1e-9, "refinement.global_h: "),
        ]:
            with pytest.raises(ConfigError, match="^" + re.escape(where)):
                config.with_global_h(h)

    def test_with_global_h_must_fit_the_domain(self):
        config = build_preset("poisson-square")
        with pytest.raises(ConfigError, match="^refinement.global_h: target_h 2.0 exceeds"):
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

    def test_levels_run_in_one_process(self):
        # threads=1 is the only value the keyword still takes
        with pytest.raises(ValueError, match="threads=2"):
            run_convergence_study(self.small_poisson(), threads=2)

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


def _star_polygon(k, seed):
    """A closed star-shaped k-gon about the unit square's center."""
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
    radii = rng.uniform(0.15, 0.35, k)
    points = 0.5 + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    return np.vstack([points, points[:1]]).tolist()


# closed chains and global_h of the two-region runs
SQUARE = [[0.3, 0.3], [0.7, 0.3], [0.7, 0.7], [0.3, 0.7], [0.3, 0.3]]
TWO_REGIONS = [
    ({"kind": "circle", "center": [0.5, 0.5], "radius": 0.3}, 1 / 16),
    ({"kind": "circle", "center": [0.5, 0.5], "radius": 0.3}, 1 / 32),
    ({"kind": "polyline", "points": SQUARE}, 1 / 32),
    ({"kind": "polyline", "points": _star_polygon(12, 12)}, 1 / 16),
]


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

    @pytest.mark.parametrize(
        "geometry, h", TWO_REGIONS, ids=["circle-16", "circle-32", "square-32", "12-gon-16"]
    )
    def test_closed_chain_splits_the_bulk_into_two_regions(self, geometry, h):
        # with a1 != a2 a centroid inside the single closed chain by the
        # even-odd rule gets a2; the labels match the signed distance
        config = ProblemConfig.from_dict(
            raw(
                chains=[{"geometry": geometry, "permeability": 1.0}],
                coefficients={"a1": 1.0, "a2": 10.0},
                boundary={"left": {"dirichlet": 0.0}, "right": {"dirichlet": 1.0}},
                refinement={"global_h": h, "rule": "quadratic"},
            )
        )
        result = run_single(config)
        mesh = result.mesh
        centroids = mesh.vertices[mesh.triangles].mean(axis=1)
        # in chunks: the oracle holds (points x chain parts x 2) floats
        inside = np.concatenate(
            [
                signed_distance_to_crack(chunk, result.crack) > 0.0
                for chunk in np.array_split(centroids, len(centroids) // 2048 + 1)
            ]
        )
        assert inside.any() and not inside.all()
        coeffs = config_module._build_coefficients(config, result.crack)
        want = np.where(inside, 10.0, 1.0)
        assert np.array_equal(coeffs.element_permeability(mesh), want)
        assert np.isfinite(result.solution.values).all()

    def test_centroid_on_the_chain_follows_the_even_odd_rule(self):
        # the lower triangle of the h = 0.5 mesh's first cell has centroid
        # (1/3, 1/6), the chain's lower left corner: inside by the even-odd
        # rule, while the sign of its distance 0 put it outside
        left, bottom = 1.0 / 3.0, 1.0 / 6.0
        points = [[left, bottom], [0.9, bottom], [0.9, 0.9], [left, 0.9], [left, bottom]]
        config = ProblemConfig.from_dict(
            raw(
                chains=[{"geometry": {"kind": "polyline", "points": points}}],
                coefficients={"a1": 1.0, "a2": 10.0},
            )
        )
        result = run_single(config)
        centroid = result.mesh.vertices[result.mesh.triangles[0]].mean(axis=0)
        assert centroid.tolist() == [left, bottom]
        assert signed_distance_to_crack(centroid, result.crack) == 0.0
        coeffs = config_module._build_coefficients(config, result.crack)
        assert coeffs.element_permeability(result.mesh)[0] == 10.0

    @pytest.mark.parametrize(
        "case",
        ["poisson-square:0", "radial-uniform:0", "radial-local:1", "crack-network:default"],
    )
    def test_each_preset_takes_its_solver(self, case, solver_calls):
        # unrefined lattices with every side Dirichlet run lattice CG (whose
        # crack block is a SuperLU factor); refined meshes and Neumann sides
        # run one SuperLU factor
        run_single(case_config(case))
        cg = [M for name, M in solver_calls if name == "cg"]
        if case.startswith(("poisson-square", "radial-uniform")):
            assert len(cg) == 1 and isinstance(cg[0], LinearOperator)
        else:
            assert solver_calls == [("splu", None)]

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

    def test_solver_flag_is_gone(self, capsys):
        # the system picks its solver; the command line has none to set
        with pytest.raises(SystemExit) as exc:
            main(["run", "poisson-square", "--solver", "direct"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --solver direct" in capsys.readouterr().err

    def test_config_with_a_solver_section_exits_two(self, capsys, tmp_path):
        d = build_preset("poisson-square").to_dict()
        d["solver"] = {"method": "cg"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config: unknown keys ['solver']\n"

    @pytest.mark.parametrize("command", ["run", "study"])
    def test_commands_reach_the_chosen_solver(self, command, solver_calls, tmp_path, capsys):
        # a crack-free lattice runs lattice CG with nothing to factor while
        # every side is Dirichlet, and one SuperLU factor with a Neumann top
        d = build_preset("poisson-square").to_dict()
        d["refinement"]["global_h"] = 0.25
        d["study"] = {"levels": [0.25, 0.125, 0.0625]}
        path = tmp_path / "cfg.json"
        n_solves = 3 if command == "study" else 1
        for top, want in (({"dirichlet": 0.0}, "cg"), ("neumann", "splu")):
            d["boundary"]["top"] = top
            path.write_text(json.dumps(d))
            solver_calls.clear()
            assert main([command, str(path)]) == 0
            assert [name for name, _ in solver_calls] == [want] * n_solves
            if want == "cg":
                assert all(isinstance(M, LinearOperator) for _, M in solver_calls)
        capsys.readouterr()

    def test_study_prints_csv_and_slopes(self, capsys, tmp_path):
        d = build_preset("poisson-square").to_dict()
        d["study"] = {"levels": [0.25, 0.125, 0.0625]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert main(["study", str(path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "level,h,h_crack,n_dofs,l2,h1_semi,l2_crack,energy"
        assert lines[4].startswith("slopes: ")
        slopes = json.loads(lines[4][len("slopes: "):])
        assert slopes["l2"] == pytest.approx(2.0, abs=0.2)
        # then the files written, one line each
        assert lines[5:] == [
            f"rates_csv: {out / 'rates.csv'}",
            f"slopes_json: {out / 'slopes.json'}",
        ]

    @pytest.mark.parametrize("command", ["run", "study"])
    def test_threads_flag_is_gone(self, command, capsys):
        # study levels run one after another in this process
        with pytest.raises(SystemExit) as exc:
            main([command, "poisson-square", "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

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
        for overrides, where in OVERSIZED + RUNTIME_CHECKED:
            path.write_text(json.dumps(raw(**overrides)))
            assert main(["run", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {where}: ")

    def test_study_levels_giving_one_mesh_exit_two(self, capsys, tmp_path):
        d = build_preset("poisson-square").to_dict()
        d["refinement"]["global_h"] = 0.4
        d["study"] = {"levels": [0.4, 0.34, 0.2]}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(d))
        assert main(["study", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "error: study.levels: 0.4 and 0.34 give the same 3 x 3 mesh\n"
        assert captured.err == message

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

    def test_non_finite_boundary_value_exits_one(self, capsys, tmp_path):
        # the radial solution takes log(0) at the lower left corner
        d = raw(boundary={"left": {"dirichlet": "radial-exact"}})
        d["refinement"]["global_h"] = 0.25
        path = tmp_path / "origin.json"
        path.write_text(json.dumps(d))
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the Dirichlet value on left is -inf at [0.0, 0.0]\n"

    def test_out_of_memory_exits_one(self, capsys, monkeypatch):
        def huge_mesh(*args):
            raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr(config_module, "build_rectangle_mesh", huge_mesh)
        assert main(["run", "poisson-square"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 7.45 GiB\n"
