"""Problem configurations, the named-function registry, presets, pipelines.

Configs are plain JSON documents with a schema_version; ``from_dict`` fills
defaults and validates strictly, ``to_dict`` emits the canonical form, and
the two round-trip losslessly. Scalar fields accept either numbers or names
from the function registry.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import (
    ExactRadialSolution,
    NormReport,
    SineProductSolution,
    eoc,
    error_norms,
)
from .assembly import BoundarySpec, Coefficients, assemble
from .cracks import (
    Chain,
    CrackGraph,
    SegmentedCrack,
    arc_curve,
    circle_curve,
    cut_chains,
    sample_curve,
    signed_distance_to_crack,
)
from .mesh import (
    Mesh,
    RefinementConfig,
    build_rectangle_mesh,
    export_mesh_text,
    export_vtk,
    refine_near_crack,
)
from .solve import SolutionField, SolverConfig, solve


class ConfigError(ValueError):
    pass


SCHEMA_VERSION = 1

_RADIAL = ExactRadialSolution()
_SINE = SineProductSolution()


def _fn_zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def _fn_one(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def _fn_radial(x, y):
    pts = np.column_stack([np.ravel(x), np.ravel(y)])
    return _RADIAL.value(pts).reshape(np.shape(x))


def _fn_plane_13(x, y):
    return 1.0 - np.asarray(x, dtype=float) / 13.0


def _fn_sine(x, y):
    pts = np.column_stack([np.ravel(x), np.ravel(y)])
    return _SINE.value(pts).reshape(np.shape(x))


def _fn_sine_load(x, y):
    return _SINE.load(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


FUNCTIONS = {
    "zero": _fn_zero,
    "one": _fn_one,
    "radial-exact": _fn_radial,
    "plane-1-minus-x-over-13": _fn_plane_13,
    "sine-product": _fn_sine,
    "sine-product-load": _fn_sine_load,
}

EXACT_SOLUTIONS = {
    "radial-exact": _RADIAL,
    "sine-product": _SINE,
}


def resolve_scalar(spec, path: str):
    """Turn a config scalar (number or registry name) into a float/callable."""
    if isinstance(spec, bool):
        raise ConfigError(f"{path}: booleans are not scalars")
    if isinstance(spec, (int, float)):
        return float(spec)
    if isinstance(spec, str):
        if spec not in FUNCTIONS:
            raise ConfigError(
                f"{path}: unknown function {spec!r} "
                f"(known: {sorted(FUNCTIONS)})"
            )
        return FUNCTIONS[spec]
    raise ConfigError(f"{path}: expected number or function name")


def _check_scalar_spec(spec, path: str):
    resolve_scalar(spec, path)
    return spec if isinstance(spec, str) else float(spec)


def _expect_keys(d: dict, path: str, required: set, optional: set):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    keys = set(d)
    missing = required - keys
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


def _float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    return float(value)


def _normalize_geometry(geo: dict, path: str) -> dict:
    _expect_keys(geo, path, {"kind"}, {"points", "center", "radius", "angles"})
    kind = geo["kind"]
    if kind in ("segment", "polyline"):
        _expect_keys(geo, path, {"kind", "points"}, set())
        pts = geo["points"]
        if not isinstance(pts, list) or len(pts) < 2:
            raise ConfigError(f"{path}.points: need at least two points")
        if kind == "segment" and len(pts) != 2:
            raise ConfigError(f"{path}.points: a segment has exactly two points")
        norm = [[_float(c, f"{path}.points") for c in p] for p in pts]
        if any(len(p) != 2 for p in norm):
            raise ConfigError(f"{path}.points: points are [x, y] pairs")
        return {"kind": kind, "points": norm}
    if kind in ("arc", "circle"):
        needed = {"kind", "center", "radius"} | ({"angles"} if kind == "arc" else set())
        _expect_keys(geo, path, needed, set())
        center = [_float(c, f"{path}.center") for c in geo["center"]]
        if len(center) != 2:
            raise ConfigError(f"{path}.center: expected [x, y]")
        radius = _float(geo["radius"], f"{path}.radius")
        if radius <= 0.0:
            raise ConfigError(f"{path}.radius: must be positive")
        out = {"kind": kind, "center": center, "radius": radius}
        if kind == "arc":
            angles = [_float(a, f"{path}.angles") for a in geo["angles"]]
            if len(angles) != 2 or angles[0] == angles[1]:
                raise ConfigError(f"{path}.angles: two distinct angles required")
            out["angles"] = angles
        return out
    raise ConfigError(f"{path}.kind: unknown geometry kind {kind!r}")


def _check_refinement(refinement: dict) -> None:
    try:
        RefinementConfig(**refinement)
    except ValueError as exc:
        raise ConfigError(f"refinement: {exc}") from exc


@dataclass
class ProblemConfig:
    """Validated, canonical problem description (mirrors the JSON schema)."""

    domain: list
    chains: list
    coefficients: dict
    boundary: dict
    refinement: dict
    solver: dict
    exact_solution: str | None = None
    study: dict | None = None
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_dict(cls, raw: dict) -> "ProblemConfig":
        _expect_keys(
            raw,
            "config",
            {"domain", "refinement"},
            {
                "schema_version",
                "chains",
                "coefficients",
                "boundary",
                "solver",
                "exact_solution",
                "study",
            },
        )
        version = raw.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version: {version} unsupported (expected {SCHEMA_VERSION})"
            )
        domain = [_float(v, "domain") for v in raw["domain"]]
        if len(domain) != 4:
            raise ConfigError("domain: expected [xmin, xmax, ymin, ymax]")
        if domain[1] <= domain[0] or domain[3] <= domain[2]:
            raise ConfigError("domain: empty rectangle")

        chains = []
        for i, ch in enumerate(raw.get("chains", [])):
            path = f"chains[{i}]"
            _expect_keys(ch, path, {"geometry"}, {"permeability", "source"})
            perm = _float(ch.get("permeability", 0.0), f"{path}.permeability")
            if perm < 0.0:
                raise ConfigError(f"{path}.permeability: must be >= 0")
            chains.append(
                {
                    "geometry": _normalize_geometry(ch["geometry"], f"{path}.geometry"),
                    "permeability": perm,
                    "source": _check_scalar_spec(
                        ch.get("source", 0.0), f"{path}.source"
                    ),
                }
            )

        co = dict(raw.get("coefficients", {}))
        _expect_keys(co, "coefficients", set(), {"a1", "a2", "source"})
        coefficients = {
            "a1": _float(co.get("a1", 1.0), "coefficients.a1"),
            "a2": _float(co.get("a2", 1.0), "coefficients.a2"),
            "source": _check_scalar_spec(co.get("source", 0.0), "coefficients.source"),
        }
        if coefficients["a1"] <= 0.0 or coefficients["a2"] <= 0.0:
            raise ConfigError("coefficients: permeabilities must be positive")

        boundary = {}
        raw_boundary = raw.get("boundary", {"left": {"dirichlet": 0.0}})
        if not isinstance(raw_boundary, dict) or not raw_boundary:
            raise ConfigError("boundary: expected a non-empty object")
        n_dirichlet = 0
        for tag, cond in raw_boundary.items():
            path = f"boundary.{tag}"
            if cond == "neumann":
                boundary[str(tag)] = "neumann"
            elif isinstance(cond, dict):
                _expect_keys(cond, path, {"dirichlet"}, set())
                boundary[str(tag)] = {
                    "dirichlet": _check_scalar_spec(cond["dirichlet"], path)
                }
                n_dirichlet += 1
            else:
                raise ConfigError(f"{path}: expected 'neumann' or {{'dirichlet': g}}")
        if n_dirichlet == 0:
            raise ConfigError("boundary: at least one Dirichlet tag is required")

        rf = dict(raw["refinement"])
        _expect_keys(
            rf,
            "refinement",
            {"global_h"},
            {"rule", "crack_h", "coefficient", "max_generations"},
        )
        refinement = {
            "global_h": _float(rf["global_h"], "refinement.global_h"),
            "rule": rf.get("rule", "none"),
            "crack_h": None
            if rf.get("crack_h") is None
            else _float(rf["crack_h"], "refinement.crack_h"),
            "coefficient": _float(rf.get("coefficient", 1.0), "refinement.coefficient"),
            "max_generations": int(rf.get("max_generations", 64)),
        }
        _check_refinement(refinement)

        so = dict(raw.get("solver", {}))
        _expect_keys(so, "solver", set(), {"method", "rel_tolerance", "max_iterations"})
        solver = {
            "method": so.get("method", "cg"),
            "rel_tolerance": _float(so.get("rel_tolerance", 1e-10), "solver.rel_tolerance"),
            "max_iterations": int(so.get("max_iterations", 20000)),
        }
        try:
            solver["method"] = SolverConfig(**solver).method
        except ValueError as exc:
            raise ConfigError(f"solver: {exc}") from exc

        exact = raw.get("exact_solution")
        if exact is not None and exact not in EXACT_SOLUTIONS:
            raise ConfigError(
                f"exact_solution: unknown {exact!r} (known: {sorted(EXACT_SOLUTIONS)})"
            )

        study = raw.get("study")
        if study is not None:
            _expect_keys(study, "study", {"levels"}, set())
            levels = [_float(v, "study.levels") for v in study["levels"]]
            if len(levels) < 3:
                raise ConfigError("study.levels: at least three levels required")
            if not all(b < a for a, b in zip(levels, levels[1:])):
                raise ConfigError("study.levels: must be strictly decreasing")
            study = {"levels": levels}

        return cls(
            domain=domain,
            chains=chains,
            coefficients=coefficients,
            boundary=boundary,
            refinement=refinement,
            solver=solver,
            exact_solution=exact,
            study=study,
            schema_version=SCHEMA_VERSION,
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "domain": list(self.domain),
            "chains": json.loads(json.dumps(self.chains)),
            "coefficients": dict(self.coefficients),
            "boundary": json.loads(json.dumps(self.boundary)),
            "refinement": dict(self.refinement),
            "solver": dict(self.solver),
            "exact_solution": self.exact_solution,
            "study": None if self.study is None else {"levels": list(self.study["levels"])},
        }

    def with_global_h(self, h: float) -> "ProblemConfig":
        """Copy at another global_h, without study; other sections are shared."""
        refinement = {**self.refinement, "global_h": float(h)}
        _check_refinement(refinement)
        return replace(self, refinement=refinement, study=None)


def load_config(path) -> ProblemConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from exc
    return ProblemConfig.from_dict(raw)


def save_config(config: ProblemConfig, path) -> None:
    with open(path, "w") as f:
        json.dump(config.to_dict(), f, indent=2)
        f.write("\n")


def build_crack_graph(config: ProblemConfig, global_h: float) -> CrackGraph:
    """Chains from config geometry; curved kinds are sampled at global_h / 10."""
    chains = []
    spacing = global_h / 10.0
    for ch in config.chains:
        geo = ch["geometry"]
        if geo["kind"] in ("segment", "polyline"):
            pts = np.asarray(geo["points"], dtype=float)
        elif geo["kind"] == "arc":
            curve = arc_curve(geo["center"], geo["radius"], *geo["angles"])
            pts = sample_curve(curve, spacing)
        else:
            curve = circle_curve(geo["center"], geo["radius"])
            pts = sample_curve(curve, spacing)
        chains.append(
            Chain(
                pts,
                permeability=ch["permeability"],
                source=resolve_scalar(ch["source"], "chain source"),
            )
        )
    if not chains:
        return CrackGraph.empty()
    return CrackGraph(chains)


def _build_coefficients(config: ProblemConfig, graph: CrackGraph) -> Coefficients:
    co = config.coefficients
    region = None
    if co["a1"] != co["a2"]:
        if graph.n_chains == 1 and graph.chains[0].is_closed:
            def region(points):
                rho = signed_distance_to_crack(points, graph)
                return np.where(rho > 0.0, 2, 1)
        else:
            raise ConfigError(
                "coefficients: a1 != a2 needs a single closed chain to split regions"
            )
    return Coefficients(
        a1=co["a1"],
        a2=co["a2"],
        source=resolve_scalar(co["source"], "coefficients.source"),
        region=region,
    )


def _build_boundary(config: ProblemConfig) -> BoundarySpec:
    dirichlet = {}
    neumann = []
    for tag, cond in config.boundary.items():
        if cond == "neumann":
            neumann.append(tag)
        else:
            dirichlet[tag] = resolve_scalar(cond["dirichlet"], f"boundary.{tag}")
    return BoundarySpec(dirichlet=dirichlet, neumann=tuple(sorted(neumann)))


@dataclass
class RunResult:
    config: ProblemConfig
    mesh: Mesh
    crack: CrackGraph
    segments: SegmentedCrack
    solution: SolutionField
    report: NormReport | None
    outputs: dict = field(default_factory=dict)


@dataclass
class StudyResult:
    config: ProblemConfig
    reports: list
    slopes: dict
    outputs: dict = field(default_factory=dict)


def run_single(
    config: ProblemConfig,
    out_dir=None,
    solver_override: str | None = None,
    level: int = 0,
) -> RunResult:
    """Mesh, refine, cut, assemble, solve; optionally export artifacts."""
    rc = RefinementConfig(**config.refinement)
    mesh = build_rectangle_mesh(config.domain, rc.global_h)
    graph = build_crack_graph(config, rc.global_h)
    mesh = refine_near_crack(mesh, graph, rc)
    if graph.n_chains:
        segments = cut_chains(mesh, graph)
    else:
        segments = SegmentedCrack.empty()
    coeffs = _build_coefficients(config, graph)
    boundary = _build_boundary(config)
    system = assemble(mesh, segments, coeffs, boundary)
    solver = dict(config.solver)
    if solver_override is not None:
        solver["method"] = solver_override
    solution = solve(system, SolverConfig(**solver))
    report = None
    if config.exact_solution is not None:
        report = error_norms(
            solution,
            EXACT_SOLUTIONS[config.exact_solution],
            segments,
            coeffs,
            level=level,
        )
    outputs = {}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        export_mesh_text(mesh, out / "mesh.txt")
        export_vtk(mesh, out / "mesh.vtk")
        _export_solution_text(solution, out / "solution.txt")
        export_vtk(mesh, out / "solution.vtk", point_data={"u": solution.values})
        outputs = {
            "mesh_text": str(out / "mesh.txt"),
            "mesh_vtk": str(out / "mesh.vtk"),
            "solution_text": str(out / "solution.txt"),
            "solution_vtk": str(out / "solution.vtk"),
        }
        if report is not None:
            with open(out / "norms.csv", "w") as f:
                f.write(NormReport.CSV_HEADER + "\n" + report.as_csv_row() + "\n")
            outputs["norms_csv"] = str(out / "norms.csv")
    return RunResult(config, mesh, graph, segments, solution, report, outputs)


def _export_solution_text(solution: SolutionField, path) -> None:
    lines = ["# x y u"]
    for (x, y), u in zip(solution.mesh.vertices, solution.values):
        lines.append(f"{float(x)!r} {float(y)!r} {float(u)!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _study_level(payload):
    config, index, out_dir, solver_override = payload
    level_config = config.with_global_h(config.study["levels"][index])
    result = run_single(
        level_config, out_dir=out_dir, solver_override=solver_override, level=index
    )
    return result.report


def run_convergence_study(
    config: ProblemConfig,
    out_dir=None,
    solver_override: str | None = None,
    threads: int = 1,
) -> StudyResult:
    """Run every study level, collect norm reports, fit convergence slopes.

    Levels are independent; with threads > 1 they run as separate processes.
    A level failure aborts the study with the underlying error.
    """
    if config.study is None:
        raise ConfigError("config has no study section")
    if config.exact_solution is None:
        raise ConfigError("a study needs an exact_solution for its error norms")
    levels = config.study["levels"]
    payloads = []
    for i in range(len(levels)):
        sub = None if out_dir is None else str(Path(out_dir) / f"level_{i:02d}")
        payloads.append((config, i, sub, solver_override))
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(_study_level, payloads))
    else:
        reports = [_study_level(p) for p in payloads]
    slopes = eoc(reports)
    outputs = {}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rows = [NormReport.CSV_HEADER] + [r.as_csv_row() for r in reports]
        with open(out / "rates.csv", "w") as f:
            f.write("\n".join(rows) + "\n")
        with open(out / "slopes.json", "w") as f:
            json.dump(slopes_for_json(slopes), f, indent=2, allow_nan=False)
            f.write("\n")
        outputs = {"rates_csv": str(out / "rates.csv"), "slopes_json": str(out / "slopes.json")}
    return StudyResult(config, reports, slopes, outputs)


def slopes_for_json(slopes: dict) -> dict:
    """Slope dict with nan (fit of an identically-zero norm) mapped to None.

    Bare NaN tokens are rejected by strict JSON parsers, so serialized output
    goes through this; in-memory results keep the nan.
    """
    return {k: (float(v) if np.isfinite(v) else None) for k, v in slopes.items()}


def _radial_levels():
    span = _RADIAL.outer_radius - _RADIAL.inner_radius
    return [span * 0.5**k for k in range(3, 8)]


def _preset_radial(rule: str) -> dict:
    e = _RADIAL.interface_radius
    levels = _radial_levels()
    refinement = {"global_h": levels[0], "rule": rule}
    if rule == "quadratic":
        refinement["coefficient"] = 1.0
    return {
        "schema_version": SCHEMA_VERSION,
        "domain": [1.0, _RADIAL.outer_radius, 1.0, _RADIAL.outer_radius],
        "chains": [
            {
                "geometry": {
                    "kind": "arc",
                    "center": [0.0, 0.0],
                    "radius": e,
                    "angles": list(_RADIAL.crack_angles),
                },
                "permeability": 1.0,
                "source": 1.0,
            }
        ],
        "coefficients": {"a1": 1.0, "a2": 1.0, "source": 0.0},
        "boundary": {
            tag: {"dirichlet": "radial-exact"}
            for tag in ("left", "right", "top", "bottom")
        },
        "refinement": refinement,
        "solver": {"method": "direct"},
        "exact_solution": "radial-exact",
        "study": {"levels": levels},
    }


def _network_chain_geometries():
    """Junction and tip layout of the bifurcating network preset.

    Three degree-3 junctions, seven boundary tips, eight chains (three of
    them arcs). Junctions sit on half-integer coordinates, so they are grid
    vertices of the structured meshes whose spacing divides 0.5; arcs ending
    at a junction get their center back-computed from the junction so the
    endpoints coincide exactly.
    """
    j0 = [3.5, 4.5]
    j1 = [7.5, 6.5]
    j2 = [8.0, 3.0]

    def arc_hitting(end, radius, end_angle, start_x):
        # center placed so curve(1) lands on `end`; start angle from start_x
        cx = end[0] - radius * float(np.cos(end_angle))
        cy = end[1] - radius * float(np.sin(end_angle))
        start_angle = -float(np.arccos((start_x - cx) / radius))
        return {
            "kind": "arc",
            "center": [cx, cy],
            "radius": radius,
            "angles": [start_angle, end_angle],
        }

    arc_in = arc_hitting(j0, 5.0, -1.05, start_x=0.0)  # left tip -> j0
    arc_out = {  # j2 -> right tip; curve(0) is exactly j2 by the same trick
        "kind": "arc",
        "center": [
            j2[0] - 5.5 * float(np.cos(-1.98)),
            j2[1] - 5.5 * float(np.sin(-1.98)),
        ],
        "radius": 5.5,
        "angles": [-1.98, None],
    }
    cx, cy = arc_out["center"]
    arc_out["angles"][1] = -float(np.arccos((13.0 - cx) / 5.5))
    arc_iso = {
        "kind": "arc",
        "center": [2.0, 12.0],
        "radius": 4.0,
        "angles": [-float(np.arccos(-0.5)), -float(np.arcsin(0.625))],
    }
    seg = lambda p, q: {"kind": "segment", "points": [list(p), list(q)]}
    return [
        arc_in,
        seg(j0, j1),
        seg(j0, j2),
        seg(j1, [13.0, 8.0]),
        seg(j1, [10.5, 9.5]),  # runs exactly along grid diagonals
        arc_out,
        seg(j2, [4.5, 0.0]),
        arc_iso,  # isolated curved crack in the upper left
    ]


def _preset_network() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "domain": [0.0, 13.0, 0.0, 9.5],
        "chains": [
            {"geometry": g, "permeability": 100.0, "source": 0.0}
            for g in _network_chain_geometries()
        ],
        "coefficients": {"a1": 1.0, "a2": 1.0, "source": 0.0},
        "boundary": {
            "left": {"dirichlet": 1.0},
            "right": {"dirichlet": 0.0},
            "top": "neumann",
            "bottom": "neumann",
        },
        "refinement": {"global_h": 0.5, "rule": "quadratic", "coefficient": 1.0},
        "solver": {"method": "direct"},
        "exact_solution": None,
        "study": None,
    }


def _preset_poisson() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "domain": [0.0, 1.0, 0.0, 1.0],
        "chains": [],
        "coefficients": {"a1": 1.0, "a2": 1.0, "source": "sine-product-load"},
        "boundary": {
            tag: {"dirichlet": 0.0} for tag in ("left", "right", "top", "bottom")
        },
        "refinement": {"global_h": 0.125, "rule": "none"},
        "solver": {"method": "cg"},
        "exact_solution": "sine-product",
        "study": {"levels": [0.125, 0.0625, 0.03125, 0.015625]},
    }


_PRESETS = {
    "radial-uniform": lambda: _preset_radial("none"),
    "radial-local": lambda: _preset_radial("quadratic"),
    "crack-network": _preset_network,
    "poisson-square": _preset_poisson,
}


def list_presets() -> list:
    return sorted(_PRESETS)


def build_preset(name: str) -> ProblemConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r} (known: {list_presets()})")
    return ProblemConfig.from_dict(_PRESETS[name]())
