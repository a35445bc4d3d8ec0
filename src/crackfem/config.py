"""Problem configurations, the named-function registry, presets, pipelines.

Configs are plain JSON documents with a schema_version; ``from_dict`` fills
defaults and validates strictly, ``to_dict`` emits the canonical form, and
the two round-trip losslessly. ``from_dict`` checks JSON shapes, types and
the arc-length bound itself; other range checks are those of the runtime
objects it builds once (``Chain``, ``Coefficients``, ``BoundarySpec``,
``rectangle_cells``, ...), reported under the config path. The refinement
section is the ``RefinementConfig`` dataclass it configures. Scalar fields
accept numbers or registry names.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .analysis import (
    ExactRadialSolution,
    NormReport,
    SineProductSolution,
    eoc,
    error_norms,
)
from ._geom import tolerance
from .assembly import BoundarySpec, Coefficients, assemble
from .cracks import (
    Chain,
    CrackGeometryError,
    CrackGraph,
    SegmentedCrack,
    _points_in_polygon,
    arc_points,
    cut_chains,
)
from .mesh import (
    RECTANGLE_TAGS,
    Mesh,
    RefinementConfig,
    build_rectangle_mesh,
    export_mesh_text,
    export_vtk,
    rectangle_cells,
    refine_near_crack,
)
from .solve import SolutionField, solve


class ConfigError(ValueError):
    pass


SCHEMA_VERSION = 1

_RADIAL = ExactRadialSolution()
_SINE = SineProductSolution()

# vertex rows per write of solution.txt, which bounds the rows held as
# separate strings at once
_TEXT_BLOCK = 1 << 16


# every function of position takes one (k, 2) point array and returns (k,)
FUNCTIONS = {
    "zero": lambda points: np.zeros(len(points)),
    "one": lambda points: np.ones(len(points)),
    "radial-exact": _RADIAL.value,
    "plane-1-minus-x-over-13": lambda points: 1.0 - np.asarray(points)[:, 0] / 13.0,
    "sine-product": _SINE.value,
    "sine-product-load": _SINE.load,
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
        return _float(spec, path)
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
    if not abs(value) <= sys.float_info.max:  # false for NaN and huge ints
        raise ConfigError(f"{path}: expected a finite number")
    return float(value)


def _list(value, path: str, item=_float) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list")
    return [item(v, path) for v in value]


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    return value


# the value check of each refinement key; global_h is the required one
_REFINEMENT_CHECKS = {
    "global_h": _float,
    "rule": _str,
    "crack_h": lambda value, path: None if value is None else _float(value, path),
    "coefficient": _float,
    "max_generations": _int,
}


def _checked(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a ValueError from its range checks
    reported as a ConfigError under ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _pair(value, path: str) -> list:
    pair = _list(value, path)
    if len(pair) != 2:
        raise ConfigError(f"{path}: expected two numbers")
    return pair


def _points(value, path: str) -> list:
    return _list(value, path, _pair)


# the keys of each geometry kind besides "kind", in canonical order, and
# their value checks
_GEOMETRY_CHECKS = {
    "segment": {"points": _points},
    "polyline": {"points": _points},
    "arc": {"center": _pair, "radius": _float, "angles": _pair},
    "circle": {"center": _pair, "radius": _float},
}


def _normalize_geometry(geo: dict, path: str) -> dict:
    _expect_keys(geo, path, {"kind"}, {"points", "center", "radius", "angles"})
    kind = geo["kind"]
    if not isinstance(kind, str) or kind not in _GEOMETRY_CHECKS:
        raise ConfigError(f"{path}.kind: unknown geometry kind {kind!r}")
    checks = _GEOMETRY_CHECKS[kind]
    _expect_keys(geo, path, {"kind", *checks}, set())
    out = {"kind": kind, **{k: check(geo[k], f"{path}.{k}") for k, check in checks.items()}}
    if kind == "segment" and len(out["points"]) != 2:
        raise ConfigError(f"{path}.points: a segment has exactly two points")
    return out


def _arc(geo: dict):
    """(center, radius, angles) of a curved geometry; a circle is the arc over (0, 2 pi)."""
    return geo["center"], geo["radius"], geo.get("angles", (0.0, 2.0 * np.pi))


def _chain(ch: dict, global_h: float) -> Chain:
    """The Chain of one config chain; curved kinds are sampled at global_h / 10."""
    geo = ch["geometry"]
    points = arc_points(*_arc(geo), global_h / 10.0) if "radius" in geo else geo["points"]
    source = resolve_scalar(ch["source"], "chain source")
    return Chain(points, permeability=ch["permeability"], source=source)


@dataclass
class ProblemConfig:
    """Validated, canonical problem description (mirrors the JSON schema)."""

    domain: list
    chains: list
    coefficients: dict
    boundary: dict
    refinement: RefinementConfig
    exact_solution: str | None = None
    study: dict | None = None
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_dict(cls, raw: dict) -> "ProblemConfig":
        # the top-level keys are the fields; domain and refinement are required
        _expect_keys(raw, "config", {"domain", "refinement"}, {f.name for f in fields(cls)})
        version = raw.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version: {version} unsupported (expected {SCHEMA_VERSION})"
            )
        domain = _list(raw["domain"], "domain")
        if len(domain) != 4:
            raise ConfigError("domain: expected [xmin, xmax, ymin, ymax]")
        side = min(domain[1] - domain[0], domain[3] - domain[2])
        _checked("domain", rectangle_cells, domain, side)  # empty, or too long to mesh
        section = raw["refinement"]
        _expect_keys(section, "refinement", {"global_h"}, set(_REFINEMENT_CHECKS))
        values = {k: _REFINEMENT_CHECKS[k](v, f"refinement.{k}") for k, v in section.items()}
        refinement = _checked("refinement", RefinementConfig, **values)
        _checked("refinement.global_h", rectangle_cells, domain, refinement.global_h)

        raw_chains = raw.get("chains", [])
        if not isinstance(raw_chains, list):
            raise ConfigError("chains: expected a list")
        # an arc that does not retrace itself is a convex curve in the
        # rectangle, so no longer than its perimeter
        perimeter = 2.0 * (domain[1] - domain[0] + domain[3] - domain[2])
        slack = tolerance(np.reshape(domain, (2, 2)).T)
        chains, closed = [], []
        for i, ch in enumerate(raw_chains):
            path = f"chains[{i}]"
            _expect_keys(ch, path, {"geometry"}, {"permeability", "source"})
            geo = _normalize_geometry(ch["geometry"], f"{path}.geometry")
            chain = {
                "geometry": geo,
                "permeability": _float(ch.get("permeability", 0.0), f"{path}.permeability"),
                "source": _check_scalar_spec(ch.get("source", 0.0), f"{path}.source"),
            }
            if "radius" in geo:
                _, radius, (a0, a1) = _arc(geo)
                length = radius * abs(a1 - a0)
                if length > perimeter + slack:
                    raise ConfigError(
                        f"{path}: an arc of length {length:.6g} is longer "
                        f"than the domain perimeter {perimeter:.6g}"
                    )
            closed.append(_checked(path, _chain, chain, refinement.global_h).is_closed)
            chains.append(chain)

        co = raw.get("coefficients", {})
        _expect_keys(co, "coefficients", set(), {"a1", "a2", "source"})
        coefficients = {k: _float(co.get(k, 1.0), f"coefficients.{k}") for k in ("a1", "a2")}
        coefficients["source"] = _check_scalar_spec(
            co.get("source", 0.0), "coefficients.source"
        )
        _checked("coefficients", Coefficients, coefficients["a1"], coefficients["a2"])
        if coefficients["a1"] != coefficients["a2"] and closed != [True]:
            raise ConfigError(
                "coefficients: a1 != a2 needs a single closed chain to split regions"
            )

        boundary = {}
        raw_boundary = raw.get("boundary", {"left": {"dirichlet": 0.0}})
        if not isinstance(raw_boundary, dict):
            raise ConfigError("boundary: expected an object")
        for tag, cond in raw_boundary.items():
            path = f"boundary.{tag}"
            if tag not in RECTANGLE_TAGS:
                raise ConfigError(f"{path}: unknown tag (known: {list(RECTANGLE_TAGS)})")
            if cond != "neumann":
                if not isinstance(cond, dict):
                    raise ConfigError(f"{path}: expected 'neumann' or {{'dirichlet': g}}")
                _expect_keys(cond, path, {"dirichlet"}, set())
                cond = {"dirichlet": _check_scalar_spec(cond["dirichlet"], path)}
            boundary[tag] = cond
        _checked("boundary", _build_boundary, boundary)

        exact = raw.get("exact_solution")
        if exact not in (None, *EXACT_SOLUTIONS):
            raise ConfigError(
                f"exact_solution: unknown {exact!r} (known: {sorted(EXACT_SOLUTIONS)})"
            )

        study = raw.get("study")
        if study is not None:
            _expect_keys(study, "study", {"levels"}, set())
            levels = _list(study["levels"], "study.levels")
            if len(levels) < 3:
                raise ConfigError("study.levels: at least three levels required")
            cells = [_checked("study.levels", rectangle_cells, domain, h) for h in levels]
            for (a, ca), (b, cb) in zip(zip(levels, cells), zip(levels[1:], cells[1:])):
                if not b < a:
                    raise ConfigError("study.levels: must be strictly decreasing")
                if ca == cb:
                    raise ConfigError(
                        f"study.levels: {a!r} and {b!r} give the same {ca[0]} x {ca[1]} mesh"
                    )
            study = {"levels": levels}

        return cls(domain, chains, coefficients, boundary, refinement, exact, study)

    def to_dict(self) -> dict:
        """The canonical JSON object, schema_version first."""
        return {"schema_version": self.schema_version, **asdict(self)}

    def with_global_h(self, h: float) -> "ProblemConfig":
        """Copy at another global_h, without study; other sections are shared."""
        refinement = _checked("refinement", replace, self.refinement, global_h=float(h))
        _checked("refinement.global_h", rectangle_cells, self.domain, refinement.global_h)
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
    """Chains from config geometry; curved kinds are sampled at global_h / 10.

    A chain point outside the domain by more than the tolerance of the
    unrefined mesh raises CrackGeometryError naming the chain.
    """
    corners = np.reshape(config.domain, (2, 2)).T  # [[xmin, ymin], [xmax, ymax]]
    tol = tolerance(corners)
    chains = [_chain(ch, global_h) for ch in config.chains]
    for j, chain in enumerate(chains):
        pts = chain.points
        outside = ((pts < corners[0] - tol) | (pts > corners[1] + tol)).any(axis=1)
        if outside.any():
            near = pts[np.argmax(outside)].tolist()
            raise CrackGeometryError(f"chain {j} leaves the domain near {near}")
    return CrackGraph(chains)


def _build_coefficients(config: ProblemConfig, graph: CrackGraph) -> Coefficients:
    co = config.coefficients
    region = None
    if co["a1"] != co["a2"]:  # from_dict checked that one closed chain splits them
        def region(points):
            return np.where(_points_in_polygon(points, graph.chains[0].points), 2, 1)
    return Coefficients(
        a1=co["a1"],
        a2=co["a2"],
        source=resolve_scalar(co["source"], "coefficients.source"),
        region=region,
    )


def _build_boundary(boundary: dict) -> BoundarySpec:
    """Dirichlet conditions by side; the other sides, named ``"neumann"``
    or left out, are natural."""
    return BoundarySpec(
        {
            tag: resolve_scalar(cond["dirichlet"], f"boundary.{tag}")
            for tag, cond in boundary.items()
            if cond != "neumann"
        }
    )


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


def run_single(config: ProblemConfig, out_dir=None, level: int = 0) -> RunResult:
    """Mesh, refine, cut, assemble, solve; optionally export artifacts."""
    mesh = build_rectangle_mesh(config.domain, config.refinement.global_h)
    graph = build_crack_graph(config, config.refinement.global_h)
    mesh, hits = refine_near_crack(mesh, graph, config.refinement)
    segments = cut_chains(mesh, graph, hits)
    coeffs = _build_coefficients(config, graph)
    boundary = _build_boundary(config.boundary)
    # the system is freed once solved, before the norms' arrays exist
    solution = solve(assemble(mesh, segments, coeffs, boundary))
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
        export_vtk(mesh, out / "solution.vtk", solution)
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
    """Rows ``"x y u"`` from the cached vertex and value rows, written
    ``_TEXT_BLOCK`` rows at a time."""
    vertex_rows, _ = solution.mesh.text_rows()
    value_rows = solution.value_rows()
    with open(path, "w") as f:
        f.write("# x y u\n")
        for (a, b), (c, d) in zip(_row_blocks(vertex_rows), _row_blocks(value_rows)):
            # a float's repr holds no "%", so each vertex row takes its value by "%s"
            template = vertex_rows[a:b].replace("\n", " %s\n")
            f.write(template % tuple(value_rows[c:d].splitlines()))


def _row_blocks(rows: str):
    """(start, end) offsets of each ``_TEXT_BLOCK`` of ASCII ``"...\n"`` rows."""
    ends = np.flatnonzero(np.frombuffer(rows.encode("ascii"), np.uint8) == ord("\n"))
    cuts = [0, *(ends[_TEXT_BLOCK - 1 : -1 : _TEXT_BLOCK] + 1).tolist(), len(rows)]
    return zip(cuts[:-1], cuts[1:])


def run_convergence_study(
    config: ProblemConfig, out_dir=None, threads: int = 1
) -> StudyResult:
    """Run the study levels one after another, collect norm reports, fit
    convergence slopes. A level failure aborts the study with the
    underlying error.

    ``threads`` remains only because ``bench/workloads.py`` passes
    ``threads=1``; any other value raises ValueError.
    """
    if threads != 1:
        raise ValueError(f"study levels run in one process, not threads={threads!r}")
    if config.study is None:
        raise ConfigError("config has no study section")
    if config.exact_solution is None:
        raise ConfigError("a study needs an exact_solution for its error norms")
    reports = []
    for i, h in enumerate(config.study["levels"]):
        level_dir = None if out_dir is None else Path(out_dir) / f"level_{i:02d}"
        reports.append(run_single(config.with_global_h(h), out_dir=level_dir, level=i).report)
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


# a preset gives only what differs from the defaults ``from_dict`` fills in
def _preset_radial(rule: str) -> dict:
    e = _RADIAL.interface_radius
    levels = _radial_levels()
    return {
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
        "boundary": {
            tag: {"dirichlet": "radial-exact"}
            for tag in ("left", "right", "top", "bottom")
        },
        "refinement": {"global_h": levels[0], "rule": rule},
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

    def arc_at(junction, radius, angle, tip_x, into):
        # center placed so the arc at `angle` lands exactly on the junction;
        # the tip end is where the arc meets x = tip_x
        cx = junction[0] - radius * float(np.cos(angle))
        cy = junction[1] - radius * float(np.sin(angle))
        tip = -float(np.arccos((tip_x - cx) / radius))
        angles = [tip, angle] if into else [angle, tip]
        return {"kind": "arc", "center": [cx, cy], "radius": radius, "angles": angles}

    arc_iso = {
        "kind": "arc",
        "center": [2.0, 12.0],
        "radius": 4.0,
        "angles": [-float(np.arccos(-0.5)), -float(np.arcsin(0.625))],
    }
    seg = lambda p, q: {"kind": "segment", "points": [list(p), list(q)]}
    return [
        arc_at(j0, 5.0, -1.05, 0.0, into=True),  # left tip -> j0
        seg(j0, j1),
        seg(j0, j2),
        seg(j1, [13.0, 8.0]),
        seg(j1, [10.5, 9.5]),  # runs exactly along grid diagonals
        arc_at(j2, 5.5, -1.98, 13.0, into=False),  # j2 -> right tip
        seg(j2, [4.5, 0.0]),
        arc_iso,  # isolated curved crack in the upper left
    ]


def _preset_network() -> dict:
    return {
        "domain": [0.0, 13.0, 0.0, 9.5],
        "chains": [
            {"geometry": g, "permeability": 100.0} for g in _network_chain_geometries()
        ],
        "boundary": {
            "left": {"dirichlet": 1.0},
            "right": {"dirichlet": 0.0},
            "top": "neumann",
            "bottom": "neumann",
        },
        "refinement": {"global_h": 0.5, "rule": "quadratic"},
    }


def _preset_poisson() -> dict:
    return {
        "domain": [0.0, 1.0, 0.0, 1.0],
        "coefficients": {"source": "sine-product-load"},
        "boundary": {
            tag: {"dirichlet": 0.0} for tag in ("left", "right", "top", "bottom")
        },
        "refinement": {"global_h": 0.125},
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
