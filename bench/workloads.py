"""The three benchmark workloads: inputs, the timed operation, output checks.

Every workload calls the package through module attributes
(``crackfem.config.run_single``, ``crackfem.cli.main`` ...), so the
timing wrappers in ``tracing.py`` see the same calls the pipeline makes.

Checks compare against ``reference.json``, recorded from the unmodified
package. Numbers must agree to ``REL_TOL`` relative error: loose enough for
a reordered LU (MMD_AT_PLUS_A in symmetric mode moves the radial norms by
under 1e-8) or a CG stopping a few iterations apart, tight enough that any
change of discretisation shows. Every mismatch is a failure; inputs are
never resampled.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
from pathlib import Path

REL_TOL = 1e-5

NAMES = ("radial-local", "radial-uniform-fine", "poisson-export")

_REFERENCE = Path(__file__).with_name("reference.json")

# smoke mode shrinks each input to coarse levels, for the self-tests
_SMOKE_STUDY_LEVELS = 3
_SMOKE_POISSON_H = 1.0 / 64.0
_POISSON_H = 1.0 / 512.0


def reference(name: str, smoke: bool) -> dict:
    with open(_REFERENCE) as f:
        return json.load(f)["smoke" if smoke else "full"][name]


def make_config(name: str, work_dir: Path, smoke: bool = False):
    """Build and validate the workload's config; return the operation input.

    Returns a ProblemConfig, or for poisson-export the path of the config
    file written into ``work_dir``.
    """
    from crackfem.config import ProblemConfig, build_preset, load_config, save_config

    if name == "radial-local":
        config = build_preset("radial-local")
        if smoke:
            raw = config.to_dict()
            raw["study"]["levels"] = raw["study"]["levels"][:_SMOKE_STUDY_LEVELS]
            config = ProblemConfig.from_dict(raw)
        return config
    if name == "radial-uniform-fine":
        config = build_preset("radial-uniform")
        finest = config.study["levels"][-1]
        return config.with_global_h(finest if smoke else finest / 4.0)
    if name == "poisson-export":
        config = build_preset("poisson-square").with_global_h(
            _SMOKE_POISSON_H if smoke else _POISSON_H
        )
        path = Path(work_dir) / "poisson-export.json"
        save_config(config, path)
        load_config(path)
        return path
    raise ValueError(f"unknown workload {name!r}")


def run_operation(name: str, op_input, work_dir: Path) -> dict:
    """One operation of the workload; returns the values the checks need."""
    import crackfem.cli
    import crackfem.config

    if name == "radial-local":
        study = crackfem.config.run_convergence_study(op_input, threads=1)
        return {
            "levels": [{"l2": r.l2, "h1_semi": r.h1_semi} for r in study.reports],
            "slopes": {k: study.slopes[k] for k in ("l2", "h1_semi")},
        }
    if name == "radial-uniform-fine":
        report = crackfem.config.run_single(op_input).report
        return {"l2": report.l2, "h1_semi": report.h1_semi}
    if name == "poisson-export":
        out_dir = Path(work_dir) / "out"
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = crackfem.cli.main(["run", str(op_input), "--out", str(out_dir)])
        return {"exit_code": code, "stdout": printed.getvalue(), "out_dir": str(out_dir)}
    raise ValueError(f"unknown workload {name!r}")


def _close(what: str, got: float, want: float) -> list:
    if abs(got - want) <= REL_TOL * abs(want):
        return []
    return [f"{what}: got {got!r}, reference {want!r}"]


def _parse_run_stdout(text: str) -> dict:
    counts = re.search(r"vertices=(\d+) triangles=(\d+)", text)
    norms = re.search(
        r"errors: l2=(\S+) h1_semi=(\S+) l2_crack=(\S+) energy=(\S+)", text
    )
    if counts is None or norms is None:
        raise ValueError(f"unexpected `crackfem run` output: {text[:200]!r}")
    return {
        "vertices": int(counts.group(1)),
        "triangles": int(counts.group(2)),
        "norms": dict(zip(("l2", "h1_semi", "l2_crack", "energy"), map(float, norms.groups()))),
    }


def check(name: str, observed: dict, ref: dict) -> list:
    """Mismatches between one operation's outputs and the reference."""
    errors = []
    if name == "radial-local":
        if len(observed["levels"]) != len(ref["levels"]):
            return [f"{len(observed['levels'])} study levels, reference has {len(ref['levels'])}"]
        for i, (got, want) in enumerate(zip(observed["levels"], ref["levels"])):
            for key in ("l2", "h1_semi"):
                errors += _close(f"level {i} {key}", got[key], want[key])
        for key, (lo, hi) in ref.get("slope_windows", {}).items():
            slope = observed["slopes"][key]
            if not lo <= slope <= hi:
                errors.append(f"{key} slope {slope:.3f} outside [{lo}, {hi}]")
    elif name == "radial-uniform-fine":
        for key in ("l2", "h1_semi"):
            errors += _close(key, observed[key], ref[key])
    elif name == "poisson-export":
        if observed["exit_code"] != 0:
            return [f"crackfem run exited {observed['exit_code']}"]
        printed = _parse_run_stdout(observed["stdout"])
        for key, want in ref["norms"].items():
            errors += _close(f"printed {key}", printed["norms"][key], want)
        with open(Path(observed["out_dir"]) / "mesh.txt") as f:
            header = f.readline().strip()
        expected = f"vertices {printed['vertices']} / triangles {printed['triangles']}"
        if header != expected:
            errors.append(f"mesh.txt header {header!r}, printed counts say {expected!r}")
    return errors


def clean(work_dir: Path) -> None:
    """Remove what an operation wrote (poisson-export leaves tens of MB)."""
    shutil.rmtree(Path(work_dir) / "out", ignore_errors=True)

