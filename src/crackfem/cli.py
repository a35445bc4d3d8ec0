"""Command line interface: single runs, convergence studies, preset listing."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import NormReport
from .assembly import NonFiniteValueError
from .config import (
    ConfigError,
    ProblemConfig,
    build_preset,
    list_presets,
    load_config,
    run_convergence_study,
    run_single,
    slopes_for_json,
)
from .cracks import CrackGeometryError
from .mesh import MeshError, RefinementError
from .solve import SolverError


def _resolve_config(args) -> ProblemConfig:
    """The config file or preset named on the command line."""
    if Path(args.config).is_file():
        return load_config(args.config)
    if args.config in list_presets():
        return build_preset(args.config)
    raise ConfigError(
        f"{args.config!r} is neither a config file nor a preset "
        f"(presets: {list_presets()})"
    )


def _add_common(parser):
    parser.add_argument("config", help="config file path or preset name")
    parser.add_argument("--out", default=None, help="output directory")


def _cmd_run(args) -> int:
    result = run_single(_resolve_config(args), out_dir=args.out)
    print(
        f"vertices={result.mesh.n_vertices} triangles={result.mesh.n_triangles} "
        f"crack_segments={result.segments.n_segments}"
    )
    if result.report is not None:
        r = result.report
        print(
            f"errors: l2={r.l2:.6e} h1_semi={r.h1_semi:.6e} "
            f"l2_crack={r.l2_crack:.6e} energy={r.energy:.6e}"
        )
    for name, path in sorted(result.outputs.items()):
        print(f"{name}: {path}")
    return 0


def _cmd_study(args) -> int:
    result = run_convergence_study(_resolve_config(args), out_dir=args.out)
    print(NormReport.CSV_HEADER)
    for report in result.reports:
        print(report.as_csv_row())
    print("slopes: " + json.dumps(slopes_for_json(result.slopes), sort_keys=True))
    for name, path in sorted(result.outputs.items()):
        print(f"{name}: {path}")
    return 0


def _cmd_presets(args) -> int:
    if args.action == "list":
        for name in list_presets():
            print(name)
        return 0
    config = build_preset(args.name)
    print(json.dumps(config.to_dict(), indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crackfem",
        description="P1 finite elements with embedded crack networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("run", help="solve one problem"))
    _add_common(sub.add_parser("study", help="run a convergence study"))
    pre = sub.add_parser("presets", help="inspect built-in presets")
    pre_sub = pre.add_subparsers(dest="action", required=True)
    pre_sub.add_parser("list", help="list preset names")
    show = pre_sub.add_parser("show", help="print a preset as JSON")
    show.add_argument("name")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "study":
            return _cmd_study(args)
        return _cmd_presets(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        MeshError, RefinementError, CrackGeometryError, NonFiniteValueError, SolverError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
