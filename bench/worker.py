"""One benchmark process: a set-up probe or one operation of a workload.

    python3 bench/worker.py setup WORKLOAD --work DIR [--smoke]
    python3 bench/worker.py op WORKLOAD --work DIR [--trace] [--run-id N] [--smoke]

``setup`` imports crackfem and builds and validates the workload's config,
which is what every CLI call pays before doing any work; the parent times
the whole process. ``op`` does the same untimed, then times one operation,
checks its outputs and prints one JSON line: wall time, peak RSS of this
process, the check failures and, when traced, the per-layer metrics and
spans. ``bench/run.py`` starts these processes with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_package():
    import crackfem

    if Path(crackfem.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"crackfem imported from {crackfem.__file__}, not from {SRC}")


def _operation(args) -> dict:
    op_input = workloads.make_config(args.workload, args.work, args.smoke)
    tracer = Tracer(args.run_id) if args.trace else None
    record = {"wall_s": None, "errors": []}
    try:
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            if tracer is None:
                observed = workloads.run_operation(args.workload, op_input, args.work)
            else:
                with tracer.span("op"):
                    observed = workloads.run_operation(args.workload, op_input, args.work)
            record["wall_s"] = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        record["errors"] = workloads.check(
            args.workload, observed, workloads.reference(args.workload, args.smoke)
        )
    except Exception:
        record["errors"].append(traceback.format_exc())
    finally:
        workloads.clean(args.work)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["spans"] = tracer.spans
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "op"))
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    _import_package()
    if args.mode == "setup":
        workloads.make_config(args.workload, args.work, args.smoke)
        return 0
    print(json.dumps(_operation(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
