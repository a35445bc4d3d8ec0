"""Per-layer tracing installed from outside the package.

``Tracer.install`` replaces the module attributes the pipeline looks up at
call time with timing wrappers; ``uninstall`` puts every original object
back. The package itself is not modified. Each wrapped call records a span
(name, start, end, parent span, run id) in memory; the per-layer metrics
are computed from the spans and from counts taken off the wrapped calls'
arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name): the stage calls of run_single as
# crackfem.config binds them, plus the inner layers they reach
_CONFIG_STAGES = (
    ("run_single", "config.level"),
    ("run_convergence_study", "config.study"),
    ("build_rectangle_mesh", "mesh.build"),
    ("build_crack_graph", "cracks.graph"),
    ("refine_near_crack", "mesh.refine"),
    ("cut_chains", "cracks.cut"),
    ("assemble", "assembly.assemble"),
    ("solve", "solve.solve"),
    ("error_norms", "analysis.norms"),
    ("export_mesh_text", "export.write"),
    ("export_vtk", "export.write"),
    ("_export_solution_text", "export.write"),
)


def _targets():
    """(owner object, attribute name, span name) for every wrapped call."""
    config, mesh, cracks, geom, cli = (
        importlib.import_module(f"crackfem.{name}")
        for name in ("config", "mesh", "cracks", "_geom", "cli")
    )
    # ``crackfem.solve`` as a package attribute is the function, not the module
    solve_module = importlib.import_module("crackfem.solve")
    targets = [(config, attr, name) for attr, name in _CONFIG_STAGES]
    targets += [
        (cli, "main", "cli.main"),
        (cli, "run_single", "config.level"),
        (mesh, "mark_crack_elements", "mesh.mark"),
        (mesh, "refine_marked", "mesh.bisect"),
        (mesh, "clip_segments_to_triangles", "geom.clip"),
        (cracks, "clip_segments_to_triangles", "geom.clip"),
        (geom.SpatialGrid, "for_triangles", "geom.grid_build"),
        (geom.SpatialGrid, "query", "geom.grid_query"),
        (solve_module.spla, "splu", "solve.splu"),
    ]
    return targets


def _observe_clip(counts, args, result):
    counts["clip_candidates"] += len(args[2])
    counts["clip_touched"] += int(result[2].sum())


def _observe_assemble(counts, args, result):
    mesh = args[0]
    counts["matrix_nnz"] += result.matrix.nnz
    counts["free_dofs"] += result.n - len(result.constrained)
    counts["vertices"] += mesh.n_vertices
    counts["triangles"] += mesh.n_triangles


def _observe_cut(counts, args, result):
    counts["segments"] += result.n_segments


def _observe_splu(counts, args, result):
    counts["lu_nnz"] += result.L.nnz + result.U.nnz


def _observe_export(counts, args, result):
    counts["export_bytes"] += os.path.getsize(args[1])


_OBSERVERS = {
    "geom.clip": _observe_clip,
    "assembly.assemble": _observe_assemble,
    "cracks.cut": _observe_cut,
    "solve.splu": _observe_splu,
    "export.write": _observe_export,
}


class Tracer:
    """Spans and counts of one traced operation.

    ``spans`` holds ``[name, start, end, parent, run]`` lists; ``parent``
    is the index of the enclosing span, -1 for the root.
    """

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)

        # try/finally rather than ``with self.span``: cheaper per call, and
        # the geometry layers are called tens of thousands of times
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(name, original.__func__))
            else:
                patched = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self, name: str) -> list:
        """Span duration minus the time its direct children cover."""
        child = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (end - start) - child[i]
            for i, (n, start, end, _, _) in enumerate(self.spans)
            if n == name
        ]

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything traced so far (sums over spans)."""
        total = lambda name: sum(self.durations(name), 0.0)
        calls = lambda name: len(self.durations(name))
        c = self.counts
        candidates = c["clip_candidates"]
        return {
            "mesh.refine_s": total("mesh.refine"),
            "mesh.mark_s": total("mesh.mark"),
            "mesh.mark_calls": calls("mesh.mark"),
            "mesh.bisect_s": total("mesh.bisect"),
            "geom.clip_calls": calls("geom.clip"),
            "geom.clip_candidates": candidates,
            "geom.clip_touched": c["clip_touched"],
            "geom.clip_useful_ratio": c["clip_touched"] / candidates if candidates else 0.0,
            "geom.grid_builds": calls("geom.grid_build"),
            "geom.grid_build_s": total("geom.grid_build"),
            "geom.grid_query_s": total("geom.grid_query"),
            "cracks.graph_s": total("cracks.graph"),
            "cracks.cut_s": total("cracks.cut"),
            "cracks.segments": c["segments"],
            "assembly.assemble_s": total("assembly.assemble"),
            "assembly.matrix_nnz": c["matrix_nnz"],
            "assembly.free_dofs": c["free_dofs"],
            "solve.solve_s": total("solve.solve"),
            "solve.lu_nnz": c["lu_nnz"],
            "analysis.norms_s": total("analysis.norms"),
            "export.write_s": total("export.write"),
            "export.bytes": c["export_bytes"],
            "mesh.build_s": total("mesh.build"),
            "mesh.vertices": c["vertices"],
            "mesh.triangles": c["triangles"],
            "config.other_s": sum(self.self_times("config.level")),
        }
