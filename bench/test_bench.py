"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import crackfem  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_smoke(name, tmp_path):
    tracer = tracing.Tracer()
    op_input = workloads.make_config(name, tmp_path, smoke=True)
    tracer.install()
    try:
        with tracer.span("op"):
            observed = workloads.run_operation(name, op_input, tmp_path)
    finally:
        tracer.uninstall()
    assert workloads.check(name, observed, workloads.reference(name, smoke=True)) == []
    return tracer


def test_wrappers_restore_every_original_attribute():
    targets = tracing._targets()
    before = [vars(owner)[attr] for owner, attr, _ in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [vars(owner)[attr] for owner, attr, _ in targets]
    finally:
        tracer.uninstall()
    assert all(p is not b for p, b in zip(patched, before))
    after = [vars(owner)[attr] for owner, attr, _ in targets]
    assert all(a is b for a, b in zip(after, before))


def test_stage_self_times_fit_inside_their_level_span(tmp_path):
    tracer = _traced_smoke("radial-local", tmp_path)
    spans = tracer.spans
    levels = [i for i, s in enumerate(spans) if s[0] == "config.level"]
    assert len(levels) == 3
    for i in levels:
        _, start, end, _, _ = spans[i]
        children = [s for s in spans if s[3] == i]
        assert children
        for name, c_start, c_end, _, run in children:
            assert start <= c_start <= c_end <= end, name
            assert run == tracer.run_id
        assert sum(c[2] - c[1] for c in children) <= end - start
    assert all(t >= 0.0 for t in tracer.self_times("config.level"))
    metrics = tracer.layer_metrics()
    assert metrics["mesh.mark_calls"] > 0
    assert 0.0 < metrics["geom.clip_useful_ratio"] < 1.0
    assert metrics["solve.lu_nnz"] > metrics["assembly.free_dofs"]


def test_crack_free_export_has_no_geometry_work(tmp_path):
    metrics = _traced_smoke("poisson-export", tmp_path).layer_metrics()
    assert metrics["geom.clip_candidates"] == 0
    assert metrics["geom.grid_builds"] == 0
    assert metrics["export.bytes"] > 0


def _run_bench(cwd, *args):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, time.monotonic() - start


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_prints_the_declared_metrics(name, trace):
    proc, elapsed = _run_bench(ROOT, "--workload", name, "--seed", "1",
                               "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert elapsed < 60.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = _run_bench(tmp_path, "--workload", "radial-local", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
