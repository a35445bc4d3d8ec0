"""crackfem benchmark: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from its
``src`` directory. Every operation and every set-up probe runs in a fresh
Python process (``bench/worker.py``), serially, with BLAS and OpenMP
pinned to one thread.

``--trace 0`` times operations until ``--seconds`` is spent (at least one)
and interleaves set-up probes among them; it reports the median wall time
per operation, set-up time and peak RSS. ``--trace 1`` runs pairs of one
untraced and one traced operation and reports the per-layer metrics of the
traced ones plus the tracing overhead. The inputs are fixed, so the seed
only orders the processes within a run. ``--smoke`` shrinks every input
to coarse levels (seconds per run) for the self-tests.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; units come from ``BENCHMARK.json``. A record
of the run (environment, every sample, the spans of traced operations) is
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 7
# every run must end within 180 s; stop starting processes well before that
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts worker processes serially and enforces the run deadline."""

    def __init__(self, workload: str, work: Path, smoke: bool):
        self.workload = workload
        self.work = work
        self.smoke = smoke
        self.env = _worker_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def _run(self, mode: str, extra=()):
        cmd = [sys.executable, str(BENCH / "worker.py"), mode, self.workload,
               "--work", str(self.work), *extra]
        if self.smoke:
            cmd.append("--smoke")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline reached")
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        return proc, time.perf_counter() - start

    def setup(self) -> float:
        proc, elapsed = self._run("setup")
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        return elapsed

    def operation(self, trace: bool, run_id: int) -> tuple[dict, float]:
        """One operation; a crash or a timeout is a failed record."""
        extra = ["--run-id", str(run_id)] + (["--trace"] if trace else [])
        try:
            proc, elapsed = self._run("op", extra)
        except subprocess.TimeoutExpired:
            return {"wall_s": None, "errors": ["operation timed out"]}, DEADLINE_S
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"wall_s": None, "errors": [f"worker exited {proc.returncode}:\n{proc.stderr}"]}, elapsed
        return json.loads(lines[-1]), elapsed

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def _failed(record: dict) -> bool:
    return record["wall_s"] is None or bool(record["errors"])


def _end_to_end(runner: Runner, seconds: float, rng: random.Random) -> dict:
    runner.setup()  # untimed: compiles bytecode, fills the file cache
    setups, ops, op_elapsed = [], [], []
    pending = SETUP_PROBES
    start = time.monotonic()
    while True:
        estimate = statistics.median(op_elapsed) if op_elapsed else 0.0
        # keep about 2 s per set-up probe still to take before the deadline
        can_op = not ops or (
            time.monotonic() - start + estimate <= seconds
            and estimate < runner.time_left() - pending * 2.0
        )
        if pending and (not can_op or rng.random() < 0.5):
            setups.append(runner.setup())
            pending -= 1
        elif can_op:
            record, elapsed = runner.operation(trace=False, run_id=len(ops))
            ops.append(record)
            op_elapsed.append(elapsed)
        else:
            break
    return {"setups": setups, "ops": ops}


def _traced(runner: Runner, seconds: float, rng: random.Random) -> dict:
    runner.setup()
    plain, traced, pair_elapsed = [], [], []
    start = time.monotonic()
    while not pair_elapsed or (
        time.monotonic() - start + statistics.median(pair_elapsed) <= seconds
        and statistics.median(pair_elapsed) < runner.time_left()
    ):
        began = time.monotonic()
        for trace in rng.sample([False, True], 2):
            record, _ = runner.operation(trace=trace, run_id=len(plain) + len(traced))
            (traced if trace else plain).append(record)
        pair_elapsed.append(time.monotonic() - began)
    return {"plain": plain, "traced": traced}


def _summary(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _source_digest() -> str:
    """sha256 over the package sources; identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "caches": _cache_sizes(),
        "git_commit": commit,
        "src_sha256": _source_digest(),
    }


def _units() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crackfem benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="coarse inputs, for the self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crackfem" / "__init__.py").is_file():
        print(f"error: no crackfem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = _units()
    rng = random.Random(args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, work, args.smoke)
    try:
        if args.trace:
            samples = _traced(runner, args.seconds, rng)
            records = samples["plain"] + samples["traced"]
        else:
            samples = _end_to_end(runner, args.seconds, rng)
            records = samples["ops"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    failed = sum(_failed(r) for r in records)
    for r in records:
        for error in r["errors"]:
            print(f"check failed: {error}", file=sys.stderr)
    ok = [r for r in records if not _failed(r)]
    metrics, report = {}, {}
    if args.trace:
        traced = [r for r in samples["traced"] if not _failed(r)]
        plain = [r["wall_s"] for r in samples["plain"] if not _failed(r)]
        if traced and plain:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
            metrics["trace.overhead_s"] = (
                statistics.median(r["wall_s"] for r in traced) - statistics.median(plain)
            )
    elif ok:
        report = {
            "wall_s": _summary([r["wall_s"] for r in ok]),
            "setup_s": _summary(samples["setups"]),
            "peak_rss_mb": _summary([r["peak_rss_mb"] for r in ok]),
        }
        metrics = {name: s["median"] for name, s in report.items()}

    env = _environment(args)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    record_path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    with open(record_path, "w") as f:
        json.dump({"env": env, "samples": samples, "metrics": metrics}, f)

    print("env " + json.dumps(env, sort_keys=True))
    for name, s in report.items():
        print(f"{name:<12} median {s['median']:.6g} q1 {s['q1']:.6g} "
              f"q3 {s['q3']:.6g} n {s['n']} [{units[name]}]")
    print(f"{'failed_frac':<12} {failed}/{len(records)} = {failed / len(records):.3g}")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name:<24} {value:.6g} [{units[name]}]")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and len(metrics) > 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
