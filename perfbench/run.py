"""heatrobin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. The program is used from the checkout's own
src/ (pure Python, nothing to build). A run measures set-up time in fresh
interpreters, then runs the workload in one child process with the BLAS
thread count pinned, and prints every metric by name with its unit. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics for --trace 0 and the per-layer
metrics for --trace 1. `--workload all` runs every workload untraced and
traced and prints them all. Exits non-zero, printing no result, when the
checkout lacks the program or a run fails to finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import NOMINAL_UNIT_S, Speedometer
from gen import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 8  # per set-up phase; one phase runs before the workload, one after
SETUP_CODE = "import sys, heatrobin.cli as cli; cli.load_config(sys.argv[1])"
TIME_LIMIT_S = 170.0  # the whole invocation must end within 180 s
OUT = ROOT / ".perfbench_out"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def setup_samples(env: dict, deadline: float) -> tuple[list[float], list[float]]:
    """Wall times of SETUP_REPEATS fresh interpreters that each import
    heatrobin.cli and parse one config, after one unrecorded start that fills
    the caches; as (calibrated, raw) seconds."""
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "configs" / "ex1.json")]
    samples, calibrated = [], []
    for i in range(SETUP_REPEATS + 1):
        with Speedometer() as speed:
            t0 = time.perf_counter()
            proc = subprocess.run(
                argv, env=env, capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
            elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        if i:
            samples.append(elapsed)
            calibrated.append(elapsed * NOMINAL_UNIT_S / speed.unit_s if speed.unit_s else elapsed)
    return calibrated, samples


def run_workload(workload: str, seed: int, seconds: int, trace: int, env: dict, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    argv = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--root", str(ROOT), "--workdir", str(workdir),
        "--spans", str(OUT / f"{tag}-spans.json"),
    ]
    try:
        proc = subprocess.run(
            argv, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish in time") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} run failed:\n{proc.stderr.strip()}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(record: dict) -> dict:
    """Print a run's metrics line by line; return its result object."""
    w = record["workload"]
    for name, (value, unit) in {**record["metrics"], **record.get("info", {})}.items():
        print(f"{w:17s} {name:28s} {fmt(value):>14s} {unit}")
    probe = record.get("probe", {})
    probe_attempted = sum(a for a, _ in probe.values())
    probe_failed = sum(f for _, f in probe.values())
    print(f"{w:17s} {'ops_attempted':28s} {record['attempted'] + probe_attempted:>14d} count")
    print(f"{w:17s} {'ops_failed':28s} {record['failed'] + probe_failed:>14d} count")
    print(f"{w:17s} {'timed_ops_failed':28s} {record['failed']:>14d} count")
    for name, (attempted, failed) in probe.items():
        print(f"{w:17s} {'probe_' + name + '_failed':28s} {failed:>14d} of {attempted} untimed")
    for line in record["failures"] + record.get("probe_failures", []):
        print(f"{w:17s} failure: {line}")
    print(f"{w:17s} environment: {json.dumps(record['environment'], sort_keys=True)}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in record["metrics"].items()},
    }


def one(workload: str, seed: int, seconds: int, trace: int, blas_threads: int, deadline: float) -> dict:
    env = child_env(blas_threads)
    # Set-up is sampled before and after the workload, so that its median
    # does not hang on one short window of host speed.
    before = None if trace else setup_samples(env, deadline)
    record = run_workload(workload, seed, seconds, trace, env, deadline)
    record["environment"]["git_commit"] = git_commit()
    if before is not None:
        after = setup_samples(env, deadline)
        record["metrics"] = {
            "setup_s": (statistics.median(before[0] + after[0]), "s"), **record["metrics"]
        }
        record["info"]["setup_s.raw"] = (statistics.median(before[1] + after[1]), "s")
    return report(record)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="heatrobin benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=1, help="BLAS threads in the workload (default 1)")
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.blas_threads < 1:
        ap.error("--seconds and --blas-threads must be at least 1")
    if not (ROOT / "src" / "heatrobin" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no heatrobin sources under {ROOT}: run from a full checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    try:
        if args.workload != "all":
            result = one(args.workload, args.seed, args.seconds, args.trace,
                         args.blas_threads, start + TIME_LIMIT_S)
        else:
            result = {}
            for workload in WORKLOADS:
                for trace in (0, 1):
                    result[f"{workload}/trace{trace}"] = one(
                        workload, args.seed, args.seconds, trace, args.blas_threads,
                        time.monotonic() + TIME_LIMIT_S,
                    )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
