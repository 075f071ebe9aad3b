"""One benchmark run of one workload, in a single process.

Closed loop, one client: the ops of a cycle run back to back, whole cycles
repeat until --seconds have passed, and each op's outputs are checked
(untimed) before the next op starts. With --trace 1, cycles alternate between
untraced and traced, so the same process yields per-layer self times and the
tracing overhead; end-to-end metrics come only from --trace 0 runs.

Prints one JSON record on the last line of stdout. Run through run.py, which
pins the BLAS thread count and puts the checkout's src/ on the path.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import heatrobin
import heatrobin.cli as cli
import heatrobin.solver as solver
import heatrobin.verify as verify
from heatrobin.polyalg import Poly1

import checks
from calib import NOMINAL_UNIT_S, Speedometer
from gen import SESSION_MODES, WORKLOADS, Op, cycle_ops, probe_ops, session_lattice
from spans import SELF_TIME_METRICS, Tracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(argv: list[str]) -> tuple[float, int, str, str]:
    """heatrobin.cli.main in-process with stdout and stderr captured; returns
    (seconds spent in main, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return elapsed, rc, out.getvalue(), err.getvalue()


def run_session(op: Op) -> dict:
    """One library session; returns what check_session needs."""
    cfg = cli.load_config(str(op.config))
    p = cfg.problem
    sol = solver.solve_problem(p, n_max=cfg.n_max, tol=cfg.tol)
    rep = verify.residual_report(sol, t_min=cfg.t_min)
    lattice = session_lattice(p.l, p.T)
    t0 = time.perf_counter()
    values = [sol(x, t, cfg.tol) for x, t in lattice]
    point_eval_s = time.perf_counter() - t0
    kind = "nr" if p.boundary == "neumann_robin" else "dr"
    argv = ["eigen", "--kind", kind, "--k", repr(p.k), "--nu", repr(p.nu), "--l", repr(p.l)]
    _, rc, out, _ = run_cli(argv + ["-n", str(SESSION_MODES)])
    rod = json.loads(op.rod.read_text())
    gap = verify.two_forms_check(
        Poly1(tuple(rod["f"]), "x"), Poly1(tuple(rod["mu0"]), "x"), rod["k"]
    )
    return {
        "solution": sol,
        "tol": cfg.tol,
        "t_min": cfg.t_min,
        "residuals": {
            "pde_residual_max": rep.pde_residual_max,
            "bc_residual_left": rep.bc_residual_left,
            "bc_residual_right": rep.bc_residual_right,
            "initial_l2_error": rep.initial_l2_error,
        },
        "lattice": lattice,
        "values": values,
        "point_eval_s": point_eval_s,
        "eigen_rc": rc,
        "eigen_stdout": out,
        "eigen_rows": SESSION_MODES,
        "two_forms_gap": gap,
    }


class Run:
    """State of one run: timings, checks and accuracy figures."""

    def __init__(self, seed: int, workdir: Path, calibrate: bool = True):
        self.seed = seed
        self.calibrate = calibrate
        self.workdir = workdir
        self.ledger = checks.RepeatLedger()
        self.times: dict[str, list[float]] = defaultdict(list)
        self.traced_times: dict[str, list[float]] = defaultdict(list)
        self.points = 0
        self.point_eval_s = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.output_bytes = 0
        self.rows_failed: dict[str, int] = {}
        self.oracle_gap_max = 0.0
        self.pde_residual_max = 0.0
        self.unit_s: dict[str, list] = defaultdict(list)  # speedometer, per timed op
        self.check_rss_raise_mb = 0.0  # peak RSS added by the output checks

    def _outdir(self, op: Op) -> Path:
        return self.workdir / "out" / op.key.replace(":", "_")

    def execute(self, op: Op) -> tuple[float, object]:
        """Run one op; return (wall seconds, raw result for check())."""
        if op.kind == "session":
            t0 = time.perf_counter()
            result = run_session(op)
            return time.perf_counter() - t0, result
        elapsed, *result = run_cli(
            [op.kind, "--config", str(op.config), "--out", str(self._outdir(op))]
        )
        return elapsed, tuple(result)

    def check(self, op: Op, result) -> int:
        """Raise checks.OpFailure if the op's outputs are wrong; return the
        bytes the CLI wrote."""
        if op.kind == "session":
            checks.check_session(result, op.key, self.ledger)
            self.points += len(result["values"])
            self.point_eval_s += result["point_eval_s"]
            self.pde_residual_max = max(
                self.pde_residual_max, result["residuals"]["pde_residual_max"]
            )
            return 0
        rc, out, err = result
        if op.kind == "solve":
            if rc != 0:
                raise checks.OpFailure(f"{op.key}: exit code {rc}: {err.strip()}")
            nbytes = checks.check_solve(self._outdir(op), out, self.seed, op.key, self.ledger)
            report = json.loads((self._outdir(op) / "report.json").read_text())
        else:
            if rc not in (0, 1):
                raise checks.OpFailure(f"{op.key}: exit code {rc}: {err.strip()}")
            nbytes, report, fails = checks.check_verify(
                self._outdir(op), rc, out, op.key, self.ledger
            )
            self.rows_failed[op.key] = fails
            self.oracle_gap_max = max(
                self.oracle_gap_max, report["verification"]["oracle_max_diff"]
            )
        self.pde_residual_max = max(
            self.pde_residual_max, report["verification"]["pde_residual_max"]
        )
        return nbytes

    def attempt(self, op: Op, tracer: Tracer | None, op_id: int) -> int:
        """Run, time and check one op; return bytes written (0 on failure).
        Only ops that pass their checks contribute a time."""
        self.attempted += 1
        gc.collect()
        try:
            if tracer is None:
                with Speedometer() if self.calibrate else contextlib.nullcontext() as speed:
                    elapsed, result = self.execute(op)
            else:
                with tracer.installed(), tracer.op(op_id):
                    elapsed, result = self.execute(op)
            peak_before_check = peak_rss_mb()
            nbytes = self.check(op, result)
            self.check_rss_raise_mb += peak_rss_mb() - peak_before_check
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self.failures.append(f"{op.key}: {detail}")
            return 0
        if tracer is None:
            self.times[op.key].append(elapsed)
            self.unit_s[op.key].append(speed.unit_s if speed else None)
        else:
            self.traced_times[op.key].append(elapsed)
        return nbytes

    def calibrated_times(self) -> tuple[dict[str, list[float]], float]:
        """Op times scaled to the nominal machine by the speed measured during
        each op (the run's mean for ops too short for a sample), and that mean
        unit time."""
        units = [u for us in self.unit_s.values() for u in us if u is not None]
        mean_unit = statistics.mean(units)
        return {
            key: [t * NOMINAL_UNIT_S / (u or mean_unit) for t, u in zip(ts, self.unit_s[key])]
            for key, ts in self.times.items()
        }, mean_unit


def probe(seed: int, workdir: Path) -> tuple[dict, list[str]]:
    """Attempt the untimed robustness problems; return ({set: [attempted,
    failed]}, failure lines)."""
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    failures = []
    for op in probe_ops(seed, workdir):
        tally = counts[op.key.split(":")[1]]
        tally[0] += 1
        try:
            cfg = cli.load_config(str(op.config))
            with np.errstate(all="ignore"):
                sol = solver.solve_problem(cfg.problem, n_max=cfg.n_max, tol=cfg.tol)
                rep = verify.residual_report(sol, t_min=cfg.t_min)
            values = (rep.pde_residual_max, rep.bc_residual_left, rep.bc_residual_right)
            if not all(math.isfinite(v) for v in values):
                raise checks.OpFailure(f"non-finite residuals {values}")
        except Exception as exc:  # counted, never fatal: this is what the probe measures
            tally[1] += 1
            failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
    return dict(counts), failures


def percentile_tail(samples: list[float]):
    """Highest percentile with at least 10 samples beyond it, as
    (percentile, value); None when there are fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(samples)[n - 11]


def end_to_end(run: Run) -> tuple[dict, dict]:
    """(gated metrics, informational metrics) of an untraced run."""
    peak = peak_rss_mb()
    calibrated, mean_unit = run.calibrated_times()
    gated = {
        "cycle_cal_s": (sum(statistics.median(v) for v in calibrated.values()), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    info = {
        "cycle_s.p50": (sum(statistics.median(v) for v in run.times.values()), "s"),
        "calib_unit_ms": (mean_unit * 1e3, "ms"),
        "peak_rss_checks_mb": (run.check_rss_raise_mb, "MB"),
    }
    families = defaultdict(list)
    for key, samples in run.times.items():
        families[key.split(":")[0] + "_s"].extend(samples)
    for family, samples in sorted(families.items()):
        info[f"{family}.p50"] = (statistics.median(samples), "s")
        tail = percentile_tail(samples)
        info[f"{family}.tail"] = (None if tail is None else tail[1], "s")
        info[f"{family}.tail_percentile"] = (None if tail is None else tail[0], "%")
        info[f"{family}.samples"] = (len(samples), "count")
    if run.points:
        info["point_evals_per_s"] = (run.points / run.point_eval_s, "1/s")
    info["ops_timed"] = (sum(map(len, run.times.values())), "count")
    info["verify_rows_failed"] = (sum(run.rows_failed.values()), "count/cycle")
    info["oracle_gap_max"] = (run.oracle_gap_max if run.rows_failed else None, "1")
    info["pde_residual_max"] = (run.pde_residual_max, "1")
    return gated, info


def per_layer(run: Run, tracer: Tracer, cycles: int) -> dict:
    """Per-layer metrics of the traced cycles, normalised per cycle."""
    self_s = tracer.self_times()
    spans = tracer.span_counts()
    counts = tracer.counts
    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = (sum(self_s.get(n, 0.0) for n in names) / cycles, "s")
    output_s = self_s.get("cli.main", 0.0)
    out["cli.output_bytes"] = (run.output_bytes / cycles, "bytes")
    out["cli.output_mb_per_s"] = (run.output_bytes / output_s / 1e6 if output_s else 0.0, "MB/s")
    calls = spans.get("solver.point_eval", 0)
    out["solver.point_eval_s"] = (self_s.get("solver.point_eval", 0.0) / calls if calls else 0.0, "s")
    out["spectral.roots"] = (counts["spectral.roots"] / cycles, "count")
    out["spectral.roots_bad"] = (counts["spectral.roots_bad"] / cycles, "count")
    out["spectral.trig_integrals"] = (counts["spectral.trig_integrals"] / cycles, "count")
    stored = counts["spectral.terms_stored"]
    out["spectral.terms_used_ratio"] = (counts["spectral.terms_used"] / stored if stored else 0.0, "ratio")
    out["spectral.modal_grid_gflop"] = (counts["spectral.modal_grid_flop"] / 1e9 / cycles, "GFLOP")
    out["polyalg.grid_calls"] = (spans.get("polyalg.Poly2.grid", 0) / cycles, "count")
    out["verify.cn_steps"] = (counts["verify.cn_steps"] / cycles, "count")
    nodes = counts["verify.cn_nodes"]
    cn_self = self_s.get("verify.crank_nicolson_reference", 0.0)
    out["verify.cn_ns_per_node"] = (cn_self / nodes * 1e9 if nodes else 0.0, "ns")
    out["verify.transform_evals"] = (counts["verify.transform_evals"] / cycles, "count")
    shared = [k for k in run.times if k in run.traced_times]
    traced = sum(statistics.median(run.traced_times[k]) for k in shared)
    plain = sum(statistics.median(run.times[k]) for k in shared)
    out["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
    return out


def blas_build() -> str:
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{deps.get('name')} {deps.get('version')} ({deps.get('openblas configuration', '')})".strip()


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_build(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True, help="checkout root holding src/ and configs/")
    ap.add_argument("--workdir", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--spans", help="file to write the traced spans to")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    if Path(heatrobin.__file__).resolve().parent != root / "src" / "heatrobin":
        print(f"heatrobin imported from {heatrobin.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    ops = cycle_ops(args.workload, args.seed, root, workdir)
    run = Run(args.seed, workdir, calibrate=not args.trace)

    # Untimed warm-up: first calls pay one-time costs a user pays at import.
    warm = Run(args.seed, workdir / "warm")
    if args.workload == "library_spectral":
        warm.attempt(ops[0], None, -1)
    else:
        for cmd in ("solve", "verify"):
            warm.attempt(Op(f"warm:{cmd}", cmd, root / "configs" / "ex2.json"), None, -1)

    # Untraced runs stop at the first op boundary past the deadline; traced
    # runs alternate untraced and traced cycles and stop at a cycle boundary,
    # so every layer metric covers whole cycles.
    tracer = Tracer() if args.trace else None
    min_cycles = 2 if args.trace else 1
    cycles = traced_cycles = 0
    op_id = 0
    deadline = time.perf_counter() + args.seconds
    while cycles < min_cycles or time.perf_counter() < deadline:
        traced = args.trace and cycles % 2 == 1
        for op in ops:
            if cycles >= min_cycles and not args.trace and time.perf_counter() >= deadline:
                break
            nbytes = run.attempt(op, tracer if traced else None, op_id)
            if traced:
                run.output_bytes += nbytes
            op_id += 1
        cycles += 1
        traced_cycles += traced

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "environment": environment(args.seed),
        "op_samples_s": dict(sorted(run.times.items())),
        "op_unit_s": dict(sorted(run.unit_s.items())),
    }
    if args.trace:
        record["metrics"] = per_layer(run, tracer, traced_cycles)
        record["info"] = {"traced_cycles": (traced_cycles, "count")}
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.dump()))
    else:
        record["metrics"], record["info"] = end_to_end(run)
    if args.workload == "library_spectral":
        record["probe"], record["probe_failures"] = probe(args.seed, workdir)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
