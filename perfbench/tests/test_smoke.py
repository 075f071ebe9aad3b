"""Smoke tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

The first test runs every workload at its shortest length (about a minute
in all); the others exercise the output checks and the seeded generator
in-process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Printed, ungated metrics each workload must name (see README.md).
COMMON = ["cycle_s.p50", "calib_unit_ms", "setup_s.raw", "pde_residual_max",
          "peak_rss_checks_mb"]
INFO = {
    "examples": ["solve_s.p50", "solve_s.tail", "verify_s.p50", "verify_s.tail",
                 "verify_rows_failed", "oracle_gap_max", "pde_residual_max"],
    "fine_grid": ["solve_s.p50", "solve_s.tail", "verify_s.p50", "verify_s.tail",
                  "verify_rows_failed", "oracle_gap_max", "pde_residual_max"],
    "library_spectral": ["session_s.p50", "session_s.tail", "point_evals_per_s",
                         "pde_residual_max", "probe_wide_failed", "probe_decade_failed"],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_shortest_run_emits_every_metric_with_its_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    printed = {line.split()[1] for line in lines[:-1] if len(line.split()) > 2}
    assert {"ops_attempted", "ops_failed"} <= printed
    if trace == 0:
        assert set(INFO[name] + COMMON) <= printed
        # The output checks never raise the peak RSS that peak_rss_mb reports.
        assert [line.split()[2] for line in lines[:-1]
                if line.split()[1:2] == ["peak_rss_checks_mb"]] == ["0"]


def _solve_op(tmp_path):
    run = workload.Run(0, tmp_path)
    op = gen.Op("solve:ex2", "solve", ROOT / "configs" / "ex2.json")
    _, result = run.execute(op)
    run.check(op, result)  # untouched outputs pass
    return run, op, result, tmp_path / "out" / "solve_ex2"


def _alter_value(csv_path: Path, row: int) -> None:
    lines = csv_path.read_text().split("\n")
    x, t, u = lines[1 + row].split(",")
    lines[1 + row] = f"{x},{t},{float(u) + 1e-6!r}"
    csv_path.write_text("\n".join(lines))


def test_csv_with_one_altered_value_fails(tmp_path):
    run, op, result, outdir = _solve_op(tmp_path)
    report = json.loads((outdir / "report.json").read_text())
    _alter_value(outdir / "solution.csv", checks.checked_rows(report, 0, op.key)[0])
    fresh = workload.Run(0, tmp_path)  # no earlier repeat to compare with
    with pytest.raises(checks.OpFailure, match="reference"):
        fresh.check(op, result)
    with pytest.raises(checks.OpFailure, match="earlier repeat"):
        run.check(op, result)


def test_altered_value_outside_the_sample_fails_on_a_repeat(tmp_path):
    run, op, result, outdir = _solve_op(tmp_path)
    _alter_value(outdir / "solution.csv", 0)  # t = 0 lies below t_min: never sampled
    with pytest.raises(checks.OpFailure, match="earlier repeat"):
        run.check(op, result)


def test_verify_exit_code_must_match_its_rows(tmp_path):
    run = workload.Run(0, tmp_path)
    op = gen.Op("verify:ex3", "verify", ROOT / "configs" / "ex3.json")
    _, (rc, out, err) = run.execute(op)
    assert rc == 1  # two rows of the corner-incompatible case fail today
    run.check(op, (rc, out, err))
    with pytest.raises(checks.OpFailure, match="imply"):
        workload.Run(0, tmp_path).check(op, (0, out, err))


def test_traced_spans_close_inside_their_parents(tmp_path):
    run, tracer = workload.Run(0, tmp_path), spans.Tracer()
    for op_id, cmd in enumerate(("solve", "verify")):
        run.attempt(gen.Op(f"{cmd}:ex2", cmd, ROOT / "configs" / "ex2.json"), tracer, op_id)
    assert run.failures == []
    names = {name for name, *_ in tracer.spans}
    assert {"op", "cli.main", "solver.solve_problem", "verify.crank_nicolson_reference"} <= names
    for i, (name, start, end, parent, op_id) in enumerate(tracer.spans):
        assert start <= end, name  # closed
        if name == "op":
            assert parent == -1
            continue
        assert 0 <= parent < i, name
        _, p_start, p_end, _, p_op = tracer.spans[parent]
        assert p_start <= start and end <= p_end and op_id == p_op, name


def _config_bytes(ops):
    return [(op.key, op.config.read_bytes(), op.rod.read_bytes() if op.rod else b"") for op in ops]


def test_seed_changes_generated_problems_not_shipped_configs(tmp_path):
    def ops(name, seed):
        return _config_bytes(gen.cycle_ops(name, seed, ROOT, tmp_path / f"{name}{seed}"))

    assert ops("examples", 0) == ops("examples", 1)
    fine = [dict((k, b) for k, b, _ in ops("fine_grid", s)) for s in range(4)]
    assert all(f["solve:ex3"] == fine[0]["solve:ex3"] for f in fine)
    assert len({f["solve:dr"] for f in fine}) > 1
    assert ops("library_spectral", 0) != ops("library_spectral", 1)
    assert ops("library_spectral", 0) == ops("library_spectral", 0)
    probes = [_config_bytes(gen.probe_ops(s, tmp_path / f"probe{s}")) for s in (0, 1)]
    assert probes[0] != probes[1]
