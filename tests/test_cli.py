"""Command-line behavior: outputs, exit codes, and report round-trips."""

import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from heatrobin import cli
from heatrobin.spectral import eigenvalues

EX2 = {
    "k": 0.25, "nu": 0.5, "l": 1.0, "T": 1.0,
    "boundary": "neumann_robin",
    "mu0": [1, 0, 2],
    "F": [[0, 2, 3]],
    "T0": [5, 1, 1, 1],
    "grid": {"M": 40, "K": 40},
}


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "heatrobin.cli", *args], capture_output=True, text=True
    )


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_solve_outputs_and_values(tmp_path):
    cfg = _write_config(tmp_path, EX2)
    proc = _run("solve", "--config", cfg, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    lines = (tmp_path / "solution.csv").read_text().splitlines()
    assert lines[0] == "x,t,u"
    assert len(lines) == 1 + 41 * 41
    # row order: outer time, inner space
    x0, t0, _ = lines[1].split(",")
    x1, t1, _ = lines[2].split(",")
    assert float(t0) == float(t1) == 0.0
    assert float(x0) == 0.0 and float(x1) == 0.025
    worst = 0.0
    for row in lines[1:]:
        x, t, u = (float(s) for s in row.split(","))
        exact = 2 * x * x + t**3 + t**2 + t + 1
        worst = max(worst, abs(u - exact))
    assert worst < 1e-9

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["boundary"] == "neumann_robin"
    assert report["profile"]["parity"] == "even"
    assert report["eigen"]["kind"] == "neumann_robin"
    assert report["verification"]["initial_l2_error"] == 0.0
    assert report["verification"]["oracle_max_diff"] is None
    assert max(abs(a) for a in report["modal"]["amplitudes"]) < 1e-10


def test_report_rebuild_regenerates_identical_csv(tmp_path):
    cfg = _write_config(tmp_path, EX2)
    assert _run("solve", "--config", cfg, "--out", str(tmp_path)).returncode == 0
    report = json.loads((tmp_path / "report.json").read_text())
    sol = cli.rebuild_solution(report)
    grid_cfg = report["config"]["grid"]
    xs = np.linspace(0.0, report["config"]["l"], grid_cfg["M"] + 1)
    ts = np.linspace(0.0, report["config"]["T"], grid_cfg["K"] + 1)
    cli._write_csv(tmp_path / "again.csv", xs, ts, sol.on_grid(xs, ts))
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "solution.csv").read_bytes()


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "dirichlet_robin"])
def test_report_rebuilds_an_equal_solution(tmp_path, name):
    root = Path(__file__).resolve().parents[1]
    if name == "dirichlet_robin":
        raw = {
            "k": 0.25, "nu": 0.5, "l": 1.0, "T": 1.0, "boundary": "dr",
            "mu0": [0, 1, 0, 2], "F": [[0, 0], [1, -2], [0, 0], [1, 0]], "T0": [4, 1, -1],
        }
    else:
        raw = json.loads((root / "configs" / f"{name}.json").read_text())
    cfg = cli.parse_config(raw)
    sol = cli.solve_problem(cfg.problem, n_max=cfg.n_max)
    report = cli._report_dict(cfg, sol, cli.residual_report(sol, t_min=cfg.t_min))
    assert cli.rebuild_solution(json.loads(json.dumps(report))) == sol


def _f_string_writer(path, xs, ts, grid):
    # the per-point f-string writer the streaming _write_csv replaced
    lines = ["x,t,u"]
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            lines.append(f"{float(x)!r},{float(t)!r},{float(grid[i, j])!r}")
    path.write_text("\n".join(lines) + "\n")


AWKWARD = (-0.0, 5e-324, 1e-300, 0.1 + 0.2, 1e16, -1.5e-7, math.nan, math.inf, -math.inf)


def test_write_csv_repeats_the_f_string_writer_byte_for_byte(tmp_path):
    xs = np.linspace(0.0, 1.3, 37)
    ts = np.linspace(0.0, 2.7, 23)
    smooth = np.random.default_rng(5).standard_normal((ts.size, xs.size))
    awkward = np.resize(np.array(AWKWARD), (ts.size, xs.size))
    for name, grid in (("smooth", smooth), ("awkward", awkward)):
        cli._write_csv(tmp_path / f"{name}.csv", xs, ts, grid)
        _f_string_writer(tmp_path / f"{name}_ref.csv", xs, ts, grid)
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}_ref.csv").read_bytes(), name
    awkward_rows = (tmp_path / "awkward.csv").read_bytes()
    for tail in (b",nan\n", b",-inf\n", b",5e-324\n", b",-0.0\n"):
        assert tail in awkward_rows, tail


def test_write_csv_streams_rows(tmp_path):
    # building the whole text first peaks at about 26 MB here
    xs = np.linspace(0.0, 1.0, 401)
    ts = np.linspace(0.0, 1.0, 401)
    grid = np.random.default_rng(6).standard_normal((ts.size, xs.size))
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "solution.csv", xs, ts, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_solve_is_deterministic_across_runs(tmp_path):
    cfg = _write_config(tmp_path, EX2)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run("solve", "--config", cfg, "--out", str(out1)).returncode == 0
    assert _run("solve", "--config", cfg, "--out", str(out2)).returncode == 0
    for name in ("solution.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: c.update(extra=1), "unknown config field"),
        (lambda c: c.update(nu=0.0), "nu"),
        (lambda c: c.update(boundary="neumann_neumann"), "boundary"),
        (lambda c: c.update(grid={"M": 20000, "K": 40}), "M"),
        (lambda c: c.update(grid={"M": 40, "K": 40, "t_min": 2.0}), "t_min"),
        (lambda c: c.update(series={"tol": 0.0}), "tol"),
        # non-finite numbers; explicit ids keep each case name unique
        pytest.param(lambda c: c.update(series={"tol": math.inf}), "tol", id="tol-inf"),
        pytest.param(lambda c: c.update(series={"tol": math.nan}), "tol", id="tol-nan"),
        pytest.param(lambda c: c.update(mu0=[1, 0, math.nan]), "mu0", id="mu0-nan"),
        pytest.param(lambda c: c.update(mu0=[1, 0, -math.inf]), "mu0", id="mu0-neg-inf"),
        pytest.param(lambda c: c.update(F=[[0, math.inf]]), "'F' row 0", id="F-inf"),
        pytest.param(lambda c: c.update(T0=[math.nan]), "T0", id="T0-nan"),
        pytest.param(lambda c: c.update(T0=[10**400]), "T0", id="T0-overflow"),
        pytest.param(lambda c: c.update(k=10**400), "'k'", id="k-overflow"),
    ],
)
def test_config_rejections_exit_2(tmp_path, mutate, fragment):
    payload = json.loads(json.dumps(EX2))
    mutate(payload)
    proc = _run("solve", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert fragment in proc.stderr


def test_unreadable_and_malformed_configs_exit_2(tmp_path):
    proc = _run("solve", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "cannot read config" in proc.stderr
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"k\": 0.25,,\n}")
    proc = _run("solve", "--config", str(bad), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "line" in proc.stderr


def test_odd_source_under_flux_left_boundary_exits_3(tmp_path):
    # the same exit for a diffusivity so large that the matching weights
    # (4k)**j overflow a float
    cases = (({"F": [[0, 0], [1, 0]]}, "parity"), ({"k": 1e300, "F": [[0]]}, "float"))
    for change, fragment in cases:
        payload = {**EX2, **change}
        proc = _run("solve", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path))
        assert proc.returncode == 3, (change, proc.stderr)
        assert "solver error" in proc.stderr
        assert fragment in proc.stderr
    # finite data whose solution overflows: no report may hold NaN or Infinity
    huge = _write_config(tmp_path, {**EX2, "mu0": [1e308, 0, 1e308], "grid": {"M": 20, "K": 20}})
    for command in ("solve", "verify"):
        out = tmp_path / command
        proc = _run(command, "--config", huge, "--out", str(out))
        assert proc.returncode == 3, (command, proc.stdout, proc.stderr)
        assert "solver error:" in proc.stderr and "non-finite" in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()


def test_ragged_source_rows_are_zero_padded(tmp_path):
    ragged = {**EX2, "F": [[1], [0], [0, 0, 2]]}
    square = {**EX2, "F": [[1, 0, 0], [0, 0, 0], [0, 0, 2]]}
    for name, payload in (("ragged", ragged), ("square", square)):
        cfg = _write_config(tmp_path, payload, f"{name}.json")
        proc = _run("solve", "--config", cfg, "--out", str(tmp_path / name))
        assert proc.returncode == 0, proc.stderr
    csv = "solution.csv"
    assert (tmp_path / "ragged" / csv).read_bytes() == (tmp_path / "square" / csv).read_bytes()


def test_verify_passes_on_polynomial_case(tmp_path):
    cfg = _write_config(tmp_path, {**EX2, "grid": {"M": 100, "K": 100}})
    proc = _run("verify", "--config", cfg, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout
    assert "oracle_max_diff" in proc.stdout
    assert "(informational)" in proc.stdout
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    diff = rep["verification"]["oracle_max_diff"]
    assert diff is not None
    assert diff < 1e-3


INCOMPATIBLE = {
    "k": 0.25, "nu": 0.5, "l": 1.0, "T": 1.0,
    "boundary": "neumann_robin",
    "mu0": [1, 0, 3, 1],
    "F": [[0, 0], [0, 0], [2, 5]],
    "T0": [1, 3],
}


def test_verify_flags_incompatible_corner_case(tmp_path):
    # the corner defect is reported; the graded-start oracle (gap 4.2e-4)
    # and the complex-step probe certify the solution all the same
    payload = {**INCOMPATIBLE, "grid": {"M": 200, "K": 200}}
    proc = _run("verify", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout
    assert "diagnostics:" in proc.stdout
    assert "inconsistent at the corner" in proc.stdout
    assert (tmp_path / "verify_report.json").exists()


LEFT_CORNER_MISMATCHES = {
    # mu0(0) = 1 against the fixed-zero left end; right corner matched
    "dirichlet_robin": {
        "k": 0.5, "nu": 0.8, "l": 1.0, "T": 1.0, "boundary": "dirichlet_robin",
        "mu0": [1, 1], "F": [[0], [1, 1]], "T0": [2.625, 1],
    },
    # mu0'(0) = 0.5 against the insulated left end; right corner matched
    "neumann_robin": {
        "k": 0.25, "nu": 0.5, "l": 1.0, "T": 1.0, "boundary": "neumann_robin",
        "mu0": [1, 0.5, -0.25], "F": [[1, 1]], "T0": [1.25, 1],
    },
}


@pytest.mark.parametrize("boundary", sorted(LEFT_CORNER_MISMATCHES))
def test_verify_certifies_left_corner_mismatch(tmp_path, boundary):
    # a defect at (0, 0) alone is diagnosed and gets the graded-start oracle
    # (gap 6.1e-4 and 1.3e-5 at 200^2; the uniform start read 9.1e-2 and 3.1e-3)
    payload = {**LEFT_CORNER_MISMATCHES[boundary], "grid": {"M": 200, "K": 200}}
    proc = _run("verify", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout
    assert "inconsistent at the corner (0, 0)" in proc.stdout
    assert "(l, 0)" not in proc.stdout
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert rep["verification"]["oracle_max_diff"] < 1e-3
    assert rep["compatibility_defect"] == 0.0


def test_verify_exits_1_when_a_bound_fails(tmp_path):
    # at 50^2 the oracle's own error (gap 3.5e-3) exceeds the 1e-3 bound
    payload = {**INCOMPATIBLE, "grid": {"M": 50, "K": 50}}
    proc = _run("verify", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    rows = {line.split()[0]: line.split()[-1] for line in proc.stdout.splitlines()[1:5]}
    assert rows == {
        "pde_residual_max": "PASS",
        "bc_residual_left": "PASS",
        "bc_residual_right": "PASS",
        "oracle_max_diff": "FAIL",
    }
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert rep["verification"]["oracle_max_diff"] > 1e-3


def test_verify_passes_at_large_biot_number(tmp_path):
    # ex1's data with nu = 1e10: the tan-form roots left bc_residual_right
    # at 3.9e-3; the pole-free roots bring it under its 1e-5 bound
    ex1 = Path(__file__).parents[1] / "configs" / "ex1.json"
    payload = {**json.loads(ex1.read_text()), "nu": 1e10}
    proc = _run("verify", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_eigen_table_matches_library():
    proc = _run("eigen", "--kind", "nr", "--k", "1", "--nu", "1", "--l", "1", "-n", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].split() == [
        "index", "sigma", "bracket_lo", "bracket_hi", "residual", "gap_to_pi_multiple",
        "rel_residual",
    ]
    eig = eigenvalues("neumann_robin", 1.0, 1.0, 1.0, 3)
    assert len(lines) == 4
    for row, sigma in zip(lines[1:], eig.roots):
        fields = row.split()
        assert float(fields[1]) == pytest.approx(sigma, rel=1e-14)
        assert float(fields[2]) < sigma < float(fields[3])
        assert float(fields[4]) <= 1e-12
        assert float(fields[6]) == pytest.approx(float(fields[4]) / max(1.0, sigma), rel=0.01)
    proc_dr = _run("eigen", "--kind", "dr", "--k", "0.25", "--nu", "4", "--l", "1", "-n", "4")
    assert proc_dr.returncode == 0
    for m, row in enumerate(proc_dr.stdout.strip().splitlines()[1:], start=1):
        sigma = float(row.split()[1])
        assert (m - 0.5) * math.pi < sigma < m * math.pi
    # at a large Biot number the absolute residuals reach 1e-4 but are
    # rounding-level against the scale max(nu, k*sigma)
    proc_big = _run("eigen", "--kind", "nr", "--k", "1", "--nu", "1e12", "--l", "1", "-n", "64")
    assert proc_big.returncode == 0, proc_big.stderr
    rows = [row.split() for row in proc_big.stdout.strip().splitlines()[1:]]
    assert len(rows) == 64
    assert max(float(f[4]) for f in rows) > 1e-6
    assert max(float(f[6]) for f in rows) <= 4e-16


@pytest.mark.parametrize(
    "args, fragment",
    [
        (("--kind", "robin", "--k", "1", "--nu", "1", "--l", "1"), "kind"),
        (("--kind", "nr", "--k", "-1", "--nu", "1", "--l", "1"), "k must be"),
        (("--kind", "nr", "--k", "1", "--nu", "1", "--l", "1", "-n", "0"), "n must be"),
        (("--kind", "neumann_neumann", "--k", "1", "--nu", "1", "--l", "1"), "kind"),
    ],
)
def test_eigen_rejects_bad_parameters(args, fragment):
    proc = _run("eigen", *args)
    assert proc.returncode == 2
    assert fragment in proc.stderr
