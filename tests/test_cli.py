"""Command-line behavior: outputs, exit codes, and report round-trips."""

import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced
from heatrobin import cli, extension
from heatrobin.spectral import eigenvalues

EX2 = {
    "k": 0.25, "nu": 0.5, "l": 1.0, "T": 1.0,
    "boundary": "neumann_robin",
    "mu0": [1, 0, 2],
    "F": [[0, 2, 3]],
    "T0": [5, 1, 1, 1],
    "grid": {"M": 40, "K": 40},
}
DR = {
    "k": 0.25, "nu": 0.5, "l": 1.0, "T": 1.0, "boundary": "dr",
    "mu0": [0, 1, 0, 2], "F": [[0, 0], [1, -2], [0, 0], [1, 0]], "T0": [4, 1, -1],
}
ROOT = Path(__file__).resolve().parents[1]
BOUNDARY_ERROR = "field 'boundary' must be one of ['dirichlet_robin', 'dr', 'neumann_robin', 'nr']"


def _raw(name):
    """The raw config of a shipped example, or DR for "dirichlet_robin"."""
    if name == "dirichlet_robin":
        return DR
    return json.loads((ROOT / "configs" / f"{name}.json").read_text())


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
    _f_string_writer(tmp_path / "again.csv", xs, ts, sol.on_grid(xs, ts))
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "solution.csv").read_bytes()


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "dirichlet_robin"])
def test_report_rebuilds_an_equal_solution(tmp_path, name):
    cfg = cli.parse_config(_raw(name))
    sol = cli.solve_problem(cfg.problem, n_max=cfg.n_max)
    report = cli._report_dict(cfg, sol, cli.residual_report(sol, t_min=cfg.t_min))
    assert cli.rebuild_solution(json.loads(json.dumps(report))) == sol


@pytest.mark.parametrize(
    "section, key, kind", [("profile", "d", "unknown"), ("eigen", "roots", "missing")]
)
def test_rebuild_names_a_bad_report_key(section, key, kind):
    # reports written before ExtensionProfile.d was dropped hold profile.d
    cfg = cli.parse_config(_raw("ex1"))
    sol = cli.solve_problem(cfg.problem, n_max=cfg.n_max)
    report = json.loads(json.dumps(cli._report_dict(cfg, sol, cli.residual_report(sol))))
    if kind == "unknown":
        report[section][key] = 0.0
    else:
        del report[section][key]
    with pytest.raises(ValueError, match=f"report section '{section}' has {kind} key '{key}'"):
        cli.rebuild_solution(report)


def _f_string_writer(path, xs, ts, grid):
    # the per-point f-string writer, one repr per value: the independent
    # reference of every CSV test here, which cli._write_rows and its numpy
    # digits (heatrobin._shortest) must repeat byte for byte
    lines = ["x,t,u"]
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            lines.append(f"{float(x)!r},{float(t)!r},{float(grid[i, j])!r}")
    path.write_text("\n".join(lines) + "\n")


# Every branch of the CSV text: repr's special values, fixed notation with and
# without ".0" and with leading zeros, exponent notation with two and three
# exponent digits, both sides of each notation switch, and the smallest
# subnormals, which repr formats itself.
AWKWARD = (
    -0.0, 5e-324, 1e-300, 0.1 + 0.2, 1e16, -1.5e-7, math.nan, math.inf, -math.inf,
    123.0, 0.5, 2.0**53, 2.0**-1022, 1e-4, float(np.nextafter(1e-4, 0)), 1e-5,
    float(np.nextafter(1e-5, 0)), float(np.nextafter(1e16, 0)), 1e17, 1e22, 1e23, 1e100,
    -1e-100, 1e-323, -5e-324,
)


class _AwkwardSolution:
    """Stands in for a solution in _write_solution_csv: its rows are those of
    `grid` on `ts`, served in 64-row blocks of whichever ts slice is asked."""

    def __init__(self, ts, grid):
        self.ts, self.grid = ts, grid

    def row_blocks(self, xs, ts):
        first = int(np.searchsorted(self.ts, ts[0]))
        for s in range(0, len(ts), 64):
            yield s, self.grid[first + s : first + min(s + 64, len(ts))]


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_write_csv_repeats_the_f_string_writer_byte_for_byte(tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, 1)
    xs = np.linspace(0.0, 1.3, 37)
    ts = np.linspace(0.0, 2.7, 23)
    smooth = np.random.default_rng(5).standard_normal((ts.size, xs.size))
    awkward = np.resize(np.array(AWKWARD), (ts.size, xs.size))
    for name, grid in (("smooth", smooth), ("awkward", awkward)):
        cli._write_solution_csv(tmp_path / f"{name}.csv", _AwkwardSolution(ts, grid), xs, ts)
        _f_string_writer(tmp_path / f"{name}_ref.csv", xs, ts, grid)
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}_ref.csv").read_bytes(), name
    awkward_rows = (tmp_path / "awkward.csv").read_bytes()
    for tail in (b",nan\n", b",-inf\n", b",5e-324\n", b",-0.0\n"):
        assert tail in awkward_rows, tail


def test_write_csv_of_rows_wider_than_one_chunk_repeats_the_f_string_writer(tmp_path, monkeypatch):
    # 3,001 columns: the kernel's 2,048-value chunk holds less than a row, so
    # each call formats one whole row (the CLI allows up to 10,001 columns)
    _usable_cpus(monkeypatch, 1)
    xs = np.linspace(0.0, 1.3, 3001)
    ts = np.linspace(0.0, 2.7, 3)
    grid = np.random.default_rng(7).standard_normal((ts.size, xs.size))
    grid[:, ::97] = np.resize(np.array(AWKWARD), grid[:, ::97].shape)
    grid[1, -len(AWKWARD) :] = AWKWARD
    from heatrobin import _shortest

    assert _shortest.CsvLines([repr(x) for x in xs.tolist()]).rows == 1
    cli._write_solution_csv(tmp_path / "wide.csv", _AwkwardSolution(ts, grid), xs, ts)
    _f_string_writer(tmp_path / "wide_ref.csv", xs, ts, grid)
    assert (tmp_path / "wide.csv").read_bytes() == (tmp_path / "wide_ref.csv").read_bytes()


def test_one_kernel_call_on_two_rows_of_1001_stays_below_400_kb():
    # the transient memory of one chunk, its 62 KB of text included: 349 KB
    # traced with Schubfach's products stacked in place, each table row taken
    # where it is used; a (5, n) table take or a 96 KB index copy held across
    # the products would cross the bound
    from heatrobin import _shortest

    xs = np.linspace(0.0, 1.0, 1001)
    lines = _shortest.CsvLines([repr(x) for x in xs.tolist()])
    rows = np.random.default_rng(3).standard_normal((2, xs.size))
    lines(["0.5", "0.25"], rows)
    text, peak = traced(lambda: lines(["0.5", "0.25"], rows))
    assert text.count(b"\n") == 2 * xs.size
    assert peak < 400 * 1024, peak


def test_write_csv_streams_rows(tmp_path, monkeypatch):
    # building the whole text first peaks at about 26 MB here
    _usable_cpus(monkeypatch, 1)
    xs = np.linspace(0.0, 1.0, 401)
    ts = np.linspace(0.0, 1.0, 401)
    sol = _AwkwardSolution(ts, np.random.default_rng(6).standard_normal((ts.size, xs.size)))
    _, peak = traced(lambda: cli._write_solution_csv(tmp_path / "solution.csv", sol, xs, ts))
    assert peak < 2_000_000, peak


@pytest.mark.parametrize("name", ["dirichlet_robin", "ex3"])
def test_solve_streams_the_bytes_of_the_whole_grid(tmp_path, name):
    # K = 130 streams row blocks of 64, 64 and 3
    cfg_path = _write_config(tmp_path, {**_raw(name), "grid": {"M": 50, "K": 130}})
    assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    cfg = cli.load_config(cfg_path)
    sol = cli.solve_problem(cfg.problem, n_max=cfg.n_max)
    xs, ts = cli._solution_grids(cfg)
    assert [s for s, _ in sol.row_blocks(xs, ts)] == [0, 64, 128]
    _f_string_writer(tmp_path / "whole.csv", xs, ts, sol.on_grid(xs, ts))
    assert (tmp_path / "whole.csv").read_bytes() == (tmp_path / "solution.csv").read_bytes()


# K + 1 = 64, 65, 130 and 201 rows: one to four blocks, the last one short
ROW_COUNTS = (64, 65, 130, 201)


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_split_writer_repeats_the_serial_bytes(tmp_path, monkeypatch, cpus):
    xs = np.linspace(0.0, 1.3, 23)
    for n_rows in ROW_COUNTS:
        ts = np.linspace(0.0, 2.7, n_rows)
        smooth = np.random.default_rng(n_rows).standard_normal((n_rows, xs.size))
        smooth[::3] = np.resize(np.array(AWKWARD), smooth[::3].shape)
        _f_string_writer(tmp_path / "serial.csv", xs, ts, smooth)
        _usable_cpus(monkeypatch, cpus)
        parts = cli._row_parts(n_rows)
        assert len(parts) == min(cpus, -(-n_rows // 64))
        assert all(lo % 64 == 0 for lo, _ in parts)
        cli._write_solution_csv(tmp_path / "split.csv", _AwkwardSolution(ts, smooth), xs, ts)
        got = (tmp_path / "split.csv").read_bytes()
        assert got == (tmp_path / "serial.csv").read_bytes(), n_rows
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", ["dirichlet_robin", "ex3"])
def test_solve_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, name):
    for n_rows in ROW_COUNTS:
        cfg_path = _write_config(tmp_path, {**_raw(name), "grid": {"M": 30, "K": n_rows - 1}})
        cfg = cli.load_config(cfg_path)
        sol = cli.solve_problem(cfg.problem, n_max=cfg.n_max)
        xs, ts = cli._solution_grids(cfg)
        _f_string_writer(tmp_path / "whole.csv", xs, ts, sol.on_grid(xs, ts))
        for cpus in (1, 2, 3, 5):
            _usable_cpus(monkeypatch, cpus)
            out = tmp_path / f"{n_rows}_{cpus}"
            assert cli.cmd_solve(cfg_path, str(out)) == 0
            csv = (out / "solution.csv").read_bytes()
            assert csv == (tmp_path / "whole.csv").read_bytes(), (n_rows, cpus)


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_writer_fails_the_solve_and_leaves_no_child(tmp_path, monkeypatch, capfd, where):
    # the parent formats the rows from t = 0; every child starts later
    real = cli.SemiAnalyticSolution.row_blocks

    def row_blocks(sol, xs, ts):
        if (ts[0] == 0.0) == (where == "parent"):
            raise ValueError(f"rows fail in the {where}")
        return real(sol, xs, ts)

    monkeypatch.setattr(cli.SemiAnalyticSolution, "row_blocks", row_blocks)
    _usable_cpus(monkeypatch, 3)
    cfg = _write_config(tmp_path, {**_raw("ex3"), "grid": {"M": 30, "K": 200}})
    out = tmp_path / "out"
    argv = ["solve", "--config", cfg, "--out", str(out)]
    if where == "child":  # the child printed its traceback and exited: an output error
        assert cli.main(argv) == 2
        err = capfd.readouterr().err
        assert "ValueError: rows fail in the child" in err
        assert err.endswith("output error: the CSV writer of time rows 64-127 failed: exit status 1\n")
    else:  # a program error in the parent stays a traceback
        with pytest.raises(ValueError, match="parent"):
            cli.main(argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # nothing new is left: no temporary, no partial CSV
    assert [p.name for p in out.iterdir()] == []


def test_a_writer_killed_by_a_signal_fails_the_solve_and_leaves_no_child(tmp_path, monkeypatch, capsys):
    real = cli.SemiAnalyticSolution.row_blocks

    def row_blocks(sol, xs, ts):
        if ts[0] != 0.0:  # in a writer process
            os.kill(os.getpid(), signal.SIGKILL)
        return real(sol, xs, ts)

    monkeypatch.setattr(cli.SemiAnalyticSolution, "row_blocks", row_blocks)
    _usable_cpus(monkeypatch, 3)
    cfg = _write_config(tmp_path, {**_raw("ex3"), "grid": {"M": 30, "K": 200}})
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "output error: the CSV writer of time rows 64-127 failed: signal 9\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert [p.name for p in out.iterdir()] == []


def _fail_a_writer(monkeypatch):
    real = cli.SemiAnalyticSolution.row_blocks

    def row_blocks(sol, xs, ts):
        if ts[0] != 0.0:  # in a writer process
            raise ValueError("rows fail in the child")
        return real(sol, xs, ts)

    monkeypatch.setattr(cli.SemiAnalyticSolution, "row_blocks", row_blocks)


def _fail_the_report(monkeypatch):
    def write_text(path, text):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.Path, "write_text", write_text)


_OUTPUTS = {"solve": ["report.json", "solution.csv"], "verify": ["verify_report.json"]}


@pytest.mark.parametrize(
    "command, fail",
    [
        pytest.param("solve", _fail_a_writer, id="writer"),
        pytest.param("solve", _fail_the_report, id="report"),
        pytest.param("verify", _fail_the_report, id="verify-report"),
    ],
)
def test_a_failed_solve_leaves_the_old_outputs_byte_for_byte(tmp_path, monkeypatch, command, fail):
    _usable_cpus(monkeypatch, 3)
    out = tmp_path / "out"
    old = _write_config(tmp_path, {**_raw("ex2"), "grid": {"M": 10, "K": 10}}, "old.json")
    # the 10 x 10 verify exits 1: its oracle row fails
    assert cli.main([command, "--config", old, "--out", str(out)]) == {"solve": 0, "verify": 1}[command]
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == _OUTPUTS[command]
    cfg = _write_config(tmp_path, {**_raw("ex3"), "grid": {"M": 30, "K": 200}})
    fail(monkeypatch)
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    # no temporary is left either
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize(
    "command, names", [("solve", ["report.json", "solution.csv"]), ("verify", ["verify_report.json"])]
)
def test_temporaries_of_a_killed_run_are_removed_once_its_process_is_gone(
    tmp_path, monkeypatch, command, names
):
    # a run killed mid-write leaves .<name>.<pid>.tmp in --out; the next run
    # removes those of its own names whose process is gone, and keeps those
    # of a running process (this one's parent) and other names
    _usable_cpus(monkeypatch, 1)
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    gone, running = child.pid, os.getppid()
    out = tmp_path / "out"
    out.mkdir()
    kept = [f".{name}.{running}.tmp" for name in names] + [f".other.csv.{gone}.tmp"]
    for tmp in kept + [f".{name}.{gone}.tmp" for name in names]:
        (out / tmp).write_text("partial")
    cfg = _write_config(tmp_path, {**_raw("ex2"), "grid": {"M": 10, "K": 10}})
    assert cli.main([command, "--config", cfg, "--out", str(out)]) in (0, 1)
    assert sorted(p.name for p in out.iterdir()) == sorted(kept + names)
    assert all((out / tmp).read_text() == "partial" for tmp in kept)


def test_a_dead_temporary_of_another_user_in_a_sticky_directory_is_kept(tmp_path, monkeypatch):
    # a sticky --out keeps another user's files from being unlinked: the
    # sweep passes over their dead temporaries instead of failing the run
    _usable_cpus(monkeypatch, 1)
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    out = tmp_path / "out"
    out.mkdir()
    out.chmod(0o1777)
    theirs = [f".{name}.{child.pid}.tmp" for name in _OUTPUTS["solve"]]
    for tmp in theirs:
        (out / tmp).write_text("partial")
    monkeypatch.setattr(os, "geteuid", lambda: out.stat().st_uid + 1)
    cfg = _write_config(tmp_path, {**_raw("ex2"), "grid": {"M": 10, "K": 10}})
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(theirs + _OUTPUTS["solve"])
    assert all((out / tmp).read_text() == "partial" for tmp in theirs)


_NON_ROOT = pytest.mark.skipif(os.geteuid() == 0, reason="root ignores permission bits")


@pytest.mark.parametrize(
    "command, name, blocked",
    [
        # an output path, or this process's temporary of one, is a directory
        pytest.param("solve", "solution.csv", "dir", id="solve-solution.csv"),
        pytest.param("solve", "report.json", "dir", id="solve-report.json"),
        pytest.param("verify", "verify_report.json", "dir", id="verify-verify_report.json"),
        pytest.param("solve", ".solution.csv.{pid}.tmp", "dir", id="solve-csv-temporary"),
        pytest.param("solve", ".report.json.{pid}.tmp", "dir", id="solve-report-temporary"),
        pytest.param("verify", ".verify_report.json.{pid}.tmp", "dir", id="verify-temporary"),
        # a read-only --out that holds writable old outputs: no temporary can be made
        pytest.param("solve", ".solution.csv.{pid}.tmp", "read-only", id="solve-read-only", marks=_NON_ROOT),
        pytest.param(
            "verify", ".verify_report.json.{pid}.tmp", "read-only", id="verify-read-only", marks=_NON_ROOT
        ),
        # a sticky --out whose old outputs belong to another user: os.replace
        # would fail with EPERM (this process plays a user that owns neither)
        pytest.param("solve", "solution.csv", "sticky", id="solve-sticky"),
        pytest.param("verify", "verify_report.json", "sticky", id="verify-sticky"),
    ],
)
def test_an_output_file_that_cannot_be_written_exits_2(
    tmp_path, monkeypatch, capsys, command, name, blocked
):
    # every output path is checked and every temporary made before the work
    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(cli, "_write_solution_csv", lambda *a: pytest.fail("CSV writers ran"))
    monkeypatch.setattr(cli, "residual_report", lambda *a, **k: pytest.fail("probed"))
    monkeypatch.setattr(cli, "crank_nicolson_reference", lambda *a, **k: pytest.fail("oracle ran"))
    cfg = _write_config(tmp_path, {**_raw("ex3"), "grid": {"M": 30, "K": 200}})
    out = tmp_path / "out"
    out.mkdir()
    name = name.format(pid=os.getpid())
    if blocked == "dir":
        (out / name).mkdir()
    else:
        for old in _OUTPUTS[command]:
            (out / old).write_text(f"old {old}")
        out.chmod(0o555 if blocked == "read-only" else 0o1777)
    if blocked == "sticky":
        monkeypatch.setattr(os, "geteuid", lambda: out.stat().st_uid + 1)
    before = {p.name: p.is_dir() or p.read_bytes() for p in out.iterdir()}
    try:
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    finally:
        out.chmod(0o755)
    err = capsys.readouterr().err
    strerror = {
        "dir": "Is a directory", "read-only": "Permission denied", "sticky": "Operation not permitted"
    }[blocked]
    assert err == f"output error: cannot write {str(out / name)!r}: {strerror}\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert {p.name: p.is_dir() or p.read_bytes() for p in out.iterdir()} == before


@_NON_ROOT
def test_a_read_only_old_output_is_replaced(tmp_path, monkeypatch):
    # os.replace needs a writable directory, not a writable old file
    _usable_cpus(monkeypatch, 1)
    cfg = _write_config(tmp_path, {**_raw("ex2"), "grid": {"M": 10, "K": 10}})
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(fresh)]) == 0
    out.mkdir()
    (out / "solution.csv").write_text("old")
    (out / "solution.csv").chmod(0o444)
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {
        p.name: p.read_bytes() for p in fresh.iterdir()
    }


def test_solve_memory_does_not_grow_with_k(tmp_path):
    # holding the polynomial, modal and summed grids would add 1.8 MB here
    peaks = {}
    for K in (100, 900):
        cfg = _write_config(tmp_path, {**_raw("ex3"), "grid": {"M": 100, "K": K}}, f"k{K}.json")
        out = str(tmp_path / f"k{K}")
        _, peaks[K] = traced(lambda: cli.cmd_solve(cfg, out))
    grid_bytes = 901 * 101 * 8
    assert peaks[900] - peaks[100] < grid_bytes / 4, peaks


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
        # a boundary that is not a string, and keys that grid and series lack
        pytest.param(lambda c: c.update(boundary=["nr"]), f"{BOUNDARY_ERROR}, got ['nr']\n",
                     id="boundary-array"),
        pytest.param(lambda c: c.update(boundary={}), f"{BOUNDARY_ERROR}, got {{}}\n",
                     id="boundary-object"),
        pytest.param(lambda c: c.update(grid={"m": 50}), "unknown config field 'grid.m'\n",
                     id="grid-m"),
        pytest.param(lambda c: c.update(grid={"M": 40, "K": 40, "tmin": 0.1}),
                     "unknown config field 'grid.tmin'\n", id="grid-tmin"),
        pytest.param(lambda c: c.update(series={"nmax": 8}), "unknown config field 'series.nmax'\n",
                     id="series-nmax"),
    ],
)
def test_config_rejections_exit_2(tmp_path, mutate, fragment):
    payload = json.loads(json.dumps(EX2))
    mutate(payload)
    proc = _run("solve", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert fragment in proc.stderr


FULL = {**EX2, "grid": {"M": 40, "K": 40, "t_min": 0.01}, "series": {"n_max": 64, "tol": 1e-10}}
FIELDS = sorted(FULL) + [f"{section}.{key}" for section in ("grid", "series") for key in FULL[section]]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
@example(field="boundary", value=["nr"])
def test_any_json_value_in_any_field_is_parsed_or_refused(field, value):
    # any field or grid/series key set to any JSON value (NaN, +-inf and
    # unbounded ints included): a RunConfig or a ConfigError, nothing else
    raw = json.loads(json.dumps(FULL))
    section, _, key = field.rpartition(".")
    (raw[section] if section else raw)[key] = value
    try:
        assert isinstance(cli.parse_config(raw), cli.RunConfig)
    except cli.ConfigError:
        pass


def test_unreadable_and_malformed_configs_exit_2(tmp_path):
    proc = _run("solve", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "cannot read config" in proc.stderr
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"k\": 0.25,,\n}")
    proc = _run("solve", "--config", str(bad), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "line" in proc.stderr


@pytest.mark.parametrize("content", [b'{"k": 0.25\xff}', b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf-8", "nested-100000-deep"])
def test_undecodable_configs_exit_2(tmp_path, capsys, content):
    cfg = tmp_path / "odd.json"
    cfg.write_bytes(content)
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "odd.json" in err, err


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_an_unusable_output_directory_exits_2_before_any_grid(
    tmp_path, monkeypatch, capsys, command, out
):
    (tmp_path / "file").write_text("not a directory")
    monkeypatch.setattr(cli, "residual_report", lambda *a, **k: pytest.fail("probed"))
    monkeypatch.setattr(cli, "crank_nicolson_reference", lambda *a, **k: pytest.fail("oracle ran"))
    out = str(tmp_path / out)
    assert cli.main([command, "--config", _write_config(tmp_path, EX2), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error:") and repr(out) in err, err


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


HUGE_K = "solver error: the weight of x**{} * t**{} in the heat evolution of x**{} overflows a float (k = {})\n"


@pytest.mark.parametrize(
    "k, data, rc, err",
    [
        (1e200, "constant", 0, ""),
        (4e307, "constant", 3, "solver error: the report holds a non-finite value"),
        (1e308, "constant", 3, "solver error: the report holds a non-finite value"),
        (1e200, "quadratic", 3, HUGE_K.format(0, 2, 4, "1e+200")),
        (4e307, "quadratic", 3, HUGE_K.format(2, 1, 4, "4e+307")),
        (1e308, "quadratic", 3, HUGE_K.format(0, 1, 2, "1e+308")),
    ],
    ids=["1e200-constant", "4e307-constant", "1e308-constant", "1e200-quadratic", "4e307-quadratic", "1e308-quadratic"],
)
def test_a_huge_diffusivity_exits_with_a_readable_message(tmp_path, k, data, rc, err):
    # the messages used to be Python's own: "cannot convert Infinity to
    # integer ratio" or "integer division result too large for a float"
    mu0, T0 = ([1], [1]) if data == "constant" else ([1, 0, 1], [1, 1, 1])
    payload = {**EX2, "k": k, "mu0": mu0, "F": [], "T0": T0, "grid": {"M": 20, "K": 20}}
    proc = _run("solve", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path / "out"))
    assert (proc.returncode, proc.stderr[: len(err) or None]) == (rc, err), proc.stderr


@pytest.mark.parametrize(
    "change, quantity",
    [
        ({"mu0": [1e308, 0, 1e308]}, "compatibility_defect"),
        ({"F": [[1e307, 1e307]]}, "size bound"),
        # finite sizes whose squares, in the probe's initial L2 error, overflow
        ({"mu0": [1e300, 0, 1e300], "T0": [1e300]}, "squared L2 norm"),
        ({"mu0": [1e200, 0, 1e200], "T0": [1e200]}, "squared L2 norm"),
    ],
)
def test_overflow_is_rejected_before_any_grid(tmp_path, change, quantity):
    # rejected right after the solve: no probe, oracle or CSV runs on inf/NaN
    cfg = _write_config(tmp_path, {**_raw("ex1"), **change, "grid": {"M": 20, "K": 20}})
    for command in ("solve", "verify"):
        out = tmp_path / command
        proc = _run(command, "--config", cfg, "--out", str(out))
        assert proc.returncode == 3, (command, proc.stderr)
        assert "solver error:" in proc.stderr and quantity in proc.stderr
        assert "RuntimeWarning" not in proc.stderr, proc.stderr
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


VERIFY_TABLES = {
    "ex1": """\
check                      value       bound  status
pde_residual_max    6.128698e-11     1.0e-05  PASS
bc_residual_left    0.000000e+00     1.0e-06  PASS
bc_residual_right   1.804112e-16     1.0e-05  PASS
oracle_max_diff     3.519785e-05     1.0e-03  PASS
initial_l2_error       1.035068e-07  (informational)
compatibility_defect  +0.000000e+00  (informational)
""",
    "ex2": """\
check                      value       bound  status
pde_residual_max    1.341149e-13     1.0e-05  PASS
bc_residual_left    0.000000e+00     1.0e-06  PASS
bc_residual_right   2.220446e-16     1.0e-05  PASS
oracle_max_diff     6.004675e-06     1.0e-03  PASS
initial_l2_error       0.000000e+00  (informational)
compatibility_defect  +0.000000e+00  (informational)
""",
    "ex3": """\
check                      value       bound  status
pde_residual_max    1.582365e-08     1.0e-05  PASS
bc_residual_left    0.000000e+00     1.0e-06  PASS
bc_residual_right   3.774758e-15     1.0e-05  PASS
oracle_max_diff     3.578864e-04     1.0e-03  PASS
initial_l2_error       2.778790e-03  (informational)
compatibility_defect  +4.250000e+00  (informational)
""",
}


@pytest.mark.parametrize("name", sorted(VERIFY_TABLES))
def test_verify_table_of_each_example_is_pinned(tmp_path, name):
    # every printed digit of the shipped examples' tables; the oracle's
    # rounding-level changes must not reach them
    proc = _run("verify", "--config", str(ROOT / "configs" / f"{name}.json"), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "".join(proc.stdout.splitlines(keepends=True)[:7]) == VERIFY_TABLES[name]


EX3_DIAGNOSTICS = [
    "initial and boundary data are inconsistent at the corner (l, 0): defect k*mu0'(l) + "
    "nu*(mu0(l) - T0(0)) = 4.25; the correction series absorbs the jump in the L2 sense "
    "but pointwise accuracy near t = 0 degrades",
]


def test_verify_of_ex3_at_1024_modes_is_pinned(tmp_path):
    # at 64 modes every mode stays live in the probe's window; at 1024 the
    # probe's complex-step grids run on the 174 modes live at t_min, and the
    # whole table and the report's verification block keep their digits
    payload = {**_raw("ex3"), "series": {"n_max": 1024}}
    proc = _run("verify", "--config", _write_config(tmp_path, payload), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    table = VERIFY_TABLES["ex3"].replace("2.778790e-03", "4.295242e-05")
    assert proc.stdout == table + "diagnostics:\n" + "".join(f"  - {d}\n" for d in EX3_DIAGNOSTICS)
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert rep["config"] == payload
    assert rep["grid"] == {"M": 400, "K": 400, "t_min": 0.01}
    assert rep["series"] == {"n_max": 1024, "tol": 1e-10}
    assert all(len(rep["eigen"][f]) == 1024 for f in ("indices", "offsets", "roots", "residuals"))
    assert len(rep["modal"]["amplitudes"]) == 1024
    ver = rep["verification"]
    assert ver.pop("diagnostics") == EX3_DIAGNOSTICS
    assert {name: f"{v:.6e}" for name, v in ver.items()} == {
        "pde_residual_max": "1.582365e-08",
        "bc_residual_left": "0.000000e+00",
        "bc_residual_right": "3.774758e-15",
        "initial_l2_error": "4.295242e-05",
        "oracle_max_diff": "3.578864e-04",
        "compatibility_defect": "4.250000e+00",
    }


def _degree8(kind):
    """The degree-8 problem that CI solves for one Robin kind: mu0, T0 and
    the source's nonzero x rows all carry the coefficients (-1)**i (i+1)/8."""
    c = [(-1) ** i * (i + 1) / 8 for i in range(9)]
    F = [c if i % 2 == (kind == "dr") else [0] * 9 for i in range(9)]
    raw = {"k": 0.25, "nu": 0.5, "l": 1.0, "T": 1.0, "boundary": kind, "mu0": c, "F": F, "T0": c}
    return cli.parse_config(raw).problem


def test_no_solve_builds_the_sign_variant_matrix(tmp_path, monkeypatch, capsys):
    # the paper's subtracted-flux variant is a library comparator: a solve
    # builds one matching matrix, and its diagnostics name corner defects only
    _usable_cpus(monkeypatch, 1)
    monkeypatch.setattr(extension, "flux_sign_variant_matrix", lambda *a, **k: pytest.fail("variant built"))
    diagnostics = []
    for name in ("ex1", "ex2", "ex3"):
        out = tmp_path / name
        assert cli.main(["solve", "--config", str(ROOT / "configs" / f"{name}.json"), "--out", str(out)]) == 0
        diagnostics.append(json.loads((out / "report.json").read_text())["diagnostics"])
    assert diagnostics == [[], [], EX3_DIAGNOSTICS]
    for kind in ("nr", "dr"):
        sol = cli.solve_problem(_degree8(kind))
        assert len(sol.diagnostics) == 2  # both corners
        assert all("inconsistent at the corner" in d for d in sol.diagnostics), sol.diagnostics
    capsys.readouterr()
    assert cli.main(["verify", "--config", str(ROOT / "configs" / "ex2.json"), "--out", str(tmp_path / "v")]) == 0
    assert capsys.readouterr().out == VERIFY_TABLES["ex2"]


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


def _f_string_table(kind, k, nu, l, n):
    """The eigen table by a per-row f-string loop: the reference that
    cmd_eigen's one %-template and array columns must repeat."""
    eig = eigenvalues(cli._BOUNDARY_ALIASES[kind], k, nu, l, n)
    lines = [
        "index  sigma                  bracket_lo             bracket_hi             residual   "
        "gap_to_pi_multiple     rel_residual"
    ]
    for i, (sigma, res, (lo, hi)) in enumerate(zip(eig.roots, eig.residuals, eig.brackets)):
        nearest = round(sigma * l / math.pi)
        gap = abs(sigma - nearest * math.pi / l)
        rel = res / max(nu, k * sigma)
        lines.append(
            f"{i:<5d}  {sigma:<21.15g}  {lo:<21.15g}  {hi:<21.15g}  {res:9.2e}  {gap:<21.15g}  {rel:.2e}"
        )
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("kind", ["nr", "dr"])
@pytest.mark.parametrize("k, nu, l", [(0.25, 0.5, 1.0), (3.7, 1e9, 0.3), (0.25, 1e12, 1.0)])
def test_eigen_table_repeats_the_f_string_loop_byte_for_byte(capsys, kind, k, nu, l):
    assert cli.cmd_eigen(kind, k, nu, l, 1024) == 0
    out = capsys.readouterr().out
    want = _f_string_table(kind, k, nu, l, 1024)
    # name the first differing row rather than diff two 1025-row strings
    rows = zip(out.splitlines(keepends=True), want.splitlines(keepends=True))
    assert next(((a, b) for a, b in rows if a != b), None) is None
    assert len(out) == len(want) and out.count("\n") == 1025


@pytest.mark.parametrize(
    "kind, k, nu, l, rc, fragment",
    [
        # k*sigma/l overflows in the root search: rows of inf residuals
        ("nr", "1e300", "1", "1e-10", 3, "residual 1 is non-finite"),
        ("dr", "1e200", "1", "1e-200", 3, "residual 0 is non-finite"),
        # a huge absolute residual that is rounding-level against max(nu, k*sigma)
        ("nr", "1e300", "1e300", "1", 0, ""),
    ],
)
def test_eigen_rejects_overflowing_data_without_a_warning(kind, k, nu, l, rc, fragment):
    argv = ["eigen", "--kind", kind, "--k", k, "--nu", nu, "--l", l, "-n", "3"]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "heatrobin.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == rc, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
    if rc:
        assert proc.stderr.startswith("solver error:") and fragment in proc.stderr
        assert proc.stdout == ""
    else:
        rows = [row.split() for row in proc.stdout.splitlines()[1:]]
        assert len(rows) == 3
        assert float(rows[0][4]) > 1e280 and float(rows[0][6]) < 1e-15


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


def test_parameter_messages_are_the_library_rule(tmp_path, capsys):
    # the config's ProblemSpec and eigen's table go through polyalg._positive
    cfg = _write_config(tmp_path, {**EX2, "k": 0.0})
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: k must be a positive finite number, got 0.0\n"
    assert cli.main(["eigen", "--kind", "nr", "--k", "1", "--nu", "nan", "--l", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "parameter error: nu must be a positive finite number, got nan\n"
    assert captured.out == ""
