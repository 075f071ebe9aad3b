"""Command-line front end: solve/verify/eigen driven by a JSON problem file.

Exit codes; a rejection prints one line to stderr that starts with its prefix:
- 0 success, 1 a `verify` bound failed;
- 2 `config error`: the config cannot be read, parsed or validated (an
  unknown key, in `grid` or `series` too, or a non-string `boundary`);
- 2 `parameter error`: an `eigen` argument is out of range;
- 2 `output error`: an --out directory that cannot be made or take a
  temporary file, an output path that is a directory or another user's file
  in a sticky --out (all found before the work), or a failed write or CSV
  writer process. The temporaries are renamed over the old files, read-only
  ones too, only when all are complete, so a failed run leaves the old ones;
- 3 `solver error`: wrong source parity, a numerically singular matching
  system, or data that overflow a float.

The config file is plain JSON with polynomial coefficient arrays in
ascending-power order:

    {
      "k": 0.25, "nu": 0.5, "l": 1.0, "T": 1.0,
      "boundary": "neumann_robin",          // or "dirichlet_robin", "nr", "dr"
      "mu0": [1, 0, 2],                      // 1 + 2 x^2
      "F":   [[0, 2, 3]],                    // row i = x^i: 2 t + 3 t^2
      "T0":  [5, 1, 1, 1],                   // 5 + t + t^2 + t^3
      "grid":   {"M": 200, "K": 200, "t_min": 0.01},   // optional
      "series": {"n_max": 64, "tol": 1e-10}            // optional
    }

Numbers in the CSV/JSON outputs use the shortest round-trip representation,
so identical runs at a fixed BLAS thread count produce byte-identical files.
The CSV's u values get `repr`'s bytes from numpy (heatrobin._shortest:
Schubfach's digits in 64-bit integers, `repr`'s layout); `repr` formats only
non-finite values and the smallest subnormals. `solve` formats the CSV in at
most one multiprocessing process per usable CPU and per 64-row block of time
rows (see _write_solution_csv), with the same bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import stat
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

from .extension import ExtensionProfile, ParityError, SingularSystemError
from .polyalg import Poly1, Poly2
from .solver import ProblemSpec, SemiAnalyticSolution, solve_problem
from .spectral import _ROW_BLOCK, EigenSystem, ModalSeries, eigenvalues
from .verify import _initial_energies, crank_nicolson_reference, residual_report, threshold_rows

__all__ = ["ConfigError", "RunConfig", "load_config", "rebuild_solution", "main"]

_BOUNDARY_ALIASES = {
    "neumann_robin": "neumann_robin",
    "dirichlet_robin": "dirichlet_robin",
    "nr": "neumann_robin",
    "dr": "dirichlet_robin",
}
_CONFIG_KEYS = {"k", "nu", "l", "T", "boundary", "mu0", "F", "T0", "grid", "series"}
_SECTION_KEYS = {"grid": {"M", "K", "t_min"}, "series": {"n_max", "tol"}}


class ConfigError(ValueError):
    """Config file failed to parse or validate; message names the field."""


class _Stop(Exception):
    """Ends a command: main prints args[1] to stderr and returns args[0]."""


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    M: int
    K: int
    t_min: float
    n_max: int
    tol: float
    raw: dict


def _is_finite(v) -> bool:
    """A JSON number that is a finite float: not a bool, NaN, +-Infinity, or
    an integer or literal (1e999) beyond the float range."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _number(raw: dict, field: str) -> float:
    if field not in raw:
        raise ConfigError(f"field {field!r} is required")
    v = raw[field]
    if not _is_finite(v):
        raise ConfigError(f"field {field!r} must be a finite number, got {v!r}")
    return float(v)


def _coeff_list(raw: dict, field: str) -> tuple[float, ...]:
    if field not in raw:
        raise ConfigError(f"field {field!r} is required")
    v = raw[field]
    if not isinstance(v, list) or not all(map(_is_finite, v)):
        raise ConfigError(f"field {field!r} must be an array of finite numbers")
    return tuple(float(c) for c in v)


def _coeff_rows(raw: dict, field: str) -> tuple[tuple[float, ...], ...]:
    if field not in raw:
        raise ConfigError(f"field {field!r} is required")
    v = raw[field]
    if not isinstance(v, list) or any(not isinstance(row, list) for row in v):
        raise ConfigError(f"field {field!r} must be an array of coefficient rows")
    rows = []
    for i, row in enumerate(v):
        if not all(map(_is_finite, row)):
            raise ConfigError(f"field {field!r} row {i} must contain only finite numbers")
        rows.append(tuple(float(c) for c in row))
    return tuple(rows)


def _int_in(raw: dict, field: str, default: int, lo: int, hi: int) -> int:
    v = raw.get(field, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"field {field!r} must be an integer")
    if not (lo <= v <= hi):
        raise ConfigError(f"field {field!r} must be in [{lo}, {hi}], got {v}")
    return v


def _known(raw: dict, keys: set, prefix: str = "") -> dict:
    """raw, once each of its keys is in keys; prefix names its section."""
    for key in sorted(set(raw) - keys)[:1]:
        raise ConfigError(f"unknown config field {prefix + key!r}")
    return raw


def _section(raw: dict, name: str) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"field {name!r} must be an object")
    return _known(section, _SECTION_KEYS[name], f"{name}.")


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    bkey = _known(raw, _CONFIG_KEYS).get("boundary")
    if not isinstance(bkey, str) or bkey not in _BOUNDARY_ALIASES:
        raise ConfigError(
            f"field 'boundary' must be one of {sorted(set(_BOUNDARY_ALIASES))}, got {bkey!r}"
        )
    try:
        problem = ProblemSpec(
            k=_number(raw, "k"),
            nu=_number(raw, "nu"),
            l=_number(raw, "l"),
            T=_number(raw, "T"),
            boundary=_BOUNDARY_ALIASES[bkey],
            mu0=Poly1(_coeff_list(raw, "mu0"), "x"),
            F=Poly2(_coeff_rows(raw, "F")),
            T0=Poly1(_coeff_list(raw, "T0"), "t"),
        )
    except ValueError as exc:  # ProblemSpec messages already name the field
        raise ConfigError(str(exc)) from exc

    grid = _section(raw, "grid")
    M = _int_in(grid, "M", 200, 8, 10000)
    K = _int_in(grid, "K", 200, 8, 10000)
    t_min = grid.get("t_min", 0.01)
    if not _is_finite(t_min):
        raise ConfigError("field 't_min' must be a finite number")
    t_min = float(t_min)
    if not (0.0 < t_min < problem.T):
        raise ConfigError(f"field 't_min' must lie strictly inside (0, T), got {t_min}")

    series = _section(raw, "series")
    n_max = _int_in(series, "n_max", 64, 1, 1024)
    tol = series.get("tol", 1e-10)
    if not _is_finite(tol) or not tol > 0:
        raise ConfigError("field 'tol' must be a positive finite number")
    return RunConfig(problem, M, K, t_min, n_max, float(tol), raw)


def load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path!r} nests too deeply to parse") from exc
    return parse_config(raw)


def _write_rows(fh, lines, sol: SemiAnalyticSolution, xs, ts) -> None:
    """Write the x,t,u lines of sol on xs x ts, time-major, from
    sol.row_blocks(xs, ts), lines.rows grid rows at a time; lines is the
    _shortest.CsvLines of the formatted xs, and each t is formatted by repr."""
    for start, block in sol.row_blocks(xs, ts):
        t_strs = [repr(t) for t in ts[start : start + len(block)].tolist()]
        for lo in range(0, len(block), lines.rows):
            fh.write(lines(t_strs[lo : lo + lines.rows], block[lo : lo + lines.rows]))


def _row_parts(n_rows: int) -> list[tuple[int, int]]:
    """The [lo, hi) time-row ranges of the CSV writers: one per usable CPU,
    at most one per row block, each starting on a block boundary. One part
    where os.fork or os.sched_getaffinity is missing."""
    blocks = -(-n_rows // _ROW_BLOCK)
    n = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n = min(len(os.sched_getaffinity(0)), blocks)
    edges = [_ROW_BLOCK * (i * blocks // n) for i in range(n)] + [n_rows]
    return list(zip(edges, edges[1:]))


def _write_part(fd: int, lines, sol: SemiAnalyticSolution, xs, ts) -> None:
    """Body of a writer process: format the rows of sol on xs x ts into the
    file fd. If it raises, the process prints the traceback and exits with
    status 1."""
    with open(fd, "wb", closefd=False) as fh:
        _write_rows(fh, lines, sol, xs, ts)


def _write_solution_csv(path: Path, sol: SemiAnalyticSolution, xs, ts) -> None:
    """Write the CSV of sol on xs x ts to path: the header, then the lines
    _write_rows formats for every time row, whatever the number of parts.

    The time rows are split by _row_parts. Before path is opened, one forked
    multiprocessing writer starts per part after the first. Each formats its
    rows, sol.row_blocks(xs, ts[lo:hi]) with lo on a block boundary (so the
    very blocks of the whole grid), into an unnamed temporary file in path's
    directory. The parent writes the header and the first part, then joins
    the writers in row order and appends each file; a failed writer is an
    output error. Whatever goes wrong, every writer is killed and joined.
    With one part no process starts and the parent writes every row."""
    import multiprocessing
    import shutil
    import tempfile

    from . import _shortest

    parts = _row_parts(len(ts))
    lines = _shortest.CsvLines([repr(x) for x in np.asarray(xs, dtype=float).tolist()])
    files, writers = [], []
    try:
        for lo, hi in parts[1:]:
            files.append(tempfile.TemporaryFile(dir=path.parent))
            args = (files[-1].fileno(), lines, sol, xs, ts[lo:hi])
            writer = multiprocessing.get_context("fork").Process(target=_write_part, args=args)
            writer.start()
            writers.append(writer)
        with path.open("wb") as fh:
            fh.write(b"x,t,u\n")
            _write_rows(fh, lines, sol, xs, ts[: parts[0][1]])
        with path.open("ab") as out:
            for (lo, hi), part, writer in zip(parts[1:], files, writers):
                writer.join()
                code = writer.exitcode
                if code:
                    how = f"signal {-code}" if code < 0 else f"exit status {code}"
                    raise _Stop(2, f"output error: the CSV writer of time rows {lo}-{hi - 1} failed: {how}")
                part.seek(0)
                shutil.copyfileobj(part, out)
    finally:
        for writer in writers:
            writer.kill()
            writer.join()
        for part in files:
            part.close()


def _report_dict(cfg: RunConfig, sol: SemiAnalyticSolution, verification) -> dict:
    return {
        "config": cfg.raw,
        "grid": {"M": cfg.M, "K": cfg.K, "t_min": cfg.t_min},
        "series": {"n_max": cfg.n_max, "tol": cfg.tol},
        "profile": asdict(sol.profile),
        "poly_part": sol.poly_part.coeffs,
        "eigen": asdict(sol.modal.eigen),
        "modal": {
            "amplitudes": sol.modal.amplitudes,
            "offset": sol.modal.offset,
            "trig": sol.modal.trig,
        },
        "compatibility_defect": sol.problem.compatibility_defect(),
        "diagnostics": sol.diagnostics,
        "verification": asdict(verification),
    }


def _report_text(cfg: RunConfig, sol: SemiAnalyticSolution, verification) -> str:
    """The report as strict JSON; one that holds a NaN or an infinity
    (parameters that overflow a float) stops the command with exit 3."""
    try:
        text = json.dumps(
            _report_dict(cfg, sol, verification), indent=2, sort_keys=True, allow_nan=False
        )
    except ValueError as exc:
        raise _Stop(3, f"solver error: the report holds a non-finite value ({exc})")
    return text + "\n"


def _tuples(value):
    """A JSON value with every list turned into a tuple, nested lists too."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _from_section(cls, name: str, section: dict):
    """cls built from report section `name`; a key that cls does not take, or
    a field of cls that the section lacks, raises ValueError naming both."""
    for key in sorted(set(section) ^ {f.name for f in fields(cls)}):
        kind = "unknown" if key in section else "missing"
        raise ValueError(f"report section {name!r} has {kind} key {key!r}")
    return cls(**{key: _tuples(v) for key, v in section.items()})


def rebuild_solution(report: dict) -> SemiAnalyticSolution:
    """Reconstruct the solution object a report describes, without re-running
    the matching pipeline. Evaluating it reproduces the original CSV
    byte-for-byte (pure float data in, deterministic evaluation out)."""
    m = report["modal"]
    eigen = _from_section(EigenSystem, "eigen", report["eigen"])
    modal = ModalSeries(eigen, _tuples(m["amplitudes"]), m["offset"])
    return SemiAnalyticSolution(
        poly_part=Poly2(_tuples(report["poly_part"])),
        modal=modal,
        profile=_from_section(ExtensionProfile, "profile", report["profile"]),
        problem=parse_config(report["config"]).problem,
        diagnostics=_tuples(report["diagnostics"]),
    )


def _solution_grids(cfg: RunConfig):
    xs = np.linspace(0.0, cfg.problem.l, cfg.M + 1)
    ts = np.linspace(0.0, cfg.problem.T, cfg.K + 1)
    return xs, ts


def _load_and_solve(config: str):
    """(cfg, sol) for a config file; a bad config or the solver's rejection
    (exit 3) raises."""
    cfg = load_config(config)
    try:
        # an overflow inside the solve shows as a non-finite quantity below
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_problem(cfg.problem, n_max=cfg.n_max, tol=cfg.tol)
            total, captured = _initial_energies(sol)
            sizes = {
                "compatibility_defect": sol.problem.compatibility_defect(),
                "the solution's size bound": _size_bound(sol),
                "the initial mismatch's squared L2 norm": total,
                "the modal amplitudes' captured energy": captured,
            }
    except (ParityError, SingularSystemError, OverflowError) as exc:
        raise _Stop(3, f"solver error: {exc}")
    for name, value in sizes.items():
        if not math.isfinite(value):
            raise _Stop(3, f"solver error: {name} is non-finite ({value}): the data overflow a float")
    return cfg, sol


def _write(path: Path, write, *args) -> None:
    """write(*args) for file path; an OSError (say, path is a directory) stops
    the command with exit 2. The CSV writers are joined by then."""
    try:
        write(*args)
    except OSError as exc:
        raise _Stop(2, f"output error: cannot write {str(path)!r}: {exc.strerror or exc}")


def _tmp(path: Path) -> Path:
    """The temporary name under which this process writes output file path."""
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


def _theirs(path: Path) -> bool:
    """Whether a sticky directory keeps this process from unlinking or
    renaming over path: only root and the file's or directory's owner may."""
    folder = path.parent.stat()
    if folder.st_mode & stat.S_ISVTX and os.path.lexists(path):
        return os.geteuid() not in (0, path.lstat().st_uid, folder.st_uid)
    return False


@contextmanager
def _outputs(out: str, *names: str):
    """The paths of output files names in directory out, written all or
    nothing: the body fills each path's _tmp.

    Before the body: make out, sweep the temporaries of these names whose
    process is gone (killed mid-write) unless _theirs, refuse a path that is a
    directory or _theirs, and create every temporary: an unusable directory or
    file exits 2 before the work. After it: unlink the files after the first,
    then os.replace each file by its temporary in order, so a new file never
    sits beside a stale one. On the way out, remove those made here."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Stop(2, f"output error: cannot create directory {out!r}: {exc.strerror}")
    paths, made = [Path(out) / name for name in names], []
    try:
        for path in paths:
            stale = re.compile(rf"\.{re.escape(path.name)}\.([0-9]{{1,9}})\.tmp")
            found = (stale.fullmatch(tmp.name) for tmp in path.parent.glob(f".{path.name}.*.tmp"))
            for match in filter(None, found):
                try:  # signal 0 checks that the pid runs, sending nothing
                    os.kill(int(match[1]), 0)
                except ProcessLookupError:
                    if not _theirs(path.with_name(match[0])):
                        _write(path, path.with_name(match[0]).unlink, True)
                except PermissionError:  # it runs under another user
                    pass
            if path.is_dir():  # os.replace would refuse it only after the work
                raise _Stop(2, f"output error: cannot write {str(path)!r}: Is a directory")
            if _theirs(path):  # as it would another user's file in a sticky out
                raise _Stop(2, f"output error: cannot write {str(path)!r}: Operation not permitted")
            _write(_tmp(path), _tmp(path).write_bytes, b"")
            made.append(_tmp(path))
        yield paths
        for path in paths[1:]:
            _write(path, path.unlink, True)
        for path in paths:
            _write(path, os.replace, _tmp(path), path)
    finally:
        for tmp in made:
            tmp.unlink(missing_ok=True)


def _size_bound(sol: SemiAnalyticSolution) -> float:
    """An upper bound of |u| on [0, l] x [0, T]: sum |a_n| over the modes plus
    the polynomial part's sum |c_ij| l^i T^j (Horner on nonnegative terms, so
    no partial sum overflows before the total does)."""
    p = sol.problem
    poly = npoly.polyval2d(p.l, p.T, np.abs(sol.poly_part.array))
    return float(np.sum(np.abs(sol.modal.amplitudes)) + poly)


def cmd_solve(config: str, out: str) -> int:
    cfg, sol = _load_and_solve(config)
    with _outputs(out, "solution.csv", "report.json") as (csv, report_path):
        report = _report_text(cfg, sol, residual_report(sol, t_min=cfg.t_min))
        xs, ts = _solution_grids(cfg)
        _write(csv, _write_solution_csv, _tmp(csv), sol, xs, ts)
        _write(report_path, Path.write_text, _tmp(report_path), report)
    print(f"wrote {csv} and {report_path}")
    return 0


def cmd_verify(config: str, out: str = ".") -> int:
    cfg, sol = _load_and_solve(config)
    with _outputs(out, "verify_report.json") as (report_path,):
        oracle = crank_nicolson_reference(cfg.problem, cfg.M, cfg.K)
        verification = residual_report(sol, t_min=cfg.t_min, oracle=oracle)
        rows = threshold_rows(verification, cfg.problem.boundary)
        report = _report_text(cfg, sol, verification)

        width = max(len(name) for name, *_ in rows)
        print(f"{'check'.ljust(width)}  {'value':>13}  {'bound':>10}  status")
        for name, value, bound, ok in rows:
            print(f"{name.ljust(width)}  {value:13.6e}  {bound:10.1e}  {'PASS' if ok else 'FAIL'}")
        print(f"initial_l2_error      {verification.initial_l2_error:13.6e}  (informational)")
        print(f"compatibility_defect  {verification.compatibility_defect:+13.6e}  (informational)")
        if verification.diagnostics:
            print("diagnostics:")
            for line in verification.diagnostics:
                print(f"  - {line}")
        _write(report_path, Path.write_text, _tmp(report_path), report)
    return 0 if all(ok for *_, ok in rows) else 1


def cmd_eigen(kind: str, k: float, nu: float, l: float, n: int) -> int:
    mapped = _BOUNDARY_ALIASES.get(kind)  # the two Robin kinds only
    if mapped is None:
        raise _Stop(2, f"parameter error: kind must be 'nr' or 'dr', got {kind!r}")
    if not (1 <= n <= 1024):
        raise _Stop(2, f"parameter error: n must be in [1, 1024], got {n}")
    # an overflow inside the root search shows as a non-finite value below
    with np.errstate(over="ignore", invalid="ignore"):
        try:  # eigenvalues refuses a bad k, nu or l by the library's parameter rule
            eig = eigenvalues(mapped, k, nu, l, n)
        except ValueError as exc:
            raise _Stop(2, f"parameter error: {exc}") from None
        sigma, res = np.array(eig.roots), np.array(eig.residuals)
        gap = np.abs(sigma - np.rint(sigma * l / math.pi) * math.pi / l)
        rel = res / np.maximum(nu, k * sigma)
    for i in np.flatnonzero(~np.isfinite(sigma + res))[:1]:
        name, value = ("root", sigma[i]) if not np.isfinite(sigma[i]) else ("residual", res[i])
        raise _Stop(3, f"solver error: {name} {i} is non-finite ({value}): the data overflow a float")
    header = (
        "index  sigma                  bracket_lo             bracket_hi             residual   "
        "gap_to_pi_multiple     rel_residual"
    )
    template = "%-5d  %-21.15g  %-21.15g  %-21.15g  %9.2e  %-21.15g  %.2e\n"
    rows = zip(range(n), eig.roots, *zip(*eig.brackets), eig.residuals, gap.tolist(), rel.tolist())
    print(header)
    sys.stdout.writelines(template % row for row in rows)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatrobin",
        description="Semi-analytic heat solver with Robin boundary data: "
        "solve problems from a JSON config, verify them against an "
        "independent finite-difference reference, or tabulate boundary "
        "eigenvalues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem and write CSV + JSON report")
    p_solve.add_argument("--config", required=True, help="path to the JSON problem file")
    p_solve.add_argument("--out", required=True, help="output directory")

    p_verify = sub.add_parser("verify", help="solve, then check residuals and the reference oracle")
    p_verify.add_argument("--config", required=True, help="path to the JSON problem file")
    p_verify.add_argument("--out", default=".", help="directory for verify_report.json")

    p_eigen = sub.add_parser("eigen", help="tabulate boundary eigenvalues")
    p_eigen.add_argument("--kind", required=True, help="nr (flux left) or dr (value left)")
    p_eigen.add_argument("--k", type=float, required=True)
    p_eigen.add_argument("--nu", type=float, required=True)
    p_eigen.add_argument("--l", type=float, required=True)
    p_eigen.add_argument("-n", type=int, default=8, help="number of roots (default 8)")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args.config, args.out)
        if args.command == "verify":
            return cmd_verify(args.config, args.out)
        return cmd_eigen(args.kind, args.k, args.nu, args.l, args.n)
    except ConfigError as exc:
        code, message = 2, f"config error: {exc}"
    except _Stop as exc:
        code, message = exc.args
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
