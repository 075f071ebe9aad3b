"""Command-line front end: solve/verify/eigen driven by a JSON problem file.

Exit codes: 0 success, 1 verification threshold failure, 2 config parse or
validation error, 3 solver error (source parity violation, numerically
singular matching system, parameters that overflow a float).

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
so identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .extension import ExtensionProfile, ParityError, SingularSystemError
from .polyalg import Poly1, Poly2
from .solver import ProblemSpec, SemiAnalyticSolution, solve_problem
from .spectral import EigenSystem, ModalSeries, eigenvalues
from .verify import crank_nicolson_reference, residual_report, threshold_rows

__all__ = ["ConfigError", "RunConfig", "load_config", "rebuild_solution", "main"]

_BOUNDARY_ALIASES = {
    "neumann_robin": "neumann_robin",
    "dirichlet_robin": "dirichlet_robin",
    "nr": "neumann_robin",
    "dr": "dirichlet_robin",
}
_CONFIG_KEYS = {"k", "nu", "l", "T", "boundary", "mu0", "F", "T0", "grid", "series"}


class ConfigError(ValueError):
    """Config file failed to parse or validate; message names the field."""


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


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config field {sorted(unknown)[0]!r}")
    bkey = raw.get("boundary")
    if bkey not in _BOUNDARY_ALIASES:
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

    grid = raw.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("field 'grid' must be an object")
    M = _int_in(grid, "M", 200, 8, 10000)
    K = _int_in(grid, "K", 200, 8, 10000)
    t_min = grid.get("t_min", 0.01)
    if not _is_finite(t_min):
        raise ConfigError("field 't_min' must be a finite number")
    t_min = float(t_min)
    if not (0.0 < t_min < problem.T):
        raise ConfigError(f"field 't_min' must lie strictly inside (0, T), got {t_min}")

    series = raw.get("series", {})
    if not isinstance(series, dict):
        raise ConfigError("field 'series' must be an object")
    n_max = _int_in(series, "n_max", 64, 1, 1024)
    tol = series.get("tol", 1e-10)
    if not _is_finite(tol) or not tol > 0:
        raise ConfigError("field 'tol' must be a positive finite number")
    return RunConfig(problem, M, K, t_min, n_max, float(tol), raw)


def load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(raw)


def _write_csv(path: Path, xs: np.ndarray, ts: np.ndarray, grid: np.ndarray) -> None:
    """Stream the x,t,u rows, time-major, one grid row at a time.

    Each coordinate is formatted once. Values go through `tolist()` so that
    `repr` sees Python floats (shortest round-trip digits), not numpy scalars.
    `Path.open("w")` uses the same encoding and newline handling as
    `Path.write_text`."""
    x_strs = [repr(x) for x in np.asarray(xs, dtype=float).tolist()]
    values = np.asarray(grid, dtype=float)
    with path.open("w") as fh:
        fh.write("x,t,u\n")
        for t, row in zip(np.asarray(ts, dtype=float).tolist(), values):
            mid = f",{t!r},"
            fh.write("".join([f"{x}{mid}{u}\n" for x, u in zip(x_strs, map(repr, row.tolist()))]))


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


def _report_text(cfg: RunConfig, sol: SemiAnalyticSolution, verification) -> str | None:
    """The report as strict JSON, or, after printing why, None when it holds
    a NaN or an infinity (parameters that overflow a float)."""
    try:
        text = json.dumps(
            _report_dict(cfg, sol, verification), indent=2, sort_keys=True, allow_nan=False
        )
    except ValueError as exc:
        print(f"solver error: the report holds a non-finite value ({exc})", file=sys.stderr)
        return None
    return text + "\n"


def _tuples(value):
    """A JSON value with every list turned into a tuple, nested lists too."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _from_section(cls, section: dict):
    return cls(**{name: _tuples(v) for name, v in section.items()})


def rebuild_solution(report: dict) -> SemiAnalyticSolution:
    """Reconstruct the solution object a report describes, without re-running
    the matching pipeline. Evaluating it reproduces the original CSV
    byte-for-byte (pure float data in, deterministic evaluation out)."""
    m = report["modal"]
    modal = ModalSeries(
        _from_section(EigenSystem, report["eigen"]), _tuples(m["amplitudes"]), m["offset"]
    )
    return SemiAnalyticSolution(
        poly_part=Poly2(_tuples(report["poly_part"])),
        modal=modal,
        profile=_from_section(ExtensionProfile, report["profile"]),
        problem=parse_config(report["config"]).problem,
        diagnostics=_tuples(report["diagnostics"]),
    )


def _solution_grids(cfg: RunConfig):
    xs = np.linspace(0.0, cfg.problem.l, cfg.M + 1)
    ts = np.linspace(0.0, cfg.problem.T, cfg.K + 1)
    return xs, ts


def _load_and_solve(config: str):
    """(cfg, sol) for a config file, or, after printing why, the exit code:
    2 for a config error, 3 for a solver rejection."""
    try:
        cfg = load_config(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return cfg, solve_problem(cfg.problem, n_max=cfg.n_max, tol=cfg.tol)
    except (ParityError, SingularSystemError, OverflowError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


def cmd_solve(config: str, out: str) -> int:
    loaded = _load_and_solve(config)
    if isinstance(loaded, int):
        return loaded
    cfg, sol = loaded
    report = _report_text(cfg, sol, residual_report(sol, t_min=cfg.t_min))
    if report is None:
        return 3
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    xs, ts = _solution_grids(cfg)
    _write_csv(outdir / "solution.csv", xs, ts, sol.on_grid(xs, ts))
    (outdir / "report.json").write_text(report)
    print(f"wrote {outdir / 'solution.csv'} and {outdir / 'report.json'}")
    return 0


def cmd_verify(config: str, out: str = ".") -> int:
    loaded = _load_and_solve(config)
    if isinstance(loaded, int):
        return loaded
    cfg, sol = loaded
    oracle = crank_nicolson_reference(cfg.problem, cfg.M, cfg.K)
    verification = residual_report(sol, t_min=cfg.t_min, oracle=oracle)
    rows = threshold_rows(verification, cfg.problem.boundary)
    report = _report_text(cfg, sol, verification)
    if report is None:
        return 3

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

    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "verify_report.json").write_text(report)
    return 0 if all(ok for *_, ok in rows) else 1


def cmd_eigen(kind: str, k: float, nu: float, l: float, n: int) -> int:
    mapped = _BOUNDARY_ALIASES.get(kind)  # the two Robin kinds only
    if mapped is None:
        print(f"parameter error: kind must be 'nr' or 'dr', got {kind!r}", file=sys.stderr)
        return 2
    for name, v in (("k", k), ("nu", nu), ("l", l)):
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            print(f"parameter error: {name} must be a positive number, got {v!r}", file=sys.stderr)
            return 2
    if not (1 <= n <= 1024):
        print(f"parameter error: n must be in [1, 1024], got {n}", file=sys.stderr)
        return 2
    eig = eigenvalues(mapped, k, nu, l, n)
    print(
        "index  sigma                  bracket_lo             bracket_hi             residual   "
        "gap_to_pi_multiple     rel_residual"
    )
    for i in range(eig.n_terms):
        sigma, res = eig.roots[i], eig.residuals[i]
        lo, hi = eig.brackets[i]
        nearest = round(sigma * l / math.pi)
        gap = abs(sigma - nearest * math.pi / l)
        rel = res / max(nu, k * sigma)
        print(
            f"{i:<5d}  {sigma:<21.15g}  {lo:<21.15g}  {hi:<21.15g}  {res:9.2e}  {gap:<21.15g}  {rel:.2e}"
        )
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
    if args.command == "solve":
        return cmd_solve(args.config, args.out)
    if args.command == "verify":
        return cmd_verify(args.config, args.out)
    return cmd_eigen(args.kind, args.k, args.nu, args.l, args.n)


if __name__ == "__main__":
    sys.exit(main())
