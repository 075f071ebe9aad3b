"""Output checks that decide whether a benchmark op failed.

An op fails when it raises, exits with a code its own outputs do not imply,
hashes differently from an earlier repeat of the same op, or writes CSV rows
(t >= t_min) that disagree with point evaluation of the solution rebuilt from
its report by more than the series tolerance plus rounding. Library sessions
compare their point evaluations with the full-sum grid evaluation instead.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import heatrobin.cli as cli
import heatrobin.verify as verify
from heatrobin.polyalg import Poly2

from gen import sample_rows

# Rounding allowance relative to the absolute size of the summed terms.
ROUNDING = 1e-13
# two_forms_check agreement required by the acceptance suite (criterion 7).
TWO_FORMS_LIMIT = 1e-8


class OpFailure(Exception):
    """An op's outputs failed a check; the message says which."""


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


class RepeatLedger:
    """Remembers the first output digest of each op key in the run."""

    def __init__(self):
        self._seen: dict[str, str] = {}

    def check(self, key: str, value: str) -> None:
        first = self._seen.setdefault(key, value)
        if first != value:
            raise OpFailure(f"{key}: outputs differ from an earlier repeat")


def point_checker(sol, tol: float, reference):
    """Return f(x, t, value) raising OpFailure when value differs from
    reference(x, t) by more than the series tolerance plus rounding."""
    abs_poly = Poly2(tuple(tuple(abs(c) for c in row) for row in sol.poly_part.coeffs))
    modal_size = abs(sol.modal.offset) + float(np.sum(np.abs(sol.modal.amplitudes)))

    def check(x: float, t: float, value: float) -> None:
        want = reference(x, t)
        allow = tol + ROUNDING * (float(abs_poly(abs(x), t)) + modal_size)
        if not (math.isfinite(value) and abs(value - want) <= allow):
            raise OpFailure(
                f"u({x!r}, {t!r}) = {value!r} but the reference gives {want!r} "
                f"(allowed {allow:.1e})"
            )

    return check


def checked_rows(report: dict, seed: int, key: str) -> list[int]:
    """Seeded sample of the CSV data rows with t >= t_min that check_solve
    compares (rows run over x fastest, then t)."""
    grid = report["grid"]
    M, K = grid["M"], grid["K"]
    ts = np.linspace(0.0, report["config"]["T"], K + 1)
    first = int(np.argmax(ts >= grid["t_min"])) * (M + 1)
    return sample_rows((M + 1) * (K + 1), first, seed, key)


def check_solve(outdir: Path, stdout: str, seed: int, key: str, ledger: RepeatLedger) -> int:
    """Check a `heatrobin solve` output directory; return bytes written.

    solution.csv is streamed line by line (hashed as it is read, only the
    sampled rows kept), so the check's memory stays far below the solve's and
    the workload's peak RSS is the program's."""
    report_bytes = (outdir / "report.json").read_bytes()
    report = json.loads(report_bytes)
    M, K = report["grid"]["M"], report["grid"]["K"]
    wanted = set(checked_rows(report, seed, key))
    h = hashlib.sha256()
    sampled: dict[int, bytes] = {}
    n_rows = 0
    csv_path = outdir / "solution.csv"
    with open(csv_path, "rb") as f:
        header = f.readline()
        h.update(header)
        well_formed = header == b"x,t,u\n"
        for row, line in enumerate(f):
            h.update(line)
            well_formed &= line.endswith(b"\n")
            if row in wanted:
                sampled[row] = line
            n_rows = row + 1
    if not well_formed or n_rows != (M + 1) * (K + 1):
        raise OpFailure(f"{key}: solution.csv does not have {(M + 1) * (K + 1)} rows")
    for part in (report_bytes, stdout.encode()):
        h.update(b"\0")
        h.update(part)
    ledger.check(key, h.hexdigest())
    sol = cli.rebuild_solution(report)
    tol = report["series"]["tol"]
    check = point_checker(sol, tol, lambda x, t: sol(x, t, tol))
    for row in sorted(wanted):
        x, t, u = (float(v) for v in sampled[row].split(b","))
        check(x, t, u)
    return csv_path.stat().st_size + len(report_bytes) + len(stdout)


def check_verify(outdir: Path, rc: int, stdout: str, key: str, ledger: RepeatLedger):
    """Check a `heatrobin verify` run; return (bytes written, report,
    number of FAIL rows)."""
    report_bytes = (outdir / "verify_report.json").read_bytes()
    ledger.check(key, digest(report_bytes, stdout, rc))
    report = json.loads(report_bytes)
    v = report["verification"]
    rows = verify.threshold_rows(
        verify.VerificationReport(**{**v, "diagnostics": tuple(v["diagnostics"])}),
        cli.parse_config(report["config"]).problem.boundary,
    )
    implied = 0 if all(ok for *_, ok in rows) else 1
    if rc != implied:
        raise OpFailure(f"{key}: exit code {rc} but its threshold rows imply {implied}")
    return len(report_bytes) + len(stdout), report, sum(not ok for *_, ok in rows)


def check_session(result: dict, key: str, ledger: RepeatLedger) -> None:
    """Check the outputs of one library session (see workload.run_session)."""
    rep = result["residuals"]
    if not all(math.isfinite(v) for v in rep.values()):
        raise OpFailure(f"{key}: non-finite residual report {rep}")
    sol = result["solution"]
    check = point_checker(sol, result["tol"], lambda x, t: float(sol.on_grid([x], [t])[0, 0]))
    for (x, t), value in zip(result["lattice"], result["values"]):
        if t >= result["t_min"]:
            check(x, t, value)
        elif not math.isfinite(value):
            raise OpFailure(f"{key}: u({x!r}, {t!r}) is not finite")
    if result["eigen_rc"] != 0 or result["eigen_stdout"].count("\n") != result["eigen_rows"] + 1:
        raise OpFailure(f"{key}: heatrobin eigen exited {result['eigen_rc']} or printed a short table")
    gap = result["two_forms_gap"]
    if not (math.isfinite(gap) and gap <= TWO_FORMS_LIMIT):
        raise OpFailure(f"{key}: two_forms_check gap {gap!r} exceeds {TWO_FORMS_LIMIT}")
    ledger.check(
        key,
        digest(sorted(rep.items()), result["values"], result["eigen_stdout"], gap),
    )
