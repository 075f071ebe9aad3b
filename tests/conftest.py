"""Shared test plumbing: acceptance-criteria recording, the summary hook and
the perfbench fixture."""

import importlib
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
# perfbench's modules import each other by these top-level names.
MODULES = ("calib", "checks", "gen", "spans", "workload")
_SUITE_START = time.perf_counter()
_criteria: list[tuple[int, bool, str]] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    """Register one acceptance criterion outcome for the terminal summary."""
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    _criteria.append((number, ok, line))
    print(line)


def traced(fn):
    """(fn(), the peak bytes that tracemalloc saw allocated while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def perfbench(monkeypatch):
    """(gen, workload): the benchmark's own modules, imported from perfbench/
    without writing bytecode there, and unloaded afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("gen"), importlib.import_module("workload")
    for name in MODULES:
        sys.modules.pop(name, None)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    elapsed = time.perf_counter() - _SUITE_START
    tr = terminalreporter
    tr.section("acceptance criteria")
    if _criteria:
        for _, _, line in sorted(_criteria):
            tr.write_line(line)
    else:
        tr.write_line("no criteria recorded (acceptance tests did not run)")
    tr.write_line(f"suite wall time {elapsed:.1f} s (budget 60 s)")
