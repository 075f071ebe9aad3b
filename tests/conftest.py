"""Shared test plumbing: acceptance-criteria recording and the summary hook."""

import time
import tracemalloc

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
