"""Machine-speed calibration for noisy hosts.

On shared virtual machines the same interpreter-bound work can run 1.5 to 2
times slower for seconds to minutes at a time, in CPU time as well as wall
time. A Speedometer runs a fixed calibration kernel on a background thread
every INTERVAL_S while measured work runs; the work's wall time times
NOMINAL_UNIT_S over the measured unit time is its time on a nominal machine
on which one calibration unit takes NOMINAL_UNIT_S.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

NOMINAL_UNIT_S = 5e-4
INTERVAL_S = 0.025


def calibration_unit() -> None:
    """A fixed slice of interpreter-bound work shaped like the program's hot
    loops: float formatting, scalar math and small numpy updates."""
    u = np.zeros(32)
    acc = 0.0
    lines = []
    for i in range(300):
        x = i * 0.013
        acc += math.exp(-x) * math.cos(3.0 * x)
        lines.append(f"{x!r},{acc!r}")
        if i % 10 == 0:
            u = 0.5 * (u + 1.0)
    ",".join(lines)


class Speedometer:
    """Context manager that samples machine speed while its block runs.

    After the block, `unit_s` is the mean seconds per calibration unit
    measured during it (None if the block was too short for a sample)."""

    def __init__(self):
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._units = 0
        self._seconds = 0.0
        self.unit_s: float | None = None

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            t0 = time.perf_counter()
            calibration_unit()
            self._seconds += time.perf_counter() - t0
            self._units += 1

    def __enter__(self) -> "Speedometer":
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.unit_s = self._seconds / self._units if self._units else None
