"""In-memory span tracer that wraps heatrobin's public functions from outside.

Each function is replaced in the namespace of the module that calls it (the
lookup the caller actually performs), methods on their class, and everything
is restored on exit. A span records (name, start_ns, end_ns, parent, op_id);
spans stay in memory until the run ends. Functions called thousands of times
per op are counted without a span.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import heatrobin.cli as cli
import heatrobin.extension as extension
import heatrobin.polyalg as polyalg
import heatrobin.solver as solver
import heatrobin.spectral as spectral
import heatrobin.verify as verify

# Relative eigen residual above which a root counts as bad.
ROOT_RESIDUAL_LIMIT = 1e-12


def _on_eigenvalues(tracer, args, kwargs, eig):
    tracer.counts["spectral.roots"] += eig.n_terms
    tracer.counts["spectral.roots_bad"] += sum(
        res > ROOT_RESIDUAL_LIMIT * max(eig.nu, eig.k * sigma)
        for sigma, res in zip(eig.roots, eig.residuals)
    )


def _on_series_info(tracer, args, kwargs, value):
    tracer.counts["spectral.terms_used"] += value.terms_used
    tracer.counts["spectral.terms_stored"] += args[0].n_terms


def _on_modal_grid(tracer, args, kwargs, out):
    series = args[0]
    tracer.counts["spectral.modal_grid_flop"] += 2 * series.n_terms * out.size


def _on_cn(tracer, args, kwargs, grid):
    steps = grid.ts.size - 1
    tracer.counts["verify.cn_steps"] += steps
    tracer.counts["verify.cn_nodes"] += steps * grid.xs.size


# (home module, name, span name, caller namespaces, result hook)
FUNCTIONS = [
    (cli, "main", "cli.main", (cli,), None),
    (solver, "solve_problem", "solver.solve_problem", (cli, solver), None),
    (extension, "duhamel_poly", "extension.duhamel_poly", (solver,), None),
    (extension, "match_boundary_polynomial", "extension.match_boundary_polynomial", (solver,), None),
    (extension, "evolve_profile", "extension.evolve_profile", (solver,), None),
    (extension, "build_coefficient_system", "extension.build_coefficient_system", (solver,), None),
    (extension, "matrix_discrepancy_report", "extension.matrix_discrepancy_report", (solver,), None),
    (spectral, "eigenvalues", "spectral.eigenvalues", (solver, cli), _on_eigenvalues),
    (spectral, "fourier_coeffs", "spectral.fourier_coeffs", (solver,), None),
    (spectral, "evaluate_series", "spectral.evaluate_series", (solver,), None),
    (spectral, "evaluate_series_info", "spectral.evaluate_series_info", (spectral,), _on_series_info),
    (verify, "crank_nicolson_reference", "verify.crank_nicolson_reference", (cli,), _on_cn),
    (verify, "residual_report", "verify.residual_report", (cli, verify), None),
    (verify, "two_forms_check", "verify.two_forms_check", (verify,), None),
]
METHODS = [
    (solver.SemiAnalyticSolution, "__call__", "solver.point_eval", None),
    (spectral.ModalSeries, "grid", "spectral.ModalSeries.grid", _on_modal_grid),
    (polyalg.Poly2, "grid", "polyalg.Poly2.grid", None),
]
# Hot inner functions: counted, no span.
COUNTED = [
    (polyalg, "trig_poly_integral", "spectral.trig_integrals", (spectral,)),
    (verify, "gaussian_cosine_transform", "verify.transform_evals", (verify,)),
]

# Per-layer self-time metric -> span names it sums.
SELF_TIME_METRICS = {
    "cli.output_s": ("cli.main",),
    "solver.solve_problem_s": ("solver.solve_problem",),
    "extension.duhamel_s": ("extension.duhamel_poly",),
    "extension.match_s": ("extension.match_boundary_polynomial",),
    "extension.evolve_s": ("extension.evolve_profile",),
    "extension.trace_check_s": (
        "extension.build_coefficient_system",
        "extension.matrix_discrepancy_report",
    ),
    "spectral.eigenvalues_s": ("spectral.eigenvalues",),
    "spectral.fourier_coeffs_s": ("spectral.fourier_coeffs",),
    "spectral.series_eval_s": ("spectral.evaluate_series", "spectral.evaluate_series_info"),
    "spectral.modal_grid_s": ("spectral.ModalSeries.grid",),
    "polyalg.grid_s": ("polyalg.Poly2.grid",),
    "verify.cn_oracle_s": ("verify.crank_nicolson_reference",),
    "verify.residual_report_s": ("verify.residual_report",),
    "verify.two_forms_s": ("verify.two_forms_check",),
    "trace.harness_s": ("op",),
}


class Tracer:
    """Collects spans and counts while installed; inert otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op_id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = -1

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._op_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span around one timed operation."""
        self._op_id = op_id
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = -1

    def _span_wrapper(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every listed function and method; restore them on exit."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for home, attr, name, callers, hook in FUNCTIONS:
                wrapped = self._span_wrapper(getattr(home, attr), name, hook)
                for module in callers:
                    patch(module, attr, wrapped)
            for cls, attr, name, hook in METHODS:
                patch(cls, attr, self._span_wrapper(cls.__dict__[attr], name, hook))
            for home, attr, name, callers in COUNTED:
                wrapped = self._count_wrapper(getattr(home, attr), name)
                for module in callers:
                    patch(module, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name: duration minus the time its
        direct children cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1e-9
        return dict(out)

    def span_counts(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def dump(self) -> list[list]:
        return [list(s) for s in self.spans]
