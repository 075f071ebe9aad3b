"""Independent verification instruments.

Nothing here reuses the semi-analytic machinery: the finite-difference
reference solver, the residual evaluators, and the Gaussian transform
quadrature are separate evaluation paths, so agreement is evidence rather
than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .solver import ProblemSpec, SemiAnalyticSolution, solve_neumann_neumann

__all__ = [
    "GridSolution",
    "VerificationReport",
    "crank_nicolson_reference",
    "residual_report",
    "threshold_rows",
    "gaussian_cosine_transform",
    "kernel_cosine_transform_quadrature",
    "two_forms_check",
]


@dataclass(frozen=True)
class GridSolution:
    """Finite-difference solution on the uniform space-time grid.

    values[n, i] approximates u(xs[i], ts[n]); row 0 is the sampled initial
    state."""

    xs: np.ndarray
    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ts = np.asarray(self.ts, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (ts.size, xs.size):
            raise ValueError(
                f"values shape {vals.shape} does not match grid "
                f"({ts.size}, {xs.size})"
            )
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "values", vals)


def _tridiagonal_solver(lower, diag, upper):
    """Factor a tridiagonal matrix once and return solve(rhs) -> array.

    lower[i] multiplies x[i-1] and upper[i] multiplies x[i+1] (lower[0] and
    upper[-1] are ignored). Thomas's factorization (pivots d_i, c_i) runs once,
    on Python floats. A solve runs the forward recurrence y_i = r_i / d_i +
    g_i y_{i-1}, g_i = -lower_i / d_i, and the backward x_i = y_i - c_i x_{i+1}
    as recursive-doubling scans (Kogge & Stone, IEEE Trans. Comput. C-22,
    1973) of ceil(log2 n) array passes each. They round differently from
    sequential sweeps (a few eps max|x| apart) and are slower below about 150
    unknowns; the oracle's systems have 9 to 10001."""
    lower, diag, upper = (np.asarray(v, dtype=float).tolist() for v in (lower, diag, upper))
    n = len(diag)
    denom = [diag[0]]
    cp = [upper[0] / diag[0]]
    for i in range(1, n):
        d = diag[i] - lower[i] * cp[i - 1]
        denom.append(d)
        cp.append(upper[i] / d if i < n - 1 else 0.0)
    denom = np.array(denom)
    # pass s adds G_s[i] y_{i-s}, G_s[i] = g_i g_{i-1} ... g_{i-s+1}; the
    # backward products are built alike on the reversed c, then turned back
    g, h = -np.array(lower) / denom, -np.array(cp[::-1])
    forward, backward, s = [], [], 1
    while s < n:
        forward.append((s, g[s:]))
        backward.append((s, h[s:][::-1].copy()))
        g = np.concatenate((g[:s], g[s:] * g[:-s]))
        h = np.concatenate((h[:s], h[s:] * h[:-s]))
        s *= 2

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = rhs / denom
        for s, m in forward:
            x[s:] += m * x[:-s]
        for s, m in backward:
            x[:-s] += m * x[s:]
        return x

    return solve


# Graded start for corner-incompatible data: no substep exceeds _GRADING
# times the time it starts from, and the first output interval begins with a
# backward-Euler substep of _FIRST_SUBSTEP times dt.
_GRADING = 0.3
_FIRST_SUBSTEP = 1e-6


def _substeps(ts: np.ndarray, dt: float, graded: bool):
    """(t0, t1, step, theta) for every substep, output interval by interval;
    theta = 1/2 is Crank-Nicolson, theta = 1 backward Euler. Without grading
    each output interval is one Crank-Nicolson step of size dt."""
    for n in range(ts.size - 1):
        t0, t1 = ts[n], ts[n + 1]
        if graded and n == 0:
            # geometric from _FIRST_SUBSTEP * dt up to dt, ratio <= 1 + _GRADING
            m = math.ceil(math.log(1.0 / _FIRST_SUBSTEP) / math.log1p(_GRADING))
            marks = dt * _FIRST_SUBSTEP ** (1.0 - np.arange(m + 1) / m)
            marks[-1] = t1
            first = (0.0, marks[0], marks[0], 1.0)
            yield [first] + [(a, b, b - a, 0.5) for a, b in zip(marks[:-1], marks[1:])]
            continue
        pieces = math.ceil(dt / (_GRADING * t0)) if graded else 1
        if pieces == 1:
            yield [(t0, t1, dt, 0.5)]
            continue
        marks = np.linspace(t0, t1, pieces + 1)
        yield [(a, b, dt / pieces, 0.5) for a, b in zip(marks[:-1], marks[1:])]


def crank_nicolson_reference(problem: ProblemSpec, M: int, K: int) -> GridSolution:
    """Crank-Nicolson finite-difference reference on an (M+1) x (K+1) grid.

    Neumann and Robin ends use ghost points eliminated through the boundary
    relation. The source is sampled at the half step. For data consistent at
    both corners, (0, 0) and (l, 0), every output interval is one step, and
    the scheme is second order in both h and dt.

    Corner-incompatible data make the solution non-smooth at that corner, and
    Crank-Nicolson does not damp the grid modes that the mismatch excites,
    so uniform steps leave an error of a few percent at t = 0.01 (5.5e-2 on
    the 400^2 grid of configs/ex3.json). Those data get a graded start
    instead (after Rannacher, Numer. Math. 43, 1984): the first output
    interval is a backward-Euler substep of 1e-6 dt followed by
    Crank-Nicolson substeps growing geometrically to dt, and later intervals
    are split so that no substep exceeds 0.3 t. Output is still sampled on
    the uniform grid. Each distinct step size is factored once, and only the
    current factorization is kept: substep sizes never recur once left (the
    graded start, then dt/4, dt/2, dt/2 and dt from then on). Each step
    stays on arrays; its solve agrees with sequential sweeps to rounding.
    """
    if M < 8 or K < 8:
        raise ValueError("M and K must both be at least 8")
    k, nu, l, T = problem.k, problem.nu, problem.l, problem.T
    h = l / M
    dt = T / K
    xs = np.linspace(0.0, l, M + 1)
    ts = np.linspace(0.0, T, K + 1)
    left = problem.boundary  # "neumann_robin" | "dirichlet_robin" | "neumann_neumann"
    # the insulated right end of neumann_neumann is the Robin row with beta = 0
    beta = 0.0 if left == "neumann_neumann" else h * nu / k
    # the x stage of F.grid's two-stage Horner, once; each step runs the t stage
    source_x = npoly.polyval(xs, problem.F.array)
    solvers = {}

    def implicit_solver(lam: float, theta: float):
        a = theta * lam
        lower = np.full(M + 1, -a)
        diag = np.full(M + 1, 1.0 + 2.0 * a)
        upper = np.full(M + 1, -a)
        if left == "dirichlet_robin":
            diag[0] = 1.0
            upper[0] = 0.0
        else:
            upper[0] = -2.0 * a  # ghost u_{-1} = u_1
        lower[M] = -2.0 * a
        diag[M] = 1.0 + 2.0 * a + 2.0 * a * beta
        return _tridiagonal_solver(lower, diag, upper)

    def step(u, t0, t1, tau, theta):
        lam = k * tau / (h * h)
        key = (tau, theta)
        if key not in solvers:
            solvers.clear()  # a step size never recurs once left
            solvers[key] = implicit_solver(lam, theta)
        b = (1.0 - theta) * lam  # explicit weight; 0.5 lam for Crank-Nicolson
        b2 = 2.0 * b
        f = npoly.polyval(t0 + theta * tau, source_x)
        rhs = (1.0 - b2) * u + tau * f
        rhs[1:M] += b * (u[:M - 1] + u[2:])
        if left == "dirichlet_robin":
            rhs[0] = 0.0
        else:
            rhs[0] = (1.0 - b2) * u[0] + b2 * u[1] + tau * f[0]
        level = theta * problem.T0(t1) + (1.0 - theta) * problem.T0(t0)
        rhs[M] = (
            (1.0 - b2 - b2 * beta) * u[M]
            + b2 * u[M - 1]
            + 2.0 * lam * beta * level
            + tau * f[M]
        )
        return solvers[key](rhs)

    values = np.empty((K + 1, M + 1))
    values[0] = problem.mu0(xs)
    u = values[0].copy()
    graded = bool(problem.incompatible_corners())
    for n, substeps in enumerate(_substeps(ts, dt, graded)):
        for t0, t1, tau, theta in substeps:
            u = step(u, t0, t1, tau, theta)
        values[n + 1] = u
    return GridSolution(xs, ts, values)


# Complex steps of the residual probe: h for every first derivative (u_t, and
# u_x at the ends), g = _X_STEP * l along w = exp(i pi/4) for u_xx (see
# residual_report).
_H = 1e-30
_X_STEP = 1e-3
_X_DIRECTION = complex(math.sqrt(0.5), math.sqrt(0.5))
# Points per axis of the probe grid.
_PROBE_POINTS = 41


def _initial_energies(sol: SemiAnalyticSolution) -> tuple[float, float]:
    """(||r||^2, captured): the initial mismatch r = mu0 - mu_poly - offset's
    squared L2 norm on [0, l] and, by Parseval, the part the modes capture."""
    r = sol.problem.mu0 - sol.profile.mu_poly() - sol.modal.offset
    total = (r * r).integral(0.0, sol.problem.l)
    captured = float(np.sum(np.asarray(sol.modal.amplitudes) ** 2 * sol.modal.eigen.norms()))
    return total, captured


@dataclass(frozen=True)
class VerificationReport:
    """Numerical evidence for one solved problem. All residual fields are
    nonnegative maxima over the assessment grid; compatibility_defect keeps
    its sign."""

    pde_residual_max: float
    bc_residual_left: float
    bc_residual_right: float
    initial_l2_error: float
    oracle_max_diff: float | None
    compatibility_defect: float
    diagnostics: tuple[str, ...]


def residual_report(
    sol: SemiAnalyticSolution, *, t_min: float = 0.01, oracle: GridSolution | None = None
) -> VerificationReport:
    """Residuals of the interior equation and both boundary conditions of
    sol.problem on a 41 x 41 grid of [0,l] x [t_min,T], the exact L2 size of
    the initial mismatch, and an optional comparison against a reference
    grid.

    Every derivative is taken by complex step (Squire & Trapp, SIAM Rev.
    40, 1998), evaluating the solution off the real axis:

        u_t  = Im u(x, t + i h) / h,                    h = 1e-30
        u_x  = Im u(x + i h, t) / h,                    x = 0 and x = l only
        u_xx = Im[u(x + g w, t) + u(x - g w, t)] / g^2,  w = exp(i pi/4), g = 1e-3 l

    A first-derivative step subtracts nothing, so h can be small enough
    that its truncation error h^2 u_ttt / 6 vanishes: u_t and the boundary
    rows are exact to rounding. The x stencil's truncation error is
    g^4 u_xxxxxx / 360 and its rounding error about eps |u_x| / g. A real
    central difference would lose step^2 u_ttt / 6, which near an
    incompatible corner dwarfs the residual itself. The boundary rows read
    u and u_x on the two end columns only. The t >= t_min window keeps the
    probe away from the start line, where incompatible corner data makes
    derivatives blow up; the oracle comparison uses the same window.
    """
    problem = sol.problem
    k, nu, l, T = problem.k, problem.nu, problem.l, problem.T
    xs = np.linspace(0.0, l, _PROBE_POINTS)
    ts = np.linspace(t_min, T, _PROBE_POINTS)

    u_t = sol.on_grid(xs, ts + 1j * _H).imag / _H
    g = _X_STEP * l
    shift = g * _X_DIRECTION
    u_xx = (sol.on_grid(xs + shift, ts) + sol.on_grid(xs - shift, ts)).imag / (g * g)
    pde = np.max(np.abs(u_t - k * u_xx - problem.F.grid(xs, ts)))

    ends = np.array([0.0, l])
    u = sol.on_grid(ends, ts)
    u_x = sol.on_grid(ends + 1j * _H, ts).imag / _H
    left = np.max(np.abs(u[:, 0] if problem.boundary == "dirichlet_robin" else u_x[:, 0]))
    right = np.max(np.abs(k * u_x[:, 1] + nu * (u[:, 1] - problem.T0(ts))))

    total, captured = _initial_energies(sol)
    initial_l2 = math.sqrt(max(total - captured, 0.0))

    oracle_diff = None
    if oracle is not None:
        # blocks count from the first kept row, as on_grid's would; no second grid
        rows = np.flatnonzero(oracle.ts >= t_min - 1e-12)
        blocks = sol.row_blocks(oracle.xs, oracle.ts[rows])
        diffs = [np.max(np.abs(b - oracle.values[rows[s : s + len(b)]])) for s, b in blocks]
        oracle_diff = float(np.max(diffs))

    return VerificationReport(
        pde_residual_max=float(pde),
        bc_residual_left=float(left),
        bc_residual_right=float(right),
        initial_l2_error=float(initial_l2),
        oracle_max_diff=oracle_diff,
        compatibility_defect=problem.compatibility_defect(),
        diagnostics=tuple(sol.diagnostics),
    )


def threshold_rows(report: VerificationReport, boundary: str):
    """(name, value, bound, passed) rows for the standard residual bounds:
    pde 1e-5, left 1e-6 (flux) or 1e-10 (value), right 1e-5, oracle 1e-3."""
    left_bound = 1e-10 if boundary == "dirichlet_robin" else 1e-6
    triples = [
        ("pde_residual_max", report.pde_residual_max, 1e-5),
        ("bc_residual_left", report.bc_residual_left, left_bound),
        ("bc_residual_right", report.bc_residual_right, 1e-5),
    ]
    if report.oracle_max_diff is not None:
        triples.append(("oracle_max_diff", report.oracle_max_diff, 1e-3))
    return [(name, value, bound, bool(value <= bound)) for name, value, bound in triples]


def _trapezoid_nodes(omega_max: float):
    """Step h and half-line nodes j h <= 13 of the trapezoid rule for |omega| <= omega_max."""
    h = min(2.0 * math.pi / (omega_max + 32.0), 0.3)
    return h, h * np.arange(int(math.ceil(13.0 / h)) + 1)


def gaussian_cosine_transform(omega):
    """(1/sqrt(pi)) * integral over the line of exp(-z^2) cos(omega z) dz,
    by trapezoid summation; a scalar omega gives a float, an array of omegas
    an array of the same shape.

    The trapezoid rule (_trapezoid_nodes) is exponentially accurate here
    (Trefethen & Weideman, SIAM Rev. 56, 2014): with h <= 2 pi / (|omega| + 32)
    the nearest aliased frequency sits 32 away, so aliasing costs about
    exp(-256), and truncating at |z| = 13 about exp(-169). An array shares
    the step of its largest |omega|, so the bound holds for every entry, as
    for two_forms_check's closed-form omega integral of the same sum. Unlike
    Hermite quadrature this stays accurate for arbitrarily large omega.
    """
    w = np.abs(np.asarray(omega, dtype=float))
    h, z = _trapezoid_nodes(float(np.max(w, initial=0.0)))
    vals = np.exp(-z * z) * np.cos(w[..., None] * z)
    half_line = h * (0.5 * vals[..., 0] + np.sum(vals[..., 1:], axis=-1))
    out = 2.0 * half_line / math.sqrt(math.pi)
    return float(out) if out.ndim == 0 else out


def kernel_cosine_transform_quadrature(n: int, k: float, t: float) -> float:
    """Quadrature twin of the closed-form kernel transform: integrates
    cos(n pi y) against the heat kernel of variance 2kt by reducing to the
    Gaussian cosine transform at omega = n pi sqrt(4kt)."""
    if t <= 0 or k <= 0:
        raise ValueError("k and t must be positive")
    return gaussian_cosine_transform(n * math.pi * math.sqrt(4.0 * k * t))


def _transform_factors(lam: np.ndarray, t: float):
    """(decay, memory): the transform realizations of exp(-lam t) and
    (1 - exp(-lam t)) / lam for rates lam > 0 at t >= 0 (two_forms_check)."""
    omega = np.sqrt(4.0 * lam * t)
    h, z = _trapezoid_nodes(float(np.max(omega, initial=0.0)))
    om, zj = omega[:, None], z[1:]
    kernel = om * np.sin(om * zj) / zj - 2.0 * (np.sin(0.5 * om * zj) / zj) ** 2
    memory = h * (0.25 * omega**2 + kernel @ np.exp(-zj * zj)) / (math.sqrt(math.pi) * lam)
    return gaussian_cosine_transform(omega), memory


def two_forms_check(f, mu0, k: float, xs=None, ts=None, n_max: int = 24) -> float:
    """Max grid difference between the two independent realizations of the
    insulated-rod solution.

    Form one is the neumann_neumann ModalSeries from solve_neumann_neumann,
    evaluated by ModalSeries.grid with exact exponentials. Form two takes
    its `amplitudes` and `source` and replaces every exponential with the
    Gaussian cosine transform G: the decay exp(-lam t), lam = k n^2 pi^2, is
    G(Omega) at Omega = sqrt(4 lam t), and the source memory is
    integral_0^Omega w G(w) dw / (2 lam), with G the trapezoid sum on the
    nodes for the row's largest Omega and each node integrated exactly:
    integral_0^Omega w cos(w z) dw = Omega sin(Omega z) / z -
    2 sin^2(Omega z / 2) / z^2 (Omega^2 / 2 at z = 0). So the sum's
    aliasing and truncation bounds hold at every w <= Omega. Each t is one
    array pass over all modes; both forms share one truncated mode set, so
    the difference isolates the transform identity.
    """
    xs = np.linspace(0.0, 1.0, 21) if xs is None else np.asarray(xs, dtype=float)
    ts = np.linspace(0.01, 1.0, 11) if ts is None else np.asarray(ts, dtype=float)
    if xs.size == 0:
        raise ValueError("xs must be non-empty")
    if ts.size == 0 or not np.all(ts >= 0.0):
        raise ValueError("ts must be non-empty with every t >= 0")

    series = solve_neumann_neumann(f, mu0, k, n_max)
    form_a = series.grid(xs, ts)

    a, b = np.asarray(series.amplitudes), np.asarray(series.source)
    lam = k * (np.arange(1, n_max) * math.pi) ** 2
    cosmat = np.cos(np.outer(np.arange(n_max) * math.pi, xs))
    form_b = np.empty((ts.size, xs.size))
    for row, t in enumerate(ts):
        decay, memory = _transform_factors(lam, t)
        amps = np.concatenate(([a[0] + b[0] * t], a[1:] * decay + b[1:] * memory))
        form_b[row] = amps @ cosmat
    return float(np.max(np.abs(form_a - form_b)))
