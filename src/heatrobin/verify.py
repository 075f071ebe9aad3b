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


def _thomas(lower, diag, upper, rhs):
    """Tridiagonal solve; lower[i] multiplies x[i-1], upper[i] multiplies
    x[i+1] (lower[0] and upper[-1] are ignored)."""
    n = diag.size
    cp = np.empty(n)
    dp = np.empty(n)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom if i < n - 1 else 0.0
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    x = np.empty(n)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def crank_nicolson_reference(problem: ProblemSpec, M: int, K: int) -> GridSolution:
    """theta = 1/2 finite-difference reference on an (M+1) x (K+1) grid.

    Neumann and Robin ends use ghost points eliminated through the boundary
    relation, keeping the scheme second order in both h and dt. The source is
    sampled at the half step. Unconditionally stable, so M and K only control
    accuracy.
    """
    if M < 8 or K < 8:
        raise ValueError("M and K must both be at least 8")
    k, nu, l, T = problem.k, problem.nu, problem.l, problem.T
    h = l / M
    dt = T / K
    lam = k * dt / (h * h)
    beta = h * nu / k
    xs = np.linspace(0.0, l, M + 1)
    ts = np.linspace(0.0, T, K + 1)

    left = problem.boundary  # "neumann_robin" | "dirichlet_robin" | "neumann_neumann"
    lower = np.full(M + 1, -0.5 * lam)
    diag = np.full(M + 1, 1.0 + lam)
    upper = np.full(M + 1, -0.5 * lam)
    if left == "dirichlet_robin":
        diag[0] = 1.0
        upper[0] = 0.0
    else:
        upper[0] = -lam  # ghost u_{-1} = u_1
    if left == "neumann_neumann":
        lower[M] = -lam
    else:
        diag[M] = 1.0 + lam + lam * beta
        lower[M] = -lam

    values = np.empty((K + 1, M + 1))
    values[0] = problem.mu0(xs)
    u = values[0].copy()
    for n in range(K):
        t0 = ts[n]
        t1 = ts[n + 1]
        f_mid = problem.F.grid(xs, np.array([t0 + 0.5 * dt]))[0]
        rhs = (1.0 - lam) * u + dt * f_mid
        rhs[1:M] += 0.5 * lam * (u[:M - 1] + u[2:])
        if left == "dirichlet_robin":
            rhs[0] = 0.0
        else:
            rhs[0] = (1.0 - lam) * u[0] + lam * u[1] + dt * f_mid[0]
        if left == "neumann_neumann":
            rhs[M] = (1.0 - lam) * u[M] + lam * u[M - 1] + dt * f_mid[M]
        else:
            rhs[M] = (
                (1.0 - lam - lam * beta) * u[M]
                + lam * u[M - 1]
                + lam * beta * (problem.T0(t1) + problem.T0(t0))
                + dt * f_mid[M]
            )
        u = _thomas(lower, diag, upper, rhs)
        values[n + 1] = u
    return GridSolution(xs, ts, values)


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
    sol: SemiAnalyticSolution,
    problem: ProblemSpec | None = None,
    *,
    nx: int = 41,
    nt: int = 41,
    t_min: float = 0.01,
    step: float = 1e-4,
    oracle: GridSolution | None = None,
) -> VerificationReport:
    """Central-difference residuals of the interior equation and both
    boundary conditions on [0,l] x [t_min,T], the exact L2 size of the initial
    mismatch, and an optional comparison against a reference grid.

    The t >= t_min window keeps the differencing away from the start line,
    where incompatible corner data makes derivatives blow up. The oracle
    comparison uses the same window. Differencing step 1e-4 balances
    truncation against rounding for solutions with O(1) derivatives.
    """
    if problem is None:
        problem = sol.problem
    k, nu, l, T = problem.k, problem.nu, problem.l, problem.T
    xs = np.linspace(0.0, l, nx)
    ts = np.linspace(t_min, T, nt)

    u0 = sol.on_grid(xs, ts)
    uxp = sol.on_grid(xs + step, ts)
    uxm = sol.on_grid(xs - step, ts)
    utp = sol.on_grid(xs, ts + step)
    utm = sol.on_grid(xs, ts - step)

    u_t = (utp - utm) / (2.0 * step)
    u_xx = (uxp - 2.0 * u0 + uxm) / (step * step)
    pde = np.max(np.abs(u_t - k * u_xx - problem.F.grid(xs, ts)))

    if problem.boundary == "dirichlet_robin":
        left = np.max(np.abs(u0[:, 0]))
    else:
        left = np.max(np.abs((uxp[:, 0] - uxm[:, 0]) / (2.0 * step)))
    u_x_right = (uxp[:, -1] - uxm[:, -1]) / (2.0 * step)
    right = np.max(np.abs(k * u_x_right + nu * (u0[:, -1] - problem.T0(ts))))

    # Parseval: the modal amplitudes are exact projections of the initial
    # mismatch, so the truncation error is ||r||^2 minus the captured energy.
    r = problem.mu0 - sol.profile.mu_poly() - sol.modal.offset
    total = (r * r).integral(0.0, l)
    captured = float(np.sum(np.asarray(sol.modal.amplitudes) ** 2 * sol.modal.eigen.norms()))
    initial_l2 = math.sqrt(max(total - captured, 0.0))

    oracle_diff = None
    if oracle is not None:
        mask = oracle.ts >= t_min - 1e-12
        mine = sol.on_grid(oracle.xs, oracle.ts[mask])
        oracle_diff = float(np.max(np.abs(mine - oracle.values[mask])))

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


def gaussian_cosine_transform(omega: float) -> float:
    """(1/sqrt(pi)) * integral over the line of exp(-z^2) cos(omega z) dz,
    by trapezoid summation.

    The trapezoid rule is exponentially accurate here: with step
    h <= 2 pi / (|omega| + 32) the nearest aliased frequency sits 32 away,
    so the aliasing error is about exp(-256), and truncating at |z| = 13
    contributes about exp(-169). Unlike Hermite quadrature this stays
    accurate for arbitrarily large omega.
    """
    w = abs(float(omega))
    h = min(2.0 * math.pi / (w + 32.0), 0.3)
    n = int(math.ceil(13.0 / h))
    z = h * np.arange(n + 1)
    vals = np.exp(-z * z) * np.cos(w * z)
    half_line = h * (0.5 * vals[0] + float(np.sum(vals[1:])))
    return 2.0 * half_line / math.sqrt(math.pi)


def kernel_cosine_transform_quadrature(n: int, k: float, t: float) -> float:
    """Quadrature twin of the closed-form kernel transform: integrates
    cos(n pi y) against the heat kernel of variance 2kt by reducing to the
    Gaussian cosine transform at omega = n pi sqrt(4kt)."""
    if t <= 0 or k <= 0:
        raise ValueError("k and t must be positive")
    return gaussian_cosine_transform(n * math.pi * math.sqrt(4.0 * k * t))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gl_panel(fn, a: float, b: float) -> float:
    if b <= a:
        return 0.0
    mid = 0.5 * (a + b)
    rad = 0.5 * (b - a)
    pts = mid + rad * _GL_NODES
    return rad * float(np.sum(_GL_WEIGHTS * fn(pts)))


def _transform_times_omega(om):
    return np.array([gaussian_cosine_transform(w) * w for w in om])


def two_forms_check(f, mu0, k: float, xs=None, ts=None, n_max: int = 24) -> float:
    """Max grid difference between the two independent realizations of the
    insulated-rod solution.

    Form one is the damped cosine series evaluated with exact exponentials.
    Form two replaces every exponential with the Gaussian-transform
    quadrature: the decay factor exp(-n^2 pi^2 k t) becomes the transform at
    omega = n pi sqrt(4kt), and the source memory integral of that factor is
    computed by Gauss-Legendre panels after the substitution
    s = omega^2 / (4 k n^2 pi^2). Both forms share one truncated mode set, so
    the difference isolates the transform identity.
    """
    if xs is None:
        xs = np.linspace(0.0, 1.0, 21)
    if ts is None:
        ts = np.linspace(0.01, 1.0, 11)
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)

    series = solve_neumann_neumann(f, mu0, k, n_max)
    form_a = series.grid(xs, ts)

    a = np.asarray(series.initial)
    b = np.asarray(series.source)
    modes = np.arange(n_max)
    cosmat = np.cos(np.outer(modes * math.pi, xs))
    form_b = np.empty((ts.size, xs.size))
    for row, t in enumerate(ts):
        amps = np.empty(n_max)
        for n in modes:
            if n == 0:
                amps[0] = a[0] + b[0] * t
                continue
            omega_t = n * math.pi * math.sqrt(4.0 * k * t)
            decay = gaussian_cosine_transform(omega_t)
            split = min(omega_t, 14.0)
            mem = _gl_panel(_transform_times_omega, 0.0, split) + _gl_panel(
                _transform_times_omega, split, omega_t
            )
            mem /= 2.0 * k * (n * math.pi) ** 2
            amps[n] = a[n] * decay + b[n] * mem
        form_b[row] = amps @ cosmat
    return float(np.max(np.abs(form_a - form_b)))
