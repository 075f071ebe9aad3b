"""Problem assembly and orchestration.

For the Robin-type problems on (0, l) x (0, T]:

    u_t = k u_xx + F(x, t)
    left:  u_x(0, t) = 0            (neumann_robin)   or u(0, t) = 0 (dirichlet_robin)
    right: -k u_x(l, t) = nu (u(l, t) - T0(t))

the solver builds the solution as poly_part + modal correction:

1. u_p = Duhamel particular solution of the (parity-extended) source.
2. target(t) = T0(t) - robin_trace(u_p): boundary data left for the
   homogeneous part.
3. Profile coefficients are matched so the evolved profile's trace equals
   target exactly; d = target(0).
4. c_t = T0(0) - d shifts the correction problem so its Robin condition is
   homogeneous (identically zero here whenever the matching consumed the
   whole target, since the particular solution vanishes at t = 0).
5. The remaining initial mismatch mu0 - mu - c_t is expanded in the Robin
   eigenbasis and decays as exp(-sigma_n^2 k t).

The Neumann-Neumann problem on the unit interval with a static source is
solved separately as a plain cosine series (solve_neumann_neumann).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .extension import (
    ExtensionProfile,
    build_coefficient_system,
    duhamel_poly,
    evolve_profile,
    match_boundary_polynomial,
    matrix_discrepancy_report,
    robin_trace,
)
from .polyalg import Poly1, Poly2, trig_poly_integral
from .spectral import ModalSeries, eigenvalues, evaluate_series, fourier_coeffs

__all__ = [
    "BOUNDARY_KINDS",
    "ProblemSpec",
    "SemiAnalyticSolution",
    "CosineHeatSeries",
    "solve_problem",
    "solve_neumann_neumann",
    "cosine_coefficients",
    "kernel_cosine_transform",
    "kernel_cosine_transform_shifted",
]

BOUNDARY_KINDS = ("neumann_robin", "dirichlet_robin", "neumann_neumann")


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem statement: operator constants, horizon, boundary kind,
    and polynomial data mu0 (initial), F (source), T0 (surroundings)."""

    k: float
    nu: float
    l: float
    T: float
    boundary: str
    mu0: Poly1
    F: Poly2
    T0: Poly1

    def __post_init__(self):
        for name in ("k", "nu", "l", "T"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.boundary not in BOUNDARY_KINDS:
            raise ValueError(
                f"boundary must be one of {BOUNDARY_KINDS}, got {self.boundary!r}"
            )
        if self.mu0.coeffs and self.mu0.variable != "x":
            raise ValueError("mu0 must be a polynomial in x")
        if self.T0.coeffs and self.T0.variable != "t":
            raise ValueError("T0 must be a polynomial in t")
        if self.boundary == "neumann_neumann" and self.l != 1.0:
            raise ValueError("neumann_neumann problems assume unit length l = 1")

    def compatibility_defect(self) -> float:
        """Corner mismatch k*mu0'(l) + nu*(mu0(l) - T0(0)); zero when the
        initial and boundary data are consistent at (l, 0)."""
        return float(
            self.k * self.mu0.deriv()(self.l)
            + self.nu * (self.mu0(self.l) - self.T0(0.0))
        )


@dataclass(frozen=True)
class SemiAnalyticSolution:
    """poly_part(x,t) plus the damped modal correction series.

    The constant offset c_t rides with the modal series (its `offset` field),
    so evaluation is always poly_part + series and the polynomial part solves
    the forced equation coefficient-exactly on its own.
    """

    poly_part: Poly2
    modal: ModalSeries
    profile: ExtensionProfile
    problem: ProblemSpec
    compatibility_defect: float
    diagnostics: tuple[str, ...]

    def __call__(self, x: float, t: float, tol: float = 1e-10) -> float:
        return float(self.poly_part(x, t)) + evaluate_series(self.modal, x, t, tol)

    def on_grid(self, xs, ts) -> np.ndarray:
        """Full-sum evaluation, shape (len(ts), len(xs))."""
        return self.poly_part.grid(xs, ts) + self.modal.grid(xs, ts)


def solve_problem(problem: ProblemSpec, n_max: int = 64, tol: float = 1e-10) -> SemiAnalyticSolution:
    """Run the full matching pipeline for a Robin-type problem."""
    if problem.boundary == "neumann_neumann":
        raise ValueError(
            "solve_problem handles the Robin boundary kinds; "
            "use solve_neumann_neumann for the cosine-series problem"
        )
    k, nu, l = problem.k, problem.nu, problem.l
    parity = "even" if problem.boundary == "neumann_robin" else "odd"
    trig = "cos" if parity == "even" else "sin"

    u_p = duhamel_poly(problem.F, k, parity)
    target = problem.T0 - robin_trace(u_p, k, nu, l)
    profile = match_boundary_polynomial(target, k, nu, l, parity)
    c_t = float(problem.T0(0.0)) - profile.d
    profile = replace(profile, c_t=c_t)
    u1 = evolve_profile(profile, k)
    poly_part = u1 + u_p

    residual0 = problem.mu0 - profile.mu_poly() - c_t
    eigen = eigenvalues(problem.boundary, k, nu, l, n_max)
    amplitudes = fourier_coeffs(eigen, residual0)
    modal = ModalSeries(eigen, tuple(amplitudes), offset=c_t, trig=trig)

    defect = problem.compatibility_defect()
    diagnostics = list(profile.warnings)
    scale = 1.0 + abs(problem.T0(0.0)) + abs(problem.mu0(l))
    if abs(defect) > 1e-9 * scale:
        diagnostics.append(
            f"initial and boundary data are inconsistent at the corner (l, 0): "
            f"defect k*mu0'(l) + nu*(mu0(l) - T0(0)) = {defect!r}; the correction "
            f"series absorbs the jump in the L2 sense but pointwise accuracy "
            f"near t = 0 degrades"
        )
    system = build_coefficient_system(max(target.degree, 0), k, nu, l, parity)
    diagnostics.extend(matrix_discrepancy_report(system))

    return SemiAnalyticSolution(
        poly_part=poly_part,
        modal=modal,
        profile=profile,
        problem=problem,
        compatibility_defect=defect,
        diagnostics=tuple(diagnostics),
    )


def cosine_coefficients(data, n_max: int) -> np.ndarray:
    """Cosine-basis coefficients on [0, 1]: index 0 is the mean, index n is
    2 * integral of data(x) * cos(n pi x).

    `data` may be a Poly1 in x (coefficients computed exactly) or an already
    expanded coefficient sequence (padded/truncated to n_max entries).
    """
    if isinstance(data, Poly1):
        if data.coeffs and data.variable != "x":
            raise ValueError("data must be a polynomial in x")
        out = np.zeros(n_max)
        if data.is_zero():
            return out
        out[0] = data.integral(0.0, 1.0)
        for n in range(1, n_max):
            sgn = 1.0 if n % 2 == 0 else -1.0
            acc = 0.0
            for m, c in enumerate(data.coeffs):
                if c != 0.0:
                    acc += c * trig_poly_integral(m, n * math.pi, 1.0, "cos", sin_l=0.0, cos_l=sgn)
            out[n] = 2.0 * acc
        return out
    seq = np.asarray([float(v) for v in data], dtype=float)
    out = np.zeros(n_max)
    out[: min(n_max, seq.size)] = seq[:n_max]
    return out


@dataclass(frozen=True)
class CosineHeatSeries:
    """Neumann-Neumann solution on the unit interval as a cosine series.

    u(x,t) = sum_n initial[n] * exp(-n^2 pi^2 k t) * cos(n pi x)
           + source[0] * t
           + sum_{n>=1} source[n] * (1 - exp(-n^2 pi^2 k t)) / (n^2 pi^2 k) * cos(n pi x)

    where initial/source are cosine coefficients of u(.,0) and the static
    source f(x). The n = 0 source term is the t factor (limit of the damped
    ratio as the rate goes to zero).
    """

    k: float
    initial: tuple[float, ...]
    source: tuple[float, ...]

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("k must be positive")
        object.__setattr__(self, "initial", tuple(float(v) for v in self.initial))
        object.__setattr__(self, "source", tuple(float(v) for v in self.source))

    @property
    def n_terms(self) -> int:
        return max(len(self.initial), len(self.source))

    def grid(self, xs, ts) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ts = np.asarray(ts, dtype=float)
        n = np.arange(self.n_terms)
        a = np.zeros(self.n_terms)
        b = np.zeros(self.n_terms)
        a[: len(self.initial)] = self.initial
        b[: len(self.source)] = self.source
        rates = (n * math.pi) ** 2 * self.k  # rate 0 for n = 0
        decay = np.exp(-np.outer(ts, rates))  # (nt, n)
        amps = a * decay
        with np.errstate(divide="ignore", invalid="ignore"):
            damped = np.where(rates > 0.0, (1.0 - decay) / rates, 0.0)
        amps = amps + b * damped
        amps[:, 0] += b[0] * ts
        cosmat = np.cos(np.outer(n * math.pi, xs))  # (n, nx)
        return amps @ cosmat

    def __call__(self, x: float, t: float) -> float:
        return float(self.grid([x], [t])[0, 0])


def solve_neumann_neumann(f, mu0, k: float, n_max: int = 64) -> CosineHeatSeries:
    """Cosine-series solution of u_t = k u_xx + f(x) on (0,1) with insulated
    ends u_x(0,t) = u_x(1,t) = 0 and u(x,0) = mu0(x).

    f and mu0 may each be a Poly1 in x or a ready cosine-coefficient sequence.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return CosineHeatSeries(
        float(k),
        tuple(cosine_coefficients(mu0, n_max)),
        tuple(cosine_coefficients(f, n_max)),
    )


def kernel_cosine_transform(n: int, k: float, t: float) -> float:
    """Closed form of the heat-kernel cosine transform:
    integral of cos(n pi y) * (4 pi k t)^(-1/2) * exp(-y^2 / (4kt)) over the
    line equals exp(-n^2 pi^2 k t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if k <= 0:
        raise ValueError("k must be positive")
    return math.exp(-((n * math.pi) ** 2) * k * t)


def kernel_cosine_transform_shifted(n: int, k: float, t: float, x: float) -> float:
    """Shifted identity: the same transform against the kernel centered at x
    equals cos(n pi x) * exp(-n^2 pi^2 k t)."""
    return math.cos(n * math.pi * x) * kernel_cosine_transform(n, k, t)
