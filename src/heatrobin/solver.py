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
   target exactly, through one triangular system. The matching consumes
   the whole target, so the correction problem's Robin condition is
   already homogeneous and needs no constant shift.
4. The remaining initial mismatch mu0 - mu is expanded in the Robin
   eigenbasis and decays as exp(-sigma_n^2 k t).
5. The same system is compared entry by entry with the subtracted-flux
   variant tabulation, as a diagnostic.

The insulated rod (neumann_neumann: u_x = 0 at both ends) on the unit
interval with a static source needs no polynomial part: solve_neumann_neumann
projects its data onto the third eigen kind, sigma_n = n*pi, and returns the
same ModalSeries the Robin solve uses, with a source-memory term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .polyalg import Poly1, Poly2, grid_axis
from .spectral import KINDS as BOUNDARY_KINDS
from .spectral import ModalSeries, eigenvalues, evaluate_series, fourier_coeffs

__all__ = [
    "BOUNDARY_KINDS",
    "ProblemSpec",
    "SemiAnalyticSolution",
    "solve_problem",
    "solve_neumann_neumann",
    "kernel_cosine_transform",
]

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
        """Corner mismatch between the initial data and the right-end
        condition at (l, 0): k*mu0'(l) + nu*(mu0(l) - T0(0)) under the Robin
        end, k*mu0'(l) under the insulated end of neumann_neumann; zero when
        the two are consistent."""
        flux = self.k * self.mu0.deriv()(self.l)
        if self.boundary == "neumann_neumann":
            return float(flux)
        return float(flux + self.nu * (self.mu0(self.l) - self.T0(0.0)))

    def incompatible_corners(self) -> dict[str, float]:
        """Corner defects above rounding (1e-9 of the data's size at their
        corner), keyed "(0, 0)" and "(l, 0)"; empty for consistent data. The
        left defect is mu0(0) under the value left end of dirichlet_robin and
        k*mu0'(0) under a flux left end; the right one is
        compatibility_defect()."""
        if self.boundary == "dirichlet_robin":
            left = float(self.mu0(0.0))
        else:
            left = float(self.k * self.mu0.deriv()(0.0))
        right = self.compatibility_defect()
        corners = {
            "(0, 0)": (left, 1.0 + abs(self.mu0(0.0))),
            "(l, 0)": (right, 1.0 + abs(self.T0(0.0)) + abs(self.mu0(self.l))),
        }
        return {name: d for name, (d, scale) in corners.items() if abs(d) > 1e-9 * scale}


def _times(ts) -> np.ndarray:
    """ts as a grid axis; the first negative time (or real part) raises ValueError."""
    ts = grid_axis(ts)
    negative = ts[ts.real < 0]
    if negative.size:
        raise ValueError(f"the solution is defined for t >= 0, got t = {negative[0].item()!r}")
    return ts


@dataclass(frozen=True)
class SemiAnalyticSolution:
    """poly_part(x,t) plus the damped modal correction series.

    The polynomial part solves the forced equation coefficient-exactly on its
    own and the series (with a zero `offset`) carries the initial mismatch.
    The corner defect is problem.compatibility_defect().
    """

    poly_part: Poly2
    modal: ModalSeries
    profile: ExtensionProfile
    problem: ProblemSpec
    diagnostics: tuple[str, ...]

    def __call__(self, x: float, t: float, tol: float = 1e-10) -> float:
        """The value at one point; a negative t (or real part) raises ValueError."""
        if t.real < 0:
            raise ValueError(f"the solution is defined for t >= 0, got t = {t!r}")
        return float(self.poly_part(x, t)) + evaluate_series(self.modal, x, t, tol)

    def on_grid(self, xs, ts) -> np.ndarray:
        """Full-sum evaluation, shape (len(ts), len(xs)); complex xs or ts
        give the complex-analytic continuation. A negative time (or real
        part) raises ValueError."""
        ts = _times(ts)
        return self.poly_part.grid(xs, ts) + self.modal.grid(xs, ts)

    def row_blocks(self, xs, ts):
        """Yield (start, block), block being rows start to start + 63 of
        on_grid(xs, ts) in ModalSeries.row_blocks' blocks; for real xs and ts
        they equal on_grid's rows bit for bit. A negative time (or real part)
        raises ValueError once the iteration starts."""
        ts = _times(ts)
        for s, block in self.modal.row_blocks(xs, ts):
            yield s, self.poly_part.grid(xs, ts[s : s + len(block)]) + block


def solve_problem(problem: ProblemSpec, n_max: int = 64, tol: float = 1e-10) -> SemiAnalyticSolution:
    """Run the full matching pipeline for a Robin-type problem."""
    if problem.boundary == "neumann_neumann":
        raise ValueError(
            "solve_problem handles the Robin boundary kinds; "
            "use solve_neumann_neumann for the insulated rod"
        )
    k, nu, l = problem.k, problem.nu, problem.l
    parity = "even" if problem.boundary == "neumann_robin" else "odd"

    u_p = duhamel_poly(problem.F, k, parity)
    target = problem.T0 - robin_trace(u_p, k, nu, l)
    system = build_coefficient_system(max(target.degree, 0), k, nu, l, parity)
    profile = match_boundary_polynomial(target, system)
    poly_part = evolve_profile(profile, k) + u_p

    eigen = eigenvalues(problem.boundary, k, nu, l, n_max)
    amplitudes = fourier_coeffs(eigen, problem.mu0 - profile.mu_poly())
    modal = ModalSeries(eigen, tuple(amplitudes))

    diagnostics = []
    formulas = {
        "(0, 0)": "mu0(0)" if problem.boundary == "dirichlet_robin" else "k*mu0'(0)",
        "(l, 0)": "k*mu0'(l) + nu*(mu0(l) - T0(0))",
    }
    for corner, defect in problem.incompatible_corners().items():
        diagnostics.append(
            f"initial and boundary data are inconsistent at the corner {corner}: "
            f"defect {formulas[corner]} = {defect!r}; the correction "
            f"series absorbs the jump in the L2 sense but pointwise accuracy "
            f"near t = 0 degrades"
        )
    diagnostics.extend(matrix_discrepancy_report(system))

    return SemiAnalyticSolution(
        poly_part=poly_part,
        modal=modal,
        profile=profile,
        problem=problem,
        diagnostics=tuple(diagnostics),
    )


def solve_neumann_neumann(f: Poly1, mu0: Poly1, k: float, n_max: int = 64) -> ModalSeries:
    """Solution of u_t = k u_xx + f(x) on (0,1) with insulated ends
    u_x(0,t) = u_x(1,t) = 0 and u(x,0) = mu0(x), as the neumann_neumann
    ModalSeries: mu0 projects onto its amplitudes and the static source f
    onto its source-memory amplitudes (both Poly1 in x, projected exactly)."""
    eigen = eigenvalues("neumann_neumann", k, 1.0, 1.0, n_max)
    amplitudes = tuple(fourier_coeffs(eigen, mu0))
    return ModalSeries(eigen, amplitudes, source=tuple(fourier_coeffs(eigen, f)))


def kernel_cosine_transform(n: int, k: float, t: float) -> float:
    """Closed form of the heat-kernel cosine transform:
    integral of cos(n pi y) * (4 pi k t)^(-1/2) * exp(-y^2 / (4kt)) over the
    line equals exp(-n^2 pi^2 k t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if k <= 0:
        raise ValueError("k must be positive")
    return math.exp(-((n * math.pi) ** 2) * k * t)
