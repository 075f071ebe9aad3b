"""Semi-analytic solver for the 1-D heat equation with a Robin condition at
the right end, evaluated as an exact polynomial part plus an exponentially
damped eigenfunction series, together with independent finite-difference and
quadrature verification instruments."""

from .extension import (
    CoefficientSystem,
    ExtensionProfile,
    ParityError,
    SingularSystemError,
    build_coefficient_system,
    duhamel_poly,
    evolve_even_poly,
    evolve_odd_poly,
    evolve_profile,
    flux_sign_variant_matrix,
    match_boundary_polynomial,
    matrix_discrepancy_report,
    robin_trace,
)
from .polyalg import (
    Poly1,
    Poly2,
    gaussian_moment,
    half_factorial_coeff,
    trig_poly_integral,
)
from .solver import (
    BOUNDARY_KINDS,
    ProblemSpec,
    SemiAnalyticSolution,
    kernel_cosine_transform,
    solve_neumann_neumann,
    solve_problem,
)
from .spectral import (
    EigenSystem,
    ModalSeries,
    SeriesValue,
    eigenvalues,
    evaluate_series,
    evaluate_series_info,
    fourier_coeffs,
)
from .verify import (
    GridSolution,
    VerificationReport,
    crank_nicolson_reference,
    gaussian_cosine_transform,
    kernel_cosine_transform_quadrature,
    residual_report,
    threshold_rows,
    two_forms_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Poly1",
    "Poly2",
    "half_factorial_coeff",
    "gaussian_moment",
    "trig_poly_integral",
    "ParityError",
    "SingularSystemError",
    "ExtensionProfile",
    "CoefficientSystem",
    "evolve_even_poly",
    "evolve_odd_poly",
    "evolve_profile",
    "duhamel_poly",
    "robin_trace",
    "build_coefficient_system",
    "flux_sign_variant_matrix",
    "matrix_discrepancy_report",
    "match_boundary_polynomial",
    "EigenSystem",
    "ModalSeries",
    "SeriesValue",
    "eigenvalues",
    "fourier_coeffs",
    "evaluate_series",
    "evaluate_series_info",
    "BOUNDARY_KINDS",
    "ProblemSpec",
    "SemiAnalyticSolution",
    "solve_problem",
    "solve_neumann_neumann",
    "kernel_cosine_transform",
    "GridSolution",
    "VerificationReport",
    "crank_nicolson_reference",
    "residual_report",
    "threshold_rows",
    "gaussian_cosine_transform",
    "kernel_cosine_transform_quadrature",
    "two_forms_check",
]
