"""The package namespace re-exports exactly its submodules' public names, and
its positivity checks refuse NaN and the infinities."""

import math
import warnings

import pytest

import heatrobin
from heatrobin import extension, polyalg, solver, spectral, verify

SUBMODULES = (polyalg, extension, spectral, solver, verify)


def test_all_has_no_duplicates():
    assert len(heatrobin.__all__) == len(set(heatrobin.__all__))


def test_every_exported_name_is_its_submodules_object():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(heatrobin, name) is getattr(module, name), (module.__name__, name)


def test_all_is_the_union_of_the_submodules_lists():
    want = {"__version__"}.union(*(module.__all__ for module in SUBMODULES))
    assert set(heatrobin.__all__) == want


_RODS = spectral.ModalSeries(spectral.eigenvalues("neumann_neumann", 1.0, 1.0, 1.0, 2), (1.0, 0.5))
_PROFILE = extension.ExtensionProfile("even", (1.0, 2.0))
_SOURCE = polyalg.Poly2(((1.0, 1.0),))


# each entry point with one parameter replaced by v, and the names its message gives
_PARAMETER_CASES = {
    "eigenvalues-k": (lambda v: spectral.eigenvalues("neumann_robin", v, 1.0, 1.0, 3), "k, nu, l"),
    "eigenvalues-nu": (lambda v: spectral.eigenvalues("dirichlet_robin", 1.0, v, 1.0, 3), "k, nu, l"),
    "eigenvalues-l": (lambda v: spectral.eigenvalues("neumann_neumann", 1.0, 1.0, v, 3), "k, nu, l"),
    "build_coefficient_system-k": (lambda v: extension.build_coefficient_system(2, v, 1.0, 1.0), "k, nu, l"),
    "build_coefficient_system-nu": (
        lambda v: extension.build_coefficient_system(2, 1.0, v, 1.0, "odd"),
        "k, nu, l",
    ),
    "build_coefficient_system-l": (lambda v: extension.build_coefficient_system(2, 1.0, 1.0, v), "k, nu, l"),
    "flux_sign_variant_matrix-k": (lambda v: extension.flux_sign_variant_matrix(2, v, 1.0, 1.0), "k, nu, l"),
    "flux_sign_variant_matrix-nu": (
        lambda v: extension.flux_sign_variant_matrix(2, 1.0, v, 1.0, "odd"),
        "k, nu, l",
    ),
    "flux_sign_variant_matrix-l": (lambda v: extension.flux_sign_variant_matrix(2, 1.0, 1.0, v), "k, nu, l"),
    "robin_trace-nu": (lambda v: extension.robin_trace(_SOURCE, 1.0, v, 1.0), "k, nu, l"),
    "robin_trace-l": (lambda v: extension.robin_trace(_SOURCE, 1.0, 1.0, v), "k, nu, l"),
    "evolve_profile-k": (lambda v: extension.evolve_profile(_PROFILE, v), "k"),
    "duhamel_poly-k": (lambda v: extension.duhamel_poly(_SOURCE, v, "even"), "k"),
    "solve_neumann_neumann-k": (
        lambda v: solver.solve_neumann_neumann(polyalg.Poly1(()), polyalg.Poly1((1.0,)), v),
        "k",
    ),
    "kernel_cosine_transform-k": (lambda v: solver.kernel_cosine_transform(1, v, 0.5), "k"),
    "kernel_cosine_transform-t": (lambda v: solver.kernel_cosine_transform(1, 1.0, v), "t"),
    "kernel_cosine_transform_quadrature-k": (
        lambda v: verify.kernel_cosine_transform_quadrature(1, v, 0.5),
        "k and t",
    ),
    "kernel_cosine_transform_quadrature-t": (
        lambda v: verify.kernel_cosine_transform_quadrature(1, 1.0, v),
        "k and t",
    ),
    "trig_poly_integral-sigma": (lambda v: polyalg.trig_poly_integral(1, v, 1.0), "sigma and l"),
    "trig_poly_integral-sigmas": (lambda v: polyalg.trig_poly_integral(1, [1.0, v], 1.0), "sigma and l"),
    "trig_poly_integral-l": (lambda v: polyalg.trig_poly_integral(1, 1.0, v), "sigma and l"),
    "evaluate_series_info-tol": (lambda v: spectral.evaluate_series_info(_RODS, 0.5, 0.1, v), "tol"),
}


def _refused(case, value):
    call, names = _PARAMETER_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{names} must be positive$"):
            call(value)


@pytest.mark.parametrize("case", list(_PARAMETER_CASES))
def test_positivity_checks_refuse_nan(case):
    # NaN fails every comparison, so a check written v <= 0 let it through
    _refused(case, math.nan)


@pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize("case", list(_PARAMETER_CASES))
def test_positivity_checks_refuse_infinities(case, value):
    # +inf passed v > 0; every check is 0 < v < inf, with no warning on the way
    _refused(case, value)


def test_the_rule_serves_positive_finite_values():
    polyalg._positive("k, nu, l", 5e-324, 1.0, 1.7976931348623157e308)
    for v in (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^k, nu, l must be positive$"):
            polyalg._positive("k, nu, l", 1.0, 1.0, v)
