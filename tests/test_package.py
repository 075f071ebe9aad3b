"""The package namespace re-exports exactly its submodules' public names, and
its positivity checks refuse NaN."""

import math

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


NAN = math.nan
_RODS = spectral.ModalSeries(spectral.eigenvalues("neumann_neumann", 1.0, 1.0, 1.0, 2), (1.0, 0.5))
_PROFILE = extension.ExtensionProfile("even", (1.0, 2.0))
_SOURCE = polyalg.Poly2(((1.0, 1.0),))


_NAN_CASES = {
    "eigenvalues-k": (lambda: spectral.eigenvalues("neumann_robin", NAN, 1.0, 1.0, 3), "k, nu, l"),
    "eigenvalues-nu": (lambda: spectral.eigenvalues("dirichlet_robin", 1.0, NAN, 1.0, 3), "k, nu, l"),
    "eigenvalues-l": (lambda: spectral.eigenvalues("neumann_neumann", 1.0, 1.0, NAN, 3), "k, nu, l"),
    "build_coefficient_system-k": (lambda: extension.build_coefficient_system(2, NAN, 1.0, 1.0), "k, nu, l"),
    "build_coefficient_system-nu": (
        lambda: extension.build_coefficient_system(2, 1.0, NAN, 1.0, "odd"),
        "k, nu, l",
    ),
    "robin_trace-l": (lambda: extension.robin_trace(_SOURCE, 1.0, 1.0, NAN), "k, nu, l"),
    "evolve_profile-k": (lambda: extension.evolve_profile(_PROFILE, NAN), "k"),
    "duhamel_poly-k": (lambda: extension.duhamel_poly(_SOURCE, NAN, "even"), "k"),
    "kernel_cosine_transform-k": (lambda: solver.kernel_cosine_transform(1, NAN, 0.5), "k"),
    "kernel_cosine_transform-t": (lambda: solver.kernel_cosine_transform(1, 1.0, NAN), "t"),
    "kernel_cosine_transform_quadrature-k": (
        lambda: verify.kernel_cosine_transform_quadrature(1, NAN, 0.5),
        "k and t",
    ),
    "kernel_cosine_transform_quadrature-t": (
        lambda: verify.kernel_cosine_transform_quadrature(1, 1.0, NAN),
        "k and t",
    ),
    "trig_poly_integral-sigma": (lambda: polyalg.trig_poly_integral(1, NAN, 1.0), "sigma and l"),
    "trig_poly_integral-sigmas": (lambda: polyalg.trig_poly_integral(1, [1.0, NAN], 1.0), "sigma and l"),
    "trig_poly_integral-l": (lambda: polyalg.trig_poly_integral(1, 1.0, NAN), "sigma and l"),
    "evaluate_series_info-tol": (lambda: spectral.evaluate_series_info(_RODS, 0.5, 0.1, NAN), "tol"),
}


@pytest.mark.parametrize("case", list(_NAN_CASES))
def test_positivity_checks_refuse_nan(case):
    # NaN fails every comparison, so a check written v <= 0 let it through
    call, names = _NAN_CASES[case]
    with pytest.raises(ValueError, match=f"^{names} must be positive$"):
        call()
