"""The package namespace re-exports exactly its submodules' public names, and
its positivity checks refuse NaN and the infinities and take numpy scalars."""

import math
import re
import warnings

import numpy as np
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


def _spec(**params):
    data = {"k": 1.0, "nu": 1.0, "l": 1.0, "T": 1.0, **params}
    return solver.ProblemSpec(
        boundary="neumann_robin", mu0=polyalg.Poly1((1.0, 0.0, 3.0, 1.0), "x"),
        F=polyalg.Poly2(((0.0, 0.0), (0.0, 0.0), (2.0, 5.0))), T0=polyalg.Poly1((1.0, 3.0), "t"), **data,
    )


# each entry point with one parameter replaced by v, and the name its message gives
_PARAMETER_CASES = {
    "ProblemSpec-k": (lambda v: _spec(k=v), "k"),
    "ProblemSpec-nu": (lambda v: _spec(nu=v), "nu"),
    "ProblemSpec-l": (lambda v: _spec(l=v), "l"),
    "ProblemSpec-T": (lambda v: _spec(T=v), "T"),
    "eigenvalues-k": (lambda v: spectral.eigenvalues("neumann_robin", v, 1.0, 1.0, 3), "k"),
    "eigenvalues-nu": (lambda v: spectral.eigenvalues("dirichlet_robin", 1.0, v, 1.0, 3), "nu"),
    "eigenvalues-l": (lambda v: spectral.eigenvalues("neumann_neumann", 1.0, 1.0, v, 3), "l"),
    "build_coefficient_system-k": (lambda v: extension.build_coefficient_system(2, v, 1.0, 1.0), "k"),
    "build_coefficient_system-nu": (lambda v: extension.build_coefficient_system(2, 1.0, v, 1.0, "odd"), "nu"),
    "build_coefficient_system-l": (lambda v: extension.build_coefficient_system(2, 1.0, 1.0, v), "l"),
    "flux_sign_variant_matrix-k": (lambda v: extension.flux_sign_variant_matrix(2, v, 1.0, 1.0), "k"),
    "flux_sign_variant_matrix-nu": (lambda v: extension.flux_sign_variant_matrix(2, 1.0, v, 1.0, "odd"), "nu"),
    "flux_sign_variant_matrix-l": (lambda v: extension.flux_sign_variant_matrix(2, 1.0, 1.0, v), "l"),
    "robin_trace-nu": (lambda v: extension.robin_trace(_SOURCE, 1.0, v, 1.0), "nu"),
    "robin_trace-l": (lambda v: extension.robin_trace(_SOURCE, 1.0, 1.0, v), "l"),
    "evolve_profile-k": (lambda v: extension.evolve_profile(_PROFILE, v), "k"),
    "duhamel_poly-k": (lambda v: extension.duhamel_poly(_SOURCE, v, "even"), "k"),
    "solve_neumann_neumann-k": (
        lambda v: solver.solve_neumann_neumann(polyalg.Poly1(()), polyalg.Poly1((1.0,)), v),
        "k",
    ),
    "kernel_cosine_transform-k": (lambda v: solver.kernel_cosine_transform(1, v, 0.5), "k"),
    "kernel_cosine_transform-t": (lambda v: solver.kernel_cosine_transform(1, 1.0, v), "t"),
    "kernel_cosine_transform_quadrature-k": (lambda v: verify.kernel_cosine_transform_quadrature(1, v, 0.5), "k"),
    "kernel_cosine_transform_quadrature-t": (lambda v: verify.kernel_cosine_transform_quadrature(1, 1.0, v), "t"),
    # trig_poly_integral's array check keeps its own message
    "trig_poly_integral-sigma": (lambda v: polyalg.trig_poly_integral(1, v, 1.0), "sigma and l"),
    "trig_poly_integral-sigmas": (lambda v: polyalg.trig_poly_integral(1, [1.0, v], 1.0), "sigma and l"),
    "trig_poly_integral-l": (lambda v: polyalg.trig_poly_integral(1, 1.0, v), "sigma and l"),
    "evaluate_series_info-tol": (lambda v: spectral.evaluate_series_info(_RODS, 0.5, 0.1, v), "tol"),
}


def _refused(case, value):
    call, name = _PARAMETER_CASES[case]
    if name == "sigma and l":
        want = "^sigma and l must be positive$"
    else:
        want = f"^{name} must be a positive finite number, got {re.escape(repr(value))}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=want):
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


@pytest.mark.parametrize("value", [np.float32(0.25), np.int64(1), np.float64(0.5)], ids=repr)
@pytest.mark.parametrize("case", [case for case, (_, name) in _PARAMETER_CASES.items() if name != "sigma and l"])
def test_entry_points_take_numpy_scalars(case, value):
    # the rule compares, so a numpy scalar passes it like a float
    call, _ = _PARAMETER_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(value)


def test_a_problem_of_numpy_scalars_solves_to_the_bits_of_floats():
    numpy_spec = _spec(k=np.float32(0.25), nu=np.float64(0.5), l=np.int64(1), T=np.int64(1))
    float_spec = _spec(k=0.25, nu=0.5, l=1.0, T=1.0)
    assert all(type(getattr(numpy_spec, name)) is float for name in ("k", "nu", "l", "T"))
    assert numpy_spec == float_spec
    got, want = solver.solve_problem(numpy_spec), solver.solve_problem(float_spec)
    assert repr(got.modal) == repr(want.modal) and repr(got.poly_part) == repr(want.poly_part)
    xs, ts = np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 7)
    assert got.on_grid(xs, ts).tobytes() == want.on_grid(xs, ts).tobytes()


def test_the_rule_serves_positive_finite_values():
    polyalg._positive(k=5e-324, nu=1.0, l=1.7976931348623157e308)
    for v in (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf):
        want = f"^l must be a positive finite number, got {re.escape(repr(v))}$"
        with pytest.raises(ValueError, match=want):
            polyalg._positive(k=1.0, nu=1.0, l=v)
    # the first value that breaks the rule is the one named
    with pytest.raises(ValueError, match="^nu must be a positive finite number, got 0.0$"):
        polyalg._positive(k=1.0, nu=0.0, l=-1.0)
