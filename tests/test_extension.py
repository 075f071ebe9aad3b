"""Heat evolution of parity polynomials, Duhamel sources, trace matching."""

import math

import numpy as np
import pytest

from heatrobin.extension import (
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
from heatrobin.polyalg import Poly1, Poly2


def test_evolve_even_low_degree_closed_forms():
    k = 0.25
    assert evolve_even_poly((3.0,), k).coeffs == ((3.0,),)
    # x^2 evolves to x^2 + 2kt
    got = evolve_even_poly((0.0, 1.0), k)
    assert np.array_equal(got.array, [[0.0, 2.0 * k], [0.0, 0.0], [1.0, 0.0]])
    # x^4 evolves to x^4 + 12kt x^2 + 12 k^2 t^2
    got = evolve_even_poly((0.0, 0.0, 1.0), k)
    assert got(0.0, 1.0) == pytest.approx(12.0 * k * k, abs=1e-15)
    assert got(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert got(2.0, 0.5) == pytest.approx(16.0 + 12.0 * k * 0.5 * 4.0 + 12.0 * k * k * 0.25, abs=1e-12)


def test_evolve_odd_low_degree_closed_forms():
    k = 0.5
    # x stays x
    assert evolve_odd_poly((1.0,), k).coeffs == ((0.0,), (1.0,))
    # x^3 evolves to x^3 + 6kt x
    got = evolve_odd_poly((0.0, 1.0), k)
    assert np.array_equal(got.array, [[0.0, 0.0], [0.0, 6.0 * k], [0.0, 0.0], [1.0, 0.0]])


def test_evolve_solves_heat_equation_coefficient_exactly():
    rng = np.random.default_rng(2101)
    for _ in range(30):
        k = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        a = tuple(float(v) for v in rng.integers(-4, 5, rng.integers(1, 6)))
        for evolve in (evolve_even_poly, evolve_odd_poly):
            u = evolve(a, k)
            resid = u.dt() - k * u.dx().dx()
            assert resid.is_zero(), (a, k, evolve.__name__, resid.coeffs)


def test_evolve_initial_and_left_conditions():
    rng = np.random.default_rng(2102)
    for _ in range(10):
        k = float(rng.uniform(0.1, 2.0))
        a = tuple(float(v) for v in rng.uniform(-2, 2, 4))
        even = evolve_even_poly(a, k)
        assert np.allclose(even.at_t(0.0).coeffs, ExtensionProfile("even", a, 0.0).mu_poly().coeffs)
        assert even.dx().at_x(0.0).is_zero()
        odd = evolve_odd_poly(a, k)
        assert np.allclose(odd.at_t(0.0).coeffs, ExtensionProfile("odd", a, 0.0).mu_poly().coeffs)
        assert odd.at_x(0.0).is_zero()


def test_evolve_profile_dispatches_on_parity():
    k = 0.3
    p_even = ExtensionProfile("even", (1.0, 2.0), 0.0)
    assert evolve_profile(p_even, k).coeffs == evolve_even_poly((1.0, 2.0), k).coeffs
    p_odd = ExtensionProfile("odd", (1.0, 2.0), 0.0)
    assert evolve_profile(p_odd, k).coeffs == evolve_odd_poly((1.0, 2.0), k).coeffs
    with pytest.raises(ValueError, match="parity"):
        ExtensionProfile("both", (1.0,), 0.0)


def test_evolve_rejects_nonpositive_diffusivity():
    with pytest.raises(ValueError, match="positive"):
        evolve_even_poly((1.0,), 0.0)
    with pytest.raises(ValueError, match="positive"):
        evolve_odd_poly((1.0,), -1.0)


def test_duhamel_exact_for_representable_weights():
    # with x-degree <= 3 and a static-in-t source, every Duhamel weight is a
    # dyadic rational, so for dyadic k the forced equation holds with float
    # equality, not just to rounding
    rng = np.random.default_rng(2103)
    for _ in range(20):
        k = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        parity = "even" if rng.integers(0, 2) == 0 else "odd"
        want = 0 if parity == "even" else 1
        rows = [
            (float(rng.integers(-4, 5)),) if i % 2 == want else (0.0,)
            for i in range(4)
        ]
        F = Poly2(tuple(rows))
        u_p = duhamel_poly(F, k, parity)
        resid = u_p.dt() - k * u_p.dx().dx() - F
        assert resid.is_zero(), (rows, k, parity, resid.coeffs)
        assert u_p.at_t(0.0).is_zero()


def test_duhamel_solves_forced_equation_to_rounding():
    # general weights involve thirds and are not float-representable; the
    # identity then holds to a few units in the last place of the data
    rng = np.random.default_rng(2108)
    for _ in range(30):
        k = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        parity = "even" if rng.integers(0, 2) == 0 else "odd"
        want = 0 if parity == "even" else 1
        rows = []
        for i in range(int(rng.integers(1, 6))):
            if i % 2 == want:
                rows.append(tuple(float(v) for v in rng.integers(-4, 5, 3)))
            else:
                rows.append((0.0, 0.0, 0.0))
        F = Poly2(tuple(rows))
        u_p = duhamel_poly(F, k, parity)
        resid = u_p.dt() - k * u_p.dx().dx() - F
        scale = 1.0 + float(np.abs(F.array).max()) + float(np.abs(u_p.array).max())
        assert float(np.abs(resid.array).max()) <= 5e-14 * scale, (rows, k, parity)
        assert u_p.at_t(0.0).is_zero()


def test_duhamel_pinned_point_value():
    # F = (2 + 5t) x^2 with k = 1/4 gives
    # u_p = 2 x^2 t + 2.5 x^2 t^2 + 0.5 t^2 + (5/12) t^3
    F = Poly2(((0.0, 0.0), (0.0, 0.0), (2.0, 5.0)))
    u_p = duhamel_poly(F, 0.25, "even")
    assert abs(u_p(0.7, 0.8) - 2.1013333333333333) < 1e-15
    want = np.array(
        [
            [0.0, 0.0, 0.5, 5.0 / 12.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, 2.5, 0.0],
        ]
    )
    assert np.allclose(u_p.array, want, rtol=0.0, atol=1e-16)


def test_duhamel_parity_enforcement():
    F = Poly2(((1.0,),))  # constant, even in x
    with pytest.raises(ParityError, match="parity"):
        duhamel_poly(F, 1.0, "odd")
    G = Poly2(((0.0,), (1.0,)))  # x, odd
    with pytest.raises(ParityError, match="parity"):
        duhamel_poly(G, 1.0, "even")
    with pytest.raises(ValueError, match="parity"):
        duhamel_poly(F, 1.0, "mixed")
    with pytest.raises(ValueError, match="positive"):
        duhamel_poly(F, 0.0, "even")
    assert duhamel_poly(Poly2.zero(), 1.0, "even").is_zero()


def test_robin_trace_matches_direct_combination():
    rng = np.random.default_rng(2104)
    for _ in range(10):
        P = Poly2(tuple(map(tuple, rng.uniform(-2, 2, (4, 3)))))
        k, nu, l = (float(v) for v in rng.uniform(0.2, 2.0, 3))
        tr = robin_trace(P, k, nu, l)
        for t in (0.0, 0.4, 1.3):
            want = P(l, t) + (k / nu) * P.dx()(l, t)
            assert abs(tr(t) - want) < 1e-12
    with pytest.raises(ValueError, match="positive"):
        robin_trace(Poly2(((1.0,),)), 1.0, 0.0, 1.0)


def test_trace_constant_of_evolved_profile():
    prof = ExtensionProfile("even", (1.0, -0.5, 0.25), 0.0)
    k, nu, l = 0.25, 0.5, 1.0
    tr = robin_trace(evolve_profile(prof, k), k, nu, l)
    mu = prof.mu_poly()
    assert abs(tr(0.0) - (mu(l) + (k / nu) * mu.deriv()(l))) < 1e-14


def test_generated_matrix_pinned_entries():
    sys3 = build_coefficient_system(3, 0.25, 0.5, 1.0, "even")
    want = (
        (1.0, 2.0, 3.0, 4.0),
        (0.0, 0.5, 6.0, 22.5),
        (0.0, 0.0, 0.75, 22.5),
        (0.0, 0.0, 0.0, 1.875),
    )
    assert sys3.matrix == want
    assert sys3.order == 4
    # strictly lower entries are exact zeros for any parameters
    sys_o = build_coefficient_system(4, 0.7, 1.3, 2.0, "odd")
    arr = sys_o.array
    for j in range(5):
        for i in range(j):
            assert arr[j, i] == 0.0


def test_flux_variant_matrix_pinned_entries():
    var = flux_sign_variant_matrix(4, 0.25, 0.5, 1.0, "even")
    want = np.array(
        [
            [1.0, 0.0, -1.0, -2.0, -3.0],
            [0.0, 0.5, 0.0, -7.5, -28.0],
            [0.0, 0.0, 0.75, 0.0, -52.5],
            [0.0, 0.0, 0.0, 1.875, 0.0],
            [0.0, 0.0, 0.0, 0.0, 6.5625],
        ]
    )
    assert np.array_equal(var, want)
    # any parity but "even" used to give the odd matrix
    with pytest.raises(ValueError, match="parity"):
        flux_sign_variant_matrix(4, 0.25, 0.5, 1.0, "mixed")


def test_discrepancy_report_itemizes_differing_entries():
    sys2 = build_coefficient_system(2, 0.25, 0.5, 1.0, "even")
    lines = matrix_discrepancy_report(sys2)
    var = flux_sign_variant_matrix(2, 0.25, 0.5, 1.0, "even")
    gen = sys2.array
    differing = {(j, i) for j in range(3) for i in range(3) if gen[j, i] != var[j, i]}
    assert len(lines) == len(differing) > 0
    for j, i in differing:
        assert any(f"({j},{i})" in line for line in lines), (j, i, lines)
    # order 1 system with no flux-bearing entries agrees entry for entry
    sys0 = build_coefficient_system(0, 0.25, 0.5, 1.0, "even")
    assert matrix_discrepancy_report(sys0) == [
        "trace matrix: generated and subtracted-flux variant agree exactly"
    ]


def test_match_round_trip_reproduces_target():
    # moderate parameters, targets up to degree 4: absolute accuracy
    rng = np.random.default_rng(2105)
    for _ in range(25):
        k = float(rng.uniform(0.1, 1.0))
        nu = float(rng.uniform(0.25, 1.0))
        l = float(rng.uniform(0.5, 1.5))
        parity = "even" if rng.integers(0, 2) == 0 else "odd"
        target = Poly1(tuple(rng.uniform(-3, 3, int(rng.integers(1, 6)))), "t")
        system = build_coefficient_system(max(target.degree, 0), k, nu, l, parity)
        prof = match_boundary_polynomial(target, system)
        assert prof.parity == parity
        assert prof.warnings == ()
        assert prof.d == pytest.approx(target(0.0), abs=1e-14)
        back = robin_trace(evolve_profile(prof, k), k, nu, l)
        n = max(target.degree, back.degree) + 1
        diff = max(abs(back.coeff(j) - target.coeff(j)) for j in range(n))
        assert diff < 1e-10, (k, nu, l, parity, diff)


def test_match_round_trip_wide_domain_scaled():
    # harsher parameters and degrees: error grows with the matrix magnitude,
    # so the bound is scaled by the largest system entry
    rng = np.random.default_rng(2109)
    for _ in range(25):
        k, nu, l = (float(v) for v in rng.uniform(0.2, 2.5, 3))
        parity = "even" if rng.integers(0, 2) == 0 else "odd"
        target = Poly1(tuple(rng.uniform(-3, 3, int(rng.integers(1, 8)))), "t")
        system = build_coefficient_system(max(target.degree, 0), k, nu, l, parity)
        prof = match_boundary_polynomial(target, system)
        back = robin_trace(evolve_profile(prof, k), k, nu, l)
        n = max(target.degree, back.degree) + 1
        diff = max(abs(back.coeff(j) - target.coeff(j)) for j in range(n))
        mat = system.array
        scale = max(1.0, float(np.abs(mat).max()))
        assert diff < 1e-13 * scale, (k, nu, l, parity, diff, scale)


def test_match_validates_target_variable_and_parity():
    with pytest.raises(ValueError, match="in t"):
        match_boundary_polynomial(
            Poly1((1.0, 2.0), "x"), build_coefficient_system(1, 1.0, 1.0, 1.0, "even")
        )
    with pytest.raises(ValueError, match="parity"):
        build_coefficient_system(0, 1.0, 1.0, 1.0, "mixed")
    # zero target matches the zero profile
    prof = match_boundary_polynomial(
        Poly1((), "t"), build_coefficient_system(0, 0.25, 0.5, 1.0, "even")
    )
    assert prof.mu_poly().is_zero()
    assert prof.d == 0.0


def test_match_rejects_a_system_of_the_wrong_order():
    target = Poly1((1.0, 2.0, 3.0), "t")
    for N in (0, 1, 3):
        with pytest.raises(ValueError, match="degree 2 needs a system of order 3"):
            match_boundary_polynomial(target, build_coefficient_system(N, 0.25, 0.5, 1.0))
    with pytest.raises(ValueError, match="order 1"):
        match_boundary_polynomial(Poly1((), "t"), build_coefficient_system(2, 0.25, 0.5, 1.0))


def test_match_singular_system_raises():
    # degree-8 data at a small k against a long rod: the last pivots sit
    # below 1e-12 of their column scale for both parities
    target = Poly1((-1.589, 1.643, -0.487, 1.881, 1.637, -0.824, -0.986, -0.092, -1.599), "t")
    for parity in ("even", "odd"):
        with pytest.raises(SingularSystemError, match="pivot"):
            match_boundary_polynomial(
                target, build_coefficient_system(8, 0.054, 0.152, 5.5463, parity)
            )


def _kernel_convolution_trace(prof: ExtensionProfile, k: float, nu: float, l: float, t: float) -> float:
    # whole-line heat evolution of the (already even/odd) polynomial data,
    # evaluated by trapezoid in the similarity variable, then combined into
    # the Robin trace at x = l
    mu = prof.mu_poly()
    dmu = mu.deriv()
    h = 0.02
    z = np.arange(-13.0, 13.0 + h / 2, h)
    w = math.sqrt(4.0 * k * t)
    weights = np.exp(-z * z) / math.sqrt(math.pi)
    u = h * float(np.sum(weights * mu(l - w * z)))
    ux = h * float(np.sum(weights * dmu(l - w * z)))
    return u + (k / nu) * ux


def test_evolved_trace_matches_kernel_convolution():
    rng = np.random.default_rng(2106)
    for _ in range(12):
        k = float(rng.uniform(0.1, 1.0))
        nu = float(rng.uniform(0.3, 2.0))
        l = float(rng.uniform(0.5, 1.5))
        t = float(rng.uniform(0.1, 1.0))
        parity = "even" if rng.integers(0, 2) == 0 else "odd"
        prof = ExtensionProfile(parity, tuple(rng.uniform(-2, 2, 3)), 0.0)
        closed = robin_trace(evolve_profile(prof, k), k, nu, l)(t)
        quad = _kernel_convolution_trace(prof, k, nu, l, t)
        assert abs(closed - quad) < 1e-8, (parity, k, nu, l, t, closed, quad)
