"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single `criterion N: PASS/FAIL` line through the shared
recorder so the terminal summary shows the whole scorecard."""

import math
import time

import numpy as np

from conftest import record_criterion
from heatrobin.extension import (
    build_coefficient_system,
    duhamel_poly,
    evolve_even_poly,
    evolve_profile,
    flux_sign_variant_matrix,
    matrix_discrepancy_report,
    match_boundary_polynomial,
    robin_trace,
)
from heatrobin.polyalg import Poly1, Poly2
from heatrobin.solver import ProblemSpec, kernel_cosine_transform, solve_problem
from heatrobin.spectral import eigenvalues
from heatrobin.verify import (
    crank_nicolson_reference,
    kernel_cosine_transform_quadrature,
    residual_report,
    two_forms_check,
)


def _nr(mu0, F, T0, k=0.25, nu=0.5, l=1.0, T=1.0):
    return ProblemSpec(
        k=k, nu=nu, l=l, T=T, boundary="neumann_robin",
        mu0=Poly1(mu0, "x"), F=Poly2(F), T0=Poly1(T0, "t"),
    )


def test_criterion_1_polynomial_case_reproduced_exactly():
    start = time.perf_counter()
    sol = solve_problem(_nr((1.0, 0.0, 2.0), ((0.0, 2.0, 3.0),), (5.0, 1.0, 1.0, 1.0)))
    xs = np.linspace(0.0, 1.0, 41)
    ts = np.linspace(0.0, 1.0, 41)
    want = 2.0 * xs[None, :] ** 2 + (ts**3 + ts**2 + ts + 1.0)[:, None]
    err = float(np.max(np.abs(sol.on_grid(xs, ts) - want)))
    amp = max(abs(a) for a in sol.modal.amplitudes)
    elapsed = time.perf_counter() - start
    ok = err <= 1e-9 and amp <= 1e-10 and elapsed < 1.0
    record_criterion(
        1, ok, f"max err {err:.2e} <= 1e-9, max amplitude {amp:.2e} <= 1e-10, "
        f"{elapsed:.2f} s < 1 s"
    )
    assert ok


def test_criterion_2_source_only_case_profile_vanishes():
    sol = solve_problem(_nr((1.0, 0.0, -2.0, 0.0, 1.0), ((1.0, 2.0),), (0.0, 1.0, 1.0)))
    mu_zero = sol.profile.mu_poly().is_zero()
    arr = sol.poly_part.array
    want = np.zeros_like(arr)
    want[0, :3] = (0.0, 1.0, 1.0)
    coeff_err = float(np.max(np.abs(arr - want)))
    ok = mu_zero and coeff_err <= 1e-12
    record_criterion(
        2, ok, f"matching profile zero: {mu_zero}, "
        f"poly part vs t^2 + t coefficient error {coeff_err:.2e} <= 1e-12"
    )
    assert ok


def test_criterion_3_incompatible_corner_case_residuals():
    # this data set has corner defect 4.25, so the true solution is
    # non-smooth at (l, 0); the complex-step probe still measures the
    # residual at rounding level (1.6e-8), and the oracle's graded start damps
    # the grid modes the corner excites (gap 3.6e-4; uniform steps give 5.5e-2)
    start = time.perf_counter()
    problem = _nr((1.0, 0.0, 3.0, 1.0), ((0.0, 0.0), (0.0, 0.0), (2.0, 5.0)), (1.0, 3.0))
    sol = solve_problem(problem)
    oracle = crank_nicolson_reference(problem, 400, 400)
    rep = residual_report(sol, oracle=oracle)
    elapsed = time.perf_counter() - start
    clauses = [
        ("pde residual", rep.pde_residual_max, 1e-5),
        ("left residual", rep.bc_residual_left, 1e-6),
        ("robin residual", rep.bc_residual_right, 1e-5),
        ("oracle diff", rep.oracle_max_diff, 1e-3),
        ("runtime s", elapsed, 10.0),
    ]
    failures = [f"{n} {v:.3e} > {b:.0e}" for n, v, b in clauses if not v <= b]
    ok = not failures
    record_criterion(3, ok, "; ".join(failures) if failures else "all residual bounds met")
    assert ok, failures


def test_criterion_4_matching_matrix_diagnostic():
    system = build_coefficient_system(4, 0.25, 0.5, 1.0, "even")
    gen = system.array
    diag_want = (1.0, 0.5, 0.75, 1.875, 6.5625)
    diag_ok = tuple(gen[i, i] for i in range(5)) == diag_want
    variant = flux_sign_variant_matrix(4, 0.25, 0.5, 1.0, "even")
    differing = {
        (j, i)
        for j in range(5)
        for i in range(5)
        if gen[j, i] != variant[j, i]
    }
    lines = matrix_discrepancy_report(system)
    itemized = set()
    for line in lines:
        head = line.split(":")[0]
        j, i = head[head.index("(") + 1 : head.index(")")].split(",")
        itemized.add((int(j), int(i)))
    item_ok = itemized == differing and len(lines) == len(differing)
    ok = diag_ok and item_ok
    record_criterion(
        4, ok, f"diagonal exact: {diag_ok}, "
        f"{len(lines)} differing entries itemized, sets match: {item_ok}"
    )
    assert ok


def test_criterion_5_eigenvalue_suite():
    start = time.perf_counter()
    worst_res = 0.0
    worst_orth = 0.0
    bracket_ok = True
    gap_ok = True
    vals = (0.25, 1.0, 4.0)
    for kind in ("neumann_robin", "dirichlet_robin"):
        for k in vals:
            for nu in vals:
                for l in vals:
                    eig = eigenvalues(kind, k, nu, l, 50)
                    worst_res = max(worst_res, max(eig.residuals))
                    for (lo, hi), sigma in zip(eig.brackets, eig.roots):
                        if not lo < sigma < hi:
                            bracket_ok = False
                    s = np.array(eig.sin_at_l())
                    c = np.array(eig.cos_at_l())
                    sig = np.array(eig.roots)
                    sin_diff = np.outer(s, c) - np.outer(c, s)
                    sin_sum = np.outer(s, c) + np.outer(c, s)
                    dd = sig[:, None] - sig[None, :]
                    ds = sig[:, None] + sig[None, :]
                    np.fill_diagonal(dd, 1.0)
                    sign = 1.0 if kind == "neumann_robin" else -1.0
                    pair = 0.5 * (sin_diff / dd + sign * sin_sum / ds)
                    mask = np.triu(np.ones_like(pair, dtype=bool), 1)
                    worst_orth = max(worst_orth, float(np.max(np.abs(pair[mask]))))
                    # distance to the family's asymptotic lattice: whole
                    # multiples of pi/l for the flux-left family (which is
                    # also the nearest pi multiple), half multiples for the
                    # value-left family
                    gaps = np.array(eig.offsets) / l
                    if np.any(np.diff(gaps[5:]) >= 0.0):
                        gap_ok = False
    elapsed = time.perf_counter() - start
    ok = (
        bracket_ok
        and worst_res <= 1e-12
        and worst_orth <= 1e-10
        and gap_ok
        and elapsed < 5.0
    )
    record_criterion(
        5, ok, f"brackets hold: {bracket_ok}, max residual {worst_res:.2e} <= 1e-12, "
        f"max orthogonality {worst_orth:.2e} <= 1e-10, gaps decreasing from n=5: "
        f"{gap_ok}, {elapsed:.2f} s < 5 s"
    )
    assert ok


def test_criterion_6_kernel_transform_lemma():
    worst = 0.0
    for n in range(11):
        for k in (0.25, 1.0):
            for t in (0.1, 1.0):
                got = kernel_cosine_transform_quadrature(n, k, t)
                want = kernel_cosine_transform(n, k, t)
                worst = max(worst, abs(got - want))
    ok = worst <= 1e-10
    record_criterion(6, ok, f"max quadrature vs closed form {worst:.2e} <= 1e-10")
    assert ok


def test_criterion_7_two_solution_forms_agree():
    rng = np.random.default_rng(20240405)
    worst = 0.0
    for _ in range(20):
        f = Poly1(tuple(rng.uniform(-2.0, 2.0, 5)), "x")
        mu0 = Poly1(tuple(rng.uniform(-2.0, 2.0, 5)), "x")
        worst = max(worst, two_forms_check(f, mu0, 0.25))
    ok = worst <= 1e-8
    record_criterion(7, ok, f"max two-form gap over 20 random pairs {worst:.2e} <= 1e-8")
    assert ok


def test_criterion_8_property_suites():
    rng = np.random.default_rng(88)
    # heat-evolution identity, exact for dyadic diffusivity and integer data
    evolved = evolve_even_poly((3.0, -2.0, 1.0), 0.25)
    resid = evolved.dt() - 0.25 * evolved.dx().dx()
    evolve_exact = resid.is_zero()
    forced = duhamel_poly(Poly2(((0.0, 2.0), (0.0, 0.0), (1.0, 0.0))), 0.25, "even")
    fresid = forced.dt() - 0.25 * forced.dx().dx() - Poly2(((0.0, 2.0), (0.0, 0.0), (1.0, 0.0)))
    duhamel_exact = fresid.is_zero()

    round_trip = 0.0
    for _ in range(40):
        deg = int(rng.integers(0, 5))
        target = Poly1(tuple(rng.uniform(-2.0, 2.0, deg + 1)), "t")
        k = float(rng.uniform(0.1, 1.0))
        nu = float(rng.uniform(0.25, 1.0))
        l = float(rng.uniform(0.5, 1.5))
        parity = "even" if rng.integers(0, 2) == 0 else "odd"
        system = build_coefficient_system(max(target.degree, 0), k, nu, l, parity)
        prof = match_boundary_polynomial(target, system)
        back = robin_trace(evolve_profile(prof, k), k, nu, l)
        n = max(target.degree, back.degree) + 1
        round_trip = max(
            round_trip, max(abs(back.coeff(j) - target.coeff(j)) for j in range(n))
        )

    trace_quad = _trace_vs_kernel_quadrature()

    errs = []
    p = _nr((1.0, 0.0, 2.0), ((0.0, 2.0, 3.0),), (5.0, 1.0, 1.0, 1.0))
    for m in (100, 200, 400):
        cn = crank_nicolson_reference(p, m, m)
        mask = cn.ts >= 0.01
        exact = (
            2.0 * cn.xs[None, :] ** 2
            + (cn.ts[mask] ** 3 + cn.ts[mask] ** 2 + cn.ts[mask] + 1.0)[:, None]
        )
        errs.append(float(np.max(np.abs(cn.values[mask] - exact))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    orders_ok = all(1.8 <= o <= 2.2 for o in orders)

    lin = _linearity_gap()

    ok = (
        evolve_exact
        and duhamel_exact
        and round_trip <= 1e-10
        and trace_quad <= 1e-8
        and orders_ok
        and lin <= 1e-9
    )
    record_criterion(
        8, ok, f"evolve identity exact: {evolve_exact}, forced identity exact: "
        f"{duhamel_exact}, trace round trip {round_trip:.2e} <= 1e-10, trace vs "
        f"kernel quadrature {trace_quad:.2e} <= 1e-8, oracle orders "
        f"{orders[0]:.3f}/{orders[1]:.3f} in [1.8, 2.2], linearity {lin:.2e} <= 1e-9"
    )
    assert ok


def _trace_vs_kernel_quadrature():
    # whole-line kernel convolution of the even extension, evaluated by
    # trapezoid in the similarity variable, against the polynomial trace
    worst = 0.0
    zs = np.arange(-13.0, 13.0 + 1e-12, 0.02)
    wts = np.exp(-zs * zs) / math.sqrt(math.pi) * 0.02
    even = np.array([0.5, 0.0, -1.0, 0.0, 0.75])
    deriv = np.polynomial.polynomial.polyder(even)
    for k, nu, l, t in [
        (0.25, 0.5, 1.0, 0.3),
        (0.7, 1.2, 0.8, 0.5),
        (1.0, 0.3, 1.4, 1.0),
    ]:
        evolved = evolve_even_poly((0.5, -1.0, 0.75), k)
        poly_trace = robin_trace(evolved, k, nu, l)(t)
        args = l - math.sqrt(4.0 * k * t) * zs
        u = float(np.sum(wts * np.polynomial.polynomial.polyval(args, even)))
        ux = float(np.sum(wts * np.polynomial.polynomial.polyval(args, deriv)))
        worst = max(worst, abs(u + (k / nu) * ux - poly_trace))
    return worst


def _linearity_gap():
    a = _nr((1.0, 0.0, -2.0, 0.0, 1.0), ((1.0, 2.0),), (0.0, 1.0, 1.0))
    b = _nr((1.0, 0.0, 2.0), ((0.0, 2.0, 3.0),), (5.0, 1.0, 1.0, 1.0))
    summed = _nr(
        (2.0, 0.0, 0.0, 0.0, 1.0),
        ((1.0, 4.0, 3.0),),
        (5.0, 2.0, 2.0, 1.0),
    )
    xs = np.linspace(0.0, 1.0, 21)
    ts = np.linspace(0.0, 1.0, 11)
    apart = solve_problem(a).on_grid(xs, ts) + solve_problem(b).on_grid(xs, ts)
    together = solve_problem(summed).on_grid(xs, ts)
    return float(np.max(np.abs(apart - together)))
