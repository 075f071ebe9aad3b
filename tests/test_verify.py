"""Finite-difference oracle, residual report, and transform quadrature checks."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import traced
from heatrobin import verify
from heatrobin.polyalg import Poly1, Poly2
from heatrobin.solver import ProblemSpec, solve_problem
from heatrobin.spectral import ModalSeries
from heatrobin.verify import (
    GridSolution,
    _substeps,
    _transform_factors,
    _tridiagonal_solver,
    crank_nicolson_reference,
    gaussian_cosine_transform,
    kernel_cosine_transform_quadrature,
    residual_report,
    threshold_rows,
    two_forms_check,
)
from heatrobin.solver import kernel_cosine_transform


def _ex2_problem():
    return ProblemSpec(
        k=0.25, nu=0.5, l=1.0, T=1.0, boundary="neumann_robin",
        mu0=Poly1((1.0, 0.0, 2.0), "x"),
        F=Poly2(((0.0, 2.0, 3.0),)),
        T0=Poly1((5.0, 1.0, 1.0, 1.0), "t"),
    )


def _dr_problem():
    return ProblemSpec(
        k=0.5, nu=0.8, l=1.0, T=1.0, boundary="dirichlet_robin",
        mu0=Poly1((0.0, 1.0), "x"),
        F=Poly2(((0.0, 0.0), (1.0, 1.0))),
        T0=Poly1((1.625, 1.0), "t"),
    )


def _ex2_exact(xs, ts):
    return 2.0 * np.asarray(xs)[None, :] ** 2 + (
        np.asarray(ts) ** 3 + np.asarray(ts) ** 2 + np.asarray(ts) + 1.0
    )[:, None]


def test_grid_solution_shape_checked():
    xs = np.linspace(0, 1, 5)
    ts = np.linspace(0, 1, 3)
    g = GridSolution(xs, ts, np.zeros((3, 5)))
    assert g.values.shape == (3, 5)
    with pytest.raises(ValueError, match="shape"):
        GridSolution(xs, ts, np.zeros((5, 3)))


def _thomas(lower, diag, upper, rhs):
    # one factor-and-solve through the oracle's tridiagonal solver
    return np.array(_tridiagonal_solver(lower, diag, upper)(np.asarray(rhs, float).tolist()))


def test_thomas_matches_dense_solver():
    rng = np.random.default_rng(7)
    for n in (3, 8, 40):
        lower = rng.uniform(-1, 1, n)
        upper = rng.uniform(-1, 1, n)
        diag = 3.0 + rng.uniform(0, 1, n)
        rhs = rng.uniform(-5, 5, n)
        full = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        got = _thomas(lower.copy(), diag.copy(), upper.copy(), rhs.copy())
        assert np.allclose(got, np.linalg.solve(full, rhs), rtol=0, atol=1e-12)


def _numpy_thomas(lower, diag, upper, rhs):
    # the sequential Thomas sweeps, one element at a time: the reference for
    # the oracle's doubling scans, which group the same sums differently
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


def _scan_gap(lower, diag, upper, rhs):
    # distance from the sequential sweeps, in units of eps * max|x|
    want = _numpy_thomas(lower, diag, upper, rhs)
    got = _thomas(lower, diag, upper, rhs)
    return np.max(np.abs(got - want)) / (np.finfo(float).eps * np.max(np.abs(want)))


def _cn_system(n, lam, left, beta=0.5):
    # the oracle's implicit matrix at theta = 1/2, as in crank_nicolson_reference
    a = 0.5 * lam
    lower, diag, upper = np.full(n, -a), np.full(n, 1.0 + 2.0 * a), np.full(n, -a)
    if left == "dirichlet_robin":
        diag[0], upper[0] = 1.0, 0.0
    else:
        upper[0] = -2.0 * a
    lower[-1] = -2.0 * a
    diag[-1] = 1.0 + 2.0 * a + 2.0 * a * beta
    return lower, diag, upper


def test_thomas_scans_agree_with_the_numpy_loop():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 9, 401, 1001):
        lower = rng.uniform(-1, 1, n)
        upper = rng.uniform(-1, 1, n)
        diag = 3.0 + rng.uniform(0, 1, n)
        rhs = rng.uniform(-5, 5, n)
        assert _scan_gap(lower, diag, upper, rhs) <= 64, n


@pytest.mark.parametrize("left", ["neumann_robin", "dirichlet_robin"])
def test_thomas_scans_agree_on_oracle_systems(left):
    # lam = k tau / h^2 from a graded start's first substeps to M = 10000
    rng = np.random.default_rng(12)
    for n in (9, 1001, 10001):
        for lam in (1e-4, 1e-2, 1.0, 1e2, 1e4, 3e6):
            rhs = rng.uniform(-5, 5, n)
            assert _scan_gap(*_cn_system(n, lam, left), rhs) <= 64, (n, lam)


def test_reference_grid_validation():
    p = _ex2_problem()
    with pytest.raises(ValueError, match="at least 8"):
        crank_nicolson_reference(p, 4, 100)
    with pytest.raises(ValueError, match="at least 8"):
        crank_nicolson_reference(p, 100, 4)


def test_reference_preserves_steady_state():
    p = ProblemSpec(
        k=0.7, nu=1.3, l=2.0, T=1.0, boundary="neumann_robin",
        mu0=Poly1((3.7,), "x"), F=Poly2(()), T0=Poly1((3.7,), "t"),
    )
    cn = crank_nicolson_reference(p, 16, 16)
    assert np.max(np.abs(cn.values - 3.7)) < 1e-12


def test_reference_second_order_on_smooth_data():
    p = _ex2_problem()
    errs = []
    for m in (100, 200, 400):
        cn = crank_nicolson_reference(p, m, m)
        mask = cn.ts >= 0.01
        exact = _ex2_exact(cn.xs, cn.ts[mask])
        errs.append(float(np.max(np.abs(cn.values[mask] - exact))))
    assert abs(errs[0] - 2.4018653744573015e-05) < 1e-16
    assert abs(errs[1] - 6.0046747121234034e-06) < 1e-16
    assert abs(errs[2] - 1.5011690361887986e-06) < 1e-16
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert 1.8 < o < 2.2, orders


def _ex3_problem():
    return ProblemSpec(
        k=0.25, nu=0.5, l=1.0, T=1.0, boundary="neumann_robin",
        mu0=Poly1((1.0, 0.0, 3.0, 1.0), "x"),
        F=Poly2(((0.0, 0.0), (0.0, 0.0), (2.0, 5.0))),
        T0=Poly1((1.0, 3.0), "t"),
    )


def test_graded_oracle_factors_each_step_size_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return _tridiagonal_solver(*args)

    monkeypatch.setattr(verify, "_tridiagonal_solver", counted)
    K = 40
    crank_nicolson_reference(_ex3_problem(), 10, K)
    ts = np.linspace(0.0, 1.0, K + 1)
    sizes = {(tau, theta) for iv in _substeps(ts, 1.0 / K, graded=True) for *_, tau, theta in iv}
    assert len(calls) == len(sizes) > 50


@pytest.mark.parametrize("problem", [_ex3_problem, _dr_problem])
def test_blocked_oracle_diff_is_the_whole_grid_maximum(problem):
    # t_min = 0.17 keeps oracle rows 34 to 200, so the series' blocks (64, 64
    # and 39 rows) start in the middle of the oracle's 64-row blocks
    sol = solve_problem(problem())
    oracle = crank_nicolson_reference(problem(), 30, 200)
    mask = oracle.ts >= 0.17 - 1e-12
    whole = np.max(np.abs(sol.on_grid(oracle.xs, oracle.ts[mask]) - oracle.values[mask]))
    assert residual_report(sol, t_min=0.17, oracle=oracle).oracle_max_diff == float(whole)


def test_oracle_and_its_comparison_hold_one_grid():
    # at M = 100 and K = 900 a grid is 0.73 MB; keeping every factorization
    # and comparing whole grids took 2.1 grids and 1.8 MB more than at K = 100
    sol = solve_problem(_ex3_problem())
    grid_bytes = 901 * 101 * 8
    oracle, cn_peak = traced(lambda: crank_nicolson_reference(_ex3_problem(), 100, 900))
    assert cn_peak < 1.25 * grid_bytes, cn_peak / grid_bytes
    coarse = crank_nicolson_reference(_ex3_problem(), 100, 100)
    _, coarse_peak = traced(lambda: residual_report(sol, oracle=coarse))
    _, fine_peak = traced(lambda: residual_report(sol, oracle=oracle))
    assert fine_peak - coarse_peak < grid_bytes / 4, (coarse_peak, fine_peak)


def test_report_on_polynomial_case():
    p = _ex2_problem()
    sol = solve_problem(p)
    cn = crank_nicolson_reference(p, 400, 400)
    rep = residual_report(sol, oracle=cn)
    assert rep.pde_residual_max <= 1e-11
    assert rep.bc_residual_left == 0.0
    assert rep.bc_residual_right <= 1e-14
    assert rep.initial_l2_error == 0.0
    assert rep.oracle_max_diff == pytest.approx(1.5011690361887986e-06, rel=1e-12, abs=0)
    assert rep.compatibility_defect == 0.0


def test_report_on_value_left_case():
    sol = solve_problem(_dr_problem())
    cn = crank_nicolson_reference(_dr_problem(), 400, 400)
    rep = residual_report(sol, oracle=cn)
    assert rep.pde_residual_max <= 1e-11
    assert rep.bc_residual_left == 0.0
    assert rep.bc_residual_right <= 1e-14
    assert rep.initial_l2_error == pytest.approx(5.2516085880994615e-09, rel=1e-9)
    assert rep.oracle_max_diff == pytest.approx(1.246264381693507e-06, rel=1e-12, abs=0)
    assert len(rep.diagnostics) == 6


def test_probe_measures_a_known_residual():
    # adding x^2 t to a solution leaves the residual x^2 - 2 k t, whose
    # largest size on [0,1] x [0.01,1] is 1 - 0.5 * 0.01 at the corner
    sol = solve_problem(_ex2_problem())
    spoiled = dataclasses.replace(sol, poly_part=sol.poly_part + Poly2(((0.0,), (0.0,), (0.0, 1.0))))
    rep = residual_report(spoiled)
    assert abs(rep.pde_residual_max - 0.995) < 1e-12


def test_probe_measures_known_boundary_residuals():
    # adding x + x^3 to a solution leaves u_x(0, t) = 1 at the flux end and
    # k (1 + 3 l^2) + nu (l + l^3) = 2 at the Robin end (k = 0.25, nu = 0.5,
    # l = 1); the probe's complex steps read both to rounding
    sol = solve_problem(_ex2_problem())
    x_plus_x3 = Poly2(((0.0,), (1.0,), (0.0,), (1.0,)))
    spoiled = dataclasses.replace(sol, poly_part=sol.poly_part + x_plus_x3)
    rep = residual_report(spoiled)
    assert abs(rep.bc_residual_left - 1.0) < 1e-12
    assert abs(rep.bc_residual_right - 2.0) < 1e-12


def test_graded_start_schedule():
    dt = 1.0 / 400
    ts = np.linspace(0.0, 1.0, 401)
    intervals = list(_substeps(ts, dt, graded=True))
    assert len(intervals) == 400
    first = intervals[0]
    assert first[0] == (0.0, dt * 1e-6, dt * 1e-6, 1.0)
    assert all(theta == 0.5 for *_, theta in first[1:] + [s for iv in intervals[1:] for s in iv])
    for n, substeps in enumerate(intervals):
        assert substeps[-1][1] == ts[n + 1]
        for (t0, t1, step, _), nxt in zip(substeps, substeps[1:] + [None]):
            assert step <= 0.3 * t0 * (1 + 1e-12) or t0 == 0.0
            assert abs(t1 - t0 - step) <= 1e-15
            if nxt is not None:
                assert nxt[0] == t1
    uniform = list(_substeps(ts, dt, graded=False))
    assert uniform == [[(ts[n], ts[n + 1], dt, 0.5)] for n in range(400)]


def _linspace_substeps(ts, dt, graded):
    # the schedule with every later output interval split by np.linspace,
    # one-piece intervals included
    intervals = list(_substeps(ts, dt, graded))
    for n in range(1 if graded else 0, ts.size - 1):
        pieces = math.ceil(dt / (0.3 * ts[n])) if graded else 1
        marks = np.linspace(ts[n], ts[n + 1], pieces + 1)
        intervals[n] = [(a, b, dt / pieces, 0.5) for a, b in zip(marks[:-1], marks[1:])]
    return intervals


@pytest.mark.parametrize("K", [8, 200, 1000])
@pytest.mark.parametrize("graded", [False, True])
def test_one_step_intervals_repeat_the_linspace_schedule(K, graded):
    ts = np.linspace(0.0, 1.0, K + 1)
    got = list(_substeps(ts, 1.0 / K, graded))
    want = _linspace_substeps(ts, 1.0 / K, graded)
    assert [np.array(iv).tobytes() for iv in got] == [np.array(iv).tobytes() for iv in want]
    assert sum(len(iv) == 1 for iv in got) >= K - 4


def test_report_is_deterministic_across_runs():
    sol = solve_problem(_ex2_problem())
    a = residual_report(sol)
    b = residual_report(solve_problem(_ex2_problem()))
    for f in dataclasses.fields(a):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


def test_initial_l2_matches_quadrature_when_series_is_dropped():
    # with the modal amplitudes zeroed the report's initial misfit is the
    # full norm of the unmatched initial residue (1 - x^2)^2
    sol = solve_problem(
        ProblemSpec(
            k=0.25, nu=0.5, l=1.0, T=1.0, boundary="neumann_robin",
            mu0=Poly1((1.0, 0.0, -2.0, 0.0, 1.0), "x"),
            F=Poly2(((1.0, 2.0),)),
            T0=Poly1((0.0, 1.0, 1.0), "t"),
        )
    )
    gutted = dataclasses.replace(
        sol,
        modal=ModalSeries(sol.modal.eigen, (0.0,) * sol.modal.eigen.n_terms),
    )
    rep = residual_report(gutted)
    want, _ = quad(lambda x: (1.0 - x * x) ** 4, 0.0, 1.0)
    assert abs(rep.initial_l2_error - math.sqrt(want)) < 1e-10


def test_threshold_rows_bounds():
    sol = solve_problem(_ex2_problem())
    rep = residual_report(sol, oracle=crank_nicolson_reference(_ex2_problem(), 100, 100))
    rows = threshold_rows(rep, "neumann_robin")
    by_name = {name: (value, bound, ok) for name, value, bound, ok in rows}
    assert by_name["pde_residual_max"][1] == 1e-5
    assert by_name["bc_residual_left"][1] == 1e-6
    assert by_name["bc_residual_right"][1] == 1e-5
    assert by_name["oracle_max_diff"][1] == 1e-3
    assert all(ok for _, ok in ((n, row[2]) for n, row in by_name.items()))
    rows_dr = threshold_rows(rep, "dirichlet_robin")
    assert dict((r[0], r[2]) for r in rows_dr)["bc_residual_left"] == 1e-10
    rep_no = residual_report(sol)
    assert all(r[0] != "oracle_max_diff" for r in threshold_rows(rep_no, "neumann_robin"))


def test_gaussian_cosine_transform_closed_form():
    for omega in (0.0, 0.5, 2.0, 6.0, 12.0):
        assert abs(gaussian_cosine_transform(omega) - math.exp(-omega**2 / 4.0)) < 1e-14
    for omega in (20.0, 40.0, 100.0):
        assert abs(gaussian_cosine_transform(omega)) < 1e-10
    # an array shares the step of its largest |omega|: same values, one call
    omegas = np.array([[0.0, -0.5, 2.0], [6.0, 12.0, 100.0]])
    got = gaussian_cosine_transform(omegas)
    assert got.shape == omegas.shape
    assert np.max(np.abs(got - np.exp(-omegas**2 / 4.0))) < 1e-14
    assert type(gaussian_cosine_transform(np.float64(2.0))) is float


def test_kernel_quadrature_matches_closed_form():
    for n in range(11):
        for k in (0.25, 1.0):
            for t in (0.1, 1.0):
                got = kernel_cosine_transform_quadrature(n, k, t)
                want = kernel_cosine_transform(n, k, t) if n else 1.0
                assert abs(got - want) < 1e-10, (n, k, t)
    with pytest.raises(ValueError, match="must be positive"):
        kernel_cosine_transform_quadrature(1, 1.0, 0.0)
    with pytest.raises(ValueError, match="must be positive"):
        kernel_cosine_transform_quadrature(1, 0.0, 1.0)


def test_two_forms_agree_for_smooth_data():
    f = Poly1((0.3, -0.2, 0.5), "x")
    mu0 = Poly1((1.0, 0.0, -1.0), "x")
    worst = two_forms_check(f, mu0, 0.25)
    assert worst < 1e-10
    xs = np.linspace(0.1, 0.9, 4)
    ts = np.linspace(0.2, 0.8, 3)
    small = two_forms_check(f, mu0, 0.25, xs=xs, ts=ts, n_max=16)
    assert small < 1e-8


def _quartic_pair(rng):
    return Poly1(tuple(rng.uniform(-2.0, 2.0, 5)), "x"), Poly1(tuple(rng.uniform(-2.0, 2.0, 5)), "x")


def test_two_forms_check_rejects_empty_or_negative_ts():
    f = Poly1((0.3, -0.2, 0.5), "x")
    mu0 = Poly1((1.0, 0.0, -1.0), "x")
    for ts in ([], [0.1, -0.01]):
        with pytest.raises(ValueError, match="ts"):
            two_forms_check(f, mu0, 0.25, ts=ts)
    with pytest.raises(ValueError, match="xs"):
        two_forms_check(f, mu0, 0.25, xs=[])
    # t = 0 and a lone mean mode are valid edges, not errors
    assert two_forms_check(f, mu0, 0.25, ts=[0.0, 0.5, 1.0]) <= 1e-14
    assert two_forms_check(f, mu0, 0.25, n_max=1) <= 1e-14


def test_transform_factors_pin_decay_and_memory():
    # The decay is gaussian_cosine_transform itself: each cos argument
    # Omega z carries a rounding error of about eps * Omega z, so near
    # Omega = 800 (k = 4, n = 63) it reads up to 3.8e-15, hence 5e-15 there.
    worst_decay = worst_memory = 0.0
    for k in (0.25, 1.0, 4.0):
        lam = k * (np.arange(1, 64) * math.pi) ** 2
        for t in np.linspace(0.01, 1.0, 11):
            decay, memory = _transform_factors(lam, float(t))
            worst_decay = max(worst_decay, np.max(np.abs(decay - np.exp(-lam * t))))
            worst_memory = max(worst_memory, np.max(np.abs(memory + np.expm1(-lam * t) / lam)))
    assert worst_decay <= 5e-15
    assert worst_memory <= 1e-15


def test_two_forms_check_detects_a_perturbed_rate(monkeypatch):
    f, mu0 = _quartic_pair(np.random.default_rng(8))
    assert two_forms_check(f, mu0, 0.25) <= 1e-13
    solve = verify.solve_neumann_neumann
    monkeypatch.setattr(
        verify, "solve_neumann_neumann", lambda f, mu0, k, n: solve(f, mu0, k * (1.0 + 1e-9), n)
    )
    assert two_forms_check(f, mu0, 0.25) > 1e-11


@pytest.mark.parametrize("k", [1.0, 4.0])
def test_two_forms_agree_at_larger_diffusivity(k):
    rng = np.random.default_rng(int(k))
    for _ in range(3):
        f, mu0 = _quartic_pair(rng)
        assert two_forms_check(f, mu0, k, n_max=64) <= 1e-13
