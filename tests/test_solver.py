"""Problem validation, the matching pipeline, and the insulated-rod series."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from conftest import traced
from heatrobin import extension, solver
from heatrobin.polyalg import Poly1, Poly2
from heatrobin.solver import (
    ProblemSpec,
    kernel_cosine_transform,
    solve_neumann_neumann,
    solve_problem,
)
from heatrobin.spectral import (
    ModalSeries,
    _damped_amplitudes,
    _live_modes,
    eigenvalues,
    evaluate_series,
)
from heatrobin.verify import crank_nicolson_reference


def _nr_problem(mu0, F, T0, k=0.25, nu=0.5, l=1.0, T=1.0):
    return ProblemSpec(
        k=k, nu=nu, l=l, T=T, boundary="neumann_robin",
        mu0=Poly1(mu0, "x"), F=Poly2(F), T0=Poly1(T0, "t"),
    )


EX1 = dict(mu0=(1.0, 0.0, -2.0, 0.0, 1.0), F=((1.0, 2.0),), T0=(0.0, 1.0, 1.0))
EX2 = dict(mu0=(1.0, 0.0, 2.0), F=((0.0, 2.0, 3.0),), T0=(5.0, 1.0, 1.0, 1.0))
EX3 = dict(mu0=(1.0, 0.0, 3.0, 1.0), F=((0.0, 0.0), (0.0, 0.0), (2.0, 5.0)), T0=(1.0, 3.0))


def test_problem_spec_validation():
    good = _nr_problem(**EX2)
    assert good.k == 0.25
    with pytest.raises(ValueError, match="k must be"):
        _nr_problem(**EX2, k=0.0)
    with pytest.raises(ValueError, match="T must be"):
        _nr_problem(**EX2, T=-1.0)
    with pytest.raises(ValueError, match="boundary"):
        ProblemSpec(k=1, nu=1, l=1, T=1, boundary="robin",
                    mu0=Poly1((1.0,), "x"), F=Poly2(()), T0=Poly1((), "t"))
    with pytest.raises(ValueError, match="mu0"):
        ProblemSpec(k=1, nu=1, l=1, T=1, boundary="neumann_robin",
                    mu0=Poly1((0.0, 1.0), "t"), F=Poly2(()), T0=Poly1((), "t"))
    with pytest.raises(ValueError, match="T0"):
        ProblemSpec(k=1, nu=1, l=1, T=1, boundary="neumann_robin",
                    mu0=Poly1((1.0,), "x"), F=Poly2(()), T0=Poly1((0.0, 1.0), "x"))
    with pytest.raises(ValueError, match="unit length"):
        ProblemSpec(k=1, nu=1, l=2.0, T=1, boundary="neumann_neumann",
                    mu0=Poly1((1.0,), "x"), F=Poly2(()), T0=Poly1((), "t"))


def test_compatibility_defect_formula():
    p = _nr_problem(**EX2)
    mu0 = p.mu0
    want = p.k * mu0.deriv()(p.l) + p.nu * (mu0(p.l) - p.T0(0.0))
    assert p.compatibility_defect() == pytest.approx(want, abs=1e-15)
    # tuned surroundings level that cancels the corner exactly
    pd = ProblemSpec(
        k=0.5, nu=0.8, l=1.0, T=1.0, boundary="dirichlet_robin",
        mu0=Poly1((0.0, 1.0), "x"),
        F=Poly2(((0.0, 0.0), (1.0, 1.0))),
        T0=Poly1((1.625, 1.0), "t"),
    )
    assert pd.compatibility_defect() == 0.0


def test_solve_rejects_neumann_neumann():
    p = ProblemSpec(k=1, nu=1, l=1.0, T=1, boundary="neumann_neumann",
                    mu0=Poly1((1.0,), "x"), F=Poly2(()), T0=Poly1((), "t"))
    with pytest.raises(ValueError, match="solve_neumann_neumann"):
        solve_problem(p)


def test_polynomial_exact_case_reproduced():
    # data manufactured from u = 2x^2 + t^3 + t^2 + t + 1, which the
    # polynomial part must capture with no modal correction
    sol = solve_problem(_nr_problem(**EX2))
    xs = np.linspace(0.0, 1.0, 21)
    ts = np.linspace(0.0, 1.0, 21)
    want = 2.0 * xs[None, :] ** 2 + (ts**3 + ts**2 + ts + 1.0)[:, None]
    got = sol.on_grid(xs, ts)
    assert np.max(np.abs(got - want)) < 1e-9
    assert max(abs(a) for a in sol.modal.amplitudes) < 1e-10
    pad = np.zeros((3, 4))
    pad[0] = (1.0, 1.0, 1.0, 1.0)
    pad[2, 0] = 2.0
    assert np.allclose(sol.poly_part.array, pad, rtol=0.0, atol=1e-12)


def test_source_only_case_has_zero_profile():
    # data manufactured from u = t^2 + t: the particular solution consumes
    # the whole boundary target, leaving a zero matching profile
    sol = solve_problem(_nr_problem(**EX1))
    assert sol.profile.mu_poly().is_zero()
    arr = sol.poly_part.array
    want = np.zeros_like(arr)
    want[0, :3] = (0.0, 1.0, 1.0)
    assert np.allclose(arr, want, rtol=0.0, atol=1e-12)


def test_constant_offset_vanishes_when_matching_is_complete():
    rng = np.random.default_rng(31)
    for _ in range(10):
        mu0 = tuple(rng.uniform(-2, 2, 3))
        F = (tuple(rng.uniform(-2, 2, 2)),)
        T0 = tuple(rng.uniform(-2, 2, 3))
        sol = solve_problem(_nr_problem(mu0, F, T0))
        assert sol.modal.offset == 0.0


def test_solve_builds_one_matching_system(monkeypatch):
    calls = []
    build = extension.build_coefficient_system

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(extension, "build_coefficient_system", counted)
    monkeypatch.setattr(solver, "build_coefficient_system", counted)
    for ex in (EX1, EX2):
        calls.clear()
        solve_problem(_nr_problem(**ex))
        assert len(calls) == 1


def test_point_evaluation_matches_grid():
    sol = solve_problem(_nr_problem(**EX1), n_max=48)
    for x, t in [(0.0, 0.2), (0.7, 0.01), (1.0, 1.0)]:
        g = sol.on_grid([x], [t])[0, 0]
        assert abs(sol(x, t) - g) < 2e-10


def test_row_blocks_are_computed_in_two_reused_buffers():
    # beside the (n_terms, M+1) trig matrix, a block of rows fills one 64-row
    # buffer for the series and one for the polynomial part; fresh
    # temporaries for every block peaked at 3.19 MB on this 1001 x 1001 grid
    sol = solve_problem(_nr_problem(**EX3))
    xs = ts = np.linspace(0.0, 1.0, 1001)

    def drain():
        for _ in sol.row_blocks(xs, ts):
            pass

    _, peak = traced(drain)
    assert peak < (sol.modal.n_terms + 3 * 64) * xs.size * 8, peak
    blocks = sol.row_blocks(xs, ts)
    (_, first), (_, second) = next(blocks), next(blocks)
    assert np.shares_memory(first, second)


def test_corner_mismatch_raises_diagnostic():
    # EX1 and EX2 data are corner-compatible by construction
    for ex in (EX1, EX2):
        compat = solve_problem(_nr_problem(**ex))
        assert not any("corner" in d for d in compat.diagnostics)
        assert compat.problem.compatibility_defect() == 0.0
    mismatched = solve_problem(
        _nr_problem((1.0, 0.0, 3.0, 1.0), ((2.0, 5.0),), (1.0, 3.0))
    )
    assert abs(mismatched.problem.compatibility_defect() - 4.25) < 1e-14
    assert any("inconsistent at the corner" in d for d in mismatched.diagnostics)
    assert not any("trace matrix" in d for d in mismatched.diagnostics)


def test_value_left_solution_decays_without_forcing():
    p = ProblemSpec(
        k=0.5, nu=0.8, l=1.0, T=1.0, boundary="dirichlet_robin",
        mu0=Poly1((0.0, 1.0), "x"), F=Poly2(()), T0=Poly1((), "t"),
    )
    sol = solve_problem(p)
    assert sol.modal.trig == "sin"
    xs = np.linspace(0.0, 1.0, 41)
    ts = np.linspace(0.05, 1.0, 20)
    mx = np.max(np.abs(sol.on_grid(xs, ts)), axis=1)
    assert np.all(np.diff(mx) < 0.0)
    assert abs(mx[0] - 0.7024926728601689) < 1e-12
    assert abs(mx[-1] - 0.06357007600268398) < 1e-12


def test_value_left_pipeline_profile_pinned():
    pd = ProblemSpec(
        k=0.5, nu=0.8, l=1.0, T=1.0, boundary="dirichlet_robin",
        mu0=Poly1((0.0, 1.0), "x"),
        F=Poly2(((0.0, 0.0), (1.0, 1.0))),
        T0=Poly1((1.625, 1.0), "t"),
    )
    sol = solve_problem(pd)
    assert np.allclose(
        sol.profile.coeffs,
        (0.9636423405654175, 0.06837606837606838, -0.03333333333333333),
        rtol=0.0,
        atol=1e-14,
    )
    assert sol.profile.parity == "odd"


def test_solution_is_linear_in_the_data():
    p1 = _nr_problem(**EX1)
    p2 = _nr_problem(**EX2)
    psum = _nr_problem(
        mu0=tuple(np.polynomial.polynomial.polyadd(EX1["mu0"], EX2["mu0"])),
        F=(tuple(np.polynomial.polynomial.polyadd(EX1["F"][0], EX2["F"][0])),),
        T0=tuple(np.polynomial.polynomial.polyadd(EX1["T0"], EX2["T0"])),
    )
    xs = np.linspace(0.0, 1.0, 21)
    ts = np.linspace(0.0, 1.0, 11)
    apart = solve_problem(p1).on_grid(xs, ts) + solve_problem(p2).on_grid(xs, ts)
    together = solve_problem(psum).on_grid(xs, ts)
    assert np.max(np.abs(apart - together)) < 1e-9


def test_cosine_series_closed_form_terms():
    # the insulated rod's series: a decaying and a source-memory amplitude per
    # mode, the memory of the n = 0 mode growing linearly in t
    eig = eigenvalues("neumann_neumann", 0.5, 1.0, 1.0, 2)
    ser = ModalSeries(eig, (0.2, 0.3), source=(0.4, 0.5))
    x, t = 0.3, 0.7
    rate = math.pi**2 * 0.5
    want = (
        0.2
        + 0.4 * t
        + (0.3 * math.exp(-rate * t) + 0.5 * (1.0 - math.exp(-rate * t)) / rate)
        * math.cos(math.pi * x)
    )
    assert abs(evaluate_series(ser, x, t) - want) < 1e-14
    g = ser.grid([x], [t])
    assert g.shape == (1, 1)
    assert abs(g[0, 0] - want) < 1e-14
    with pytest.raises(ValueError, match="positive"):
        solve_neumann_neumann(Poly1((), "x"), Poly1((1.0,), "x"), 0.0)


def test_insulated_rod_conserves_mean_and_flux():
    # mu0 = x^2 (3 - 2x) has zero slope at both ends; no source, so the
    # spatial mean stays at its initial value 1/2
    mu0 = Poly1((0.0, 0.0, 3.0, -2.0), "x")
    ser = solve_neumann_neumann(Poly1((), "x"), mu0, 0.5, n_max=48)
    assert isinstance(ser, ModalSeries) and ser.eigen.kind == "neumann_neumann"
    xs = np.linspace(0.0, 1.0, 201)
    for t in (0.05, 0.4, 2.0):
        row = ser.grid(xs, [t])[0]
        mean = np.trapezoid(row, xs)
        assert abs(mean - 0.5) < 1e-8, t
        h = 1e-5
        edge = ser.grid([0.0, h, 1.0 - h, 1.0], [t])[0]
        assert abs(edge[1] - edge[0]) / h < 1e-3
        assert abs(edge[3] - edge[2]) / h < 1e-3
    # a constant source raises the mean linearly in time
    ser2 = solve_neumann_neumann(Poly1((2.0,), "x"), mu0, 0.5, n_max=48)
    row = ser2.grid(xs, [1.0])[0]
    assert abs(np.trapezoid(row, xs) - (0.5 + 2.0)) < 1e-8
    with pytest.raises(ValueError, match="n_max"):
        solve_neumann_neumann(Poly1((), "x"), mu0, 0.5, n_max=0)


def test_insulated_rod_matches_finite_difference():
    mu0 = Poly1((0.0, 0.0, 3.0, -2.0), "x")
    f = Poly1((1.0, -1.0), "x")
    ser = solve_neumann_neumann(f, mu0, 0.5, n_max=64)
    p = ProblemSpec(
        k=0.5, nu=1.0, l=1.0, T=1.0, boundary="neumann_neumann",
        mu0=mu0, F=Poly2(tuple((c,) for c in f.coeffs)), T0=Poly1((), "t"),
    )
    cn = crank_nicolson_reference(p, 200, 200)
    mask = cn.ts >= 0.05
    mine = ser.grid(cn.xs, cn.ts[mask])
    diff = float(np.max(np.abs(mine - np.array(list(cn))[mask])))
    assert diff < 5e-4, diff


def test_kernel_transform_closed_form():
    assert kernel_cosine_transform(0, 1.0, 0.5) == 1.0
    assert abs(kernel_cosine_transform(2, 0.25, 0.1) - math.exp(-4 * math.pi**2 * 0.025)) < 1e-15
    with pytest.raises(ValueError, match="t must be"):
        kernel_cosine_transform(1, 1.0, 0.0)
    with pytest.raises(ValueError, match="k must be"):
        kernel_cosine_transform(1, -1.0, 0.5)


def _uncached_point(sol, x, t):
    # SemiAnalyticSolution.__call__ without the factor caches: polyval2d for
    # the polynomial part (Poly2's Horner has its bits) and both series rows
    # built afresh, exp and trig over the live modes only
    series = sol.modal
    ts = np.array([max(t, 0.0)])
    live = _live_modes(series, ts)
    terms = _damped_amplitudes(series, ts, live)[0]
    trig = np.zeros(series.n_terms)
    trig[:live] = (np.cos if series.trig == "cos" else np.sin)(series._roots[:live] * x)
    modal = series.offset + float(terms @ trig)
    return float(npoly.polyval2d(x, t, sol.poly_part.array)) + modal


def _dr_problem():
    return ProblemSpec(
        k=0.5, nu=0.8, l=1.3, T=2.0, boundary="dirichlet_robin",
        mu0=Poly1((0.0, 1.0, -0.5), "x"), F=Poly2(((0.0,), (1.0, 2.0))), T0=Poly1((0.5, 1.0), "t"),
    )


@pytest.mark.parametrize("n_max", [64, 1024])
@pytest.mark.parametrize("boundary", ["neumann_robin", "dirichlet_robin"])
def test_cached_point_values_repeat_the_uncached_evaluator_bit_for_bit(boundary, n_max):
    problem = _nr_problem(**EX2) if boundary == "neumann_robin" else _dr_problem()
    rng = np.random.default_rng(n_max)
    l, T = problem.l, problem.T
    xs = [-0.0, 0.0, *(l * rng.uniform(0.0, 1.0, 7)).tolist(), l]
    ts = [-0.0, 0.0, *(T * np.geomspace(1e-6, 1.0, 12)).tolist()]
    t_major = [(x, t) for t in ts for x in xs]
    x_major = [(x, t) for x in xs for t in ts]
    shuffled = [t_major[i] for i in rng.permutation(len(t_major))]
    for order in (t_major, t_major[::-1], x_major, shuffled):
        sol = solve_problem(problem, n_max=n_max)  # fresh caches
        for x, t in order + order[::3]:
            for point in ((x, t), (np.float64(x), np.float64(t))):
                got, want = sol(*point), _uncached_point(sol, *point)
                assert got.hex() == want.hex(), point
    # a NaN time is refused before any row is made
    sol = solve_problem(problem, n_max=n_max)
    for t in (math.nan, np.float64(math.nan)):
        with pytest.raises(ValueError, match="t >= 0, got t = nan"):
            sol(0.3 * l, t)
    assert not sol.modal._weight_rows and not sol.modal._trig_rows


def test_point_caches_hold_at_most_64_rows():
    sol = solve_problem(_dr_problem(), n_max=256)
    rng = np.random.default_rng(7)
    xs, ts = rng.uniform(0.0, 1.3, 200).tolist(), rng.uniform(0.0, 2.0, 200).tolist()
    for x, t in zip(xs, ts):
        assert sol(x, t).hex() == _uncached_point(sol, x, t).hex()
        caches = (sol.poly_part._columns[1], sol.modal._weight_rows, sol.modal._trig_rows)
        assert all(0 < len(c) <= 64 for c in caches)


def test_a_complex_point_is_rejected():
    # a point value is real; the complex continuation is on_grid's
    sol = solve_problem(_dr_problem())
    for x, t in ((0.5 + 0.1j, 0.2), (0.5 + 0j, 0.2), (0.5, 0.2 + 1e-20j), (np.complex128(0.5), 0.2)):
        with pytest.raises(ValueError, match="real x and t.*on_grid"):
            sol(x, t)
    assert sol.on_grid([0.5 + 0.1j], [0.2]).dtype == complex


def test_negative_times_are_rejected():
    # ex3's data: at t = -0.5 the point evaluator gave the polynomial part
    # plus the series clamped to t = 0 (-2.07), the grid nan with warnings
    sol = solve_problem(_nr_problem((1.0, 0.0, 3.0, 1.0), ((0.0, 0.0), (0.0, 0.0), (2.0, 5.0)), (1.0, 3.0)))
    calls = [
        lambda t: sol(0.5, t),
        lambda t: sol.on_grid([0.5], [0.0, t]),
        lambda t: next(sol.row_blocks([0.5], [0.0, t])),
        lambda t: sol.on_grid([0.5], [t + 1e-20j]),
    ]
    for call in calls:
        for t in (-0.5, -1e-3):
            with pytest.raises(ValueError, match=f"t >= 0, got t = \\(?{t!r}"):
                call(t)
    # -0.0 is the start line
    assert sol(0.5, -0.0) == sol(0.5, 0.0)
    start = sol.on_grid([0.5], [0.0]).tolist()
    assert sol.on_grid([0.5], [-0.0]).tolist() == next(sol.row_blocks([0.5], [-0.0]))[1].tolist() == start
