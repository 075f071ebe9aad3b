"""Eigenvalue brackets, stable boundary trig, projections, series truncation,
live-mode evaluation and the point evaluator's factor caches."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import ROOT
from heatrobin import cli, solver, spectral, verify
from heatrobin.polyalg import Poly1, grid_axis, trig_poly_integral
from heatrobin.spectral import (
    KINDS,
    EigenSystem,
    ModalSeries,
    SeriesValue,
    _beyond_stored_bound,
    _damped_amplitudes,
    _live_modes,
    eigenvalues,
    evaluate_series,
    evaluate_series_info,
    fourier_coeffs,
)


def _raw_equation(kind, k, nu, l):
    # pole-free restatement of the defining condition, valid for brentq
    if kind == "neumann_robin":
        return lambda s: k * s * math.sin(s * l) - nu * math.cos(s * l)
    return lambda s: k * s * math.cos(s * l) + nu * math.sin(s * l)


def test_roots_match_independent_rootfind():
    for kind, k, nu, l in [
        ("neumann_robin", 1.0, 1.0, 1.0),
        ("dirichlet_robin", 1.0, 1.0, 1.0),
        ("neumann_robin", 0.25, 0.5, 1.0),
        ("dirichlet_robin", 0.5, 0.8, 1.3),
    ]:
        eig = eigenvalues(kind, k, nu, l, 6)
        f = _raw_equation(kind, k, nu, l)
        for sigma, (lo, hi) in zip(eig.roots, eig.brackets):
            pad = 1e-9 * (hi - lo)
            ref = brentq(f, lo + pad, hi - pad, xtol=1e-14)
            assert abs(sigma - ref) < 1e-11, (kind, sigma, ref)


def test_pinned_first_roots():
    eig = eigenvalues("neumann_robin", 1.0, 1.0, 1.0, 2)
    assert abs(eig.roots[0] - 0.8603335890193797) < 1e-12
    assert abs(eig.roots[1] - 3.4256184594817283) < 1e-12
    eig = eigenvalues("dirichlet_robin", 1.0, 1.0, 1.0, 1)
    assert abs(eig.roots[0] - 2.028757838110434) < 1e-12
    eig = eigenvalues("neumann_robin", 0.25, 0.5, 1.0, 1)
    assert abs(eig.roots[0] - 1.0768739863118035) < 1e-12


def test_bracket_and_offset_invariants():
    for kind in ("neumann_robin", "dirichlet_robin"):
        for k, nu, l in [(1.0, 1.0, 1.0), (0.25, 4.0, 0.25), (4.0, 0.25, 4.0)]:
            eig = eigenvalues(kind, k, nu, l, 30)
            assert eig.n_terms == 30
            first = 0 if kind == "neumann_robin" else 1
            assert eig.indices == tuple(range(first, first + 30))
            for m, off, sigma, res, (lo, hi) in zip(
                eig.indices, eig.offsets, eig.roots, eig.residuals, eig.brackets
            ):
                assert lo < sigma < hi
                assert 0.0 < off < math.pi / 2
                assert res <= 1e-12
                base = m * math.pi if kind == "neumann_robin" else (m - 0.5) * math.pi
                assert abs(sigma * l - (base + off)) < 1e-12 * max(1.0, sigma * l)
            assert all(b < a for a, b in zip(eig.roots[1:], eig.roots))


def _scalar_root(kind, k, nu, l, m):
    # the scalar finder the array one replaced, kept as its reference: the
    # tan form for neumann_robin, the pole-free form for dirichlet_robin,
    # bisection to width 1e-10 then up to 5 safeguarded Newton steps
    if kind == "neumann_robin":

        def h(th):
            return k * (m * math.pi + th) / l * math.tan(th) - nu

        def dh(th):
            c = math.cos(th)
            return k / l * math.tan(th) + k * (m * math.pi + th) / l / (c * c)

    else:
        base = (m - 0.5) * math.pi

        def h(ph):
            return k * (base + ph) / l * math.sin(ph) - nu * math.cos(ph)

        def dh(ph):
            s, c = math.sin(ph), math.cos(ph)
            return (k / l + nu) * s + k * (base + ph) / l * c

    lo, hi = 0.0, math.pi / 2
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    th = 0.5 * (lo + hi)
    val = h(th)
    for _ in range(5):
        cand = th - val / dh(th)
        if not (lo < cand < hi):
            break
        cval = h(cand)
        if abs(cval) >= abs(val):
            break
        th, val = cand, cval
    return th, abs(val)


def test_array_finder_repeats_the_scalar_finder():
    rng = np.random.default_rng(17)
    n = 1024
    for k, nu, l in np.exp(rng.uniform(-3.0, 3.0, (4, 3))).tolist():
        eig = eigenvalues("dirichlet_robin", k, nu, l, n)
        ref = [_scalar_root("dirichlet_robin", k, nu, l, m) for m in range(1, n + 1)]
        assert eig.offsets == tuple(th for th, _ in ref)
        assert eig.residuals == tuple(res for _, res in ref)
        roots = (((m - 0.5) * math.pi + th) / l for m, (th, _) in enumerate(ref, 1))
        assert eig.roots == tuple(roots)
        assert eig.brackets == tuple(
            ((m - 0.5) * math.pi / l, m * math.pi / l) for m in range(1, n + 1)
        )
        eig = eigenvalues("neumann_robin", k, nu, l, n)
        for m, off in enumerate(eig.offsets):
            th, _ = _scalar_root("neumann_robin", k, nu, l, m)
            assert abs(off - th) <= 4 * math.ulp(th), (k, nu, l, m)


@pytest.mark.parametrize("k", [0.25, 1.0])
@pytest.mark.parametrize("nu", [1e8, 1e10, 1e12])
def test_large_biot_roots_stay_accurate(k, nu):
    # the neumann_robin root nears the tan pole at Biot number nu*l/k; the
    # tan form lost it there (relative residual 0.99 at nu = 1e12)
    eig = eigenvalues("neumann_robin", k, nu, 1.0, 1024)
    for off, sigma, res, (lo, hi) in zip(eig.offsets, eig.roots, eig.residuals, eig.brackets):
        assert lo < sigma < hi
        assert 0.0 < off < math.pi / 2
        assert res <= 4e-16 * max(nu, k * sigma), (sigma, res)


def test_boundary_trig_tables_match_direct_evaluation():
    # moderate arguments, where plain sin/cos are reliable: the shifted
    # stable formulas must agree, signs included
    for kind in ("neumann_robin", "dirichlet_robin", "neumann_neumann"):
        eig = eigenvalues(kind, 1.0, 1.0, 1.0, 10)
        s_direct = np.sin(np.asarray(eig.roots) * eig.l)
        c_direct = np.cos(np.asarray(eig.roots) * eig.l)
        sin_l, cos_l = eig.at_l()
        assert np.max(np.abs(sin_l - s_direct)) < 1e-12
        assert np.max(np.abs(cos_l - c_direct)) < 1e-12


def test_norms_match_quadrature():
    for kind, trig in (
        ("neumann_robin", math.cos),
        ("dirichlet_robin", math.sin),
        ("neumann_neumann", math.cos),
    ):
        eig = eigenvalues(kind, 0.5, 0.8, 1.2, 5)
        norms = eig.norms()
        for n, sigma in enumerate(eig.roots):
            num, _ = quad(lambda x: trig(sigma * x) ** 2, 0.0, eig.l, limit=200)
            assert abs(norms[n] - num) < 1e-10, (kind, n)


def _pair_integral(eig: EigenSystem, n: int, m: int) -> float:
    # closed-form integral of the n-th times m-th eigenfunction over [0, l],
    # using the stable boundary trig and angle sum identities
    s, c = eig.at_l()
    sn, sm = eig.roots[n], eig.roots[m]
    sin_diff = s[n] * c[m] - c[n] * s[m]
    sin_sum = s[n] * c[m] + c[n] * s[m]
    if eig.kind == "neumann_robin":
        return 0.5 * (sin_diff / (sn - sm) + sin_sum / (sn + sm))
    return 0.5 * (sin_diff / (sn - sm) - sin_sum / (sn + sm))


def test_pair_integral_closed_form_matches_quadrature():
    for kind, trig in (("neumann_robin", math.cos), ("dirichlet_robin", math.sin)):
        eig = eigenvalues(kind, 1.0, 1.0, 1.0, 6)
        for n in range(3):
            for m in range(n + 1, 6):
                sn, sm = eig.roots[n], eig.roots[m]
                num, _ = quad(
                    lambda x: trig(sn * x) * trig(sm * x), 0.0, eig.l, limit=200
                )
                assert abs(_pair_integral(eig, n, m) - num) < 1e-12, (kind, n, m)


def test_eigenfunctions_are_orthogonal():
    for kind in ("neumann_robin", "dirichlet_robin"):
        for k, nu, l in [(0.25, 0.5, 1.0), (1.0, 4.0, 0.5)]:
            eig = eigenvalues(kind, k, nu, l, 8)
            for n in range(8):
                for m in range(n + 1, 8):
                    assert abs(_pair_integral(eig, n, m)) < 1e-10, (kind, k, nu, l, n, m)


def test_eigenvalues_validation():
    with pytest.raises(ValueError, match="kind"):
        eigenvalues("robin_robin", 1.0, 1.0, 1.0, 4)
    with pytest.raises(ValueError, match="positive"):
        eigenvalues("neumann_robin", 0.0, 1.0, 1.0, 4)
    with pytest.raises(ValueError, match="positive"):
        eigenvalues("neumann_robin", 1.0, -1.0, 1.0, 4)
    with pytest.raises(ValueError, match="n_max"):
        eigenvalues("neumann_robin", 1.0, 1.0, 1.0, 0)


def test_modal_series_validation():
    eig = eigenvalues("neumann_robin", 1.0, 1.0, 1.0, 3)
    with pytest.raises(ValueError, match="amplitude"):
        ModalSeries(eig, (1.0, 2.0))
    ser = ModalSeries(eig, (1.0, -2.0, 0.5), offset=0.25)
    assert ser.n_terms == 3
    assert ser.source == ()
    with pytest.raises(ValueError, match="source"):
        ModalSeries(eig, (1.0, -2.0, 0.5), source=(1.0, 2.0))
    assert ModalSeries(eig, (1.0, -2.0, 0.5), source=(1, 2, 3)).source == (1.0, 2.0, 3.0)
    # the family is read from the eigen kind, never passed
    assert ser.trig == "cos"
    for kind, trig in (("dirichlet_robin", "sin"), ("neumann_neumann", "cos")):
        assert ModalSeries(eigenvalues(kind, 1.0, 1.0, 1.0, 3), (1.0, 2.0, 3.0)).trig == trig


def test_series_truncation_respects_tolerance():
    eig = eigenvalues("neumann_robin", 1.0, 1.0, 1.0, 40)
    amps = tuple(0.5**n for n in range(40))
    ser = ModalSeries(eig, amps, offset=0.1)
    full = ser.grid([0.3], [0.5])[0, 0]
    info = evaluate_series_info(ser, 0.3, 0.5, tol=1e-10)
    assert info.tail_verified
    assert info.tail_bound < 1e-10
    assert abs(info.value - full) < 1e-10
    # scalar reference for the vectorised sum; the summation order
    # differs, so agreement is to a few dozen ulps of the sum's magnitude
    for t in (0.5, 0.01, 1e-3, 0.0):
        part = evaluate_series_info(ser, 0.3, t)
        ref = 0.1 + sum(
            amps[n] * math.exp(-eig.roots[n] ** 2 * t) * math.cos(eig.roots[n] * 0.3)
            for n in range(part.terms_used)
        )
        assert abs(part.value - ref) < 1e-14, t
    assert evaluate_series(ser, 0.3, 0.5) == info.value
    with pytest.raises(ValueError, match="tol"):
        evaluate_series_info(ser, 0.3, 0.5, tol=0.0)
    # a loose tol cuts no stored term: the point is the grid's value, and
    # the tail bound is the bound past the stored terms alone
    tol = 1e-2
    for kind in KINDS:
        eig = eigenvalues(kind, 1.0, 1.0, 1.0, 40)
        ser = ModalSeries(eig, tuple(0.5**n for n in range(40)), offset=0.1)
        for x, t in ((0.3, 0.5), (0.7, 1e-3), (0.3, 1e-4)):
            info = evaluate_series_info(ser, x, t, tol)
            assert abs(info.value - ser.grid([x], [t])[0, 0]) < 1e-14, (kind, t)
            assert info.terms_used == 40
            assert info.tail_bound == _beyond_stored_bound(ser, t)
            assert info.tail_verified == (info.tail_bound < tol)
        assert not evaluate_series_info(ser, 0.3, 1e-4, tol).tail_verified


def test_series_at_start_line_sums_everything():
    eig = eigenvalues("neumann_robin", 1.0, 1.0, 1.0, 5)
    ser = ModalSeries(eig, (1.0, 0.5, 0.25, 0.125, 0.0625))
    info = evaluate_series_info(ser, 0.2, 0.0)
    assert info.terms_used == 5
    assert not info.tail_verified
    assert math.isinf(info.tail_bound)
    # times before the start line are refused, as by the grids
    with pytest.raises(ValueError, match="t >= 0, got t = -0.001"):
        evaluate_series_info(ser, 0.2, -1e-3)
    zero = ModalSeries(eig, (0.0,) * 5, offset=0.7)
    zinfo = evaluate_series_info(zero, 0.2, 0.0)
    assert zinfo.value == 0.7
    assert zinfo.tail_verified
    assert zinfo.tail_bound == 0.0


def test_beyond_stored_bound_dominates_actual_tail():
    big = eigenvalues("dirichlet_robin", 1.0, 1.0, 1.0, 80)
    small = EigenSystem(
        big.kind,
        big.k,
        big.nu,
        big.l,
        big.indices[:40],
        big.offsets[:40],
        big.roots[:40],
        big.residuals[:40],
    )
    amps = tuple(1.0 / (n + 1) for n in range(40))
    ser = ModalSeries(small, amps)
    env = max(abs(a) for a in amps)
    for t in (0.05, 0.2, 1.0):
        bound = _beyond_stored_bound(ser, t)
        actual = env * sum(
            math.exp(-sig * sig * big.k * t) for sig in big.roots[40:]
        )
        assert bound >= actual, (t, bound, actual)
    assert _beyond_stored_bound(ser, 0.0) == math.inf
    zero = ModalSeries(small, (0.0,) * 40)
    assert _beyond_stored_bound(zero, 0.0) == 0.0


def test_grid_result_is_deterministic():
    eig = eigenvalues("neumann_robin", 0.25, 0.5, 1.0, 64)
    rng = np.random.default_rng(5)
    ser = ModalSeries(eig, tuple(rng.uniform(-1, 1, 64)), offset=0.3)
    xs = np.linspace(0.0, 1.0, 41)
    ts = np.linspace(0.0, 1.0, 201)
    base = ser.grid(xs, ts)
    assert base.shape == (201, 41)
    assert np.array_equal(base, ser.grid(xs, ts))
    blocks = [(s, b.copy()) for s, b in ser.row_blocks(xs, ts)]  # a block lives until the next
    assert [s for s, _ in blocks] == [0, 64, 128, 192]
    assert np.vstack([b for _, b in blocks]).tobytes() == base.tobytes()


def test_fourier_coeffs_match_quadrature():
    r = Poly1((1.0, 0.0, -1.0), "x")  # 1 - x^2
    for kind, trig in (("neumann_robin", math.cos), ("dirichlet_robin", math.sin)):
        eig = eigenvalues(kind, 1.0, 1.0, 1.0, 8)
        norms = eig.norms()
        coeffs = fourier_coeffs(eig, r)
        for n, sigma in enumerate(eig.roots):
            num, _ = quad(lambda x: (1.0 - x * x) * trig(sigma * x), 0.0, 1.0, limit=200)
            assert abs(coeffs[n] - num / norms[n]) < 1e-12, (kind, n)
    assert np.array_equal(fourier_coeffs(eig, Poly1((), "x")), np.zeros(8))
    with pytest.raises(ValueError, match="in x"):
        fourier_coeffs(eig, Poly1((1.0, 2.0), "t"))


def test_projection_reproduces_smooth_data_pointwise():
    # expanding a polynomial that already satisfies both boundary conditions
    # converges fast; 64 modes reconstruct it to a few 1e-7 in the interior
    k, nu, l = 0.25, 0.5, 1.0
    eig = eigenvalues("neumann_robin", k, nu, l, 64)
    # p(x) = (1 - x^2)^2 has p'(0) = 0; subtract its own trace mismatch to
    # keep the check focused on projection quality rather than boundary fit
    p = Poly1((1.0, 0.0, -2.0, 0.0, 1.0), "x")
    coeffs = fourier_coeffs(eig, p)
    ser = ModalSeries(eig, tuple(coeffs))
    xs = np.linspace(0.05, 0.95, 19)
    recon = ser.grid(xs, [0.0])[0]
    assert np.max(np.abs(recon - p(xs))) < 5e-5


def test_evaluate_series_agrees_with_grid():
    eig = eigenvalues("dirichlet_robin", 0.5, 0.8, 1.0, 16)
    rng = np.random.default_rng(9)
    ser = ModalSeries(eig, tuple(rng.uniform(-1, 1, 16)), offset=-0.2)
    xs = [0.1, 0.6, 1.0]
    ts = [0.05, 0.9]
    g = ser.grid(xs, ts)
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            assert abs(evaluate_series(ser, x, t, tol=1e-300) - g[i, j]) < 1e-13


def test_neumann_neumann_coefficients_polynomial_exact():
    eig = eigenvalues("neumann_neumann", 1.0, 1.0, 1.0, 6)
    coeffs = fourier_coeffs(eig, Poly1((0.0, 1.0), "x"))
    assert abs(coeffs[0] - 0.5) < 1e-15
    for n in range(1, 6):
        want = 2.0 * ((-1.0) ** n - 1.0) / (n * math.pi) ** 2
        assert abs(coeffs[n] - want) < 1e-14, n
    assert abs(coeffs[1] - (-0.40528473456935105)) < 1e-14
    assert coeffs[2] == pytest.approx(0.0, abs=1e-15)
    assert abs(coeffs[3] - (-0.045031637174372335)) < 1e-14
    num, _ = quad(lambda x: 2.0 * x * math.cos(math.pi * x), 0.0, 1.0)
    assert abs(coeffs[1] - num) < 1e-13
    with pytest.raises(ValueError, match="in x"):
        fourier_coeffs(eig, Poly1((0.0, 1.0), "t"))


def test_neumann_neumann_series_certifies_its_tail():
    # the insulated rod's roots sit exactly on the lattice n*pi/l, so the
    # geometric bound past the stored terms holds for any l
    k, l = 0.3, 2.0
    eig = eigenvalues("neumann_neumann", k, 1.0, l, 24)
    assert eig.roots == tuple(n * math.pi / l for n in range(24))
    assert eig.offsets == (0.0,) * 24 and eig.residuals == (0.0,) * 24
    ser = ModalSeries(eig, tuple(fourier_coeffs(eig, Poly1((1.0, 0.0, -0.5, 0.2), "x"))))
    xs = [0.0, 0.7, l]
    ts = [0.1, 0.5]
    g = ser.grid(xs, ts)
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            info = evaluate_series_info(ser, x, t, tol=1e-10)
            assert info.tail_verified and info.tail_bound < 1e-10, (x, t)
            assert abs(info.value - g[i, j]) < 1e-10, (x, t)
            assert abs(evaluate_series(ser, x, t, tol=1e-300) - g[i, j]) < 1e-13


def test_source_memory_is_never_certified():
    eig = eigenvalues("neumann_neumann", 0.5, 1.0, 1.0, 8)
    amps = tuple(0.5**n for n in range(8))
    forced = ModalSeries(eig, amps, source=(0.0, 0.0, 1e-3) + (0.0,) * 5)
    assert _beyond_stored_bound(forced, 1.0) == math.inf
    info = evaluate_series_info(forced, 0.4, 1.0)
    assert not info.tail_verified
    assert info.terms_used == 8
    assert abs(info.value - forced.grid([0.4], [1.0])[0, 0]) < 1e-14
    # an all-zero source is no source
    unforced = ModalSeries(eig, amps, source=(0.0,) * 8)
    assert evaluate_series_info(unforced, 0.4, 1.0).tail_verified


def _scalar_fourier_coeffs(eigen, r):
    # the per-(mode, degree) scalar loop the array pass replaced, kept as
    # its reference
    (sin_l, cos_l), norms = eigen.at_l(), eigen.norms()
    out = np.zeros(eigen.n_terms)
    for n, sigma in enumerate(eigen.roots):
        if sigma == 0.0:
            out[n] = r.integral(0.0, eigen.l) / norms[n]
            continue
        acc = 0.0
        for m, c in enumerate(r.coeffs):
            if c != 0.0:
                acc += c * trig_poly_integral(
                    m, sigma, eigen.l, eigen.trig, sin_l=float(sin_l[n]), cos_l=float(cos_l[n])
                )
        out[n] = acc / norms[n]
    return out


def test_fourier_coeffs_repeat_the_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(23)
    for kind in ("neumann_robin", "dirichlet_robin", "neumann_neumann"):
        for degree in (0, 3, 8):
            k, nu, l = np.exp(rng.uniform(-2.0, 2.0, 3)).tolist()
            coeffs = rng.normal(size=degree + 1)
            coeffs[1:-1:2] = 0.0  # zero coefficients between the non-zero ones
            r = Poly1(tuple(coeffs), "x")
            eig = eigenvalues(kind, k, nu, l, 1024)
            got = fourier_coeffs(eig, r)
            assert got.tobytes() == _scalar_fourier_coeffs(eig, r).tobytes(), (kind, degree)
            if kind == "neumann_neumann":
                assert eig.roots[0] == 0.0
                assert got[0] == r.integral(0.0, l) / l


def _tuple_reference(series, x, t, tol):
    # point evaluation and grid rebuilt from the tuples on every call
    sig = np.asarray(series.eigen.roots)
    rates = sig * sig * series.eigen.k
    trig = np.cos if series.trig == "cos" else np.sin

    def weights(ts):
        decay = np.exp(-np.outer(ts, rates))
        out = decay * np.asarray(series.amplitudes)
        if series.source:
            with np.errstate(divide="ignore", invalid="ignore"):
                memory = np.where(rates > 0.0, (1.0 - decay) / rates, ts[:, None])
            out = out + memory * np.asarray(series.source)
        return out

    t = max(t, 0.0)
    value = series.offset + float(weights(np.array([t]))[0] @ trig(sig * x))
    bound = _beyond_stored_bound(series, t)
    xs, ts = np.linspace(0.0, series.eigen.l, 7), np.linspace(0.0, 0.3, 5)
    grid = weights(ts) @ trig(np.outer(sig, xs)) + series.offset
    return (value, series.n_terms, bound, bound < tol), grid


def test_modal_series_arrays_are_built_once_and_read_only():
    rng = np.random.default_rng(41)
    eig = eigenvalues("neumann_robin", 0.25, 0.5, 1.0, 64)
    amps = tuple(rng.uniform(-1.0, 1.0, 64).tolist())
    ser = ModalSeries(eig, amps, offset=0.3)
    twin = ModalSeries(eig, amps, offset=0.3)
    assert ser == twin and hash(ser) == hash(twin) == hash((eig, amps, 0.3, ()))
    assert repr(ser) == f"ModalSeries(eigen={eig!r}, amplitudes={amps!r}, offset=0.3, source=())"
    for values in (ser._roots, ser._rates, ser._amps, ser._source):
        with pytest.raises(ValueError, match="read-only"):
            values[:1] = 0.0
    halved = dataclasses.replace(ser, amplitudes=tuple(a / 2 for a in amps))
    fresh = ModalSeries(eig, tuple(a / 2 for a in amps), offset=0.3)
    assert halved._envelope == fresh._envelope == max(abs(a) for a in amps) / 2
    for x, t in ((0.2, 0.01), (0.9, 0.5), (0.4, 0.0)):
        assert evaluate_series_info(halved, x, t) == evaluate_series_info(fresh, x, t)
    xs, ts = [0.1, 0.7], [0.0, 0.2]
    assert halved.grid(xs, ts).tobytes() == fresh.grid(xs, ts).tobytes()
    rod = eigenvalues("neumann_neumann", 0.5, 1.0, 1.0, 32)
    forced = ModalSeries(
        rod, tuple(rng.normal(size=32)), offset=-0.1, source=tuple(rng.normal(size=32))
    )
    dr = eigenvalues("dirichlet_robin", 0.5, 0.8, 1.3, 48)
    points = ((0.0, 0.0, 1e-10), (0.35, 0.02, 1e-10), (1.0, 0.4, 1e-6), (0.6, 2.0, 1e-300))
    for s in (ser, halved, forced, ModalSeries(dr, tuple(rng.normal(size=48)))):
        assert s._envelope == max(abs(a) for a in s.amplitudes)
        for x, t, tol in points:
            want, grid = _tuple_reference(s, x, t, tol)
            info = evaluate_series_info(s, x, t, tol)
            got = (info.value, info.terms_used, info.tail_bound, info.tail_verified)
            assert got == want and np.array(got).tobytes() == np.array(want).tobytes()
        xs, ts = np.linspace(0.0, s.eigen.l, 7), np.linspace(0.0, 0.3, 5)
        assert s.grid(xs, ts).tobytes() == grid.tobytes()


def _full_weights(series, ts):
    # _damped_amplitudes with the exp taken over every stored mode
    rates = series._rates
    decay = np.exp(-(ts[:, None] * rates))
    out = decay * series._amps
    if series.source:
        with np.errstate(divide="ignore", invalid="ignore"):
            memory = np.where(rates > 0.0, (1.0 - decay) / rates, ts[:, None])
        out = out + memory * series._source
    return out


def _full_row_blocks(series, xs, ts):
    # ModalSeries.row_blocks with the trig matrix of every stored mode
    xs, ts = grid_axis(xs), grid_axis(ts)
    tmat = (np.cos if series.trig == "cos" else np.sin)(np.outer(series._roots, xs))
    for s in range(0, ts.size, 64):
        yield s, _full_weights(series, ts[s : s + 64]) @ tmat + series.offset


def _full_value(series, x, t, tol=1e-10):
    # evaluate_series_info with the exp and trig of every stored mode
    terms = _full_weights(series, np.array([t]))[0]
    trig = (np.cos if series.trig == "cos" else np.sin)(series._roots * x)
    bound = _beyond_stored_bound(series, t)
    return SeriesValue(series.offset + float(terms @ trig), series.n_terms, bound, bound < tol)


def _seeded_series(rng, kind, n_max, source=False):
    k, nu, l = np.exp(rng.uniform(-2.0, 2.0, 3)).tolist()
    amps = tuple(rng.normal(size=n_max).tolist())
    memory = tuple(rng.normal(size=n_max).tolist()) if source else ()
    return ModalSeries(eigenvalues(kind, k, nu, l, n_max), amps, source=memory)


def _death_times(series):
    # 0 and, for a few modes, times just inside and past the point where
    # exp(-lam_n t) underflows to 0.0 (lam_n t = 745.13...)
    rates = series._rates[series._rates > 0.0]
    picks = rates[np.unique(np.linspace(0, rates.size - 1, 4).astype(int))] if rates.size else []
    return [0.0, *sorted(c / r for r in picks for c in (700.5, 745.0, 745.13, 745.2, 746.0, 800.0))]


@pytest.mark.parametrize("n_max", [1, 2, 17, 64, 300, 1024])
@pytest.mark.parametrize("kind, source", [(k, False) for k in KINDS] + [("neumann_neumann", True)])
def test_live_modes_repeat_the_full_sum_bit_for_bit(kind, source, n_max):
    rng = np.random.default_rng(n_max)
    ser = _seeded_series(rng, kind, n_max, source)
    l = ser.eigen.l
    xs = np.linspace(0.0, l, 41)
    deaths = np.array(_death_times(ser))
    tss = [
        deaths,
        deaths[::-1],
        np.linspace(0.01, 1.0, 41),  # the residual probe's window
        np.geomspace(deaths[1] if deaths.size > 1 else 1e-3, 10.0, 150),  # three blocks
        np.array([]),
    ]
    shift = 1e-3 * l * np.exp(1j * math.pi / 4)
    for ts in tss:
        # the residual probe's complex steps, and an empty x axis
        axes = [(xs, ts), (xs, ts + 1e-30j), (xs + shift, ts), (xs - shift, ts), (xs + 1e-30j, ts)]
        axes.append(([], ts))
        for x_axis, t_axis in axes:
            want = [(s, b.tobytes()) for s, b in _full_row_blocks(ser, x_axis, t_axis)]
            assert [(s, b.tobytes()) for s, b in ser.row_blocks(x_axis, t_axis)] == want
            grid = ser.grid(x_axis, t_axis)
            assert grid.shape == (len(t_axis), len(x_axis))
            assert grid.tobytes() == b"".join(b for _, b in want)
    for t in deaths.tolist() + [1e-6, 0.3]:
        for x in (0.0, 0.37 * l, l):
            got, want = evaluate_series_info(ser, x, t), _full_value(ser, x, t)
            assert got == want and got.value.hex() == want.value.hex(), (x, t)
    with pytest.raises(ValueError, match="t >= 0, got t = -1.0"):
        evaluate_series_info(ser, 0.0, -1.0)


def test_every_dropped_mode_has_a_zero_damping_factor():
    rng = np.random.default_rng(19)
    dropped = 0
    for trial in range(120):
        ser = _seeded_series(rng, KINDS[trial % 3], int(rng.integers(1, 1025)))
        # the smallest time lies where some mode dies, or anywhere in 1e-7..10
        t0 = rng.choice([*_death_times(ser)[1:], 10.0 ** rng.uniform(-7.0, 1.0)])
        ts = t0 * (1.0 + 10.0 ** rng.uniform(-12.0, 3.0, size=int(rng.integers(0, 40))))
        ts = np.append(ts, t0)
        rng.shuffle(ts)
        for axis in (ts, ts + 1e-30j):
            live = _live_modes(ser, axis)
            assert 0 <= live <= ser.n_terms
            assert not np.exp(-np.outer(axis, ser._rates[live:])).any(), (trial, live)
            dropped += ser.n_terms - live
    assert dropped > 0
    # every mode is live with a source, at t <= 0, at a NaN time and without times
    ser = _seeded_series(rng, "neumann_robin", 64)
    for ts in ([0.0, 1.0], [-1.0, 1.0], [1.0, math.nan], []):
        assert _live_modes(ser, grid_axis(ts)) == 64
    forced = _seeded_series(rng, "neumann_neumann", 64, source=True)
    assert _live_modes(forced, grid_axis([1.0])) == 64
    assert _live_modes(ser, grid_axis([1.0])) < 64


@pytest.mark.parametrize("kind, source", [(k, False) for k in KINDS] + [("neumann_neumann", True)])
def test_every_evaluator_refuses_a_negative_time(kind, source):
    # one rule for the point and the grids, with the solution's message and
    # no RuntimeWarning on the way (the grid gave nan with two of them, the
    # point evaluator the start line's value); NaN and +inf are refused too
    # (they gave nan, or a RuntimeWarning at t = inf)
    ser = _seeded_series(np.random.default_rng(24), kind, 64, source)
    x = 0.5 * ser.eigen.l
    calls = [
        lambda t: evaluate_series_info(ser, x, t),
        lambda t: evaluate_series(ser, x, t),
        lambda t: ser.grid([x], [0.0, t]),
        lambda t: next(ser.row_blocks([x], [0.0, t])),
        lambda t: ser.grid([x], [t + 1e-20j]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            for t in (-0.1, -1e-300, -math.inf, math.nan, math.inf):
                message = rf"the solution is defined for t >= 0, got t = \(?{re.escape(repr(t))}"
                with pytest.raises(ValueError, match=message):
                    call(t)
        # the insulated rod's two forms meet the same rule through its series grid
        rod = (Poly1((0.3, -0.2, 0.5), "x"), Poly1((1.0, 0.0, -1.0), "x"))
        with pytest.raises(ValueError, match="the solution is defined for t >= 0, got t = inf"):
            verify.two_forms_check(*rod, 0.25, ts=[math.inf])
        # -0.0 is the start line
        assert evaluate_series_info(ser, x, -0.0) == evaluate_series_info(ser, x, 0.0)
        assert ser.grid([x], [-0.0]).tolist() == ser.grid([x], [0.0]).tolist()


def test_library_sessions_repeat_the_full_sum_bit_for_bit(perfbench, tmp_path, monkeypatch):
    # the seed-0 library_spectral sessions' probe reports and lattice values
    gen, _ = perfbench
    ops = gen.cycle_ops("library_spectral", 0, ROOT, tmp_path)
    assert len(ops) == 8

    def session(op):
        cfg = cli.load_config(str(op.config))
        p = cfg.problem
        sol = solver.solve_problem(p, n_max=cfg.n_max, tol=cfg.tol)
        assert _live_modes(sol.modal, np.array([cfg.t_min])) < sol.modal.n_terms
        rep = dataclasses.asdict(verify.residual_report(sol, t_min=cfg.t_min))
        values = [sol(x, t, cfg.tol) for x, t in gen.session_lattice(p.l, p.T)]
        return [v.hex() if isinstance(v, float) else v for v in [*rep.values(), *values]]

    got = [session(op) for op in ops]
    monkeypatch.setattr(ModalSeries, "row_blocks", _full_row_blocks)
    monkeypatch.setattr(spectral, "evaluate_series_info", _full_value)
    assert [session(op) for op in ops] == got


def _uncached_value(series, x, t, tol=1e-10):
    # evaluate_series_info without the factor caches: both rows built afresh
    # at every call, exp and trig over the live modes only, zeros past them
    ts = np.array([t])
    live = _live_modes(series, ts)
    terms = _damped_amplitudes(series, ts, live)[0]
    trig = np.zeros(series.n_terms, dtype=np.result_type(series._roots, x))
    trig[:live] = (np.cos if series.trig == "cos" else np.sin)(series._roots[:live] * x)
    bound = _beyond_stored_bound(series, t)
    return SeriesValue(series.offset + float(terms @ trig), series.n_terms, bound, bound < tol)


def _info_bits(info):
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(info))


def _fresh(series):
    # the same series with empty caches
    return ModalSeries(series.eigen, series.amplitudes, series.offset, series.source)


@pytest.mark.parametrize("n_max", [64, 1024])
@pytest.mark.parametrize(
    "kind, source", [("neumann_robin", False), ("dirichlet_robin", False), ("neumann_neumann", True)]
)
def test_cached_factor_rows_repeat_the_uncached_evaluator_bit_for_bit(kind, source, n_max):
    rng = np.random.default_rng(n_max + len(kind))
    base = _seeded_series(rng, kind, n_max, source)
    l = base.eigen.l
    xs = [-0.0, 0.0, *(l * rng.uniform(0.0, 1.0, 6)).tolist(), l]
    # the times where modes die: one whole cached trig row meets weight rows
    # that are zero past different live counts
    ts = [-0.0, 0.0, *_death_times(base)[1:], *np.geomspace(1e-6, 10.0, 5).tolist()]
    t_major = [(x, t) for t in ts for x in xs]
    x_major = [(x, t) for x in xs for t in ts]
    shuffled = [t_major[i] for i in rng.permutation(len(t_major))]
    for order in (t_major, t_major[::-1], x_major, shuffled):
        ser = _fresh(base)
        for x, t in order + order[::5]:  # then repeats that hit both caches
            for point in ((x, t), (np.float64(x), np.float64(t))):
                got, want = evaluate_series_info(ser, *point), _uncached_value(ser, *point)
                assert _info_bits(got) == _info_bits(want), point
        assert 0 < len(ser._weight_rows) <= 64 and 0 < len(ser._trig_rows) <= 64
    # a negative, NaN or infinite time is refused before any row is made
    ser = _fresh(base)
    for t in (-0.5, np.float64(-0.5), math.nan, np.float64(math.nan), math.inf):
        with pytest.raises(ValueError, match=f"t >= 0, got t = {float(t)!r}"):
            evaluate_series_info(ser, 0.3 * l, t)
    assert not ser._trig_rows and not ser._weight_rows
    # a complex x or t is refused before any row is made: the grids take them
    ser = _fresh(base)
    x0 = 0.3 * l
    for x, t in ((x0 + 1e-30j, 0.2), (x0 + 0.1j, 0.2), (x0, 0.2 + 0j), (x0, np.complex64(0.2))):
        with pytest.raises(ValueError, match="on_grid"):
            evaluate_series_info(ser, x, t)
    assert not ser._trig_rows and not ser._weight_rows


def test_factor_caches_hold_at_most_64_rows():
    rng = np.random.default_rng(64)
    ser = _seeded_series(rng, "dirichlet_robin", 1024)
    points = list(zip(rng.uniform(0.0, ser.eigen.l, 200).tolist(), rng.uniform(0.0, 1.0, 200).tolist()))
    sizes = []
    for x, t in points:
        got = evaluate_series_info(ser, x, t)
        assert _info_bits(got) == _info_bits(_uncached_value(ser, x, t))
        sizes.append((len(ser._weight_rows), len(ser._trig_rows)))
    assert max(map(max, sizes)) == 64
    # a full cache starts over: 200 distinct keys fill it three times
    assert sizes[63] == (64, 64) and sizes[64] == (1, 1)
    # other objects keep their own caches
    assert not _fresh(ser)._weight_rows and not _fresh(ser)._trig_rows
