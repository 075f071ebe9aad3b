"""Polynomial containers and the exact special integrals."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

from heatrobin.polyalg import (
    Poly1,
    Poly2,
    half_factorial_coeff,
    trig_poly_integral,
)


def test_poly1_trims_trailing_zeros_and_reports_degree():
    p = Poly1((1.0, 2.0, 0.0, 0.0))
    assert p.coeffs == (1.0, 2.0)
    assert p.degree == 1
    assert not p.is_zero()
    z = Poly1((0.0, 0.0))
    assert z.coeffs == ()
    assert z.degree == -1
    assert z.is_zero()
    assert z(3.7) == 0.0
    assert np.array_equal(z(np.ones(4)), np.zeros(4))


def test_poly1_rejects_unknown_variable():
    with pytest.raises(ValueError, match="variable"):
        Poly1((1.0,), "y")


def test_poly1_variable_mixing_rules():
    px = Poly1((0.0, 1.0), "x")
    pt = Poly1((0.0, 1.0), "t")
    with pytest.raises(ValueError, match="cannot combine"):
        px + pt
    with pytest.raises(ValueError, match="cannot combine"):
        px * pt
    # constants are variable-agnostic
    const = Poly1((2.0,), "t")
    assert (px + const).variable == "x"
    assert (px + const).coeffs == (2.0, 1.0)


def test_poly1_arithmetic_matches_pointwise():
    rng = np.random.default_rng(20240105)
    pts = np.linspace(-2.0, 2.0, 9)
    for _ in range(40):
        a = Poly1(tuple(rng.uniform(-3, 3, rng.integers(0, 6))))
        b = Poly1(tuple(rng.uniform(-3, 3, rng.integers(0, 6))))
        for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
            got = op(a, b)(pts)
            want = op(a(pts), b(pts))
            assert np.max(np.abs(got - want)) < 1e-12 * (1.0 + np.max(np.abs(want)))


def test_poly1_scalar_operations_both_sides():
    p = Poly1((1.0, -2.0, 4.0))
    x = 0.73
    assert abs((p + 2.0)(x) - (p(x) + 2.0)) < 1e-15
    assert abs((2.0 + p)(x) - (p(x) + 2.0)) < 1e-15
    assert abs((p - 2.0)(x) - (p(x) - 2.0)) < 1e-15
    assert abs((2.0 - p)(x) - (2.0 - p(x))) < 1e-15
    assert abs((p * 3.0)(x) - 3.0 * p(x)) < 1e-15
    assert abs((3.0 * p)(x) - 3.0 * p(x)) < 1e-15
    assert (-p).coeffs == (-1.0, 2.0, -4.0)


def test_poly1_calculus_against_quadrature():
    rng = np.random.default_rng(77)
    for _ in range(10):
        p = Poly1(tuple(rng.uniform(-2, 2, 5)))
        a, b = sorted(rng.uniform(-1.5, 1.5, 2))
        exact = p.integral(a, b)
        num, _ = quad(p, a, b)
        assert abs(exact - num) < 1e-11
        # antideriv then deriv is the identity
        back = p.antideriv().deriv()
        assert np.allclose(back.coeffs, p.coeffs, atol=1e-14)
    assert Poly1(()).deriv().is_zero()
    assert Poly1(()).antideriv().is_zero()


def test_poly1_coeff_accessor_is_total():
    p = Poly1((5.0, 7.0))
    assert p.coeff(0) == 5.0
    assert p.coeff(1) == 7.0
    assert p.coeff(2) == 0.0
    assert p.coeff(-1) == 0.0


def test_poly2_monomial_and_restrictions():
    q = Poly2(((0.0, 0.0), (0.0, 0.0), (0.0, 3.0)))  # 3 x^2 t
    assert q(2.0, 0.5) == pytest.approx(6.0, abs=1e-15)
    rx = q.at_t(0.5)  # 1.5 x^2
    assert rx.variable == "x"
    assert np.allclose(rx.coeffs, (0.0, 0.0, 1.5))
    rt = q.at_x(2.0)  # 12 t
    assert rt.variable == "t"
    assert np.allclose(rt.coeffs, (0.0, 12.0))
    assert float(q(2.0, 0.5)) == pytest.approx(6.0, abs=1e-15)


def _bits(value):
    """float.hex of every entry, with the shape: equal only for equal bits."""
    return np.shape(value), [float(v).hex() for v in np.ravel(value)]


def _sweep_coeffs(rng, n):
    """n random coefficients over six decades, some of them 0.0 or -0.0."""
    c = rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-3, 3, n)
    c[rng.random(n) < 0.2] = 0.0
    c[rng.random(n) < 0.2] = -0.0
    return c


def _sweep_points(rng):
    """Python floats (zeros of both signs, negatives), numpy scalars, a list
    and arrays of one and two dimensions."""
    xs = rng.uniform(-3, 3, 6)
    return [0.0, -0.0, *xs.tolist(), np.float64(xs[0]), xs[1:4].tolist(), xs, xs.reshape(2, 3)]


def test_poly1_call_repeats_polyval_bit_for_bit():
    rng = np.random.default_rng(16)
    polys = [Poly1((-0.0, 0.0, 1.0)), Poly1((1.0, -0.0, -2.0), "t")]
    polys += [Poly1(tuple(_sweep_coeffs(rng, n))) for n in range(1, 10) for _ in range(4)]
    for p in polys:
        for v in _sweep_points(rng):
            assert _bits(p(v)) == _bits(npoly.polyval(v, p.coeffs or (0.0,))), (p, v)


def test_poly2_call_repeats_polyval2d_bit_for_bit():
    rng = np.random.default_rng(16)
    polys = [Poly2.zero(), Poly2(((-0.0, 1.0), (0.0, -0.0), (2.0, 0.0)))]
    polys += [
        Poly2(tuple(map(tuple, _sweep_coeffs(rng, r * c).reshape(r, c))))
        for r in range(1, 6)
        for c in range(1, 6)
    ]
    for p in polys:
        xs, ts = _sweep_points(rng), _sweep_points(rng)
        # like with like, then the nine scalars against each other reversed
        for x, t in [*zip(xs, ts), *zip(xs[:9], ts[8::-1])]:
            assert _bits(p(x, t)) == _bits(npoly.polyval2d(x, t, p.array)), (p, x, t)


def test_poly2_grid_matches_pointwise():
    rng = np.random.default_rng(11)
    xs = np.linspace(0.0, 1.0, 7)
    ts = np.linspace(0.0, 2.0, 5)
    for _ in range(10):
        p = Poly2(tuple(map(tuple, rng.uniform(-2, 2, (4, 3)))))
        g = p.grid(xs, ts)
        assert g.shape == (ts.size, xs.size)
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                assert abs(g[i, j] - p(x, t)) < 1e-13


def test_poly2_derivatives_shift_coefficients():
    p = Poly2(((1.0, 2.0), (3.0, 4.0), (5.0, 6.0)))  # rows are x powers
    dx = p.dx()
    assert dx.coeffs == ((3.0, 4.0), (10.0, 12.0))
    dt = p.dt()
    assert dt.coeffs == ((2.0,), (4.0,), (6.0,))
    assert Poly2(((1.0,),)).dx().is_zero()
    assert Poly2(((1.0,),)).dt().is_zero()


def test_poly2_arithmetic_matches_pointwise():
    rng = np.random.default_rng(12)
    pts = [(0.3, 0.1), (1.2, 0.8), (-0.5, 2.0)]
    for _ in range(20):
        a = Poly2(tuple(map(tuple, rng.uniform(-2, 2, (3, 2)))))
        b = Poly2(tuple(map(tuple, rng.uniform(-2, 2, (2, 4)))))
        for x, t in pts:
            assert abs((a + b)(x, t) - (a(x, t) + b(x, t))) < 1e-12
            assert abs((a - b)(x, t) - (a(x, t) - b(x, t))) < 1e-12
            assert abs((a + 1.5)(x, t) - (a(x, t) + 1.5)) < 1e-12
            assert abs((2.0 * a)(x, t) - 2.0 * a(x, t)) < 1e-12


def test_half_factorial_coeff_exact_values():
    assert half_factorial_coeff(0) == Fraction(1)
    assert half_factorial_coeff(1) == Fraction(1, 2)
    assert half_factorial_coeff(2) == Fraction(3, 4)
    assert half_factorial_coeff(3) == Fraction(15, 8)
    assert half_factorial_coeff(4) == Fraction(105, 16)
    for j in range(1, 13):
        assert half_factorial_coeff(j) == Fraction(2 * j - 1, 2) * half_factorial_coeff(j - 1)
    with pytest.raises(ValueError):
        half_factorial_coeff(-1)


def test_gaussian_moment_closed_form_and_quadrature():
    # half_factorial_coeff(j) * s**j is the normalized even Gaussian moment
    def moment(j, s):
        return float(half_factorial_coeff(j)) * s**j

    assert moment(1, 1.0) == 0.5
    assert moment(2, 2.0) == 3.0
    assert moment(3, 0.5) == 0.234375
    for j, s in [(0, 1.0), (1, 1.0), (2, 2.0), (3, 0.5), (4, 1.3)]:
        num, _ = quad(
            lambda y: y ** (2 * j) * math.exp(-y * y / s) / math.sqrt(math.pi * s),
            -np.inf,
            np.inf,
        )
        assert abs(moment(j, s) - num) < 1e-12 * max(1.0, num)


def test_trig_poly_integral_pinned_values():
    # int_0^1 x cos(pi x) dx = -2/pi^2
    got = trig_poly_integral(1, math.pi, 1.0, "cos")
    assert abs(got - (-2.0 / math.pi**2)) < 1e-15
    assert abs(got - (-0.20264236728467555)) < 1e-15
    # int_0^1 x^2 sin(x) dx = cos(1) + 2 sin(1) - 2
    got = trig_poly_integral(2, 1.0, 1.0, "sin")
    assert abs(got - (math.cos(1.0) + 2.0 * math.sin(1.0) - 2.0)) < 1e-15
    assert abs(got - 0.22324427548393277) < 1e-15
    # m = 0 base cases
    assert abs(trig_poly_integral(0, 2.0, 1.5, "cos") - math.sin(3.0) / 2.0) < 1e-15
    assert abs(trig_poly_integral(0, 2.0, 1.5, "sin") - (1.0 - math.cos(3.0)) / 2.0) < 1e-15


def test_trig_poly_integral_matches_quadrature():
    rng = np.random.default_rng(314)
    for _ in range(60):
        m = int(rng.integers(0, 13))
        sigma = float(rng.uniform(0.5, 40.0))
        l = float(rng.uniform(0.3, 10.0))
        kind = "cos" if rng.integers(0, 2) == 0 else "sin"
        trig = math.cos if kind == "cos" else math.sin
        num, _ = quad(lambda x: x**m * trig(sigma * x), 0.0, l, limit=400)
        exact = trig_poly_integral(m, sigma, l, kind)
        # tolerance scaled by the integral's natural size l^(m+1)/(m+1)
        tol = 1e-11 * max(1.0, l ** (m + 1) / (m + 1))
        assert abs(exact - num) < tol, (m, sigma, l, kind, exact, num)


def test_trig_poly_integral_boundary_overrides():
    # sigma*l an exact pi multiple: feeding the exact boundary trig removes
    # the rounding of sin(sigma*l) near zero
    l = 1.0
    for n in (1, 2, 5):
        sigma = n * math.pi
        sgn = 1.0 if n % 2 == 0 else -1.0
        a = trig_poly_integral(3, sigma, l, "cos", sin_l=0.0, cos_l=sgn)
        b = trig_poly_integral(3, sigma, l, "cos")
        assert abs(a - b) < 1e-14
        num, _ = quad(lambda x: x**3 * math.cos(sigma * x), 0.0, l, limit=200)
        assert abs(a - num) < 1e-12


def test_trig_poly_integral_validation():
    with pytest.raises(ValueError, match="kind"):
        trig_poly_integral(1, 1.0, 1.0, "tan")
    with pytest.raises(ValueError, match="nonnegative"):
        trig_poly_integral(-1, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        trig_poly_integral(1, 0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        trig_poly_integral(1, 1.0, -2.0)


def test_trig_poly_integral_array_sigma_keeps_every_bit():
    # the array recurrence repeats the scalar one entry by entry, with the
    # supplied boundary trig and with its own
    rng = np.random.default_rng(2718)
    sigma = rng.uniform(0.05, 3300.0, 257)
    l = 1.7
    sin_l, cos_l = np.sin(sigma * l), np.cos(sigma * l)
    for kind in ("cos", "sin"):
        for m in range(9):
            got = trig_poly_integral(m, sigma, l, kind, sin_l=sin_l, cos_l=cos_l)
            ref = [
                trig_poly_integral(m, s, l, kind, sin_l=float(a), cos_l=float(b))
                for s, a, b in zip(sigma.tolist(), sin_l, cos_l)
            ]
            assert got.tobytes() == np.array(ref).tobytes(), (kind, m)
            own = [trig_poly_integral(m, s, l, kind) for s in sigma.tolist()]
            assert trig_poly_integral(m, sigma, l, kind).tobytes() == np.array(own).tobytes()
            # a list gives the array call's bits
            listed = trig_poly_integral(m, sigma.tolist(), l, kind, sin_l=sin_l, cos_l=cos_l)
            assert listed.tobytes() == got.tobytes(), (kind, m)
            listed = trig_poly_integral(m, sigma, l, kind, sin_l=sin_l.tolist(), cos_l=cos_l.tolist())
            assert listed.tobytes() == got.tobytes(), (kind, m)
            assert trig_poly_integral(m, sigma.tolist(), l, kind).tobytes() == np.array(own).tobytes()
    assert type(trig_poly_integral(3, 2.0, l)) is float
    bad = sigma.copy()
    bad[100] = 0.0
    with pytest.raises(ValueError, match="positive"):
        trig_poly_integral(2, bad, l, sin_l=sin_l, cos_l=cos_l)
    bad[100] = -1.0
    with pytest.raises(ValueError, match="positive"):
        trig_poly_integral(0, bad, l)
    with pytest.raises(ValueError, match="positive"):
        trig_poly_integral(1, [1.0, -2.0], 1.0)
