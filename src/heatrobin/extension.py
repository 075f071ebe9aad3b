"""Closed-form heat evolution of even/odd polynomial initial data, Duhamel
particular solutions for polynomial sources, the Robin boundary trace, and
the triangular coefficient system that matches the trace to a polynomial
boundary target.

The key facts used throughout:

* Heat evolution (diffusivity k) of x**p is the Gaussian-moment sum
  sum_j C(p, 2j) * c_j * x**(p-2j) * (4kt)**j, where c_j = (2j-1)!!/2**j.
  Even data stays even, odd stays odd, so a Neumann (even) or Dirichlet
  (odd) condition at x = 0 is satisfied automatically.
* The Robin boundary trace of a space-time polynomial P is
  P(l, t) + (k/nu) * dP/dx(l, t), a polynomial in t. Matching it to a degree-N
  target yields an upper-triangular linear system in the data coefficients.

The triangular system is built from the heat-polynomial weights (Rosenbloom
& Widder, Trans. AMS 92, 1959) with the products that (trace o evolve) takes,
and a tier-1 test pins it to that composition bit for bit; the paper's sign
variant (flux_sign_variant_matrix) is a library comparator that no solve builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyalg import Poly1, Poly2, _positive

__all__ = [
    "ParityError",
    "SingularSystemError",
    "ExtensionProfile",
    "CoefficientSystem",
    "evolve_profile",
    "duhamel_poly",
    "robin_trace",
    "build_coefficient_system",
    "flux_sign_variant_matrix",
    "matrix_discrepancy_report",
    "match_boundary_polynomial",
]


class ParityError(ValueError):
    """Source data whose x powers do not match the required even/odd extension."""


class SingularSystemError(ValueError):
    """Boundary-matching system has a pivot that is negligible against its
    column, so back-substitution cannot reproduce the target."""


def _parity_offset(parity: str) -> int:
    """The x-power offset of a parity's basis: 0 for 'even' (x**(2i)), 1 for
    'odd' (x**(2i+1)). Any other parity raises ValueError."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return 0 if parity == "even" else 1


@dataclass(frozen=True)
class ExtensionProfile:
    """Polynomial initial data for the whole-line extension.

    For parity 'even' the data is mu(x) = sum_i coeffs[i] * x**(2i); for
    parity 'odd' it is sum_i coeffs[i] * x**(2i+1).
    """

    parity: str
    coeffs: tuple[float, ...]

    def __post_init__(self):
        _parity_offset(self.parity)
        object.__setattr__(self, "coeffs", tuple(float(v) for v in self.coeffs))

    def mu_poly(self) -> Poly1:
        """The profile as a polynomial in x."""
        off = _parity_offset(self.parity)
        if not self.coeffs:
            return Poly1((), "x")
        c = [0.0] * (2 * (len(self.coeffs) - 1) + off + 1)
        for i, v in enumerate(self.coeffs):
            c[2 * i + off] = v
        return Poly1(tuple(c), "x")


@dataclass(frozen=True)
class CoefficientSystem:
    """Upper-triangular system mapping profile coefficients to the t-power
    coefficients of the Robin trace of their heat evolution.

    matrix[j][i] is the coefficient of t**j in the trace generated by the
    i-th basis monomial. Strictly lower entries are exactly zero.
    """

    parity: str
    k: float
    nu: float
    l: float
    matrix: tuple[tuple[float, ...], ...]

    @property
    def order(self) -> int:
        return len(self.matrix)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)


def _heat_weight(p: int, j: int, k: float, num: int = 1, den: int = 1, data: str = "") -> float:
    """p!/((p-2j)!*j!) * k**j * num/den, the heat-polynomial weight of x**(p-2j)
    * t**j in the evolution of x**p, as one int ratio rounded once (as float of
    a Fraction is). An overflow names k, or `data` where num/den carry more."""
    try:
        n, d = float(k).as_integer_ratio()
        return math.perm(p, 2 * j) * n**j * num / (math.factorial(j) * d**j * den)
    except OverflowError:
        term = f"x**{p - 2 * j} * t**{j} in the heat evolution of x**{p}"
        raise OverflowError(f"the weight of {term} overflows a float ({data or f'k = {float(k)!r}'})") from None


def evolve_profile(profile: ExtensionProfile, k: float) -> Poly2:
    """Heat evolution u(x,t) of the profile's data mu(x).

    The result satisfies u_t = k*u_xx exactly at the coefficient level and
    u(x,0) = mu(x). Only even x powers occur for parity 'even', so
    du/dx(0,t) = 0 identically; only odd ones for 'odd', so u(0,t) = 0.
    """
    _positive(k=k)
    off, a = _parity_offset(profile.parity), list(profile.coeffs)
    while a and a[-1] == 0.0:
        a.pop()
    if not a:
        return Poly2.zero()
    table = np.zeros((2 * (len(a) - 1) + off + 1, len(a)))
    for i, ai in enumerate(a):
        if ai == 0.0:
            continue
        p = 2 * i + off
        for j in range(i + 1):
            table[p - 2 * j, j] = ai * _heat_weight(p, j, k)
    return Poly2(tuple(map(tuple, table)))


def _check_parity(F: Poly2, parity: str) -> None:
    want = _parity_offset(parity)
    for i, row in enumerate(F.coeffs):
        if i % 2 == want:
            continue
        for m, v in enumerate(row):
            if v != 0.0:
                raise ParityError(
                    f"source monomial x^{i} t^{m} has the wrong x parity: "
                    f"the {parity} extension admits only "
                    f"{'even' if want == 0 else 'odd'} powers of x"
                )


def duhamel_poly(F: Poly2, k: float, parity: str) -> Poly2:
    """Particular solution u_p for the polynomial source F(x,t).

    u_p(x,t) = integral over s in [0,t] of the heat evolution (over time t-s)
    of the slice F(.,s). For a monomial f * x**p * t**m each evolution term
    contributes f * C(p,2j) * c_j * (4k)**j * x**(p-2j) * Beta-weight
    * t**(m+j+1), with Beta-weight m! j! / (m+j+1)! from the exact s-integral.
    Satisfies u_p(x,0) = 0 and d/dt u_p - k d2/dx2 u_p = F coefficient-wise.
    """
    _positive(k=k)
    _check_parity(F, parity)
    if F.is_zero():
        return Poly2.zero()
    arr = F.array
    nx, nt = arr.shape
    out = np.zeros((nx, nt + (nx - 1) // 2 + 1))
    for p in range(nx):
        for m in range(nt):
            f = arr[p, m]
            if f == 0.0:
                continue
            for j in range(p // 2 + 1):
                w = _heat_weight(p, j, k, math.factorial(m) * math.factorial(j), math.factorial(m + j + 1))
                out[p - 2 * j, m + j + 1] += f * w
    return Poly2(tuple(map(tuple, out)))


def robin_trace(P: Poly2, k: float, nu: float, l: float) -> Poly1:
    """The Robin boundary combination P(l,t) + (k/nu) * dP/dx(l,t) as a
    polynomial in t. For P = evolve_profile(profile) its constant term is
    mu(l) + (k/nu) * mu'(l)."""
    _positive(k=k, nu=nu, l=l)
    return P.at_x(l) + (k / nu) * P.dx().at_x(l)


def build_coefficient_system(
    N: int, k: float, nu: float, l: float, parity: str = "even"
) -> CoefficientSystem:
    """Build the (N+1)x(N+1) trace-matching system.

    Column i is the t-coefficient vector of robin_trace(evolve(e_i)) where
    e_i is the i-th basis monomial x**p: with w the weight of x**q * t**j,
    entry (j, i) is w*l*...*l (q = p - 2j factors, left to right) plus k/nu
    times (q*w)*l*...*l (q - 1 factors), Horner's products on a one-entry
    column. Upper triangular; for even parity entry (j, j) is c_j * (4k)**j.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    off = _parity_offset(parity)
    _positive(k=k, nu=nu, l=l)
    mat = np.zeros((N + 1, N + 1))
    for i in range(N + 1):
        p = 2 * i + off
        for j in range(i + 1):
            q = p - 2 * j
            value = w = _heat_weight(p, j, k)
            slope = q * w
            for _ in range(q - 1):
                value, slope = value * l, slope * l
            mat[j, i] = value * l + (k / nu) * slope if q else w
    return CoefficientSystem(parity, float(k), float(nu), float(l), tuple(map(tuple, mat)))


def flux_sign_variant_matrix(
    N: int, k: float, nu: float, l: float, parity: str = "even"
) -> np.ndarray:
    """Closed-form tabulation of the trace-matching matrix with the boundary
    flux correction SUBTRACTED instead of added.

    The generated system (build_coefficient_system) carries the flux term
    with a plus sign, which is what the t -> 0 trace identity forces. This
    variant is a comparator for matrix_discrepancy_report, which itemizes how
    much the sign choice changes each entry; it must not be used to solve.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    off = _parity_offset(parity)
    _positive(k=k, nu=nu, l=l)
    mat = np.zeros((N + 1, N + 1))
    (kn, kd), (nn, nd), (ln, ld) = (float(v).as_integer_ratio() for v in (k, nu, l))
    data = f"k = {float(k)!r}, nu = {float(nu)!r}, l = {float(l)!r}"
    for i in range(N + 1):
        p = 2 * i + off
        for j in range(i + 1):
            q = p - 2 * j
            # C(p,2j)*c_j * l**(q-1)*(l - q*k/nu) as one ratio, times ln/ln so that q = 0 needs no 1/l
            num = ln**q * (ln * kd * nn - q * kn * nd * ld)
            w = _heat_weight(p, j, 0.25, num, ld**q * kd * nn * ln, data)
            mat[j, i] = w * (4 * k) ** j
    return mat


def matrix_discrepancy_report(system: CoefficientSystem) -> list[str]:
    """Itemize entries where the generated system differs from the
    subtracted-flux variant tabulation (a library call; solve_problem skips it)."""
    gen = system.array
    var = flux_sign_variant_matrix(system.order - 1, system.k, system.nu, system.l, system.parity)
    lines = []
    for j in range(system.order):
        for i in range(system.order):
            if gen[j, i] != var[j, i]:
                lines.append(
                    f"trace matrix entry ({j},{i}): generated {float(gen[j, i])!r}, "
                    f"subtracted-flux variant {float(var[j, i])!r}"
                )
    if not lines:
        lines.append("trace matrix: generated and subtracted-flux variant agree exactly")
    return lines


def _solve_upper(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    n = len(rhs)
    a = np.zeros(n)
    for j in range(n - 1, -1, -1):
        a[j] = (rhs[j] - mat[j, j + 1 :] @ a[j + 1 :]) / mat[j, j]
    return a


def match_boundary_polynomial(target: Poly1, system: CoefficientSystem) -> ExtensionProfile:
    """Find profile coefficients whose evolved Robin trace equals `target`,
    solving `system` (which must have order target.degree + 1) for its parity.

    Solves the upper-triangular system by back-substitution. In exact
    arithmetic its diagonal never vanishes for positive parameters: entry j
    is c_j * (4k)**j for even parity and (2j+1) * c_j * (4k)**j * (l + k/nu)
    for odd parity, with c_j = half_factorial_coeff(j) > 0. The entries
    above pivot j grow like l**(2j), though, so when 4k is small against
    l**2 a pivot can fall below 1e-12 of its column scale; back-substitution
    then amplifies rounding by about the inverse of that ratio and misses
    the target, so SingularSystemError is raised instead.
    """
    if target.coeffs and target.variable != "t":
        raise ValueError("target must be a polynomial in t")
    N = max(target.degree, 0)
    if N != system.order - 1:
        raise ValueError(
            f"target of degree {N} needs a system of order {N + 1}, got {system.order}"
        )
    rhs = np.array([target.coeff(j) for j in range(N + 1)])
    mat = system.array
    colscale = np.maximum(np.abs(mat).max(axis=0), 1.0)
    tiny = np.flatnonzero(np.abs(np.diagonal(mat)) <= 1e-12 * colscale)
    if tiny.size:
        j = int(tiny[0])
        raise SingularSystemError(
            f"matching system is numerically singular: pivot {j} is "
            f"{float(mat[j, j])!r}, at most 1e-12 times its column scale "
            f"{float(colscale[j])!r}"
        )
    return ExtensionProfile(system.parity, tuple(_solve_upper(mat, rhs)))
