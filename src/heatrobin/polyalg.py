"""Dense polynomial arithmetic in one and two variables, plus the special
integrals (Gaussian moments, polynomial-times-trigonometric) that the
boundary-matching machinery is built on.

Coefficients are double-precision floats, and point values are Horner's rule
on Python floats, bit-identical to numpy.polynomial. Combinatorial factors
(binomials, double-factorial ratios) are exact integer ratios, rounded to
float once, so that small triangular systems stay bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "Poly1",
    "Poly2",
    "half_factorial_coeff",
    "trig_poly_integral",
]


def _positive(**named) -> None:
    """The library's parameter rule: every value is in (0, inf), NaN never is;
    the first that is not is named with its repr in the ValueError."""
    for name, v in named.items():
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} must be a positive finite number, got {v!r}")


def grid_axis(values) -> np.ndarray:
    """Grid coordinates as a float array, or a complex one if they are complex."""
    return np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)


def _horner(coeffs, v):
    """npoly.polyval(v, coeffs) with the same + and * in the same order, on Python
    floats for a scalar v; Poly2 nests it in x, then in t, as polyval2d does."""
    v = np.asarray(v) if isinstance(v, (list, tuple)) else v
    acc = coeffs[-1] + v * 0
    for c in coeffs[-2::-1]:
        acc = c + acc * v
    return acc


_CACHE_ROWS = 64  # rows per factor cache of an object; a full cache is cleared


def _cached_row(cache: dict, v, make):
    """make(), kept in cache under the hex of v (-0.0 apart from 0.0) if v is a
    finite float; made anew for any other v."""
    if not (isinstance(v, float) and math.isfinite(v)):
        return make()
    row = cache.get(v.hex())
    if row is None:
        if len(cache) >= _CACHE_ROWS:
            cache.clear()
        row = cache[v.hex()] = make()
    return row


def _trim1(coeffs) -> tuple[float, ...]:
    c = [float(v) for v in coeffs]
    while c and c[-1] == 0.0:
        c.pop()
    return tuple(c)


def _trim2(rows) -> tuple[tuple[float, ...], ...]:
    # A short row holds zeros for the higher t powers it leaves out.
    width = max(map(len, rows), default=0)
    padded = [tuple(r) + (0.0,) * (width - len(r)) for r in rows]
    a = np.array(padded, dtype=float).reshape(len(rows), width)
    if not a.any():
        return ()
    nz = np.nonzero(a)
    a = a[: nz[0].max() + 1, : nz[1].max() + 1]
    return tuple(tuple(float(v) for v in row) for row in a)


@dataclass(frozen=True)
class Poly1:
    """Dense univariate polynomial: coeffs[i] multiplies variable**i.

    The empty coefficient tuple is the zero polynomial. Trailing zero
    coefficients are trimmed on construction.
    """

    coeffs: tuple[float, ...] = ()
    variable: str = "x"

    def __post_init__(self):
        if self.variable not in ("x", "t"):
            raise ValueError(f"variable must be 'x' or 't', got {self.variable!r}")
        object.__setattr__(self, "coeffs", _trim1(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, v):
        return _horner(self.coeffs or (0.0,), v)

    def _coerce(self, other) -> "Poly1":
        if isinstance(other, Poly1):
            return other
        return Poly1((float(other),), self.variable)

    def _join_variable(self, other: "Poly1") -> str:
        # constants are variable-agnostic; anything else must agree
        if len(self.coeffs) > 1 and len(other.coeffs) > 1 and self.variable != other.variable:
            raise ValueError(
                f"cannot combine polynomial in {self.variable!r} with one in {other.variable!r}"
            )
        return self.variable if len(self.coeffs) > 1 else other.variable

    def __add__(self, other):
        other = self._coerce(other)
        var = self._join_variable(other)
        return Poly1(tuple(npoly.polyadd(self.coeffs or (0.0,), other.coeffs or (0.0,))), var)

    __radd__ = __add__

    def __neg__(self):
        return Poly1(tuple(-c for c in self.coeffs), self.variable)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly1):
            return Poly1(tuple(float(other) * c for c in self.coeffs), self.variable)
        var = self._join_variable(other)
        if self.is_zero() or other.is_zero():
            return Poly1((), var)
        return Poly1(tuple(npoly.polymul(self.coeffs, other.coeffs)), var)

    __rmul__ = __mul__

    def deriv(self) -> "Poly1":
        if len(self.coeffs) <= 1:
            return Poly1((), self.variable)
        return Poly1(tuple(npoly.polyder(self.coeffs)), self.variable)

    def antideriv(self) -> "Poly1":
        if not self.coeffs:
            return Poly1((), self.variable)
        return Poly1(tuple(npoly.polyint(self.coeffs)), self.variable)

    def integral(self, a: float, b: float) -> float:
        p = self.antideriv()
        return float(p(b) - p(a))

    def coeff(self, i: int) -> float:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0.0


@dataclass(frozen=True)
class Poly2:
    """Dense bivariate polynomial: coeffs[i][m] multiplies x**i * t**m. A point
    keeps its Horner-in-x column values per finite float x, 64 at most."""

    coeffs: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim2(self.coeffs))

    @classmethod
    def zero(cls) -> "Poly2":
        return cls(())

    @property
    def array(self) -> np.ndarray:
        if not self.coeffs:
            return np.zeros((1, 1))
        return np.asarray(self.coeffs, dtype=float)

    def is_zero(self) -> bool:
        return not self.coeffs

    @cached_property
    def _columns(self):  # the columns, one per power of t, and their values per x
        return tuple(zip(*(self.coeffs or ((0.0,),)))), {}

    def __call__(self, x, t):
        cols, rows = self._columns
        return _horner(_cached_row(rows, x, lambda: [_horner(col, x) for col in cols]), t)

    def grid(self, xs, ts) -> np.ndarray:
        """Evaluate on the tensor grid, returned with shape (len(ts), len(xs)).

        Complex xs or ts are evaluated in complex arithmetic (the residual
        probe's complex steps); anything else is cast to float."""
        return npoly.polygrid2d(grid_axis(xs), grid_axis(ts), self.array).T

    def _binary(self, other, sign: float) -> "Poly2":
        a, b = self.array, other.array
        out = np.zeros((max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1])))
        out[: a.shape[0], : a.shape[1]] += a
        out[: b.shape[0], : b.shape[1]] += sign * b
        return Poly2(tuple(map(tuple, out)))

    def __add__(self, other):
        if not isinstance(other, Poly2):
            other = Poly2(((float(other),),))
        return self._binary(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly2):
            other = Poly2(((float(other),),))
        return self._binary(other, -1.0)

    def __mul__(self, other):
        """Scaling by a number."""
        return Poly2(tuple(tuple(float(other) * v for v in row) for row in self.coeffs))

    __rmul__ = __mul__

    def dx(self) -> "Poly2":
        if self.array.shape[0] <= 1:
            return Poly2.zero()
        return Poly2(tuple(map(tuple, npoly.polyder(self.array, axis=0))))

    def dt(self) -> "Poly2":
        if self.array.shape[1] <= 1:
            return Poly2.zero()
        return Poly2(tuple(map(tuple, npoly.polyder(self.array, axis=1))))

    def at_x(self, v: float) -> Poly1:
        """Restriction x = v, as a polynomial in t."""
        return Poly1(tuple(np.atleast_1d(npoly.polyval(v, self.array))), "t")

    def at_t(self, v: float) -> Poly1:
        """Restriction t = v, as a polynomial in x."""
        return Poly1(tuple(np.atleast_1d(npoly.polyval(v, self.array.T))), "x")


def half_factorial_coeff(j: int) -> Fraction:
    """The exact ratio (2j-1)!!/2**j, i.e. the normalized even Gaussian moment.

    Satisfies c_0 = 1 and c_j = ((2j-1)/2) * c_{j-1}.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    return Fraction(math.factorial(2 * j), 4**j * math.factorial(j))


def trig_poly_integral(
    m: int,
    sigma: float | np.ndarray,
    l: float,
    kind: str = "cos",
    *,
    sin_l: float | np.ndarray | None = None,
    cos_l: float | np.ndarray | None = None,
) -> float | np.ndarray:
    """Integral of x**m * trig(sigma*x) over [0, l], by the integration-by-parts
    recurrence in m (exact up to floating rounding; no quadrature).

    sin_l/cos_l may be supplied when the caller has more accurate values of
    sin(sigma*l), cos(sigma*l) than direct evaluation gives. sigma may be an
    array (with sin_l/cos_l of its shape): the recurrence then runs over all
    entries at once with the same + - * / in the same order, so each entry
    keeps the bits of its scalar call. A scalar sigma returns a float.
    """
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if not (np.all((np.asarray(sigma) > 0) & np.isfinite(sigma)) and 0.0 < l < math.inf):
        raise ValueError("sigma and l must be positive")
    if sin_l is None:
        sin_l = np.sin(sigma * l)
    if cos_l is None:
        cos_l = np.cos(sigma * l)
    ic = sin_l / sigma
    isn = (1.0 - cos_l) / sigma
    lp = 1.0
    for mm in range(1, m + 1):
        lp *= l
        ic, isn = (
            lp * sin_l / sigma - (mm / sigma) * isn,
            -lp * cos_l / sigma + (mm / sigma) * ic,
        )
    out = ic if kind == "cos" else isn
    return float(out) if np.ndim(out) == 0 else out
