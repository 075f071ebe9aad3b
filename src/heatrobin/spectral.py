"""Eigenvalues of the Robin-type transcendental conditions, generalized
Fourier coefficients against the resulting trigonometric families, and
truncated evaluation of the exponentially damped correction series.

Three boundary kinds are supported on (0, l) with diffusivity k and Robin
coefficient nu:

* neumann_robin:    roots sigma of  k*sigma*tan(sigma*l) = nu,
  one per bracket (m*pi/l, (m+1/2)*pi/l), m = 0, 1, 2, ...
* dirichlet_robin:  roots sigma of  k*sigma = -nu*tan(sigma*l),
  one per bracket ((m-1/2)*pi/l, m*pi/l), m = 1, 2, ...
* neumann_neumann:  the insulated rod, sigma = m*pi/l exactly, m = 0, 1, ...
  (offsets and residuals 0; nu is stored but not used).

All three expand into one ModalSeries, evaluated by one damped-amplitude
helper; the insulated rod adds the memory of a static source.

Each kind's bracket geometry is one half-period shift: bracket m starts at
sigma*l = (m - shift)*pi, with shift = 1/2 for dirichlet_robin and 0
otherwise. Roots are found in the offset theta = sigma*l - base from that
lower edge, base = (m - shift)*pi, where both Robin conditions, cleared of
their tangent and cotangent, read

    k*(base + theta)/l * sin(theta) - nu*cos(theta) = 0,   0 < theta < pi/2.

This form has no poles, so its residual is evaluated to machine precision
for large roots (tan(sigma*l) at sigma*l ~ 150 cannot get below ~1e-12 in
double precision) and at large Biot numbers nu*l/k, where the
neumann_robin root crowds the pole of tan(theta) at pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyalg import Poly1, _cached_row, grid_axis, trig_poly_integral

__all__ = [
    "EigenSystem",
    "ModalSeries",
    "SeriesValue",
    "eigenvalues",
    "fourier_coeffs",
    "evaluate_series",
    "evaluate_series_info",
]

KINDS = ("neumann_robin", "dirichlet_robin", "neumann_neumann")


def _shift(kind: str) -> float:
    """The kind's bracket geometry: bracket m starts at sigma*l = (m - shift)*pi,
    with shift = 1/2 under the value left end of dirichlet_robin, else 0."""
    return 0.5 if kind == "dirichlet_robin" else 0.0


@dataclass(frozen=True)
class EigenSystem:
    """Increasing eigenvalue roots with their residuals.

    `indices[n]` is the bracket index m of root n (0-based for neumann_robin
    and neumann_neumann, 1-based for dirichlet_robin); `offsets[n]` is the
    distance theta of sigma*l above the bracket's lower edge
    (m - shift)*pi, in (0, pi/2) (0 for neumann_neumann).
    `residuals[n]` is the absolute residual of the pole-free form
    k*sigma*sin(offset) - nu*cos(offset) of both Robin kinds (0 for
    neumann_neumann); its scale is max(nu, k*sigma).
    """

    kind: str
    k: float
    nu: float
    l: float
    indices: tuple[int, ...]
    offsets: tuple[float, ...]
    roots: tuple[float, ...]
    residuals: tuple[float, ...]

    @property
    def n_terms(self) -> int:
        return len(self.roots)

    @property
    def shift(self) -> float:
        return _shift(self.kind)

    @property
    def trig(self) -> str:
        """The eigenfunction family: sin(sigma x) under the value left end
        (shift 1/2), cos(sigma x) under a flux left end."""
        return "sin" if self.shift else "cos"

    @property
    def brackets(self) -> tuple[tuple[float, float], ...]:
        """(lo, hi) around each root: sigma*l from (m - shift)*pi to a quarter
        period above it; the neumann_neumann brackets collapse onto their
        exact roots."""
        m = np.asarray(self.indices)
        width = 0.0 if self.kind == "neumann_neumann" else 0.5
        lo = (m - self.shift) * math.pi / self.l
        hi = (m - self.shift + width) * math.pi / self.l
        return tuple(zip(lo.tolist(), hi.tolist()))

    def at_l(self) -> tuple[np.ndarray, np.ndarray]:
        """(sin(sigma_n l), cos(sigma_n l)) computed stably from the stored
        offsets: sigma*l is theta turned through q = 2*(m - shift) quarter
        turns, and each quarter turn maps (sin, cos) to (cos, -sin)."""
        q = (2 * (np.asarray(self.indices) - self.shift)).astype(int) % 4
        th = np.asarray(self.offsets)
        s, c = np.sin(th), np.cos(th)
        sign = np.where(q < 2, 1.0, -1.0)
        odd = q % 2 == 1
        return sign * np.where(odd, c, s), sign * np.where(odd, -s, c)

    def norms(self) -> np.ndarray:
        """L2 norms squared of the trigonometric family over [0, l]:
        (nu*l + k*sin^2(theta)) / (2*nu) for both Robin kinds, where
        sin^2(theta) is sin^2(sigma*l) for neumann_robin (cosines) and
        cos^2(sigma*l) for dirichlet_robin (sines); l for sigma = 0 and l/2
        otherwise for neumann_neumann (cosines)."""
        if self.kind == "neumann_neumann":
            return np.where(np.asarray(self.roots) == 0.0, self.l, 0.5 * self.l)
        sin_th = np.sin(np.asarray(self.offsets))
        return (self.nu * self.l + self.k * sin_th**2) / (2.0 * self.nu)


def _offsets(base: np.ndarray, k: float, nu: float, l: float):
    """Zeros theta of h = k*(base + theta)/l * sin(theta) - nu*cos(theta) on
    (0, pi/2), one per entry of base, with |h| there. h(0) = -nu < 0 and
    h(pi/2) > 0, so every bracket holds its zero: all are bisected at once
    to width 1e-10, then each takes up to 5 Newton steps, kept only while
    they stay inside its bracket and shrink |h|."""

    def h(th):
        return k * (base + th) / l * np.sin(th) - nu * np.cos(th)

    lo = np.zeros_like(base)
    hi = np.full_like(base, math.pi / 2)
    active = hi - lo > 1e-10
    while active.any():
        mid = 0.5 * (lo + hi)
        below = h(mid) < 0.0
        lo = np.where(active & below, mid, lo)
        hi = np.where(active & ~below, mid, hi)
        active = hi - lo > 1e-10
    th = 0.5 * (lo + hi)
    val = h(th)
    active = np.ones_like(base, dtype=bool)
    for _ in range(5):
        dh = (k / l + nu) * np.sin(th) + k * (base + th) / l * np.cos(th)
        cand = th - val / dh
        cval = h(cand)
        active &= (lo < cand) & (cand < hi) & (np.abs(cval) < np.abs(val))
        th = np.where(active, cand, th)
        val = np.where(active, cval, val)
    return th, np.abs(val)


def eigenvalues(kind: str, k: float, nu: float, l: float, n_max: int) -> EigenSystem:
    """First n_max roots of the boundary eigenvalue condition.

    Each bracket contains exactly one root for positive parameters, so the
    bisection cannot fail; Newton steps are rejected whenever they leave the
    bracket. The neumann_neumann roots m*pi/l need no search; their
    brackets collapse onto them.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if k <= 0 or nu <= 0 or l <= 0:
        raise ValueError("k, nu, l must be positive")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    shift = _shift(kind)
    first = math.ceil(shift)  # the first lower edge at or above sigma = 0
    m = np.arange(first, first + n_max)
    base = (m - shift) * math.pi
    if kind == "neumann_neumann":
        offsets = residuals = np.zeros(n_max)
    else:
        offsets, residuals = _offsets(base, k, nu, l)
    return EigenSystem(
        kind,
        float(k),
        float(nu),
        float(l),
        tuple(m.tolist()),
        tuple(offsets.tolist()),
        tuple(((base + offsets) / l).tolist()),
        tuple(residuals.tolist()),
    )


_TRIG = {"cos": np.cos, "sin": np.sin}
_ROW_BLOCK = 64  # time rows per block of ModalSeries.row_blocks


@dataclass(frozen=True)
class ModalSeries:
    """Truncated series sum_n w_n(t) * trig(sigma_n x) plus a constant offset,
    where, with lam_n = sigma_n^2 k,

        w_n(t) = amplitudes[n] * exp(-lam_n t) + source[n] * (1 - exp(-lam_n t)) / lam_n

    and the source memory is source[n] * t where lam_n = 0. `source` holds
    the modal amplitudes of a static source; it is empty for the Robin
    correction series. The evaluators use arrays of the roots, rates lam,
    amplitudes and source, and the envelope max|a|, built once per series and
    read-only; they are not fields, so ==, hash and repr see the tuples only.
    They sum every stored term but take exp and trig for the live modes only
    (_live_modes), zero-filling the rest: the sums keep their bits. Point
    evaluation caches its factor rows per finite float t and x, 64 per cache
    (see evaluate_series_info); the caches are not fields either."""

    eigen: EigenSystem
    amplitudes: tuple[float, ...]
    offset: float = 0.0
    source: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.amplitudes) != self.eigen.n_terms:
            raise ValueError("one amplitude per eigenvalue is required")
        if self.source and len(self.source) != self.eigen.n_terms:
            raise ValueError("source needs one amplitude per eigenvalue, or none")
        object.__setattr__(self, "amplitudes", tuple(float(v) for v in self.amplitudes))
        object.__setattr__(self, "source", tuple(float(v) for v in self.source))
        sig = np.array(self.eigen.roots)
        arrays = (sig, sig * sig * self.eigen.k, np.array(self.amplitudes), np.array(self.source))
        for name, values in zip(("_roots", "_rates", "_amps", "_source"), arrays):
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        object.__setattr__(self, "_envelope", float(np.max(np.abs(self._amps), initial=0.0)))
        object.__setattr__(self, "_weight_rows", {})
        object.__setattr__(self, "_trig_rows", {})

    @property
    def n_terms(self) -> int:
        return len(self.amplitudes)

    @property
    def trig(self) -> str:
        """The eigen kind's family, "cos" or "sin"."""
        return self.eigen.trig

    def grid(self, xs, ts) -> np.ndarray:
        """Full-sum evaluation on a tensor grid, shape (len(ts), len(xs)),
        filled block by block from row_blocks, so its rows are bit for bit
        the blocks' rows. All stored terms are summed (no tolerance
        truncation). Complex xs or ts give a complex result.
        """
        xs = grid_axis(xs)
        ts = grid_axis(ts)
        out = np.empty((ts.size, xs.size), dtype=np.result_type(xs, ts))
        for s, block in self.row_blocks(xs, ts):
            out[s : s + len(block)] = block
        return out

    def row_blocks(self, xs, ts):
        """Yield (start, block), block being rows start to start + 63 of
        grid(xs, ts) (fewer in the last block), in order. Beyond the
        (n_terms, len(xs)) trig matrix, built once, a block holds
        64 * (len(xs) + n_terms) values, so memory does not grow with len(ts).
        Its rows are zero past the modes live at min(ts), so the product still
        runs over every stored term and sums the same non-zero products."""
        xs = grid_axis(xs)
        ts = grid_axis(ts)
        live = _live_modes(self, ts)
        tmat = np.zeros((self.n_terms, xs.size), dtype=np.result_type(self._roots, xs))
        tmat[:live] = _TRIG[self.trig](np.outer(self._roots[:live], xs))  # (n, nx)
        for s in range(0, ts.size, _ROW_BLOCK):
            block = ts[s : s + _ROW_BLOCK]
            decayed = _damped_amplitudes(self, block, _live_modes(self, block))  # (rows, n)
            yield s, decayed @ tmat + self.offset


def _live_modes(series: ModalSeries, ts: np.ndarray) -> int:
    """The number L of leading modes to evaluate at the times ts: the rates
    increase, so past L every lam_n t > 745.14, where exp gives exactly 0.0.
    All modes with a source, for empty ts, or if min Re(ts) is <= 0 or NaN."""
    t0 = ts.real.min() if ts.size else 0.0
    if series.source or not t0 > 0.0:
        return series.n_terms
    return int(np.searchsorted(series._rates, 746.0 / t0, side="right"))


def _damped_amplitudes(series: ModalSeries, ts: np.ndarray, live: int) -> np.ndarray:
    """The weights w_n(t) of ModalSeries for every t in ts, shape (len(ts), n),
    with exp taken over the first `live` modes and zeros past them."""
    rates = series._rates[:live]
    decay = np.exp(-(ts[:, None] * rates))
    out = np.zeros((ts.size, series.n_terms), dtype=decay.dtype)
    out[:, :live] = decay * series._amps[:live]
    if series.source:
        with np.errstate(divide="ignore", invalid="ignore"):
            memory = np.where(rates > 0.0, (1.0 - decay) / rates, ts[:, None])
        out = out + memory * series._source
    return out


def _weight_row(series: ModalSeries, t: float) -> tuple[np.ndarray, int, float]:
    """(w_n(t), zero past the live modes; the live count; the tail bound) at t."""
    ts = np.array([t])
    live = _live_modes(series, ts)
    return _damped_amplitudes(series, ts, live)[0], live, _beyond_stored_bound(series, t)


@dataclass(frozen=True)
class SeriesValue:
    """Evaluation result with the truncation side channel; terms_used is
    always the number of stored terms."""

    value: float
    terms_used: int
    tail_bound: float
    tail_verified: bool


def _beyond_stored_bound(series: ModalSeries, t: float) -> float:
    """Geometric bound on the tail past the stored terms, using the bracket
    lower edges sigma_n >= (m_n - shift) * pi / l and the largest stored
    amplitude as envelope. A non-zero source does not decay, so its tail is
    never bounded."""
    eig = series.eigen
    if any(series.source):
        return math.inf
    env = series._envelope
    if env == 0.0 or t <= 0.0:
        return 0.0 if env == 0.0 else math.inf
    step = math.pi / eig.l
    nxt = eig.indices[-1] + 1
    lo = (nxt - eig.shift) * step
    kt = eig.k * t
    first = math.exp(-lo * lo * kt)
    ratio = math.exp(-(2.0 * lo + step) * step * kt)
    if ratio >= 1.0:
        return math.inf
    return env * first / (1.0 - ratio)


def evaluate_series_info(
    series: ModalSeries, x: float, t: float, tol: float = 1e-10
) -> SeriesValue:
    """Evaluate at a point and report the truncation side channel.

    The value is offset + weights(t) @ trig(x) over every stored term, as in
    ModalSeries.grid: the weight row, with the tail bound, is zero past the
    modes live at t, and the trig row past the modes computed so far for x.
    For finite float t and x both rows are kept on the series, 64 per cache
    (a full cache is cleared); a kept trig row grows in place when a later t
    has more live modes, and its extra modes meet zero weights: +-0 products,
    and the offset turns a -0.0 sum into +0.0, so the bits are those of rows
    built afresh. The tail bound is the geometric bound on the terms past the
    stored ones, and it is verified when it falls below tol. Times t <= 0
    evaluate the initial line t = 0, where the damping is gone: the tail
    bound is infinite and nothing is certified, unless the series is
    identically zero.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    t = max(t, 0.0)
    terms, live, bound = _cached_row(series._weight_rows, t, lambda: _weight_row(series, t))
    trig, done = entry = _cached_row(
        series._trig_rows, x, lambda: [np.zeros(series.n_terms, np.result_type(series._roots, x)), 0]
    )
    if done < live:  # the row of x grows to the modes live at t
        trig[done:live] = _TRIG[series.trig](series._roots[done:live] * x)
        entry[1] = live
    total = series.offset + float(terms @ trig)
    return SeriesValue(total, series.n_terms, bound, bound < tol)


def evaluate_series(series: ModalSeries, x: float, t: float, tol: float = 1e-10) -> float:
    """Series value at a point; see evaluate_series_info for the
    truncation/verification side channel."""
    return evaluate_series_info(series, x, t, tol).value


def fourier_coeffs(eigen: EigenSystem, residual_initial: Poly1) -> np.ndarray:
    """Generalized Fourier amplitudes of a polynomial against the eigenbasis.

    neumann_robin:   b_n = 2*nu / (nu*l + k*sin^2(sigma_n l)) * int_0^l r(x) cos(sigma_n x) dx
    dirichlet_robin: b_n = 2*nu / (nu*l + k*cos^2(sigma_n l)) * int_0^l r(x) sin(sigma_n x) dx
    neumann_neumann: b_n = 2/l * int_0^l r(x) cos(sigma_n x) dx, and b_0 = int_0^l r(x) dx / l

    The integrals are exact (trig_poly_integral, or the plain integral for
    the mean); sin/cos at the boundary are taken from the stable reduced
    offsets. One array pass per non-zero degree m covers every sigma > 0;
    the degrees accumulate in increasing order from 0.0 as acc += c_m * I_m,
    so each amplitude has the bits of the per-mode scalar loop.
    """
    if residual_initial.coeffs and residual_initial.variable != "x":
        raise ValueError("residual_initial must be a polynomial in x")
    sin_l, cos_l = eigen.at_l()
    norms = eigen.norms()
    out = np.zeros(eigen.n_terms)
    coeffs = residual_initial.coeffs
    if not coeffs:
        return out
    sig = np.asarray(eigen.roots)
    pos = sig != 0.0
    acc = 0.0
    for m, c in enumerate(coeffs):
        if c != 0.0:
            acc += c * trig_poly_integral(
                m, sig[pos], eigen.l, eigen.trig, sin_l=sin_l[pos], cos_l=cos_l[pos]
            )
    out[pos] = acc / norms[pos]
    out[~pos] = residual_initial.integral(0.0, eigen.l) / norms[~pos]
    return out
