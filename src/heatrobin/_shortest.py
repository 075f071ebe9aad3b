"""The `x,t,u` lines of solution.csv, every u in `repr`'s text, made by numpy
a chunk at a time: Schubfach's shortest digits (R. Giulietti, "The Schubfach
way to render doubles", 2020) from the raw bits in 64-bit integers, laid out
as `repr` does in the fixed cells of a reused buffer that one boolean mask
compacts. `repr` itself formats NaN, +-inf and the 20 smallest subnormal
magnitudes (below 1.1e-322): there Schubfach's scaled digits s fall below 100
and it keeps two digits, as Java's Double.toString does, where repr may not.
"""

import numpy as np

_CHUNK = 2048  # values per pass of the kernel: whole rows, at least one
_M32, _M63 = 2**32 - 1, 2**63 - 1
_POW10 = np.array([10**i for i in range(18)], np.uint64)
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
# A u field's cells: sign, "0.000" (for decpt <= 0), the 17 digits, ".", digits 1..16
# again (the digits before the "." show in the first run, those after it in the
# second), "e", the exponent's sign and three digits, the newline.
_U = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b"e+000\n", np.uint8)
_A, _DOT, _B, _E = 6, 23, 24, 40  # offsets in _U
# the exponent's sign and digits after the "e", for decpt = -324..309
_EXPONENTS = np.frombuffer("".join(f"{e:+04d}" for e in range(-325, 309)).encode(), np.uint8)


def _table() -> np.ndarray:
    """Schubfach's g = g1 2^63 + g0 = floor(beta) + 1 for 10^-k = beta 2^r, 2^125 <= beta
    < 2^126, k = -324..292, as rows g1, g1 >> 32, g1 & M32, g0 >> 32, g0 & M32."""
    g = np.empty((5, 617), np.uint64)
    for i, k in enumerate(range(-324, 293)):
        p = 10 ** abs(k)
        beta = (1 << (125 + p.bit_length())) // p if k > 0 else p << 126 >> p.bit_length()
        g1, g0 = beta + 1 >> 63, beta + 1 & _M63
        g[:, i] = g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32
    return g


def _shown_cells() -> np.ndarray:
    """The u cells repr shows, the sign apart, in row slot * 17 + n - 1 for n
    digits: slot 0 or 1 for exponent notation with two or three exponent
    digits, decpt + 5 for fixed notation (-4 < decpt <= 16)."""
    shown = np.zeros((22 * 17, _U.size), bool)
    for (slot, n), row in zip(np.ndindex(22, 17), shown):
        decpt, n = slot - 5, n + 1
        if slot < 2:  # d[.ddd]e+XX
            before, after = 1, n
            row[_E : _E + 5] = True, True, slot == 1, True, True
        elif decpt <= 0:  # 0.000ddd
            before, after = n, 0
            row[1 : 3 - decpt] = True
        else:  # ddd.ddd, or ddd.0 where decpt >= n
            before, after = decpt, max(n, decpt + 1)
        row[_A : _A + before] = row[-1] = True
        row[_DOT] = after > before
        row[_B + before - 1 : _B + after - 1] = True
    return shown


_G, _SHOWN = _table(), _shown_cells()


def _mul_hi(a1, a0, b1, b0):
    """The high 64 bits of (a1 2^32 + a0)(b1 2^32 + b0) for a1 < 2^31,
    a0, b0 < 2^32 and b1 < 2^28: their middle sum cannot overflow."""
    return a1 * b1 + (a0 * b1 + a1 * b0 + (a0 * b0 >> 32) >> 32)


def _rop(g, cp):
    """g cp / 2^127 rounded to odd (the floor, its last bit set where the
    quotient is not exact) for table columns g and cp < 2^60."""
    b1, b0 = cp >> 32, cp & _M32
    z = (g[0] * cp >> 1) + _mul_hi(g[3], g[4], b1, b0)
    return _mul_hi(g[1], g[2], b1, b0) + (z >> 63) | (z & _M63) + _M63 >> 63


def _schubfach(bits):
    """(f, k, bad) for float64 bit patterns: f 10^k is each value's shortest
    decimal, f < 10^17, and f = 0 for zeros. bad marks NaN, +-inf and the
    subnormals whose digits repr must give (f is then meaningless there)."""
    c, bq = bits & 2**52 - 1, bits >> 52 & 0x7FF
    irregular = (c == 0) & (bq > 1)  # a power of two: the interval below is half as wide
    c[bq > 0] |= 2**52
    q = np.maximum(bq, 1).view(np.int64) - 1075
    k = q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0) >> 41  # floor(log10(2^q or 3/4 2^q))
    h = (q + (-k * 913_124_641_741 >> 38) + 2).view(np.uint64)  # + floor(log2(10^-k))
    g = _G.take(k + 324, axis=1)
    out, cb = c & 1, c << 2  # an odd c's interval excludes its ends
    vb, vbr = _rop(g, cb << h), _rop(g, cb + 2 << h) - out
    vbl = _rop(g, np.where(irregular, cb - 1, cb - 2) << h) + out
    s = vb >> 2
    short = s >= 100
    # one digit fewer: u' = 10 floor(s / 10) or w' = u' + 10, where exactly one is inside
    up4 = (s.view(np.int64) // 10).view(np.uint64) * 40
    wpin = up4 + 40 <= vbr
    use_short = short & ((vbl <= up4) != wpin)
    # else s or s + 1: the one inside, or the closer, or the even one on a tie
    s4 = s << 2
    closer = (vb > s4 + 2) | (vb == s4 + 2) & (s & 1 == 1)
    s[(s4 + 4 <= vbr) & ((vbl > s4) | closer)] += 1
    s[use_short] = np.where(wpin, up4 + 40, up4)[use_short] >> 2
    s[c == 0] = 0
    return s, k, (bq == 0x7FF) | ~short & (c != 0)


class CsvLines:
    """Formats time rows of u values on fixed x columns as the lines
    `{x},{t},{u}\\n`, byte for byte what f"{x},{t!r},{u!r}" writes with x in
    x_strs. Call it with up to `rows` rows at a time."""

    def __init__(self, x_strs: list[str]):
        # each line starts as "x,t,"; the row's t replaces the "t", which no repr of a float holds
        x = np.array([f"{s},t,".encode() for s in x_strs])
        self.u0, self.rows = x.itemsize, max(1, _CHUNK // len(x_strs))
        line = np.hstack([x.view(np.uint8).reshape(len(x_strs), -1), np.tile(_U, (len(x_strs), 1))])
        self.buf = np.tile(line, (self.rows, 1, 1))
        self.show = self.buf != 0  # each call sets the u cells' own

    def __call__(self, t_strs: list[str], u: np.ndarray) -> bytes:
        """The lines of the len(t_strs) rows u (shape (rows, len(x_strs)))."""
        cells = self.buf.reshape(-1, self.buf.shape[2])[: u.size, self.u0 :]
        shown = self.show.reshape(-1, self.show.shape[2])[: u.size, self.u0 :]
        values = np.ascontiguousarray(u, dtype=np.float64).reshape(-1)
        f, k, bad = _schubfach(values.view(np.uint64))
        size = np.searchsorted(_POW10, f, side="right")  # digits of f; 0 for 0
        decpt = np.where(f == 0, 1, k + size)
        # the 17 digits of f 10^(17 - size), in pairs from the right; the
        # ninth pair's "0" lands on the "0" before them
        rest = (f * _POW10.take(17 - size)).view(np.int64)
        pairs = cells[:, _A - 1 : _DOT].view(np.uint16)
        for i in range(8, -1, -1):
            quot = rest // 100
            pairs[:, i] = _PAIRS.take(rest - quot * 100)
            rest = quot
        n = np.where(f == 0, 1, 17 - (cells[:, _DOT - 1 : _A - 1 : -1] != 48).argmax(axis=1))
        cells[:, _B:_E] = cells[:, _A + 1 : _DOT]
        slot = decpt + 5
        slot[(decpt < -3) | (decpt > 16)] = 0
        slot[(decpt < -98) | (decpt > 100)] = 1
        shown[:] = _SHOWN.take(slot * 17 + n - 1, axis=0)
        shown[:, 0] = values.view(np.uint64) >> 63
        cells[:, _E + 1 : _E + 5] = _EXPONENTS.reshape(-1, 4).take(decpt + 324, axis=0, mode="clip")
        for i in np.flatnonzero(bad).tolist():
            text = np.frombuffer(repr(float(values[i])).encode(), np.uint8)
            shown[i, :-1] = False
            cells[i, _A : _A + text.size], shown[i, _A : _A + text.size] = text, True
        buf, show = self.buf[: len(t_strs)], self.show[: len(t_strs)]
        return b"".join(buf[i][show[i]].tobytes().replace(b"t", t.encode()) for i, t in enumerate(t_strs))
