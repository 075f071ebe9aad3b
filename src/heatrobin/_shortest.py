"""The `x,t,u` lines of solution.csv, every u in `repr`'s text, made by numpy
a chunk at a time: Schubfach's shortest digits (R. Giulietti, "The Schubfach
way to render doubles", 2020) from the raw bits in 64-bit integers, laid out
as `repr` does in the fixed cells of a reused buffer that one boolean mask
compacts. `repr` itself formats NaN, +-inf and the 20 smallest subnormal
magnitudes (below 1.1e-322): there Schubfach's scaled digits s fall below 100
and it keeps two digits, as Java's Double.toString does, where repr may not.

At 2,048 values a numpy call's fixed cost is about that of its arithmetic,
so a chunk runs few calls: Schubfach's three products as one stack, in
place; integer constants as 0-d arrays of the operands' dtype (a Python int
is converted on every call); each field of cells copied as one void item per
value, so that numpy loops over the values, not over each value's bytes.
"""

import numpy as np

_CHUNK = 2048  # values per pass of the kernel: whole rows, at least one


def _u64(*v):
    return np.array(v if len(v) > 1 else v[0], np.uint64)


_M32, _M52, _7FF = _u64(2**32 - 1), _u64(2**52 - 1), _u64(0x7FF)
_1, _2, _9, _10, _20, _32, _52, _63 = (_u64(v) for v in (1, 2, 9, 10, 20, 32, 52, 63))
_ENDS = _u64([0], [2], [2**64 - 2])  # 4c + these: 4c, then the interval's ends 4c +- 2
_ROUND = _u64([1], [0], [3])  # added to vb, vbr and vbl before their quarters are floored
_POW10 = _u64(*[10**i for i in range(18)])
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
# "0000".."9999", then "\0\0d." for the first digit d again before the ".", as 4-byte items
_QUADS = np.zeros((10010, 2), np.uint16)
_QUADS[:10000] = np.c_[np.repeat(_PAIRS, 100), np.tile(_PAIRS, 100)]
_QUADS[10000:, 1] = np.frombuffer(b"".join(b"%d." % d for d in range(10)), np.uint16)
_QUADS = _QUADS.view("V4")[:, 0]
# A u field's cells: sign, "0." and "000" (for decpt <= 0), the 17 digits, the
# first digit again and ".", digits 1..16 again (the digits before the "." show
# in the first run, those after it in the second), "e", the exponent's sign and
# two or three digits. The line's newline starts the next line's cells.
_U = np.frombuffer(b"-0.000" + b"0" * 17 + b"\0\0" + b"0." + b"0" * 16 + b"e+000", np.uint8)
_A, _DOT, _B, _E = 6, 26, 27, 43  # offsets in _U
# the exponent's sign and digits after the "e", for decpt = -324..309
_EXPONENTS = np.frombuffer("".join(f"{e:+03d}".ljust(4, "\0") for e in range(-325, 309)).encode(), "V4")


def _table() -> np.ndarray:
    """Schubfach's g = g1 2^63 + g0 = floor(beta) + 1 for 10^-k = beta 2^r, 2^125 <= beta
    < 2^126, k = -324..292, as rows g1, g1 >> 32, g1 & M32, g0 >> 32, g0 & M32."""
    g = np.empty((5, 617), np.uint64)
    for i, k in enumerate(range(-324, 293)):
        p = 10 ** abs(k)
        beta = (1 << (125 + p.bit_length())) // p if k > 0 else p << 126 >> p.bit_length()
        g1, g0 = beta + 1 >> 63, beta + 1 & 2**63 - 1
        g[:, i] = g1, g1 >> 32, g1 & 2**32 - 1, g0 >> 32, g0 & 2**32 - 1
    return g


def _shown_cells() -> np.ndarray:
    """The u cells repr shows, the sign apart, in row slot * 17 + n - 1 for n
    digits: slot 0 or 1 for exponent notation with two or three exponent
    digits, decpt + 5 for fixed notation (-4 < decpt <= 16). A lone digit
    before the "." shows in the cell next to it, so that fewer runs of cells
    show (the compaction costs about as much per run as per 20 cells). One
    void item per row."""
    shown = np.zeros((22 * 17, _U.size), bool)
    for (slot, n), row in zip(np.ndindex(22, 17), shown):
        decpt, n = slot - 5, n + 1
        if slot < 2:  # d[.ddd]e+XX
            before, after = 1, n
            row[_E : _E + 5] = True, True, True, True, slot == 1
        elif decpt <= 0:  # 0.000ddd
            before, after = n, 0
            row[1:3] = row[_A + decpt : _A] = True
        else:  # ddd.ddd, or ddd.0 where decpt >= n
            before, after = decpt, max(n, decpt + 1)
        if before == 1 and decpt > 0:
            row[_DOT - 1] = True
        else:
            row[_A : _A + before] = True
        row[_DOT] = after > before
        row[_B + before - 1 : _B + after - 1] = True
    return _field(shown, 0, _U.size)


def _rows() -> np.ndarray:
    """_SHOWN's row for 17 digits at each decpt + 324; n digits are 17 - n
    rows above it. Zero (decpt 1, one digit) is at 0, where its 17 digits,
    all 0, read as none."""
    decpt = np.arange(-324, 310)
    slot = np.where((decpt < -98) | (decpt > 100), 1, np.where((decpt < -3) | (decpt > 16), 0, decpt + 5))
    rows = slot * 17 + 16
    rows[0] = 6 * 17
    return rows


def _field(a: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Cells lo:hi of a's last axis as one void item each."""
    return a[..., lo:hi].view(f"V{hi - lo}")[..., 0]


_G, _SHOWN, _ROWS = _table(), _shown_cells(), _rows()


def _mul_hi(a1, a0, b1, b0, tmp):
    """The high 64 bits of (a1 2^32 + a0)(b1 2^32 + b0) for a1 < 2^31,
    a0, b0 < 2^32 and b1 < 2^28: their middle sum cannot overflow. tmp is
    scratch of the products' shape."""
    hi = a0 * b0
    hi >>= _32
    hi += np.multiply(a0, b1, out=tmp)
    hi += np.multiply(a1, b0, out=tmp)
    hi >>= _32
    hi += np.multiply(a1, b1, out=tmp)
    return hi


def _rop(k, cp):
    """g cp / 2^127 rounded to odd (the floor, its last bit set where the
    quotient is not exact) for table columns g at k and cp < 2^60; cp (shape
    (3, n)) is overwritten. Each row of g is taken where it is used, so that
    it is freed after."""
    b1, b0, tmp = cp >> _32, cp & _M32, np.empty_like(cp)
    z = np.multiply(cp, _G[0].take(k), out=cp)
    z >>= _1
    z += _mul_hi(_G[3].take(k), _G[4].take(k), b1, b0, tmp)
    hi = _mul_hi(_G[1].take(k), _G[2].take(k), b1, b0, tmp)
    hi += np.right_shift(z, _63, out=tmp)
    z <<= _1
    hi |= np.minimum(z, _1, out=z)
    return hi


def _schubfach(bits):
    """(f, k + 324, bad) for float64 bit patterns: f 10^k is each value's
    shortest decimal, f < 10^17, and f = 0 for zeros. bad marks NaN, +-inf and
    the subnormals whose digits repr must give (f is then meaningless there)."""
    c, bq = bits & _M52, bits >> _52
    bq &= _7FF
    irregular = (c - _1 & _1 - bq) >> _63  # 1 for a power of two: the interval below is half as wide
    c |= np.minimum(bq, _1) << _52
    bad = (bq == _7FF) | (c - _1 < _20)
    q = np.maximum(bq, _1).view(np.int64) - 1075
    k = q * 661_971_961_083 - irregular.view(np.int64) * 274_743_187_321 >> 41  # floor(log10(2^q or 3/4 2^q))
    h = (q + (-k * 913_124_641_741 >> 38) + 2).view(np.uint64)  # + floor(log2(10^-k))
    k += 324
    # c's value and interval ends, times 4: 4c, 4c + 2, 4c - 2 (4c - 1 where
    # irregular, 0 for a zero, whose f is then 0)
    cp = np.add(c << _2, _ENDS)
    cp[2] += irregular
    np.minimum(cp[2], cp[0], out=cp[2])
    cp <<= h
    out = c & _1  # an odd c's interval excludes its ends
    del c, bq, q, h, irregular  # freed before the products, the kernel's memory peak
    v = _rop(k, cp)
    # vb + 1, and the candidates' range [L, R] inside the interval:
    # R = floor((vbr - out) / 4), L = ceil((vbl + out) / 4)
    v[1] -= out
    v[2] += out
    v += _ROUND
    v[1:] >>= _2
    vb, vbr, vbl = v
    # vb / 4 rounded half to even, brought inside; or, one digit fewer, the
    # multiple of 10 inside, where there is one (the interval is narrower than 10)
    f = vb >> _2
    f &= _1
    f += vb
    f >>= _2
    np.maximum(f, vbl, out=f)
    np.minimum(f, vbr, out=f)
    vbl += _9
    tens = (vbl.view(np.int64) // 10).view(np.uint64) * _10
    return np.where(tens <= vbr, tens, f), k, bad


class CsvLines:
    """Formats time rows of u values on fixed x columns as the lines
    `{x},{t},{u}\\n`, byte for byte what f"{x},{t!r},{u!r}" writes with x in
    x_strs. Call it with up to `rows` rows at a time."""

    def __init__(self, x_strs: list[str]):
        # each line's cells start with "\nx,t," (the newline ends the line
        # before), right-aligned so that it joins the u cells' run; the row's t
        # replaces the "t", which no repr of a float holds
        x = [f"\n{s},t,".encode() for s in x_strs]
        self.u0, self.rows = max(map(len, x)), max(1, _CHUNK // len(x_strs))
        x = np.frombuffer(b"".join(s.rjust(self.u0, b"\0") for s in x), np.uint8).reshape(len(x_strs), -1)
        self.buf = np.tile(np.hstack([x, np.tile(_U, (len(x_strs), 1))]), (self.rows, 1, 1))
        self.show = self.buf != 0  # each call sets the u cells' own
        self.show[0, 0, : self.u0] &= x[0] != ord("\n")  # no line ends before a call's first

    def __call__(self, t_strs: list[str], u: np.ndarray) -> bytes:
        """The lines of the len(t_strs) rows u (shape (rows, len(x_strs)))."""
        cells = self.buf.reshape(-1, self.buf.shape[2])[: u.size, self.u0 :]
        shown = self.show.reshape(-1, self.show.shape[2])[: u.size, self.u0 :]
        values = np.ascontiguousarray(u, dtype=np.float64).reshape(-1)
        f, k, bad = _schubfach(values.view(np.uint64))
        size = np.searchsorted(_POW10, f, side="right")  # digits of f; 0 for 0
        d = k + size  # decpt + 324, 0 for 0
        # the 17 digits of f 10^(17 - size) in 4-digit groups: the first digit
        # (its group's "000" lands on "0.000"), then four groups, then the first
        # digit again before the "."
        rest = (f * _POW10.take(17 - size)).view(np.int64)
        del f, size
        groups = np.empty((6, u.size), np.int64)
        np.floor_divide(rest, 10**8, out=groups[2])
        np.subtract(rest, groups[2] * 10**8, out=groups[4])
        np.floor_divide(groups[2:5:2], 10**4, out=groups[1:4:2])
        groups[2:5:2] -= groups[1:4:2] * 10**4
        np.floor_divide(groups[1], 10**4, out=groups[0])
        groups[1] -= groups[0] * 10**4
        np.add(groups[0], 10000, out=groups[5])
        _field(cells, _A - 3, _DOT + 1)[:] = _QUADS.take(groups.T, mode="clip").view("V24")[:, 0]
        trailing = (cells[:, _A + 16 : _A - 1 : -1] != 48).argmax(axis=1)  # zeros after the last other digit
        _field(cells, _B, _E)[:] = _field(cells, _A + 1, _A + 17)
        _field(shown, 0, _U.size)[:] = _SHOWN.take(_ROWS.take(d, mode="clip") - trailing)
        shown[:, 0] = values.view(np.uint64) >> 63
        _field(cells, _E + 1, _E + 5)[:] = _EXPONENTS.take(d, mode="clip")
        for i in np.flatnonzero(bad).tolist():
            text = np.frombuffer(repr(float(values[i])).encode(), np.uint8)
            shown[i] = False
            cells[i, _A : _A + text.size], shown[i, _A : _A + text.size] = text, True
        buf, show = self.buf[: len(t_strs)], self.show[: len(t_strs)]
        rows = (buf[i].reshape(-1)[show[i].reshape(-1)].tobytes() for i in range(len(t_strs)))
        return b"".join([row.replace(b"t", t.encode()) for row, t in zip(rows, t_strs)] + [b"\n"])
