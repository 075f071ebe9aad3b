"""The numpy text of solution.csv's u values against repr, bit pattern by bit
pattern: heatrobin._shortest must give repr's bytes for every float64."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heatrobin import _shortest

# the values where a layout rule or the digit search switches
SWITCHES = (1e-5, 1e-4, 1e16, 1e17, 1e100, 1e-100, 1e99, 1e-99, 1e-308, 2.0**53, 2.0**63, 2.0**64)


def _both(values, width):
    """(the lines CsvLines makes for values in rows of width columns, repr's
    lines): x and t are empty, so each line is ",," and the value."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, width)
    lines = _shortest.CsvLines([""] * width)
    got = b"".join(
        lines([""] * len(rows), rows)
        for rows in (values[lo : lo + lines.rows] for lo in range(0, len(values), lines.rows))
    )
    return got, "".join(f",,{v!r}\n" for v in values.reshape(-1).tolist()).encode()


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_any_bit_pattern_gives_reprs_text(bits):
    got, want = _both(np.array([bits], np.uint64).view(np.float64), 1)
    assert got == want


def test_a_million_patterns_powers_of_two_and_switches_give_reprs_bytes():
    rng = np.random.default_rng(31)
    random_bits = rng.integers(0, 2**64, 2**20, dtype=np.uint64, endpoint=False)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    steps = np.arange(-100, 101, dtype=np.int64)  # each switch and 100 neighbours either way
    neighbours = (np.array(SWITCHES).view(np.int64)[:, None] + steps).view(np.float64)
    values = np.concatenate([random_bits.view(np.float64), powers, neighbours.reshape(-1)])
    values = np.concatenate([values, -values[2**20 :]])
    values = np.resize(values, -(-values.size // 1024) * 1024)
    got, want = _both(values, 1024)
    assert got == want


def test_repr_formats_only_non_finite_values_and_the_smallest_subnormals():
    # below s = 100 Schubfach keeps two digits, as Java's Double.toString
    # does, so those 20 magnitudes go through repr; the kernel serves the rest
    subnormals = np.arange(1, 200, dtype=np.uint64)
    special = np.array([0.0, 1.0, 2.0**-1022, 1.7976931348623157e308, np.inf, np.nan]).view(np.uint64)
    bits = np.concatenate([subnormals, special])
    bits = np.concatenate([bits, bits | np.uint64(2**63)])
    _, _, bad = _shortest._schubfach(bits.copy())
    values = bits.view(np.float64)
    assert np.array_equal(bad, ~np.isfinite(values) | (np.abs(values) <= 20 * 2.0**-1074) & (values != 0))
