import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripcavity._text import encode_rows


def assert_encodes(columns):
    """encode_rows gives the rows of the row-at-a-time "%.12g" template."""
    rows = list(zip(*(np.asarray(column, dtype=np.float64).tolist() for column in columns)))
    want = [",".join("%.12g" % v for v in row) for row in rows]
    text = encode_rows(columns)
    assert text.endswith("\n") or not rows
    got = text.split("\n")[:-1]
    assert len(got) == len(want)
    # the first differing row, not a diff of the whole body
    assert next(((row, g, w) for row, g, w in zip(rows, got, want) if g != w), None) is None


def adversarial():
    """Cells at every edge of the fast path, both signs."""
    edges = [10.0**-4, 10.0**11, 10.0**12]
    cells = [np.nextafter(e, d) for e in edges for d in (0.0, np.inf)] + edges
    cells += [
        999999999999.5, 99999999999.5, 0.5, 1.5, 2.5, 0.125, 1.25e-4, 123456789012.5,
        0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1e-300, 1.7976931348623157e308,
        0.1, 1 / 3, 2 / 3, 9.9999999999995, 9.99999999999949, 0.00099999999999995,
    ]
    cells += [10.0**k for k in range(-8, 17)]
    # the doubles nearest to ties at the twelfth digit, and their neighbours,
    # in every fixed-notation exponent
    ties = np.array([
        (10**11 + 2 * k + 1) / 2 * 10.0 ** (x - 11)
        for k in (0, 7, 4321, 271828182, 4.5 * 10**11 - 1) for x in range(-4, 12)
    ])
    cells = np.concatenate([cells, ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
    return np.concatenate([cells, -cells])


def test_adversarial_cells():
    cells = adversarial()
    for shift in range(4):  # every cell in every column
        columns = [np.roll(cells, shift + k) for k in range(4)]
        assert_encodes(columns)


def test_special_columns():
    n = 14_501
    nan = np.full(n, np.nan)
    signed = np.resize([np.nan, np.inf, -np.inf, 0.0, -0.0, -np.nan], n)
    columns = [np.linspace(1, 30, n), nan, signed, -signed]
    assert_encodes(columns)
    assert encode_rows([nan] * 4) == "nan,nan,nan,nan\n" * n


@pytest.mark.parametrize("seed", range(3))
def test_mixed_exponent_columns(seed):
    rng = np.random.default_rng(seed)
    n = 10_000  # more than one encoding block
    columns = [
        rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n),
        rng.standard_normal(n) * 10.0 ** rng.integers(-6, 14, n),
        rng.integers(1, 10**13, n) / 10.0 ** rng.integers(0, 18, n),
        rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64).view(np.float64),
    ]
    assert_encodes(columns)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_any_double(values):
    columns = [values, values[::-1], values[1:] + values[:1]]
    assert_encodes(columns)


def test_empty_and_single_column():
    assert encode_rows([np.array([])] * 4) == ""
    assert encode_rows([np.array([1.5, -0.0, 1e22])]) == "1.5\n-0\n1e+22\n"
