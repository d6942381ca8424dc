import threading
import tracemalloc

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
    edges = [10.0**-4, 10.0**4, 10.0**11, 10.0**12]
    cells = [np.nextafter(e, d) for e in edges for d in (0.0, np.inf)] + edges
    cells += [
        999999999999.5, 99999999999.5, 0.5, 1.5, 2.5, 0.125, 1.25e-4, 123456789012.5,
        0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1e-300, 1.7976931348623157e308,
        0.1, 1 / 3, 2 / 3, 9.9999999999995, 9.99999999999949, 0.00099999999999995,
        # the last numpy cell below 10**4, and one that rounds up to it
        9999.999999994, 9999.999999996,
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


@pytest.mark.parametrize("step", [2.0, 2 / 3])
def test_column_of_ten_thousand_and_above(step):
    """A whole column in [10**4, 10**12), beside [0, 1] columns, over several blocks."""
    large = np.arange(1e4, 4e4, step)
    n = len(large)
    unit = np.linspace(0, 1, n)
    columns = [unit, large, np.random.default_rng(0).random(n), 1 - unit]
    assert n > 2 * 4096
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


def curve_columns(rows, count, seed):
    """Columns like a sweep's: the grid, then values in [0, 2), with now and
    then a cell that is a constant or goes to dtoa."""
    rng = np.random.default_rng(seed)
    columns = [np.linspace(1, 30, rows)] + [2 * rng.random(rows) for _ in range(count - 1)]
    others = np.array([np.nan, np.inf, -0.0, 0.0, 1e20, -2.5e-7, 0.5, 12345.678])
    for column in columns[1:]:
        picks = rng.random(rows) < 0.01
        column[picks] = rng.choice(others, picks.sum())
    return columns[:count]


def in_new_thread(run):
    """run() in a thread of its own, which starts without an encoder
    workspace; what it raises is raised here."""
    raised = []

    def target():
        try:
            run()
        except BaseException as exc:  # noqa: BLE001 (re-raised in the caller)
            raised.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join()
    if raised:
        raise raised[0]


def test_workspace_serves_calls_of_every_size():
    """One thread's calls share its workspace: a call that is shorter, or has
    fewer columns, than an earlier one sees none of that call's cells."""
    calls = [(14_501, 4), (1451, 4), (1, 1), (0, 4), (4097, 5), (4096, 4), (4097, 4), (1451, 4)]

    def run():
        for seed, (rows, count) in enumerate(calls):
            assert_encodes(curve_columns(rows, count, seed))

    in_new_thread(run)


def test_threads_encode_at_once():
    """Each thread has its own workspace, so threads encoding at the same
    time each get the text that one thread alone gets."""
    column_sets = [curve_columns(14_501, 4, 1), curve_columns(1451, 5, 2),
                   curve_columns(4097, 3, 3)]
    texts = [encode_rows(columns) for columns in column_sets]
    start = threading.Barrier(len(column_sets))
    same = []  # a thread that raises adds no more entries

    def encode(columns, text):
        start.wait()
        for _ in range(40):
            same.append(encode_rows(columns) == text)

    threads = [threading.Thread(target=encode, args=pair) for pair in zip(column_sets, texts)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert same.count(True) == 40 * len(column_sets)
    for columns in column_sets:
        assert_encodes(columns)


@pytest.mark.parametrize("rows, bound", [(1451, 5.0), (14_501, 3.0)])
def test_warm_call_allocates_little_beyond_its_text(rows, bound):
    """A warm call allocates its text and the bytes it is cut from, not
    working arrays: its transient peak is at most ``bound`` times the text."""
    columns = curve_columns(rows, 4, 0)
    encode_rows(columns)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        text = encode_rows(columns)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= bound * len(text), peak / len(text)
