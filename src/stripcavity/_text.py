"""CSV text of float columns, byte for byte ``"%.12g" % v`` in every cell.

A finite, non-zero ``v`` whose rounded decimal exponent X lies in [-4, 11]
prints in fixed notation, so its text depends only on the sign, on X and on
the twelve digits m = round(|v| * 10**(11 - X)). That product of two exact
doubles is correctly rounded, and below 10**12 every tie k + 0.5 is itself a
double, so the product never crosses a tie: ``rint`` gives dtoa's digits
unless the product is the tie. Cells with X in [-4, 3], whose integer part
fits one 4-digit group, are numpy arithmetic over whole columns. Cells near
a tie, fixed cells of 10**4 and above, and other exponents go to ``%`` in one
batch; nan, infinities and zeros are constants. Both are written over the
words that the column arithmetic made for every cell.

Each cell is six 4-byte words: the separator before it, the sign and the
"0" of "0.xxx"; one word of integer digits without leading zeros; the point
and the zeros after it; three words of fractional digits without trailing
zeros. Unused bytes are nul and are dropped from the text.

The columns are encoded in blocks of ``_BLOCK_ROWS`` rows, the blocks the
sweep engine computes its curves in. A block's working arrays
(``_Workspace``) are views of the thread's one block arena (``_ARENA``,
1.1 MiB), which the sweep kernel's blocks use too, and every step writes
into them with ``out=``: a warm call allocates no working array. They last
until the thread's next sweep block or encoded block. The text is handed
out in pieces of ``_BLOCK_ROWS`` cells, each cut from 96 KiB of words:
below malloc's default 128 KiB mmap threshold, so a warm process writes
every piece in the same heap memory. A four-column block cut whole,
384 KiB, took fresh pages each time, about 400 page faults a 15k-row
curve."""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator, Sequence

import numpy as np

__all__ = ["encode_blocks", "encode_rows"]

# Rows per block: the working arrays of a block stay in cache, and their
# size, not the grid's, bounds the memory the encoder needs.
_BLOCK_ROWS = 1 << 12
_WORDS = 6
_TEXT = np.dtype((np.void, 4 * _WORDS - 4))  # a cell's words after the first
# dtoa cells fill those 20 bytes ("%.12g" needs at most 19, as in
# "-4.94065645841e-324"); the padding spaces are dropped with the nul bytes.
_FALLBACK = f"%-{_TEXT.itemsize}.12g"
_TIE_MARGIN = 1e-3  # only a product exactly at a tie is ambiguous; this is slack

_POW10 = 10.0 ** np.arange(16)  # 10**k is an exact double for k <= 22
_IPOW10 = 10 ** np.arange(13, dtype=np.int64)


def _aligned(shape, dtype=np.float64) -> np.ndarray:
    """An empty C-ordered array starting on a 64-byte boundary, one AVX-512
    vector; numpy aligns only to 16, and a vector that straddles two cache
    lines is slower to load and store."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    raw = np.empty(size + 63, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + size].view(dtype).reshape(shape)


def _word(text: bytes) -> np.uint32:
    return np.frombuffer(text.ljust(4, b"\0"), np.uint32)[0]


def _group_table() -> np.ndarray:
    """Words of the 4-digit groups 0..9999: as they are, without leading
    zeros, and without trailing zeros (0 is all nul in the last two)."""
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        digits[..., place] = ascii_digits.reshape((10,) + (1,) * (3 - place))
    digits = digits.reshape(10_000, 4)
    lead, trail = digits.copy(), digits.copy()
    after_lead = before_trail = np.zeros(10_000, bool)
    for place in range(4):
        after_lead = after_lead | (digits[:, place] != 48)
        lead[:, place] *= after_lead
        before_trail = before_trail | (digits[:, 3 - place] != 48)
        trail[:, 3 - place] *= before_trail
    return np.concatenate([digits, lead, trail]).view(np.uint32).ravel()


_GROUPS = _group_table()
_LEAD, _TRAIL = 10_000, 20_000  # offsets of the stripped tables in _GROUPS
_POINTS = np.array([_word(b"." + b"0" * k) for k in range(4)])
_NEWLINE, _COMMA, _MINUS, _UNITS = _word(b"\n"), _word(b","), _word(b"\0-"), _word(b"\0\0" b"0")
_CONSTANTS = np.array([b"nan", b"inf", b"-inf", b"0", b"-0"], f"S{_TEXT.itemsize}").view(_TEXT)


def _items(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-D array as a 1-D array of opaque items.

    numpy copies masked items an order of magnitude faster than masked rows.
    """
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize)))[:, 0]


def _encoder_layout(columns: int) -> tuple:
    """The ``(shape, dtype)`` of each working array of an encoded block of
    ``columns`` columns: the stacked cells and four 8-byte working columns,
    viewed as float64, int64 or uint32 as each step needs, three bool and one
    uint32 working column, and the words, with one more cell for the newline
    that ends the block. 71 bytes a cell, and 24 for the newline cell."""
    cells = columns * _BLOCK_ROWS
    return (((5, cells), np.float64), ((3, cells), bool), ((cells,), np.uint32),
            ((cells + 1, _WORDS), np.uint32))


def _spans(columns) -> tuple[list, int]:
    """Where each ``(shape, dtype)`` in ``columns`` lies in an arena that lays
    them end to end, each from a 64-byte boundary: their ``(start, stop)``
    bytes and the arena's size."""
    spans, end = [], 0
    for shape, dtype in columns:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        spans.append((end, end + size))
        end += -(-size // 64) * 64
    return spans, end


class _Arena(threading.local):
    """One block's working memory, one 64-byte-aligned uint8 array per thread.

    A sweep block (`stripcavity._kernels`) and an encoded block take their
    working arrays from it in turn, never at once: a curve's columns are
    finished before its first line of text is made. The thread's first block
    makes it, 1.1 MiB, the size of a curve's four-column encoded block, which
    also holds a 776 KiB sweep block; only a wider encoded block grows it. A
    block's views last until the thread's next sweep block or encoded block.
    """

    def __init__(self) -> None:
        # this runs in the importing thread at import, so the arena itself
        # waits for the thread's first block
        self.bytes = np.empty(0, np.uint8)
        self.views = {}  # the views of each layout, made once per arena
        self.turns = 0  # views taken, so that an encoded block can tell it was overtaken


_ARENA = _Arena()


def _arena_views(*columns) -> list[np.ndarray]:
    """Views of the thread's arena, one per ``(shape, dtype)`` in ``columns``,
    laid out by `_spans`. The arena is made, at least a four-column encoded
    block's size, or grown, never shrunk, to hold them."""
    _ARENA.turns += 1
    views = _ARENA.views.get(columns)
    if views is None:
        spans, size = _spans(columns)
        if _ARENA.bytes.size < size:
            size = max(size, _spans(_encoder_layout(4))[1])
            _ARENA.bytes, _ARENA.views = _aligned(size, np.uint8), {}
        arena = _ARENA.bytes
        views = _ARENA.views[columns] = [
            arena[start:stop].view(dtype).reshape(shape)
            for (start, stop), (shape, dtype) in zip(spans, columns)]
    return views


class _Workspace:
    """The working arrays of an encoded block of ``columns`` columns
    (`_encoder_layout`), views of the thread's arena, which last until the
    thread's next sweep block or encoded block. Each block writes every
    array before it reads it. For 4 columns they take 1.1 MiB, the whole
    arena."""

    def __init__(self, columns: int) -> None:
        layout = _encoder_layout(columns)
        self.wide, self.flags, self.gather, self.words = _arena_views(*layout)


def _cell_words(ws: _Workspace, n: int, separators: np.ndarray) -> np.ndarray:
    """(n, _WORDS) uint32 text of the first n cells of ``ws.wide[0]``, each
    opening with its column's separator."""
    v, a, xf, s, x = (row[:n] for row in ws.wide)
    fast, b, special = (row[:n] for row in ws.flags)
    u, words = ws.gather[:n], ws.words[:n]
    x = x.view(np.int64)

    np.abs(v, out=a)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log10(a, out=xf)
    np.floor(xf, out=xf)
    # log10 |v| is finite unless v is 0, infinite or nan: the constants
    np.logical_not(np.isfinite(xf, out=fast), out=special)
    fast &= np.greater_equal(xf, -4, out=b)
    fast &= np.less_equal(xf, 3, out=b)
    # the other cells compute on 1.0, which keeps the arithmetic finite
    np.logical_not(fast, out=b)
    np.copyto(xf, 0, where=b)
    np.copyto(x, xf, casting="unsafe")
    np.copyto(a, 1.0, where=b)
    k = xf.view(np.int64)
    np.take(_POW10, np.subtract(11, x, out=k), out=s, mode="clip")
    np.multiply(a, s, out=s)
    m = np.rint(s, out=a)
    # m must have twelve digits: a log10 one off, or rounding up to the next
    # power of ten, lands outside and goes to dtoa like a tie.
    fast &= np.greater_equal(m, 1e11, out=b)
    fast &= np.less(m, 1e12, out=b)
    t = np.subtract(s, np.floor(s, out=xf), out=xf)
    fast &= np.greater(np.abs(np.subtract(t, 0.5, out=t), out=t), _TIE_MARGIN, out=b)

    # Every cell gets the words of the fixed notation; the others are written
    # over below, so only the separator may stand in their first word.
    sign = xf.view(np.uint32)[:n]  # xf is free again
    np.multiply(np.logical_and(np.less(v, 0, out=b), fast, out=b), _MINUS, out=sign)
    np.multiply(np.logical_and(np.less(x, 0, out=b), fast, out=b), _UNITS, out=u)
    np.bitwise_or(sign, u, out=u)
    np.bitwise_or(u.reshape(-1, len(separators)), separators,
                  out=words[:, 0].reshape(-1, len(separators)))
    _fixed_words(m, x, k, s.view(np.int64), words, u, b)

    text = _items(words[:, 1:])
    if special.any():
        w = v[special]
        text[special] = _CONSTANTS[np.where(np.isnan(w), 0, 1 + 2 * (w == 0) + np.signbit(w))]
    rest = np.logical_not(np.logical_or(fast, special, out=b), out=b)
    if rest.any():
        values = v[rest].tolist()
        padded = (_FALLBACK * len(values)) % tuple(values)
        text[rest] = np.frombuffer(padded.encode("ascii"), _TEXT)
    return words


def _fixed_words(m: np.ndarray, x: np.ndarray, k: np.ndarray, p: np.ndarray,
                 words: np.ndarray, u: np.ndarray, b: np.ndarray) -> None:
    """Words 1 to 5 of every cell as if it had exponent x <= 3 and the twelve
    digits m (float64, reused); k and p (int64), u (uint32) and b (bool) are
    scratch columns."""
    # m * 10**(x + 1) holds the integer part above 10**12 and below it the
    # fraction moved up to twelve digits (for x < 0 the fraction is m)
    np.take(_IPOW10, np.maximum(np.add(x, 1, out=k), 0, out=k), out=p, mode="clip")
    np.copyto(k, m, casting="unsafe")
    digits = np.multiply(k, p, out=k)
    integer = np.floor_divide(digits, 10**12, out=m.view(np.int64))
    fraction = np.subtract(digits, np.multiply(integer, 10**12, out=p), out=digits)
    words[:, 1] = np.take(_GROUPS, np.add(integer, _LEAD, out=p), out=u, mode="clip")
    np.take(_POINTS, np.maximum(np.subtract(-1, x, out=p), 0, out=p), out=u, mode="clip")
    words[:, 2] = np.multiply(u, np.greater(fraction, 0, out=b), out=u)
    # its three 4-digit groups, by fixed divisors
    f0 = np.floor_divide(fraction, 10**8, out=integer)
    low = np.subtract(fraction, np.multiply(f0, 10**8, out=p), out=fraction)
    f1 = np.floor_divide(low, 10**4, out=p)
    f2 = np.subtract(low, np.multiply(f1, 10**4, out=x), out=low)
    # a group loses its trailing zeros when only zero groups follow it
    np.equal(np.bitwise_or(f1, f2, out=x), 0, out=b)
    np.add(f0, np.multiply(b, _TRAIL, out=x), out=f0)
    words[:, 3] = np.take(_GROUPS, f0, out=u, mode="clip")
    np.add(f1, np.multiply(np.equal(f2, 0, out=b), _TRAIL, out=x), out=f1)
    words[:, 4] = np.take(_GROUPS, f1, out=u, mode="clip")
    words[:, 5] = np.take(_GROUPS, np.add(f2, _TRAIL, out=f2), out=u, mode="clip")


def encode_blocks(columns: Sequence[np.ndarray]) -> Iterator[str]:
    """CSV body of equal-length float columns, each row ending in a newline,
    as pieces of text to write in turn.

    Every cell is exactly ``"%.12g" % float(v)``. A block is encoded when the
    last piece of the one before has been taken, so the body is never held
    whole. Its pieces are cut from the thread's arena, so a sweep block, or
    another encoded block, that the thread runs between a block's first
    piece and its last raises RuntimeError where the text would be wrong.
    """
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    # a cell opens with the byte before it: ',' or the '\n' ending a row
    separators = np.full(len(columns), _COMMA, np.uint32)
    separators[0] = _NEWLINE
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        ws = _Workspace(len(columns))
        turn = _ARENA.turns
        block = [column[lo : lo + _BLOCK_ROWS] for column in columns]
        n = len(block[0]) * len(columns)
        np.stack(block, axis=1, out=ws.wide[0, :n].reshape(-1, len(columns)))
        words = _cell_words(ws, n, separators)
        # the block's first row opens with nothing, and a newline ends its last
        words[0, 0] ^= _NEWLINE
        ws.words[n] = 0
        ws.words[n, 0] = _NEWLINE
        words = ws.words[: n + 1]
        for at in range(0, n + 1, _BLOCK_ROWS):
            if _ARENA.turns != turn:
                raise RuntimeError("the thread's block arena was taken by another block "
                                   "while this encoded block was being cut")
            yield words[at : at + _BLOCK_ROWS].tobytes().translate(None, b"\0 ").decode("ascii")


def encode_rows(columns: Sequence[np.ndarray]) -> str:
    """The whole CSV body of `encode_blocks`."""
    return "".join(encode_blocks(columns))
