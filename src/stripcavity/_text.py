"""CSV text of float columns, byte for byte ``"%.12g" % v`` in every cell.

A finite, non-zero ``v`` whose rounded decimal exponent X lies in [-4, 11]
prints in fixed notation, so its text depends only on the sign, on X and on
the twelve digits m = round(|v| * 10**(11 - X)). That product of two exact
doubles is correctly rounded, and below 10**12 every tie k + 0.5 is itself a
double, so the product never crosses a tie: ``rint`` gives dtoa's digits
unless the product is the tie. Cells with X in [-4, 3], whose integer part
fits one 4-digit group, are numpy arithmetic over whole columns. Cells near
a tie, fixed cells of 10**4 and above, and other exponents go to ``%`` in one
batch; nan, infinities and zeros are constants.

Each cell is six 4-byte words: the separator before it, the sign and the
"0" of "0.xxx"; one word of integer digits without leading zeros; the point
and the zeros after it; three words of fractional digits without trailing
zeros. Unused bytes are nul and are dropped from the text.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["encode_rows"]

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


def _fixed_words(negative: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(n, _WORDS) uint32 text of the cells with sign, exponent X <= 3 and digits m."""
    # m = integer * 10**e + rest; the fraction is rest moved up to twelve digits
    e = np.minimum(11 - x, 12)
    integer = m // _IPOW10[e]
    fraction = (m - integer * _IPOW10[e]) * _IPOW10[12 - e]
    # its three 4-digit groups (numpy's % is slower than this)
    f0 = fraction // 10**8
    low = fraction - f0 * 10**8
    f1 = low // 10**4
    f2 = low - f1 * 10**4

    words = np.empty((len(m), _WORDS), np.uint32)
    words[:, 0] = _MINUS * negative | _UNITS * (x < 0)
    words[:, 1] = _GROUPS[_LEAD + integer]
    words[:, 2] = np.where(fraction > 0, _POINTS[np.maximum(-1 - x, 0)], 0)
    words[:, 3] = _GROUPS[np.where((f1 | f2) > 0, f0, _TRAIL + f0)]
    words[:, 4] = _GROUPS[np.where(f2 > 0, f1, _TRAIL + f1)]
    words[:, 5] = _GROUPS[_TRAIL + f2]
    return words


def _cell_words(v: np.ndarray) -> np.ndarray:
    """(n, _WORDS) uint32 text of each cell; the first byte is left nul."""
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.floor(np.log10(a))
    fast = np.isfinite(x) & (x >= -4) & (x <= 3)
    # the other cells compute on 1.0, which keeps the arithmetic finite
    x = np.where(fast, x, 0).astype(np.int64)
    s = np.where(fast, a, 1.0) * _POW10[11 - x]
    m = np.rint(s)
    # m must have twelve digits: a log10 one off, or rounding up to the next
    # power of ten, lands outside and goes to dtoa like a tie.
    fast &= (m >= 1e11) & (m < 1e12) & (np.abs(s - np.floor(s) - 0.5) > _TIE_MARGIN)

    words = np.zeros((len(v), _WORDS), np.uint32)
    _items(words)[fast] = _items(_fixed_words(v[fast] < 0, x[fast], m[fast].astype(np.int64)))
    text = _items(words[:, 1:])
    special = ~np.isfinite(v) | (v == 0)
    w = v[special]
    text[special] = _CONSTANTS[np.where(np.isnan(w), 0, 1 + 2 * (w == 0) + np.signbit(w))]
    rest = ~(fast | special)
    if rest.any():
        values = v[rest].tolist()
        padded = (_FALLBACK * len(values)) % tuple(values)
        text[rest] = np.frombuffer(padded.encode("ascii"), _TEXT)
    return words


def encode_rows(columns: Sequence[np.ndarray]) -> str:
    """CSV body of equal-length float columns, each row ending in a newline.

    Every cell is exactly ``"%.12g" % float(v)``.
    """
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    # a cell opens with the byte before it: ',' or the '\n' ending a row
    separators = np.full(len(columns), _COMMA, np.uint32)
    separators[0] = _NEWLINE
    parts = []
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        cells = np.stack([column[lo : lo + _BLOCK_ROWS] for column in columns], axis=1)
        words = _cell_words(cells.ravel()).reshape(-1, len(columns), _WORDS)
        words[:, :, 0] |= separators
        parts.append(words.tobytes().translate(None, b"\0 ").decode("ascii"))
    if parts:
        parts[0] = parts[0][1:]
        parts.append("\n")
    return "".join(parts)
