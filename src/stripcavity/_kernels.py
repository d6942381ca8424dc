"""Chain-product kernels behind the transfer-matrix engine (numpy only).

Every exact evaluation is the ordered product, input side first, of 2x2
complex layer matrices

    L(d) = [[cosh(g*d), eta*sinh(g*d)], [sinh(g*d)/eta, cosh(g*d)]]

with g = i*k0*n and eta = 1/n per layer. Two shapes of work use it:

- ``chain_product``: one stack, one running product, left to right.
  ``chain_prefixes`` keeps every intermediate product of that same loop, so
  entry j is bit-identical to ``chain_product`` of the first j layers; the
  reflector period study scatters all its truncations from one pass, as
  columns.
- ``chain_sweep``: one layer swept over a block of at most ``_BLOCK_ROWS``
  thicknesses, the whole chain multiplied left to right for every point, the
  running product held as one ``(2, 2, m)`` array of its two columns and
  updated in place, in a ``_Workspace`` of views of the thread's one block
  arena (`stripcavity._text`, 1.1 MiB), which the CSV encoder's blocks use
  too. Its results last until the thread's next sweep block or encoded
  block. Curves keep this order and these per-layer scalars so their CSV
  digits do not move.

A prepared chain comes with its ``codes``, one per layer, from
`stripcavity.tmm._prepare`: layers of one code have the same index and
thickness bits. ``chain_prefixes`` and ``layer_terms`` compute each code's
terms once, into the chain's one distinct-layer table, and look every layer
up there by its code, so an N-period reflector costs three layers' cosh and
sinh. ``chain_sweep`` takes the per-layer list of ``layer_terms``, which a
curve's blocks share. ``chain_prefixes`` runs its product, and the table's
terms but one numpy division, in Python complex.

The argmax search calls ``chain_product`` for the layers on either side of
the swept one, often none, and does the rest in
`stripcavity.tmm.absorptance_of_layer`.

The chain is the coherent 2x2 product of Byrnes, "Multilayer optical
calculations", arXiv:1603.02720.
"""

from __future__ import annotations

import cmath

import numpy as np

from ._text import _BLOCK_ROWS, _arena_views
from .materials import InputError

# The engine is numpy only; benchmark provenance records still read this flag.
NUMBA_ENABLED = False

_IDENTITY = (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)


def _positions(codes) -> dict:
    """Each distinct code, in order of first appearance, with the position
    of a layer that has it."""
    return dict(zip(codes, range(len(codes))))


def chain_prefixes(n, d, codes, k0) -> list[tuple[complex, complex, complex, complex]]:
    """Running products of the chain: entry j multiplies layers 0..j-1.

    Entry 0 is the identity and entry len(n) is the whole chain; an empty
    chain is the identity at once. The chain's distinct-layer table holds
    each code's terms, computed once from one layer of that code, in order
    of first appearance, so an overflow names the first layer that
    overflows; the product looks every layer's terms up by its code. It runs
    in Python complex, whose ``*`` and ``+`` round as numpy's scalar ones
    do. So do the table's terms, but for ``s / n``, a numpy division made
    Python complex: CPython divides complex numbers otherwise.
    """
    out = [_IDENTITY]
    if not codes:
        return out
    table = {}
    ik0 = 1j * k0
    for code, j in _positions(codes).items():
        nj = n[j]
        index = complex(nj)
        gd = ik0 * index * float(d[j])
        try:
            c = cmath.cosh(gd)
            s = cmath.sinh(gd)
        except OverflowError:
            raise InputError(
                f"a {d[j]:.6g} nm layer of index {index:.6g} overflows the "
                "transfer matrix at this wavelength"
            ) from None
        table[code] = c, s * index, complex(s / nj)
    f11, f12, f21, f22 = _IDENTITY
    for c, g, b in map(table.__getitem__, codes):
        f11, f12, f21, f22 = (
            f11 * c + f12 * g,
            f11 * b + f12 * c,
            f21 * c + f22 * g,
            f21 * b + f22 * c,
        )
        out.append((f11, f12, f21, f22))
    return out


def chain_product(n, d, codes, k0):
    """Ordered product of the layer matrices, input side first."""
    return chain_prefixes(n, d, codes, k0)[-1]


class _Workspace:
    """The columns of one sweep block, views of the thread's block arena
    (1.1 MiB): eleven complex columns of ``_BLOCK_ROWS`` entries (704 KiB),
    two float and two bool columns (72 KiB), 776 KiB in all. Each block
    takes them afresh, so none outlives an arena that an encoded block of
    more columns replaced, and they last until the thread's next sweep block
    or encoded block.

    A block of m rows takes the first 4m entries of ``complex`` as its
    running product and the 4m from ``4 * _BLOCK_ROWS`` as the product's
    scratch, each one contiguous ``(2, 2, m)`` array as a whole-grid one is,
    and ``terms`` for the swept layer's three. Once the product is done,
    `stripcavity.tmm` forms the block's coefficients in the seven ``scratch``
    columns, which overlay the scratch and ``terms``, and in ``real`` and
    ``flags``. Every column starts on a 64-byte boundary: at numpy's 16-byte
    alignment every vector of a column straddled two cache lines, and the
    kernel ran about 10% slower.
    """

    def __init__(self) -> None:
        self.complex, self.real, self.flags = _arena_views(
            ((11 * _BLOCK_ROWS,), np.complex128), ((2, _BLOCK_ROWS), np.float64),
            ((2, _BLOCK_ROWS), bool))

    def product(self, m: int) -> np.ndarray:
        return self.complex[: 4 * m].reshape(2, 2, m)

    def product_scratch(self, m: int) -> np.ndarray:
        return self.complex[4 * _BLOCK_ROWS : 4 * _BLOCK_ROWS + 4 * m].reshape(2, 2, m)

    def terms(self, m: int) -> np.ndarray:
        return self.complex[8 * _BLOCK_ROWS :].reshape(3, _BLOCK_ROWS)[:, :m]

    def scratch(self, m: int) -> np.ndarray:
        return self.complex[4 * _BLOCK_ROWS :].reshape(7, _BLOCK_ROWS)[:, :m]


_START = np.eye(2, dtype=np.complex128)[:, :, None]  # the identity as (a, b) columns


def layer_terms(n, d, codes, idx, k0) -> list:
    """Each layer's ``(cosh(gd), s * n[j], s / n[j])`` with ``s = sinh(gd)``,
    as 0-d arrays: the chain's distinct-layer table, one entry per code of a
    fixed layer, looked up by code, so every repeat of a layer holds the one
    same tuple. None at the swept ``idx``; its code gets an entry only where
    a fixed layer shares it. ``c``, ``s * n[j]`` and ``s / n[j]`` are
    numpy-scalar results: numpy rounds ``s * n`` over an array of layers
    differently from the scalar product. A 0-d array takes a ufunc's
    dispatch faster than a scalar, and multiplies bit for bit the same."""
    fixed = list(codes)
    fixed[idx] = None
    positions = _positions(fixed)
    del positions[None]
    table = {}
    for code, j in positions.items():
        gd = 1j * k0 * n[j] * d[j]
        s = np.sinh(gd)
        table[code] = np.asarray(np.cosh(gd)), np.asarray(s * n[j]), np.asarray(s / n[j])
    return list(map(table.get, fixed))


def chain_sweep(n, d, idx, values, k0, terms):
    """The chain product batched over the thicknesses ``values`` of layer ``idx``.

    ``values`` is one block, at most ``_BLOCK_ROWS`` thicknesses, and
    ``terms`` the chain's `layer_terms`, made once for all its blocks: every
    repeat of a layer brings its one entry of the distinct-layer table. The
    running product is held as its two columns, ``a = (f11, f21)`` and
    ``b = (f12, f22)``, the two halves of one ``(2, 2, m)`` array ``ab``,
    updated in place through one scratch array ``t`` of that shape: four
    ufunc calls per layer, their outputs passed by position. Each element
    gets the same multiplies and additions as the entry-by-entry product,
    the addends of ``b`` in swapped order, which IEEE addition does not see.
    The swept layer's terms are the same expressions over ``values``. The
    four entries returned are views of the thread's block arena, which its
    next sweep block or encoded block overwrites.
    """
    m = values.shape[0]
    if m > _BLOCK_ROWS:
        raise ValueError(f"a sweep block holds at most {_BLOCK_ROWS} thicknesses, got {m}")
    ws = _Workspace()
    ab, t = ws.product(m), ws.product_scratch(m)
    t0, t1 = t
    np.copyto(ab, _START)
    a, b = ab
    for layer in terms:
        if layer is None:
            c, g, h = layer = ws.terms(m)
            np.multiply(1j * k0 * n[idx], values, out=h)  # gd
            np.cosh(h, out=c)
            np.sinh(h, out=h)  # s
            np.multiply(h, n[idx], out=g)
            np.divide(h, n[idx], out=h)
        c, g, h = layer
        np.multiply(b, g, t0)
        np.multiply(a, h, t1)
        np.multiply(ab, c, ab)
        np.add(ab, t, ab)
    return a[0], b[0], a[1], b[1]
