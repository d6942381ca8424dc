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

Both compute each distinct layer's terms once and reuse them wherever it
repeats, so an N-period reflector costs three layers' cosh and sinh; a
curve's blocks share one ``layer_terms``. ``chain_prefixes`` runs its
product, and a distinct layer's terms but one numpy division, in Python
complex; an empty chain is the identity at once, without the memo's keys.

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

# A layer's memo key: the bits of its complex128 index and float64 thickness,
# which unlike ``==`` keep 0.0 and -0.0 apart. Equal keys give equal terms.
_INDEX_BITS = np.dtype((np.void, 16))
_THICKNESS_BITS = np.dtype((np.void, 8))


def chain_prefixes(n, d, k0) -> list[tuple[complex, complex, complex, complex]]:
    """Running products of the chain: entry j multiplies layers 0..j-1.

    Entry 0 is the identity and entry len(n) is the whole chain. The product
    runs in Python complex, whose ``*`` and ``+`` round as numpy's scalar
    ones do. So do a distinct layer's terms, but for ``s / n``, a numpy
    division made Python complex: CPython divides complex numbers otherwise.
    """
    out = [_IDENTITY]
    if not n.shape[0]:
        return out
    f11, f12, f21, f22 = _IDENTITY
    memo = {}
    ik0 = 1j * k0
    keys = zip(n.view(_INDEX_BITS).tolist(), d.view(_THICKNESS_BITS).tolist(), strict=True)
    for j, key in enumerate(keys):
        terms = memo.get(key)
        if terms is None:
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
            terms = memo[key] = c, s * index, complex(s / nj)
        c, g, b = terms
        f11, f12, f21, f22 = (
            f11 * c + f12 * g,
            f11 * b + f12 * c,
            f21 * c + f22 * g,
            f21 * b + f22 * c,
        )
        out.append((f11, f12, f21, f22))
    return out


def chain_product(n, d, k0):
    """Ordered product of the layer matrices, input side first."""
    return chain_prefixes(n, d, k0)[-1]


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


def layer_terms(n, d, idx, k0) -> list:
    """Each layer's ``(cosh(gd), s * n[j], s / n[j])`` with ``s = sinh(gd)``,
    as 0-d arrays, computed once per distinct layer; None at the swept
    ``idx``. ``c``, ``s * n[j]`` and ``s / n[j]`` are numpy-scalar results:
    numpy rounds ``s * n`` over an array of layers differently from the
    scalar product. A 0-d array takes a ufunc's dispatch faster than a
    scalar, and multiplies bit for bit the same."""
    terms, memo = [], {}
    keys = zip(n.view(_INDEX_BITS).tolist(), d.view(_THICKNESS_BITS).tolist(), strict=True)
    for j, key in enumerate(keys):
        if j == idx:
            terms.append(None)
            continue
        layer = memo.get(key)
        if layer is None:
            gd = 1j * k0 * n[j] * d[j]
            s = np.sinh(gd)
            layer = memo[key] = np.asarray(np.cosh(gd)), np.asarray(s * n[j]), np.asarray(s / n[j])
        terms.append(layer)
    return terms


def chain_sweep(n, d, idx, values, k0, terms):
    """The chain product batched over the thicknesses ``values`` of layer ``idx``.

    ``values`` is one block, at most ``_BLOCK_ROWS`` thicknesses, and
    ``terms`` the chain's `layer_terms`, made once for all its blocks. The
    running product is held as its two columns, ``a = (f11, f21)`` and
    ``b = (f12, f22)``, the two halves of one ``(2, 2, m)`` array ``ab``,
    updated in place through one scratch array of that shape: four ufunc
    calls per layer. Each element gets the same multiplies and additions as
    the entry-by-entry product, the addends of ``b`` in swapped order, which
    IEEE addition does not see. The swept layer's terms are the same
    expressions over ``values``. The four entries returned are views of the
    thread's block arena, which its next sweep block or encoded block
    overwrites.
    """
    m = values.shape[0]
    if m > _BLOCK_ROWS:
        raise ValueError(f"a sweep block holds at most {_BLOCK_ROWS} thicknesses, got {m}")
    ws = _Workspace()
    ab, t = ws.product(m), ws.product_scratch(m)
    np.copyto(ab, _START)
    a, b = ab
    for j, layer in enumerate(terms):
        if layer is None:
            c, g, h = layer = ws.terms(m)
            np.multiply(1j * k0 * n[j], values, out=h)  # gd
            np.cosh(h, out=c)
            np.sinh(h, out=h)  # s
            np.multiply(h, n[j], out=g)
            np.divide(h, n[j], out=h)
        c, g, h = layer
        np.multiply(b, g, out=t[0])
        np.multiply(a, h, out=t[1])
        ab *= c
        ab += t
    return a[0], b[0], a[1], b[1]
