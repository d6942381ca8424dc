"""Chain-product kernels behind the transfer-matrix engine (numpy only).

Every exact evaluation is the ordered product, input side first, of 2x2
complex layer matrices

    L(d) = [[cosh(g*d), eta*sinh(g*d)], [sinh(g*d)/eta, cosh(g*d)]]

with g = i*k0*n and eta = 1/n per layer. Two shapes of work use it:

- ``chain_product``: one stack, one running product, left to right.
  ``chain_prefixes`` keeps every intermediate product of that same loop, so
  entry j is bit-identical to ``chain_product`` of the first j layers; the
  reflector period study scatters all its truncations from one pass.
- ``chain_sweep``: one layer swept over an array of thicknesses, the whole
  chain multiplied left to right for every point, the two columns of the
  running product updated in place. Curves keep this order and these
  per-layer scalars so their CSV digits do not move.

Both compute each distinct layer's terms once per call and reuse them
wherever it repeats, so an N-period reflector costs three layers' cosh and
sinh; ``chain_prefixes`` runs its product in Python complex.

The argmax search calls ``chain_product`` for the layers on either side of
the swept one and does the rest in `stripcavity.tmm.absorptance_of_layer`.

The chain is the coherent 2x2 product of Byrnes, "Multilayer optical
calculations", arXiv:1603.02720.
"""

from __future__ import annotations

import cmath

import numpy as np

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
    ones do; the layer terms are numpy-scalar results made Python complex.
    """
    f11, f12, f21, f22 = _IDENTITY
    out = [_IDENTITY]
    memo = {}
    keys = zip(n.view(_INDEX_BITS).tolist(), d.view(_THICKNESS_BITS).tolist(), strict=True)
    for j, key in enumerate(keys):
        terms = memo.get(key)
        if terms is None:
            gd = 1j * k0 * n[j] * d[j]
            try:
                c = cmath.cosh(gd)
                s = cmath.sinh(gd)
            except OverflowError:
                raise ValueError(
                    f"a {d[j]:.6g} nm layer of index {complex(n[j]):.6g} overflows the "
                    "transfer matrix at this wavelength"
                ) from None
            terms = memo[key] = c, complex(s * n[j]), complex(s / n[j])
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


def chain_sweep(n, d, idx, values, k0):
    """The chain product batched over the thicknesses ``values`` of layer ``idx``.

    The running product is held as its two columns, ``a = (f11, f21)`` and
    ``b = (f12, f22)``, two ``(2, m)`` arrays updated in place through two
    scratch arrays: six ufunc calls per layer. Each element gets the same
    multiplies and additions as the entry-by-entry product, the addends of
    ``b`` in swapped order, which IEEE addition does not see. ``c``,
    ``s * n[j]`` and ``s / n[j]`` are numpy scalars, once per distinct layer
    (arrays at ``idx``, which skips the memo): numpy rounds ``s * n`` over
    an array of layers differently from the scalar product.
    """
    m = values.shape[0]
    a = np.zeros((2, m), np.complex128)
    b = np.zeros((2, m), np.complex128)
    a[0] = 1.0
    b[1] = 1.0
    t = np.empty_like(a)
    u = np.empty_like(a)
    memo = {}
    keys = zip(n.view(_INDEX_BITS).tolist(), d.view(_THICKNESS_BITS).tolist(), strict=True)
    for j, key in enumerate(keys):
        terms = memo.get(key) if j != idx else None
        if terms is None:
            gd = 1j * k0 * n[j] * (values if j == idx else d[j])
            s = np.sinh(gd)
            terms = np.cosh(gd), s * n[j], s / n[j]
            if j != idx:
                memo[key] = terms
        c, g, h = terms
        np.multiply(b, g, out=t)
        np.multiply(a, h, out=u)
        np.multiply(a, c, out=a)
        a += t
        np.multiply(b, c, out=b)
        b += u
    return a[0], b[0], a[1], b[1]
