"""Chain-product kernels behind the transfer-matrix engine (numpy only).

Every exact evaluation is the ordered product, input side first, of 2x2
complex layer matrices

    L(d) = [[cosh(g*d), eta*sinh(g*d)], [sinh(g*d)/eta, cosh(g*d)]]

with g = i*k0*n and eta = 1/n per layer. Three shapes of work use it:

- ``chain_product``: one stack, one running product, left to right.
  ``chain_prefixes`` keeps every intermediate product of that same loop, so
  entry j is bit-identical to ``chain_product`` of the first j layers; the
  reflector period study scatters all its truncations from one pass.
- ``chain_sweep``: one layer swept over an array of thicknesses, the whole
  chain multiplied left to right for every point. Curves keep this order so
  their CSV digits do not move.
- ``chain_through``: P · L(d) · Q for fixed products P (layers before the
  swept one) and Q (layers after it). The argmax search computes P and Q once
  with ``chain_product`` and then pays one layer per evaluated thickness.

The chain is the coherent 2x2 product of Byrnes, "Multilayer optical
calculations", arXiv:1603.02720.
"""

from __future__ import annotations

import cmath

import numpy as np

# The engine is numpy only; benchmark provenance records still read this flag.
NUMBA_ENABLED = False

_IDENTITY = (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)


def chain_prefixes(n, d, k0) -> list[tuple[complex, complex, complex, complex]]:
    """Running products of the chain: entry j multiplies layers 0..j-1.

    Entry 0 is the identity and entry len(n) is the whole chain.
    """
    f11, f12, f21, f22 = _IDENTITY
    out = [_IDENTITY]
    for j in range(n.shape[0]):
        gd = 1j * k0 * n[j] * d[j]
        try:
            c = cmath.cosh(gd)
            s = cmath.sinh(gd)
        except OverflowError:
            raise ValueError(
                f"a {d[j]:.6g} nm layer of index {complex(n[j]):.6g} overflows the "
                "transfer matrix at this wavelength"
            ) from None
        b = s / n[j]   # eta * sinh
        g = s * n[j]   # sinh / eta
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
    """The chain product batched over the thicknesses ``values`` of layer ``idx``."""
    m = values.shape[0]
    f11 = np.ones(m, np.complex128)
    f12 = np.zeros(m, np.complex128)
    f21 = np.zeros(m, np.complex128)
    f22 = np.ones(m, np.complex128)
    for j in range(n.shape[0]):
        dj = values if j == idx else d[j]
        gd = 1j * k0 * n[j] * dj
        c = np.cosh(gd)
        s = np.sinh(gd)
        b = s / n[j]
        g = s * n[j]
        f11, f12, f21, f22 = (
            f11 * c + f12 * g,
            f11 * b + f12 * c,
            f21 * c + f22 * g,
            f21 * b + f22 * c,
        )
    return f11, f12, f21, f22


def chain_through(p, n, q, d, k0):
    """P · L(d) · Q for one layer of index ``n`` between fixed products.

    ``p`` and ``q`` are (f11, f12, f21, f22) tuples; ``d`` is a float (the
    entries come back complex, through cmath) or an array (the entries come
    back as arrays, through numpy).
    """
    if isinstance(d, np.ndarray):
        cosh, sinh = np.cosh, np.sinh
    else:
        cosh, sinh = cmath.cosh, cmath.sinh
    gd = 1j * k0 * n * d
    c = cosh(gd)
    s = sinh(gd)
    b = s / n
    g = s * n
    p11, p12, p21, p22 = p
    m11 = p11 * c + p12 * g
    m12 = p11 * b + p12 * c
    m21 = p21 * c + p22 * g
    m22 = p21 * b + p22 * c
    q11, q12, q21, q22 = q
    return (
        m11 * q11 + m12 * q21,
        m11 * q12 + m12 * q22,
        m21 * q11 + m22 * q21,
        m21 * q12 + m22 * q22,
    )
