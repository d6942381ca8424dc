"""Exact transfer-matrix engine: the numerical oracle for every design check.

Each layer of complex index n and thickness d (nm) maps to the two-port
matrix of a transmission-line section,

    F = [[cosh(g*d), eta*sinh(g*d)], [sinh(g*d)/eta, cosh(g*d)]],

with propagation constant g = i*k0*n and characteristic impedance eta = 1/n
(all impedances normalised to the vacuum impedance). Chains multiply
input-side first. Scattering off a chain terminated by semi-infinite media of
impedances eta_i, eta_o:

    r = (F11*eta_o + F12 - F21*conj(eta_i)*eta_o - F22*conj(eta_i)) / D
    t = 2*sqrt(Re(eta_i)*Re(eta_o)) / D,   D = F11*eta_o + F12 + F21*eta_i*eta_o + F22*eta_i

and the input impedance looking into the chain is
(F11*eta_o + F12) / (F21*eta_o + F22). An exact short output terminal means
eta_o = 0 and t = 0. No thin-layer or quarter-wave approximation is used
anywhere here; those live in :mod:`stripcavity.analytic`.

`scatter_truncations`, behind the reflector period study, returns a
`ScatterResult` of columns over the layer counts. `scatter` is its one-count
case, the whole stack, as Python numbers.

`sweep_of_layer`, behind every curve, prepares the chain once and then
evaluates blocks of at most ``_BLOCK_ROWS`` thicknesses in the thread's
block arena, so a curve's only whole-grid arrays are the ones its caller
keeps. `sweep` is its blocks copied into columns of its own.

`argmax_absorptance`, behind every design search, scans numpy's 256-point
linspace grid of one layer's thickness in one array evaluation and refines
the best point with Python floats; its fixed set-up per call is the chain
on either side of that layer.
"""

from __future__ import annotations

import cmath
import math
import struct
from collections import namedtuple

import numpy as np

from . import _kernels
from ._record import Record
from ._text import _BLOCK_ROWS
from .materials import InputError
from .stack import Stack

__all__ = [
    "ScatterResult",
    "SweepResult",
    "OPEN_CIRCUIT",
    "scatter",
    "scatter_truncations",
    "input_impedance",
    "sweep",
    "sweep_of_layer",
    "absorptance_of_layer",
    "argmax_absorptance",
]


class LayerIndexError(InputError, IndexError):
    """A layer index outside the stack; an IndexError too, as a sequence's is."""


#: Returned by `input_impedance` when the chain presents an open circuit.
OPEN_CIRCUIT = complex(math.inf, 0.0)

# Relative threshold below which the impedance denominator counts as zero.
_OPEN_CIRCUIT_EPS = 1e-12

# Absolute absorptance window inside which argmax candidates count as tied;
# ties resolve to the lowest thickness so degenerate sweeps are deterministic.
_TIE_EPS = 1e-12

# A distinct layer's key: the bits of its complex128 index and float64
# thickness, which unlike ``==`` keep 0.0 and -0.0 apart.
_LAYER_BITS = struct.Struct("3d")

_GRID_POINTS = 256
_RAMP = np.arange(float(_GRID_POINTS))  # linspace's ramp, 0, 1, ..., 255
_REFINE_TOL_NM = 0.01
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class ScatterResult(Record, namedtuple("ScatterResult", "r t R T A")):
    """Complex reflection/transmission coefficients and the power balance:
    Python numbers from `scatter`, arrays over the layer counts from
    `scatter_truncations`."""

    __slots__ = ()

    @classmethod
    def from_coefficients(cls, r, t) -> "ScatterResult":
        """The power balance of complex128 array coefficients.

        ``r.real*r.real + r.imag*r.imag`` over float64 arrays rounds each
        entry as CPython's ``(r.conjugate() * r).real`` does. numpy's array
        complex product does not, which is why `sweep` keeps its own form.
        """
        R = r.real * r.real + r.imag * r.imag
        T = t.real * t.real + t.imag * t.imag
        return cls(r, t, R, T, 1.0 - R - T)


class SweepResult(Record, namedtuple("SweepResult", "thicknesses_nm r t R T A eta_in")):
    """Per-point scattering and input impedance along one swept thickness:
    one numpy column each."""

    __slots__ = ()


def _prepare(stack: Stack, wavelength_nm: float, layer_index: int | None = None):
    """(n, d, codes, k0, eta_i, eta_o, short): the checked stack as the kernels take it.

    The input is lossless by Stack construction, so eta_i is real; the output
    medium enters through the real part of its index only. ``codes`` numbers
    each layer's entry in the chain's one distinct-layer table, from which
    every kernel takes its terms. Each distinct `Layer` object is read once
    and keyed on the bits of its complex128 index and float64 thickness:
    equal layers share a code, even as two objects, while 0.0 and -0.0,
    equal under ``==``, keep two. ``n`` and ``d`` index the distinct layers'
    arrays by code: a reflector repeats one shared pair.
    """
    if wavelength_nm <= 0:
        raise InputError(f"wavelength must be > 0 nm, got {wavelength_nm}")
    layers = stack.layers
    if layer_index is not None and not 0 <= layer_index < len(layers):
        raise LayerIndexError(f"layer index {layer_index} outside stack of {len(layers)} layers")
    n_i = stack.input.material.optical_constant.n_re
    if n_i <= 0:
        raise InputError("input medium must have a positive real index")
    eta_o = 0.0
    if not stack.output.is_short:
        n_o = stack.output.material.optical_constant.n_re
        if n_o <= 0:
            raise InputError(
                "output medium must have a positive real index; "
                "use the short-circuit terminal for an ideal mirror"
            )
        eta_o = 1.0 / n_o
    by_id, by_bits, indices, thicknesses, codes = {}, {}, [], [], []
    for layer in layers:
        code = by_id.get(id(layer))
        if code is None:  # a Layer object not seen before
            index, thickness = layer.material.optical_constant.n, layer.thickness_nm
            bits = _LAYER_BITS.pack(index.real, index.imag, thickness)
            code = by_id[id(layer)] = by_bits.setdefault(bits, len(by_bits))
            if code == len(indices):  # and a distinct layer
                indices.append(index)
                thicknesses.append(thickness)
        codes.append(code)
    n = np.array(indices, np.complex128)
    d = np.array(thicknesses, np.float64)
    if len(indices) < len(codes):  # a repeat; else codes are the positions
        at = np.array(codes, np.intp)
        n, d = n[at], d[at]
    return n, d, codes, 2.0 * math.pi / wavelength_nm, 1.0 / n_i, eta_o, stack.output.is_short


def _fraction(f11, f12, f21, f22, eta_i: float, eta_o: float):
    """The numerator and denominator of r from chain entries.

    eta_i is real, its own conjugate. The denominator is also t's. A sweep
    block forms the same two expressions into the thread's block arena.
    """
    num = f11 * eta_o + f12 - f21 * eta_i * eta_o - f22 * eta_i
    den = f11 * eta_o + f12 + f21 * eta_i * eta_o + f22 * eta_i
    return num, den


def _coefficients(num, den, eta_i: float, eta_o: float, short: bool):
    """Reflection/transmission from a `_fraction`: numpy divides an array
    denominator, and Python a Python complex one."""
    r = num / den
    return r, np.zeros_like(r) if short else 2.0 * math.sqrt(eta_i * eta_o) / den


def scatter(stack: Stack, wavelength_nm: float) -> ScatterResult:
    """Exact reflection, transmission, and absorptance of a stack, as Python
    numbers: `scatter_truncations` of the whole stack, one count. A chain
    that overflows gives inf or NaN, without a warning."""
    res = scatter_truncations(stack, [len(stack.layers)], wavelength_nm)
    return ScatterResult(res.r.item(), res.t.item(), res.R.item(), res.T.item(), res.A.item())


def scatter_truncations(stack: Stack, layer_counts, wavelength_nm: float) -> ScatterResult:
    """The stack cut after each of ``layer_counts`` layers, scattered, as columns.

    Every truncation keeps the input and output media. One running product
    over the prepared chain serves them all, a repeated layer costing its
    cosh and sinh once. Each count's numerator and denominator are formed in
    Python complex, and one numpy division per column divides them all:
    numpy's array and scalar division round alike. A count of 0 (the
    identity) divides as Python does, keeping a bare interface's bits.
    Entry k of each field is bit-identical to `scatter` of the stack cut
    after ``layer_counts[k]`` layers, which is this with one count.
    """
    n, d, codes, k0, eta_i, eta_o, short = _prepare(stack, wavelength_nm)
    counts = list(layer_counts)
    # A deep chain can overflow; its results are then inf or NaN for the
    # caller to reject, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        prefixes = _kernels.chain_prefixes(n, d, codes, k0)
        fractions = [_fraction(*prefixes[count], eta_i, eta_o) for count in counts]
        num, den = np.array(fractions, np.complex128).reshape(len(counts), 2).T
        r, t = _coefficients(num, den, eta_i, eta_o, short)
        if 0 in counts:
            empty = np.equal(counts, 0)
            r[empty], t[empty] = _coefficients(*fractions[counts.index(0)], eta_i, eta_o, short)
        return ScatterResult.from_coefficients(r, t)


def input_impedance(stack: Stack, wavelength_nm: float) -> complex:
    """Impedance seen looking into the finite-layer chain from the input side.

    One running product over the prepared chain, as in `scatter`. Returns
    :data:`OPEN_CIRCUIT` when the denominator vanishes (for example a
    lossless quarter-wave layer on a short terminal).
    """
    n, d, codes, k0, _, eta_o, _ = _prepare(stack, wavelength_nm)
    f11, f12, f21, f22 = _kernels.chain_product(n, d, codes, k0)
    # numpy values: abs() of an overflow is inf, and / rounds as numpy's
    num = np.complex128(f11 * eta_o + f12)
    den = np.complex128(f21 * eta_o + f22)
    if abs(den) <= _OPEN_CIRCUIT_EPS * max(1.0, abs(num)):
        return OPEN_CIRCUIT
    return num / den


def sweep(stack: Stack, layer_index: int, thicknesses_nm, wavelength_nm: float) -> SweepResult:
    """Scattering and input impedance with one layer's thickness swept.

    `sweep_of_layer`'s blocks, copied into columns the result owns. Raises
    ValueError when the absorptance is not finite at some thickness (a chain
    that overflows), naming the first such thickness.
    """
    values = np.ascontiguousarray(thicknesses_nm, dtype=np.float64)
    sweep_block = sweep_of_layer(stack, layer_index, wavelength_nm)
    size = values.shape[0]
    r, t, eta_in = (np.empty(size, np.complex128) for _ in range(3))
    R, T, A = (np.empty(size) for _ in range(3))
    for lo in range(0, size, _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        r[rows], t[rows], R[rows], T[rows], eta_in[rows] = sweep_block(values[rows], A[rows])
    return SweepResult(values, r, t, R, T, A, eta_in)


def sweep_of_layer(stack: Stack, layer_index: int, wavelength_nm: float):
    """The sweep of one layer's thickness as a function of one block of
    thicknesses, the chain prepared and its fixed layers' terms made once,
    here.

    ``sweep_block(x, A)`` takes a contiguous float64 block of at most
    ``_BLOCK_ROWS`` thicknesses, writes their absorptance into the float64
    column ``A`` and returns (r, t, R, T, eta_in): views of the thread's
    one block arena (`stripcavity._text`, 1.1 MiB), valid until the
    thread's next sweep block or encoded block. Each column is the
    whole-grid expression of its block, every operation on the same operands
    in the same order into an arena column, so a grid's blocks give its
    whole-grid bits: ``R = (conj(r) * r).real``, in which numpy's array
    product rounds as the CSVs were recorded, and ``A = 1 - R - T``. It
    raises ValueError when ``A`` is not finite (a chain that overflows),
    naming the block's first such thickness, before ``eta_in`` is formed.
    """
    n, d, codes, k0, eta_i, eta_o, short = _prepare(stack, wavelength_nm, layer_index)
    terms = _kernels.layer_terms(n, d, codes, layer_index, k0)
    t_num = 2.0 * math.sqrt(eta_i * eta_o)

    def sweep_block(x, A):
        m = x.shape[0]
        # overflow is caught below; a zero eta_in denominator is an open circuit
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f11, f12, f21, f22 = _kernels.chain_sweep(n, d, layer_index, x, k0, terms)
            ws = _kernels._Workspace()
            p, q, s, r, t, den = ws.scratch(m)[:6]
            np.add(np.multiply(f11, eta_o, out=p), f12, out=p)  # f11 * eta_o + f12
            np.multiply(np.multiply(f21, eta_i, out=q), eta_o, out=q)
            np.multiply(f22, eta_i, out=s)
            np.subtract(np.subtract(p, q, out=r), s, out=r)  # _fraction's numerator
            np.add(np.add(p, q, out=t), s, out=t)  # and its denominator
            np.divide(r, t, out=r)
            if short:
                t.fill(0.0)
            else:
                np.divide(t_num, t, out=t)
            R = np.multiply(np.conjugate(r, out=q), r, out=q).real
            T = np.multiply(np.conjugate(t, out=s), t, out=s).real
            np.subtract(np.subtract(1.0, R, out=A), T, out=A)
            finite = np.isfinite(A, out=ws.flags[0, :m])
            if not finite.all():
                raise InputError(
                    f"absorptance is not finite at {x[np.argmin(finite)]:.6g} nm of layer "
                    f"{layer_index}; the chain overflows"
                )
            # eta_in = (f11 * eta_o + f12) / (f21 * eta_o + f22), open where
            # the denominator vanishes
            np.add(np.multiply(f21, eta_o, out=den), f22, out=den)
            size, limit = ws.real[:, :m]
            np.abs(den, out=size)
            np.maximum(1.0, np.abs(p, out=limit), out=limit)
            np.multiply(_OPEN_CIRCUIT_EPS, limit, out=limit)
            is_open, is_zero = ws.flags[:, :m]
            np.less_equal(size, limit, out=is_open)
            np.copyto(den, 1.0, where=np.equal(den, 0, out=is_zero))
            eta_in = np.divide(p, den, out=p)
            np.copyto(eta_in, OPEN_CIRCUIT, where=is_open)
        return r, t, R, T, eta_in

    return sweep_block


def _golden_max(f, a: float, b: float, tol: float) -> float:
    """Golden-section refinement of a unimodal maximum on [a, b]."""
    if b - a <= tol:
        return 0.5 * (a + b)
    steps = int(math.ceil(math.log(tol / (b - a)) / math.log(_INV_PHI)))
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(steps):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def absorptance_of_layer(stack: Stack, layer_index: int, wavelength_nm: float):
    """Absorptance as a function of one layer's thickness, float or array.

    The reflection numerator and denominator are bilinear forms of the chain
    P · L(d) · Q, where P multiplies the layers before the swept one and Q
    those after it:

        num = (1, -conj(eta_i)) · P · L(d) · Q · (eta_o, 1)^T
        den = (1,       eta_i)  · P · L(d) · Q · (eta_o, 1)^T

    So P and the input medium fold into two row vectors, and Q and the
    output medium into one column vector w, once, here, from the prepared
    chain and two running products in Python complex. Each call then costs
    one layer L(d) applied to w and two dot products: a float goes through
    cmath and Python complex, an array of float64 thicknesses through
    `_absorptance_columns`, whose operands are the same constants made 0-d
    arrays once, here. The result agrees with `sweep` to rounding (the
    product is grouped differently).
    """
    ns, ds, codes, k0, eta_i, eta_o, short = _prepare(stack, wavelength_nm, layer_index)
    i = layer_index
    # Python complex constants keep the scalar calls of a golden-section search cheap.
    n = complex(ns[i])
    p11, p12, p21, p22 = _kernels.chain_product(ns[:i], ds[:i], codes[:i], k0)
    q11, q12, q21, q22 = _kernels.chain_product(ns[i + 1:], ds[i + 1:], codes[i + 1:], k0)
    # eta_i is real: the input medium is lossless
    xn1, xn2 = p11 - eta_i * p21, p12 - eta_i * p22
    xd1, xd2 = p11 + eta_i * p21, p12 + eta_i * p22
    w1, w2 = q11 * eta_o + q12, q21 * eta_o + q22
    t_num = 0.0 if short else 2.0 * math.sqrt(eta_i * eta_o)
    g = 1j * k0 * n
    operands = tuple(map(np.asarray, (g, n, w1, w2, xd1, xd2, xn1, xn2, t_num)))

    def absorptance(thickness_nm):
        # a 0-d array multiplies by g to a numpy scalar and goes the float way
        if isinstance(thickness_nm, np.ndarray) and thickness_nm.ndim:
            return _absorptance_columns(thickness_nm, *operands)
        gd = g * thickness_nm
        c, s = cmath.cosh(gd), cmath.sinh(gd)
        y1 = c * w1 + (s / n) * w2
        y2 = (s * n) * w1 + c * w2
        den = xd1 * y1 + xd2 * y2
        r = (xn1 * y1 + xn2 * y2) / den
        t = t_num / den
        # conj(r) * r, not r.real**2 + r.imag**2: near A = 0 the two differ
        # by an ulp of 1, and this form keeps the rounding of `sweep`
        return 1.0 - (r.conjugate() * r).real - (t.conjugate() * t).real

    return absorptance


def _absorptance_columns(x, g, n, w1, w2, xd1, xd2, xn1, xn2, t_num):
    """`absorptance_of_layer` over an array ``x`` of thicknesses: the float
    evaluation's operations in its order, each into one of four reused
    columns. numpy's complex multiply by a 0-d operand rounds ``a * s`` and
    ``s * a`` apart, so each product keeps its operand order too."""
    cols = np.empty((4, *x.shape), np.complex128)
    gd, c, y1, y2 = cols
    np.multiply(g, x, out=gd)
    np.cosh(gd, out=c)
    s = np.sinh(gd, out=gd)
    np.multiply(c, w1, out=y1)
    np.divide(s, n, out=y2)
    np.multiply(y2, w2, out=y2)
    np.add(y1, y2, out=y1)  # y1 = c * w1 + (s / n) * w2
    np.multiply(s, n, out=y2)
    np.multiply(y2, w1, out=y2)
    np.multiply(c, w2, out=c)
    np.add(y2, c, out=y2)  # y2 = (s * n) * w1 + c * w2
    den = np.multiply(xd1, y1, out=gd)
    np.multiply(xd2, y2, out=c)
    np.add(den, c, out=den)
    r = np.multiply(xn1, y1, out=y1)
    np.multiply(xn2, y2, out=y2)
    np.add(r, y2, out=r)
    np.divide(r, den, out=r)
    t = np.divide(t_num, den, out=den)
    power = np.conjugate(r, out=c)
    np.multiply(power, r, out=power)
    A = np.subtract(1.0, power.real)
    np.conjugate(t, out=power)
    np.multiply(power, t, out=power)
    return np.subtract(A, power.real, out=A)


def _select_thickness(grid: np.ndarray, grid_A: np.ndarray, refined: float, refined_A: float) -> float:
    """The lowest thickness, grid point or refined point, whose absorptance is
    within `_TIE_EPS` of the largest one."""
    top = float(grid_A.max())
    floor = max(top, refined_A) - _TIE_EPS
    if top < floor:  # no grid point is tied, so the refined point is
        return refined
    lowest = float(grid[(grid_A >= floor).argmax()])
    return min(lowest, refined) if refined_A >= floor else lowest


def _grid(lo_nm: float, hi_nm: float) -> np.ndarray:
    """``np.linspace(lo_nm, hi_nm, _GRID_POINTS)`` bit for bit, from numpy's
    own steps without its per-call set-up; a step that underflows to 0 takes
    linspace's other order of operations."""
    step = (hi_nm - lo_nm) / (_GRID_POINTS - 1)
    if step:
        grid = _RAMP * step + lo_nm
    else:
        grid = _RAMP / (_GRID_POINTS - 1) * (hi_nm - lo_nm) + lo_nm
    grid[-1] = hi_nm
    return grid


def argmax_absorptance(
    stack: Stack,
    layer_index: int,
    lo_nm: float,
    hi_nm: float,
    wavelength_nm: float,
) -> tuple[float, float]:
    """Thickness of one layer that maximises absorptance, plus that absorptance.

    A coarse grid scan brackets the peak and golden-section refinement pins it
    to 0.01 nm. Candidates within 1e-12 in absorptance count as tied and the
    lowest thickness wins, so a flat (degenerate) family returns ``lo_nm``.
    Every point goes through one `absorptance_of_layer`: the grid as one
    array, the refinement as Python floats. Raises ValueError when the grid
    absorptance is not finite (a chain that overflows).
    """
    if not lo_nm < hi_nm:
        raise InputError(f"need lo < hi, got [{lo_nm}, {hi_nm}]")
    grid = _grid(lo_nm, hi_nm)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        absorptance = absorptance_of_layer(stack, layer_index, wavelength_nm)
        grid_A = absorptance(grid)
    if not np.isfinite(grid_A).all():
        raise InputError(
            f"absorptance is not finite over [{lo_nm}, {hi_nm}] nm of layer {layer_index}; "
            "the chain overflows"
        )
    best = int(grid_A.argmax())
    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, _GRID_POINTS - 1)])
    # a float thickness gives a Python float absorptance
    refined = _golden_max(absorptance, a, b, _REFINE_TOL_NM)
    refined_A = absorptance(refined)
    d_best = _select_thickness(grid, grid_A, refined, refined_A)
    return d_best, refined_A if d_best == refined else absorptance(d_best)
