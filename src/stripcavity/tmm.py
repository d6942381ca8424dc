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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .stack import Stack

__all__ = [
    "ScatterResult",
    "SweepResult",
    "OPEN_CIRCUIT",
    "scatter",
    "scatter_truncations",
    "input_impedance",
    "sweep",
    "absorptance_of_layer",
    "argmax_absorptance",
]

#: Returned by `input_impedance` when the chain presents an open circuit.
OPEN_CIRCUIT = complex(math.inf, 0.0)

# Relative threshold below which the impedance denominator counts as zero.
_OPEN_CIRCUIT_EPS = 1e-12

# Absolute absorptance window inside which argmax candidates count as tied;
# ties resolve to the lowest thickness so degenerate sweeps are deterministic.
_TIE_EPS = 1e-12

_GRID_POINTS = 256
_REFINE_TOL_NM = 0.01
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ScatterResult:
    """Complex reflection/transmission coefficients and the power balance:
    Python numbers from `scatter`, arrays over the layer counts from
    `scatter_truncations`."""

    r: complex | np.ndarray
    t: complex | np.ndarray
    R: float | np.ndarray
    T: float | np.ndarray
    A: float | np.ndarray

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


@dataclass(frozen=True)
class SweepResult:
    """Per-point scattering and input impedance along one swept thickness."""

    thicknesses_nm: np.ndarray
    r: np.ndarray
    t: np.ndarray
    R: np.ndarray
    T: np.ndarray
    A: np.ndarray
    eta_in: np.ndarray


def _prepare(stack: Stack, wavelength_nm: float, layer_index: int | None = None):
    """(n, d, k0, eta_i, eta_o, short): the checked stack as the kernels take it.

    The input is lossless by Stack construction, so eta_i is real; the output
    medium enters through the real part of its index only. Each distinct
    `Layer` object's index is read once: a reflector repeats one shared pair.
    """
    if wavelength_nm <= 0:
        raise ValueError(f"wavelength must be > 0 nm, got {wavelength_nm}")
    layers = stack.layers
    if layer_index is not None and not 0 <= layer_index < len(layers):
        raise IndexError(f"layer index {layer_index} outside stack of {len(layers)} layers")
    n_i = stack.input.material.optical_constant.n_re
    if n_i <= 0:
        raise ValueError("input medium must have a positive real index")
    eta_o = 0.0
    if not stack.output.is_short:
        n_o = stack.output.material.optical_constant.n_re
        if n_o <= 0:
            raise ValueError(
                "output medium must have a positive real index; "
                "use the short-circuit terminal for an ideal mirror"
            )
        eta_o = 1.0 / n_o
    index, indices = {}, []
    for layer in layers:
        if id(layer) not in index:
            index[id(layer)] = layer.material.optical_constant.n
        indices.append(index[id(layer)])
    n = np.array(indices, dtype=np.complex128)
    d = np.array([layer.thickness_nm for layer in layers], dtype=np.float64)
    return n, d, 2.0 * math.pi / wavelength_nm, 1.0 / n_i, eta_o, stack.output.is_short


def _fraction(f11, f12, f21, f22, eta_i: float, eta_o: float):
    """The numerator and denominator of r from chain entries, scalars or arrays.

    eta_i is real, its own conjugate. The denominator is also t's.
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
    n, d, k0, eta_i, eta_o, short = _prepare(stack, wavelength_nm)
    counts = list(layer_counts)
    # A deep chain can overflow; its results are then inf or NaN for the
    # caller to reject, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        prefixes = _kernels.chain_prefixes(n, d, k0)
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
    n, d, k0, _, eta_o, _ = _prepare(stack, wavelength_nm)
    f11, f12, f21, f22 = _kernels.chain_product(n, d, k0)
    # numpy values: abs() of an overflow is inf, and / rounds as numpy's
    num = np.complex128(f11 * eta_o + f12)
    den = np.complex128(f21 * eta_o + f22)
    if abs(den) <= _OPEN_CIRCUIT_EPS * max(1.0, abs(num)):
        return OPEN_CIRCUIT
    return num / den


def sweep(stack: Stack, layer_index: int, thicknesses_nm, wavelength_nm: float) -> SweepResult:
    """Scattering and input impedance with one layer's thickness swept.

    One batched product over the prepared chain, a repeated layer's terms
    computed once. Raises ValueError when the absorptance is not finite at
    some thickness (a chain that overflows), naming the first such thickness.
    """
    n, d, k0, eta_i, eta_o, short = _prepare(stack, wavelength_nm, layer_index)
    values = np.ascontiguousarray(thicknesses_nm, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        f11, f12, f21, f22 = _kernels.chain_sweep(n, d, layer_index, values, k0)
        r, t = _coefficients(*_fraction(f11, f12, f21, f22, eta_i, eta_o), eta_i, eta_o, short)
        R = (np.conjugate(r) * r).real
        T = (np.conjugate(t) * t).real
    num = f11 * eta_o + f12
    den = f21 * eta_o + f22
    with np.errstate(divide="ignore", invalid="ignore"):
        eta_in = np.where(
            np.abs(den) <= _OPEN_CIRCUIT_EPS * np.maximum(1.0, np.abs(num)),
            OPEN_CIRCUIT,
            num / np.where(den == 0, 1.0, den),
        )
    result = SweepResult(values, r, np.asarray(t), R, T, 1.0 - R - T, eta_in)
    # checked last: a column held across the eta_in temporaries measurably
    # slows a 15k-point sweep
    finite = np.isfinite(result.A)
    if not finite.all():
        raise ValueError(
            f"absorptance is not finite at {values[np.argmin(finite)]:.6g} nm of layer "
            f"{layer_index}; the chain overflows"
        )
    return result


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
    cmath, an array through numpy. The result agrees with `sweep` to
    rounding (the product is grouped differently).
    """
    ns, ds, k0, eta_i, eta_o, short = _prepare(stack, wavelength_nm, layer_index)
    i = layer_index
    # Python complex constants keep the scalar calls of a golden-section search cheap.
    n = complex(ns[i])
    p11, p12, p21, p22 = _kernels.chain_product(ns[:i], ds[:i], k0)
    q11, q12, q21, q22 = _kernels.chain_product(ns[i + 1:], ds[i + 1:], k0)
    # eta_i is real: the input medium is lossless
    xn1, xn2 = p11 - eta_i * p21, p12 - eta_i * p22
    xd1, xd2 = p11 + eta_i * p21, p12 + eta_i * p22
    w1, w2 = q11 * eta_o + q12, q21 * eta_o + q22
    t_num = 0.0 if short else 2.0 * math.sqrt(eta_i * eta_o)
    g = 1j * k0 * n

    def absorptance(thickness_nm):
        gd = g * thickness_nm
        if isinstance(gd, np.ndarray):
            c, s = np.cosh(gd), np.sinh(gd)
        else:
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


def _select_thickness(grid: np.ndarray, grid_A: np.ndarray, refined: float, refined_A: float) -> float:
    """The lowest thickness, grid point or refined point, whose absorptance is
    within `_TIE_EPS` of the largest one."""
    floor = max(float(grid_A.max()), refined_A) - _TIE_EPS
    tied = grid_A >= floor
    lowest = float(grid[np.argmax(tied)]) if tied.any() else math.inf
    return min(lowest, refined) if refined_A >= floor else lowest


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
    Every point goes through one `absorptance_of_layer`. Raises ValueError
    when the grid absorptance is not finite (a chain that overflows).
    """
    if not lo_nm < hi_nm:
        raise ValueError(f"need lo < hi, got [{lo_nm}, {hi_nm}]")
    grid = np.linspace(lo_nm, hi_nm, _GRID_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        absorptance = absorptance_of_layer(stack, layer_index, wavelength_nm)
        grid_A = absorptance(grid)
    if not np.all(np.isfinite(grid_A)):
        raise ValueError(
            f"absorptance is not finite over [{lo_nm}, {hi_nm}] nm of layer {layer_index}; "
            "the chain overflows"
        )
    best = int(np.argmax(grid_A))

    def refine(thickness: float) -> float:
        return float(absorptance(thickness))

    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    refined = _golden_max(refine, float(a), float(b), _REFINE_TOL_NM)
    refined_A = refine(refined)
    d_best = _select_thickness(grid, grid_A, refined, refined_A)
    return d_best, refined_A if d_best == refined else refine(d_best)
