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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import _kernels
from .stack import Layer, Stack

__all__ = [
    "FMatrix",
    "ScatterResult",
    "SweepResult",
    "OPEN_CIRCUIT",
    "layer_fmatrix",
    "chain",
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
class FMatrix:
    """2x2 complex two-port matrix of a layer or chain of layers.

    F12 carries impedance units and F21 admittance units (vacuum-normalised);
    the determinant of any passive section is exactly 1.
    """

    f11: complex
    f12: complex
    f21: complex
    f22: complex

    def __matmul__(self, other: "FMatrix") -> "FMatrix":
        return FMatrix(
            self.f11 * other.f11 + self.f12 * other.f21,
            self.f11 * other.f12 + self.f12 * other.f22,
            self.f21 * other.f11 + self.f22 * other.f21,
            self.f21 * other.f12 + self.f22 * other.f22,
        )

    @property
    def det(self) -> complex:
        return self.f11 * self.f22 - self.f12 * self.f21

    @staticmethod
    def identity() -> "FMatrix":
        return FMatrix(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)

    def as_array(self) -> np.ndarray:
        return np.array([[self.f11, self.f12], [self.f21, self.f22]], dtype=np.complex128)


@dataclass(frozen=True)
class ScatterResult:
    """Complex reflection/transmission coefficients and the power balance."""

    r: complex
    t: complex
    R: float
    T: float
    A: float

    @classmethod
    def from_coefficients(cls, r: complex, t: complex) -> "ScatterResult":
        R = (r.conjugate() * r).real
        T = (t.conjugate() * t).real
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


def layer_fmatrix(layer: Layer, wavelength_nm: float) -> FMatrix:
    """Two-port matrix of a single layer at the given vacuum wavelength."""
    if wavelength_nm <= 0:
        raise ValueError(f"wavelength must be > 0 nm, got {wavelength_nm}")
    n = layer.material.optical_constant.n
    k0 = 2.0 * math.pi / wavelength_nm
    gd = 1j * k0 * n * layer.thickness_nm
    c = cmath.cosh(gd)
    s = cmath.sinh(gd)
    return FMatrix(c, s / n, s * n, c)


def chain(matrices) -> FMatrix:
    """Ordered product of two-port matrices, input side first."""
    return reduce(lambda a, b: a @ b, matrices, FMatrix.identity())


def _stack_arrays(stack: Stack) -> tuple[np.ndarray, np.ndarray]:
    ns = np.array([layer.material.optical_constant.n for layer in stack.layers], dtype=np.complex128)
    ds = np.array([layer.thickness_nm for layer in stack.layers], dtype=np.float64)
    return ns, ds


def _media_impedances(stack: Stack) -> tuple[float, float, bool]:
    """(eta_i, eta_o, short). Input is lossless by Stack construction; the
    output medium enters through the real part of its index only."""
    n_i = stack.input.material.optical_constant.n_re
    if n_i <= 0:
        raise ValueError("input medium must have a positive real index")
    if stack.output.is_short:
        return 1.0 / n_i, 0.0, True
    n_o = stack.output.material.optical_constant.n_re
    if n_o <= 0:
        raise ValueError(
            "output medium must have a positive real index; "
            "use the short-circuit terminal for an ideal mirror"
        )
    return 1.0 / n_i, 1.0 / n_o, False


def _coefficients(f11, f12, f21, f22, eta_i: float, eta_o: float, short: bool):
    """Reflection/transmission from chain entries; works on scalars or arrays."""
    eta_i_conj = np.conjugate(eta_i)
    num = f11 * eta_o + f12 - f21 * eta_i_conj * eta_o - f22 * eta_i_conj
    den = f11 * eta_o + f12 + f21 * eta_i * eta_o + f22 * eta_i
    r = num / den
    if short:
        t = np.zeros_like(r) if isinstance(r, np.ndarray) else 0.0j
    else:
        t = 2.0 * math.sqrt(eta_i * eta_o) / den
    return r, t


def scatter(stack: Stack, wavelength_nm: float) -> ScatterResult:
    """Exact reflection, transmission, and absorptance of a stack."""
    if wavelength_nm <= 0:
        raise ValueError(f"wavelength must be > 0 nm, got {wavelength_nm}")
    eta_i, eta_o, short = _media_impedances(stack)
    ns, ds = _stack_arrays(stack)
    k0 = 2.0 * math.pi / wavelength_nm
    r, t = _coefficients(*_kernels.chain_product(ns, ds, k0), eta_i, eta_o, short)
    return ScatterResult.from_coefficients(complex(r), complex(t))


def scatter_truncations(stack: Stack, layer_counts, wavelength_nm: float) -> list[ScatterResult]:
    """`scatter` of the stack cut after each of ``layer_counts`` layers.

    Every truncation keeps the input and output media. One running product
    over the layers serves them all, and each result is bit-identical to
    `scatter` of the truncated stack.
    """
    if wavelength_nm <= 0:
        raise ValueError(f"wavelength must be > 0 nm, got {wavelength_nm}")
    eta_i, eta_o, short = _media_impedances(stack)
    ns, ds = _stack_arrays(stack)
    results = []
    # A deep chain can overflow; its results are then inf or NaN for the
    # caller to reject, without a warning per layer.
    with np.errstate(over="ignore", invalid="ignore"):
        prefixes = _kernels.chain_prefixes(ns, ds, 2.0 * math.pi / wavelength_nm)
        for count in layer_counts:
            r, t = _coefficients(*prefixes[count], eta_i, eta_o, short)
            results.append(ScatterResult.from_coefficients(complex(r), complex(t)))
    return results


def input_impedance(stack: Stack, wavelength_nm: float) -> complex:
    """Impedance seen looking into the finite-layer chain from the input side.

    Returns :data:`OPEN_CIRCUIT` when the denominator vanishes (for example a
    lossless quarter-wave layer on a short terminal).
    """
    if wavelength_nm <= 0:
        raise ValueError(f"wavelength must be > 0 nm, got {wavelength_nm}")
    _, eta_o, _ = _media_impedances(stack)
    ns, ds = _stack_arrays(stack)
    k0 = 2.0 * math.pi / wavelength_nm
    f11, f12, f21, f22 = _kernels.chain_product(ns, ds, k0)
    num = f11 * eta_o + f12
    den = f21 * eta_o + f22
    if abs(den) <= _OPEN_CIRCUIT_EPS * max(1.0, abs(num)):
        return OPEN_CIRCUIT
    return num / den


def sweep(stack: Stack, layer_index: int, thicknesses_nm, wavelength_nm: float) -> SweepResult:
    """Scattering and input impedance with one layer's thickness swept.

    Raises ValueError when the absorptance is not finite at some thickness (a
    chain that overflows), naming the first such thickness.
    """
    if wavelength_nm <= 0:
        raise ValueError(f"wavelength must be > 0 nm, got {wavelength_nm}")
    if not 0 <= layer_index < len(stack.layers):
        raise IndexError(f"layer index {layer_index} outside stack of {len(stack.layers)} layers")
    values = np.ascontiguousarray(thicknesses_nm, dtype=np.float64)
    eta_i, eta_o, short = _media_impedances(stack)
    ns, ds = _stack_arrays(stack)
    k0 = 2.0 * math.pi / wavelength_nm
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        f11, f12, f21, f22 = _kernels.chain_sweep(ns, ds, layer_index, values, k0)
        r, t = _coefficients(f11, f12, f21, f22, eta_i, eta_o, short)
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

    The layers before and after the swept one are multiplied once, here;
    each call then costs one layer matrix per thickness. The result agrees
    with `sweep` to rounding (the product is grouped differently).
    """
    if wavelength_nm <= 0:
        raise ValueError(f"wavelength must be > 0 nm, got {wavelength_nm}")
    if not 0 <= layer_index < len(stack.layers):
        raise IndexError(f"layer index {layer_index} outside stack of {len(stack.layers)} layers")
    eta_i, eta_o, short = _media_impedances(stack)
    ns, ds = _stack_arrays(stack)
    k0 = 2.0 * math.pi / wavelength_nm
    i = layer_index
    # Python complex entries keep the scalar calls of a golden-section search cheap.
    n = complex(ns[i])
    before = tuple(map(complex, _kernels.chain_product(ns[:i], ds[:i], k0)))
    after = tuple(map(complex, _kernels.chain_product(ns[i + 1:], ds[i + 1:], k0)))

    def absorptance(thickness_nm):
        f = _kernels.chain_through(before, n, after, thickness_nm, k0)
        r, t = _coefficients(*f, eta_i, eta_o, short)
        return 1.0 - (np.conjugate(r) * r).real - (np.conjugate(t) * t).real

    return absorptance


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

    candidates = list(zip(grid.tolist(), grid_A.tolist()))
    candidates.append((refined, refine(refined)))
    a_max = max(value for _, value in candidates)
    d_best = min(d for d, value in candidates if value >= a_max - _TIE_EPS)
    return d_best, refine(d_best)
