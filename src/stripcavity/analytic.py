"""Closed-form cavity results: absorptance models, optimal thicknesses and
the quarter-wave-transformer view.

All expressions here assume a thin absorbing wire layer, lossless dielectrics
near quarter-wave thickness, and (where a metal mirror enters) an extinction
far larger than its real index. The exact engine in :mod:`stripcavity.tmm`
carries none of these approximations and acts as the oracle the formulas are
checked against.

Every function takes a :class:`CavityContext` bundling the effective wire
permittivity, the relevant refractive indices, and the vacuum wavelength.
Signs follow the package convention: Im(eps_w) <= 0 and Im(n_m) <= 0, so the
leading terms -4*Im(eps_w)*... are positive.

The absorptance families, :func:`detuning_from_thickness` and
:func:`combine_dsc_detunings` are element-wise: a numpy array of thicknesses
or detunings gives an array back, a float gives a float. A validity check
fires once per call when any element strains the approximation.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .materials import InputError

__all__ = [
    "CavityContext",
    "OptimumPoint",
    "QwtResult",
    "ValidityWarning",
    "detuning_from_thickness",
    "thickness_from_detuning",
    "combine_dsc_detunings",
    "max_absorptance",
    "max_absorptance_detuned",
    "absorptance_ssc",
    "absorptance_mlc",
    "wire_optimum_ssc",
    "wire_optimum_mlc",
    "absorptance_ssc_dielectric",
    "dielectric_optimum_ssc",
    "absorptance_dsc",
    "wire_optimum_dsc",
    "absorptance_dsc_dielectric",
    "dielectric_optimum_dsc",
    "qwt_relations",
]


class ValidityWarning(UserWarning):
    """An input strains the approximations behind a closed-form expression."""


# Thin-wire assumption strains once the wire approaches this wavelength fraction.
_WIRE_FRACTION = 1.0 / 50.0
# Quarter-wave detuning (rad) beyond which the linearised spacer matrix drifts.
_DETUNING_LIMIT = 0.5

FloatOrArray = float | np.ndarray


@dataclass(frozen=True)
class CavityContext:
    """Inputs shared by the closed-form expressions.

    eps_w is the effective wire-layer permittivity; n_c is the single-spacer
    index, n_c1/n_c2 the lower/upper (or reflector pair) indices, and n_m the
    complex mirror index (None means the ideal-mirror limit).
    """

    eps_w: complex
    n_i: float = 1.0
    n_c: float | None = None
    n_c1: float | None = None
    n_c2: float | None = None
    n_m: complex | None = None
    wavelength_nm: float = 1550.0

    def __post_init__(self) -> None:
        # "not x > 0" also rejects NaN
        if not self.n_i > 0:
            raise InputError(f"input index must be > 0, got {self.n_i}")
        if not self.wavelength_nm > 0:
            raise InputError(f"wavelength must be > 0 nm, got {self.wavelength_nm}")
        for label, value in (("n_c", self.n_c), ("n_c1", self.n_c1), ("n_c2", self.n_c2)):
            if value is not None and not value > 0:
                raise InputError(f"{label} must be > 0, got {value}")
        if self.eps_w.imag > 0:
            raise InputError("Im(eps_w) must be <= 0 under the package sign convention")
        if self.n_m is not None and complex(self.n_m).imag > 0:
            raise InputError("Im(n_m) must be <= 0 under the package sign convention")
        if self.eps_w == 0:
            raise InputError("wire permittivity must be nonzero")

    @property
    def k0(self) -> float:
        return 2.0 * math.pi / self.wavelength_nm

    @property
    def eta_i(self) -> float:
        return 1.0 / self.n_i


@dataclass(frozen=True)
class OptimumPoint:
    """A closed-form optimum: thickness, peak absorptance, and (when the
    optimum is phrased as a quarter-wave detuning) the detuning in radians."""

    d_opt_nm: float
    A_opt: float
    dphi: float | None = None


@dataclass(frozen=True)
class QwtResult:
    """Quarter-wave-transformer view of the layer below the wire."""

    eta_qwt: complex
    n_qwt: float
    d_w_implied_nm: float


def _warn_wire(d_w: FloatOrArray, wavelength_nm: float) -> None:
    limit = wavelength_nm * _WIRE_FRACTION
    if np.any(d_w > limit):
        warnings.warn(
            f"wire thickness {np.nanmax(d_w):.3g} nm exceeds {limit:.3g} nm; "
            "the thin-wire expansion is strained",
            ValidityWarning,
            stacklevel=3,
        )


def _warn_detuning(dphi: FloatOrArray) -> None:
    magnitude = np.abs(dphi)
    if np.any(magnitude > _DETUNING_LIMIT):
        worst = np.ravel(dphi)[np.nanargmax(magnitude)]
        warnings.warn(
            f"detuning {worst:.3g} rad exceeds {_DETUNING_LIMIT} rad; "
            "the linearised spacer matrix is strained",
            ValidityWarning,
            stacklevel=3,
        )


def detuning_from_thickness(d_nm: FloatOrArray, n: float, wavelength_nm: float) -> FloatOrArray:
    """Phase detuning of a layer from exact quarter-wave: k0*n*d - pi/2."""
    return 2.0 * math.pi / wavelength_nm * n * d_nm - 0.5 * math.pi


def thickness_from_detuning(dphi: float, n: float, wavelength_nm: float) -> float:
    """Inverse of :func:`detuning_from_thickness`."""
    return (0.5 * math.pi + dphi) * wavelength_nm / (2.0 * math.pi * n)


def _spacer_from_detuning(dphi: float, n: float, wavelength_nm: float) -> float:
    """Closed-form spacer thickness of a detuning, refused when not positive,
    as a detuning at or below -pi/2 has no spacer to build, or not finite."""
    d = thickness_from_detuning(dphi, n, wavelength_nm)
    if d <= 0:
        raise InputError(
            f"the closed-form spacer is {d:.6g} nm: its detuning {dphi:.6g} rad "
            "is at or below -pi/2"
        )
    if not math.isfinite(d):
        raise InputError(
            f"the closed-form spacer is {d:.6g} nm: not a finite thickness "
            f"at a {wavelength_nm:.6g} nm wavelength"
        )
    return d


def combine_dsc_detunings(
    dphi_c1: FloatOrArray, dphi_c2: FloatOrArray, ctx: CavityContext
) -> FloatOrArray:
    """Single detuning that the double-side cavity responds to:
    dphi_c1 + (n_c2/n_c1)*dphi_c2. Trades preserving it leave A unchanged."""
    _need(ctx, "n_c1", "n_c2")
    return dphi_c1 + (ctx.n_c2 / ctx.n_c1) * dphi_c2


def _need(ctx: CavityContext, *fields: str) -> None:
    for name in fields:
        if getattr(ctx, name) is None:
            raise InputError(f"context is missing {name}")


def max_absorptance(eps_w: complex) -> float:
    """Peak absorptance over wire thickness: 2*Im(eps)/(Im(eps) - |eps|).

    The same expression holds for the single-side, double-side, and
    multi-layer cavities; only the optimum thickness differs.
    """
    mag = abs(eps_w)
    if mag == 0:
        raise InputError("wire permittivity must be nonzero")
    return 2.0 * eps_w.imag / (eps_w.imag - mag)


def max_absorptance_detuned(eps_w: complex) -> float:
    """Peak of the mirror-detuning absorptance family at its matched point:
    -4*Im(eps)/(|eps|*(1 - Im(eps)/|eps|)**2). Shared by the single- and
    double-side spacer optima."""
    mag = abs(eps_w)
    if mag == 0:
        raise InputError("wire permittivity must be nonzero")
    ratio = eps_w.imag / mag
    return -4.0 * eps_w.imag / (mag * (1.0 - ratio) ** 2)


def absorptance_ssc(d_w: FloatOrArray, ctx: CavityContext) -> FloatOrArray:
    """Absorptance of the single-side cavity vs wire thickness (ideal mirror,
    quarter-wave spacer). Depends only on n_i, eps_w, and d_w."""
    _warn_wire(d_w, ctx.wavelength_nm)
    k0 = ctx.k0
    e = ctx.eps_w
    num = -4.0 * k0 * e.imag * ctx.n_i * d_w
    den = (ctx.n_i - k0 * e.imag * d_w) ** 2 + (k0 * e.real * d_w) ** 2
    return num / den


# The reflector-backed cavity obeys the same wire-thickness law once the
# period count is large enough for transmission to vanish.
absorptance_mlc = absorptance_ssc


def wire_optimum_ssc(ctx: CavityContext) -> OptimumPoint:
    """Wire thickness maximising the single-side cavity absorptance:
    d = n_i/(k0*|eps_w|)."""
    return OptimumPoint(ctx.n_i / (ctx.k0 * abs(ctx.eps_w)), max_absorptance(ctx.eps_w))


wire_optimum_mlc = wire_optimum_ssc


def absorptance_ssc_dielectric(dphi_c: FloatOrArray, ctx: CavityContext) -> FloatOrArray:
    """Single-side absorptance vs spacer detuning, wire fixed at its optimum.

    The mirror enters through Im(n_m)/|n_m|**2; passing n_m = None takes the
    ideal-mirror limit where that term vanishes.
    """
    _need(ctx, "n_c")
    _warn_detuning(dphi_c)
    e = ctx.eps_w
    mag = abs(e)
    mirror = 0.0
    if ctx.n_m is not None:
        n_m = complex(ctx.n_m)
        mirror = ctx.n_c**2 * n_m.imag / (abs(n_m) ** 2 * ctx.n_i)
    bracket = e.real / mag - mirror + dphi_c * ctx.n_c / ctx.n_i
    return (-4.0 * e.imag / mag) / ((1.0 - e.imag / mag) ** 2 + bracket**2)


def _mirror_phase_shift(ctx: CavityContext) -> float:
    """Detuning contribution of a real metal mirror, zero in the ideal limit."""
    if ctx.n_m is None:
        return 0.0
    n_m = complex(ctx.n_m)
    return n_m.imag / (abs(n_m) ** 2)


def dielectric_optimum_ssc(ctx: CavityContext) -> OptimumPoint:
    """Spacer thickness maximising the single-side absorptance.

    The optimum sits below quarter-wave: the wire's Re(eps) and the mirror's
    penetration both shave the required phase. dphi is computed first and the
    thickness derived from it, so this and the detuning family cannot drift
    apart. A detuning at or below -pi/2 is a ValueError: no spacer realises it.
    """
    _need(ctx, "n_c")
    e = ctx.eps_w
    mag = abs(e)
    dphi = -ctx.n_i * e.real / (ctx.n_c * mag) + ctx.n_c * _mirror_phase_shift(ctx)
    d_opt = _spacer_from_detuning(dphi, ctx.n_c, ctx.wavelength_nm)
    return OptimumPoint(d_opt, max_absorptance_detuned(e), dphi)


def absorptance_dsc(d_w: FloatOrArray, ctx: CavityContext) -> FloatOrArray:
    """Absorptance of the double-side cavity vs wire thickness (ideal mirror,
    quarter-wave dielectrics). The lower dielectric rescales the optimum."""
    _need(ctx, "n_c1")
    _warn_wire(d_w, ctx.wavelength_nm)
    e = ctx.eps_w
    u = ctx.k0 * ctx.n_i * d_w / ctx.n_c1**2
    return -4.0 * u * e.imag / ((u * e.imag - 1.0) ** 2 + (u * e.real) ** 2)


def wire_optimum_dsc(ctx: CavityContext) -> OptimumPoint:
    """Wire thickness maximising the double-side cavity absorptance:
    d = n_c1**2/(k0*n_i*|eps_w|)."""
    _need(ctx, "n_c1")
    d_opt = ctx.n_c1**2 / (ctx.k0 * ctx.n_i * abs(ctx.eps_w))
    return OptimumPoint(d_opt, max_absorptance(ctx.eps_w))


def absorptance_dsc_dielectric(dphi_dsc: FloatOrArray, ctx: CavityContext) -> FloatOrArray:
    """Double-side absorptance vs the combined detuning of both dielectrics,
    wire fixed at its optimum. See :func:`combine_dsc_detunings`."""
    _need(ctx, "n_c1", "n_c2")
    _warn_detuning(dphi_dsc)
    e = ctx.eps_w
    mag = abs(e)
    mirror = 0.0
    if ctx.n_m is not None:
        n_m = complex(ctx.n_m)
        mirror = ctx.n_c2**2 * ctx.n_i * n_m.imag / (ctx.n_c1**2 * abs(n_m) ** 2)
    bracket = e.real / mag + dphi_dsc * ctx.n_i / ctx.n_c1 - mirror
    return (-4.0 * e.imag / mag) / ((1.0 - e.imag / mag) ** 2 + bracket**2)


def dielectric_optimum_dsc(ctx: CavityContext) -> OptimumPoint:
    """Combined detuning maximising the double-side absorptance, and the upper
    dielectric thickness realising it when the lower layer stays at exact
    quarter-wave. An upper detuning at or below -pi/2 is a ValueError."""
    _need(ctx, "n_c1", "n_c2")
    e = ctx.eps_w
    mag = abs(e)
    dphi_dsc = -ctx.n_c1 * e.real / (ctx.n_i * mag) + (
        ctx.n_c2**2 / ctx.n_c1
    ) * _mirror_phase_shift(ctx)
    dphi_c2 = (ctx.n_c1 / ctx.n_c2) * dphi_dsc
    d_c2 = _spacer_from_detuning(dphi_c2, ctx.n_c2, ctx.wavelength_nm)
    return OptimumPoint(d_c2, max_absorptance_detuned(e), dphi_dsc)


def qwt_relations(ctx: CavityContext, d_w: float) -> QwtResult:
    """Quarter-wave-transformer reading of the layer below the wire.

    The wire plus ideal mirror presents 1/(i*k0*eps_w*d_w); matching that to
    the input medium needs a quarter-wave layer of impedance
    sqrt(eta_i/(k0*eps_w*d_w)). n_qwt is the index realising |eta_qwt|, and
    d_w_implied inverts the relation: choosing n_qwt = n_c1 reproduces the
    double-side wire optimum.
    """
    if d_w <= 0:
        raise InputError(f"wire thickness must be > 0 nm, got {d_w}")
    eta_qwt = cmath.sqrt(ctx.eta_i / (ctx.k0 * ctx.eps_w * d_w))
    n_qwt = 1.0 / abs(eta_qwt)
    d_w_implied = n_qwt**2 / (ctx.k0 * ctx.n_i * abs(ctx.eps_w))
    return QwtResult(eta_qwt, n_qwt, d_w_implied)
