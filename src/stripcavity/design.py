"""Design flow, analytic-vs-oracle comparisons, and the reference-table check.

The design flow mirrors how these cavities are engineered in practice: fix
the wavelength, pick cavity type and materials, compute the closed-form wire
thickness (impedance matching), compute the spacer thickness (mirror phase
compensation), then confirm both against the exact transfer-matrix engine and
check the realised input impedance.

Oracle comparisons reuse the conditions the closed forms assume: wire optima
are refined on a quarter-wave stack backed by the ideal-mirror surrogate
film (the reflector stack for the multi-layer type), while spacer optima and
the final design use the actual metal mirror.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import analytic, tmm
from ._record import ColumnRecord, Record
from ._text import _BLOCK_ROWS
from .analytic import CavityContext
from .materials import (
    InputError,
    Material,
    MaterialRegistry,
    _registry,
    effective_wire_permittivity,
    permittivity,
)
from .stack import (
    DSC,
    MAX_PERIODS,
    MLC,
    SSC,
    Medium,
    Stack,
    StackConfig,
    WireGeometry,
    _check_periods,
    filling_factor,
    resolve_mirror,
)

__all__ = [
    "DesignSpec",
    "DesignReport",
    "CurveSet",
    "Table2Cell",
    "Table2Report",
    "ConvergenceReport",
    "run_design_flow",
    "sweep_curves",
    "sweep_stack",
    "sweep_grid",
    "reproduce_table2",
    "mlc_convergence",
    "WIRE_TARGETS_NM",
    "DIELECTRIC_TARGETS_NM",
    "MAX_PERIODS",
    "CAVITIES",
    "SWEEP_DEFAULTS",
]

# Regression targets: rounded optimal thicknesses (nm) for the benchmark
# geometries (NbN wire, 1550 nm, 80 nm line width), keyed by (cavity, slit).
WIRE_TARGETS_NM = {
    ("ssc", 80.0): 11.6,
    ("ssc", 120.0): 14.4,
    ("ssc", 160.0): 17.3,
    ("dsc", 80.0): 6.6,
    ("dsc", 120.0): 8.2,
    ("dsc", 160.0): 9.8,
    ("mlc", 80.0): 11.6,
    ("mlc", 120.0): 14.4,
    ("mlc", 160.0): 17.3,
}
DIELECTRIC_TARGETS_NM = {
    ("ssc", 80.0): 211.0,
    ("ssc", 120.0): 210.0,
    ("ssc", 160.0): 209.0,
    ("dsc", 80.0): 216.0,
    ("dsc", 120.0): 215.0,
    ("dsc", 160.0): 213.0,
}

WIRE_DISPLAY_TOL_NM = 0.1
DIELECTRIC_DISPLAY_TOL_NM = 1.0
WIRE_AGREEMENT_REL = 0.02
DIELECTRIC_AGREEMENT_REL = 0.06
_CONVERGENCE_TOL = 1e-4
MAX_SWEEP_POINTS = 10_000_000
# (lo, hi, step) in nm of a sweep per swept variable; the reference table
# searches the same (lo, hi) windows.
SWEEP_DEFAULTS = {"wire": (1.0, 30.0, 0.1), "dielectric": (150.0, 300.0, 0.5)}
_TABLE2_WINDOWS = (SWEEP_DEFAULTS["wire"][:2], SWEEP_DEFAULTS["dielectric"][:2])


# The design facts of one cavity type on top of its stack layout. ``part_fields``
# pairs each layout part with the DesignSpec field naming its material and the
# CavityContext field taking its index. The families give A over wire
# thickness (ideal mirror) and over the detuning that ``spacer_detuning``
# makes of a spacer thickness (wire at its optimum); ``reports_qwt`` reports
# the quarter-wave-transformer fields and the combined detuning.
_Cavity = namedtuple(
    "_Cavity",
    "layout part_fields wire_optimum wire_family "
    "spacer_optimum spacer_detuning spacer_family reports_qwt",
    defaults=(None, None, None, False),
)


def _ssc_spacer_detuning(d_c, ctx: CavityContext):
    return analytic.detuning_from_thickness(d_c, ctx.n_c, ctx.wavelength_nm)


def _dsc_spacer_detuning(d_c, ctx: CavityContext):
    # Lower dielectric pinned at exact quarter-wave, so only the upper detunes.
    dphi_c2 = analytic.detuning_from_thickness(d_c, ctx.n_c2, ctx.wavelength_nm)
    return analytic.combine_dsc_detunings(0.0, dphi_c2, ctx)


# Table order is the CLI's order.
_TABLE = {
    entry.layout.name: entry
    for entry in (
        _Cavity(
            SSC, (("dielectric", "n_c"),), analytic.wire_optimum_ssc, analytic.absorptance_ssc,
            analytic.dielectric_optimum_ssc, _ssc_spacer_detuning,
            analytic.absorptance_ssc_dielectric,
        ),
        _Cavity(
            DSC, (("lower_dielectric", "n_c1"), ("upper_dielectric", "n_c2")),
            analytic.wire_optimum_dsc, analytic.absorptance_dsc,
            analytic.dielectric_optimum_dsc, _dsc_spacer_detuning,
            analytic.absorptance_dsc_dielectric, reports_qwt=True,
        ),
        _Cavity(
            MLC, (("low_index", "n_c1"), ("high_index", "n_c2")),
            analytic.wire_optimum_mlc, analytic.absorptance_mlc,
        ),
    )
}
CAVITIES = tuple(_TABLE)


# The fields of a DesignSpec after ``cavity``, with their defaults.
_SPEC_DEFAULTS = {
    "wavelength_nm": 1550.0,
    "line_nm": 80.0,
    "slit_nm": 80.0,
    "wire_material": "NbN",
    "slit_material": None,          # per-cavity default when None
    # each cavity's dielectrics, at its layout parts' default materials
    **{field: default for cavity in _TABLE.values()
       for (field, _), (_, default, _) in zip(cavity.part_fields, cavity.layout.parts)},
    "periods": 6,
    "mirror": "Ag",                 # 'pec' | 'pec-surrogate' | material name
    "mirror_nm": 130.0,
    "input_medium": None,           # Vacuum, or Si for the double-side type
    "output_medium": "Vacuum",
}


class DesignSpec(Record, namedtuple(
    "DesignSpec", ("cavity", *_SPEC_DEFAULTS), defaults=_SPEC_DEFAULTS.values()
)):
    """Everything needed to design one cavity: the cavity type, then the
    fields of ``_SPEC_DEFAULTS``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.cavity not in CAVITIES:
            raise InputError(f"cavity must be one of {CAVITIES}, got {self.cavity!r}")
        _check_periods(self.periods)
        for label, value in (
            ("wavelength", self.wavelength_nm),
            ("line width", self.line_nm),
            ("slit width", self.slit_nm),
        ):
            if not math.isfinite(value):
                raise InputError(f"{label} must be a finite number of nm, got {value}")
        return self

    @property
    def f(self) -> float:
        return filling_factor(self.line_nm, self.slit_nm)


class DesignReport(Record, namedtuple(
    "DesignReport",
    "cavity wavelength_nm filling_factor wire_analytic_nm wire_oracle_nm absorptance_analytic "
    "absorptance_oracle dielectric_analytic_nm dielectric_oracle_nm dphi_dsc_max "
    "impedance_match_ratio qwt_index qwt_index_target warnings",
    defaults=((),),
)):
    """Closed-form and oracle design values side by side. The dielectric,
    ``dphi_dsc_max`` and qwt fields are None where the cavity has no such
    value; ``warnings`` is a tuple of messages."""

    __slots__ = ()

    def as_dict(self) -> dict:
        data = self._asdict()
        data["warnings"] = list(self.warnings)
        return data


class CurveSet(ColumnRecord, namedtuple("CurveSet", "x_nm A_analytic A_tmm eta_ratio")):
    """Columns of x, analytic A, exact A and |eta_in|/eta_i over one swept
    thickness in nm; row i of the curve is element i of each column."""

    __slots__ = ()


class Table2Cell(Record, namedtuple(
    "Table2Cell",
    "cavity quantity slit_nm analytic_nm oracle_nm target_nm analytic_ok oracle_ok oracle_rel_dev",
)):
    """One reference-table cell; ``quantity`` is 'wire' or 'dielectric'."""

    __slots__ = ()


class Table2Report(Record, namedtuple("Table2Report", "cells")):
    """The reference-table cells, a tuple of Table2Cell."""

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(c.analytic_ok and c.oracle_ok for c in self.cells)


class ConvergenceReport(ColumnRecord, namedtuple(
    "ConvergenceReport", "A T converged_periods analytic_A d_w_nm"
)):
    """Columns of exact A and residual T over the reflector's period count,
    entry p - 1 at p periods; the first period count that converged, or
    None; the closed-form A and the wire thickness."""

    __slots__ = ()


def _slit_material(spec: DesignSpec, registry: MaterialRegistry) -> Material:
    if spec.slit_material is not None:
        return registry.get(spec.slit_material)
    # Patterned layers are slit-filled by whatever surrounds them: vacuum for
    # top-side cavities, the upper dielectric when buried in a double-side one.
    cavity = _TABLE[spec.cavity]
    fill = cavity.layout.slit_fill
    return registry.get("Vacuum" if fill is None else getattr(spec, cavity.part_fields[fill][0]))


def _input_material(spec: DesignSpec, registry: MaterialRegistry) -> Material:
    default = _TABLE[spec.cavity].layout.input_medium
    return registry.get(spec.input_medium if spec.input_medium is not None else default)


def build_context(spec: DesignSpec, registry: MaterialRegistry | None = None) -> CavityContext:
    """Assemble the closed-form inputs for a design spec."""
    registry = _registry(registry)
    cavity = _TABLE[spec.cavity]
    wire = registry.get(spec.wire_material).optical_constant
    slit = _slit_material(spec, registry).optical_constant
    eps_w = effective_wire_permittivity(permittivity(wire), permittivity(slit), spec.f)
    n_i = _input_material(spec, registry).optical_constant.n_re
    n_m = None  # the ideal-mirror limit of the closed forms
    if cavity.layout.has_mirror:
        mirror = resolve_mirror(spec.mirror, registry)
        n_m = None if isinstance(mirror, Medium) else mirror.optical_constant.n
    n = {
        ctx_field: registry.get(getattr(spec, spec_field)).optical_constant.n_re
        for spec_field, ctx_field in cavity.part_fields
    }
    return CavityContext(eps_w, n_i, n_m=n_m, wavelength_nm=spec.wavelength_nm, **n)


def _wire(spec: DesignSpec, registry: MaterialRegistry, d_w_nm: float) -> WireGeometry:
    """The spec's patterned wire at ``d_w_nm``. The stacks of one design share
    it, and with it one effective wire layer."""
    return WireGeometry(
        spec.line_nm, spec.slit_nm, registry.get(spec.wire_material),
        _slit_material(spec, registry), d_w_nm,
    )


def _stack_on(
    spec: DesignSpec, registry: MaterialRegistry, wire: WireGeometry,
    spacer_nm: float | None = None, mirror_token: str | None = None,
) -> Stack:
    """Concrete stack for a spec on ``wire``, the spacer at quarter-wave unless
    given. Wire searches and sweeps pass the closed forms' ideal mirror,
    "pec-surrogate"; a layout without a mirror keeps its reflector."""
    cavity = _TABLE[spec.cavity]
    layout = cavity.layout
    token = mirror_token if mirror_token is not None else spec.mirror
    mirror = resolve_mirror(token, registry) if layout.has_mirror else None
    inp = _input_material(spec, registry)
    out = registry.get(spec.output_medium)
    parts = [registry.get(getattr(spec, field)) for field, _ in cavity.part_fields]
    part_nm = [None] * len(parts)
    if spacer_nm is not None:
        part_nm[layout.spacer] = spacer_nm
    return layout.build(
        wire, parts, part_nm, mirror, spec.mirror_nm, spec.periods,
        inp, out, spec.wavelength_nm, registry,
    )


def _optima(spec: DesignSpec, registry: MaterialRegistry, ctx: CavityContext, windows=None):
    """Closed-form optima and their exact-engine refinements: (wire optimum,
    (oracle wire nm, its absorptance), spacer optimum, oracle spacer nm, the
    wire at its closed-form optimum), the spacer entries None when the layout
    has none. The wire is refined on the ideal-mirror layout, the spacer on
    the actual mirror. The searches span ``windows``, ((lo, hi) wire, (lo,
    hi) spacer) in nm, or by default 0.3-3x the closed-form wire and 0.6-1.2x
    the quarter-wave spacer."""
    cavity = _TABLE[spec.cavity]
    wire_opt = cavity.wire_optimum(ctx)
    d_w = wire_opt.d_opt_nm
    # before any stack: a spacer the closed form cannot realise fails by name
    spacer_opt = None if cavity.spacer_optimum is None else cavity.spacer_optimum(ctx)
    wire = _wire(spec, registry, d_w)
    stack = _stack_on(spec, registry, wire, mirror_token="pec-surrogate")
    lo, hi = windows[0] if windows else (0.3 * d_w, 3.0 * d_w)
    wire_oracle = tmm.argmax_absorptance(
        stack, cavity.layout.wire_index, lo, hi, spec.wavelength_nm
    )
    if spacer_opt is None:
        return wire_opt, wire_oracle, None, None, wire
    designed = _stack_on(spec, registry, wire)
    index = cavity.layout.spacer_index
    qw = designed.layers[index].thickness_nm
    lo, hi = windows[1] if windows else (0.6 * qw, 1.2 * qw)
    spacer_oracle_nm, _ = tmm.argmax_absorptance(designed, index, lo, hi, spec.wavelength_nm)
    return wire_opt, wire_oracle, spacer_opt, spacer_oracle_nm, wire


def run_design_flow(spec: DesignSpec, registry: MaterialRegistry | None = None) -> DesignReport:
    """Execute the full design sequence for one cavity spec.

    Closed-form wire and spacer optima come first; the exact engine then
    refines both and evaluates the impedance match of the designed stack.
    The report's warnings are the thin-wire check at the closed-form wire,
    the detuning check at the closed-form spacer, then any oracle
    disagreement.
    """
    registry = _registry(registry)
    cavity = _TABLE[spec.cavity]
    ctx = build_context(spec, registry)
    wire_opt, (wire_oracle_nm, absorptance_oracle), spacer_opt, spacer_oracle_nm, wire = _optima(
        spec, registry, ctx
    )
    spacer_nm = None if spacer_opt is None else spacer_opt.d_opt_nm

    absorptance_analytic = cavity.wire_family(wire_opt.d_opt_nm, ctx)
    checks = [analytic.wire_strain(wire_opt.d_opt_nm, ctx.wavelength_nm)]
    if spacer_opt is not None:
        checks.append(analytic.detuning_strain(cavity.spacer_detuning(spacer_nm, ctx)))
    collected = [message for message in checks if message is not None]
    collected += _disagreements(
        ("wire", wire_opt.d_opt_nm, wire_oracle_nm), ("dielectric", spacer_nm, spacer_oracle_nm)
    )

    # Impedance match of the designed stack at the closed-form design point.
    designed = _stack_on(spec, registry, wire, spacer_nm=spacer_nm)
    eta_in = tmm.input_impedance(designed, spec.wavelength_nm)
    ratio = float(abs(eta_in) * ctx.n_i)

    dphi = qwt_index = qwt_target = None
    if cavity.reports_qwt:
        dphi = spacer_opt.dphi
        qwt_index = analytic.qwt_relations(ctx, wire_opt.d_opt_nm).n_qwt
        qwt_target = ctx.n_c1

    return DesignReport(
        cavity=spec.cavity,
        wavelength_nm=spec.wavelength_nm,
        filling_factor=spec.f,
        wire_analytic_nm=wire_opt.d_opt_nm,
        wire_oracle_nm=wire_oracle_nm,
        absorptance_analytic=absorptance_analytic,
        absorptance_oracle=absorptance_oracle,
        dielectric_analytic_nm=spacer_nm,
        dielectric_oracle_nm=spacer_oracle_nm,
        dphi_dsc_max=dphi,
        impedance_match_ratio=ratio,
        qwt_index=qwt_index,
        qwt_index_target=qwt_target,
        warnings=tuple(collected),
    )


def sweep_grid(lo_nm: float, hi_nm: float, step_nm: float) -> np.ndarray:
    """Thicknesses lo, lo + step, ... up to hi (within half a step).

    A zero-length range gives the single point lo, and lo = 0 is the
    no-layer limit. Non-finite bounds or step, a negative lo, and grids
    beyond MAX_SWEEP_POINTS are rejected before anything is allocated.
    """
    if not all(math.isfinite(v) for v in (lo_nm, hi_nm, step_nm)):
        raise InputError(
            f"sweep bounds and step must be finite, got [{lo_nm}, {hi_nm}] step {step_nm}"
        )
    if lo_nm < 0:
        raise InputError(f"need lo >= 0 nm, got [{lo_nm}, {hi_nm}]")
    lo_nm = abs(lo_nm)  # -0.0 passes as 0, and its grid starts at 0, not -0
    if lo_nm > hi_nm:
        raise InputError(f"need lo <= hi, got [{lo_nm}, {hi_nm}]")
    if step_nm <= 0:
        raise InputError(f"step must be > 0 nm, got {step_nm}")
    stop = hi_nm + 0.5 * step_nm
    # numpy sizes the grid as ceil((stop - lo)/step); a span that overflows
    # to inf fails this test too.
    if not (stop - lo_nm) / step_nm <= MAX_SWEEP_POINTS:
        raise InputError(
            f"sweep of [{lo_nm}, {hi_nm}] step {step_nm} exceeds {MAX_SWEEP_POINTS} points"
        )
    xs = np.arange(lo_nm, stop, step_nm)
    if len(xs) == 0:
        xs = np.array([lo_nm])
    return xs


def sweep_curves(
    spec: DesignSpec,
    variable: str,
    lo_nm: float,
    hi_nm: float,
    step_nm: float,
    registry: MaterialRegistry | None = None,
) -> CurveSet:
    """Per-point analytic A, exact A, and impedance ratio over one thickness.

    ``variable`` is 'wire' or 'dielectric'. Wire sweeps run on the
    ideal-mirror layout the wire formulas assume; dielectric sweeps hold the
    wire at its closed-form optimum on the actual mirror. The thicknesses come
    from :func:`sweep_grid`. No validity check runs: probing beyond the
    formulas' comfort zone is exactly what a sweep is for.
    """
    registry = _registry(registry)
    cavity = _TABLE[spec.cavity]
    if variable not in ("wire", "dielectric"):
        raise InputError(f"variable must be 'wire' or 'dielectric', got {variable!r}")
    if variable == "dielectric" and cavity.spacer_family is None:
        raise InputError("the multi-layer cavity has no free dielectric thickness")
    columns = _grid_columns(lo_nm, hi_nm, step_nm)

    ctx = build_context(spec, registry)
    # At absurd wavelengths the closed forms overflow to inf or NaN; the exact
    # column below then refuses the sweep with one error, so no numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        wire = _wire(spec, registry, cavity.wire_optimum(ctx).d_opt_nm)
        if variable == "wire":
            stack = _stack_on(spec, registry, wire, mirror_token="pec-surrogate")
            return _curves(stack, cavity.layout.wire_index, columns, spec.wavelength_nm,
                           lambda x: cavity.wire_family(x, ctx))
        return _curves(_stack_on(spec, registry, wire), cavity.layout.spacer_index, columns,
                       spec.wavelength_nm,
                       lambda x: cavity.spacer_family(cavity.spacer_detuning(x, ctx), ctx))


def sweep_stack(config: StackConfig, variable: str, layer: int | None,
                lo_nm: float, hi_nm: float, step_nm: float) -> CurveSet:
    """Exact A and impedance ratio over ``layer`` of a stack config, or over
    its wire or dielectric layer as ``variable`` names. The analytic column
    is NaN: a config stack has no closed form."""
    if layer is None:
        layer = config.wire_layer_index if variable == "wire" else config.dielectric_layer_index
    if layer is None:
        reason = ("a custom stack names no layer to sweep" if config.cavity == "custom"
                  else f"the {config.cavity} layout has no dielectric spacer")
        raise InputError(f"{reason}; --layer picks the swept layer")
    return _curves(config.stack, layer, _grid_columns(lo_nm, hi_nm, step_nm),
                   config.wavelength_nm)


def _grid_columns(lo_nm: float, hi_nm: float, step_nm: float) -> np.ndarray:
    """A curve's four columns as one ``(4, n)`` array: row 0 the
    :func:`sweep_grid` thicknesses, copied in before the grid's own array is
    dropped, and three rows for `_curves` to fill. A warm process gets one
    such allocation back from malloc without new page faults; four separate
    columns took about 90 a 15k-point curve."""
    xs = sweep_grid(lo_nm, hi_nm, step_nm)
    columns = np.empty((4, len(xs)))
    columns[0] = xs
    return columns


def _curves(stack: Stack, index: int, columns: np.ndarray, wavelength_nm: float,
            analytic=None) -> CurveSet:
    """Layer ``index`` of ``stack`` swept over the thicknesses in row 0 of
    `_grid_columns`' ``columns``, whose other rows it fills; the ratio is
    taken to the stack's input medium. Each block of ``_BLOCK_ROWS`` rows is
    finished in every column before the next starts, so only the four
    columns span the grid. ``analytic`` maps a block of thicknesses to its
    closed-form column; None is a NaN column."""
    sweep_block = tmm.sweep_of_layer(stack, index, wavelength_nm)
    n_i = stack.input.material.optical_constant.n_re
    x_nm, A_analytic, A_tmm, eta_ratio = columns
    if analytic is None:
        A_analytic.fill(np.nan)
    for lo in range(0, len(x_nm), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        if analytic is not None:
            A_analytic[rows] = analytic(x_nm[rows])
        *_, eta_in = sweep_block(x_nm[rows], A_tmm[rows])
        np.multiply(np.abs(eta_in, out=eta_ratio[rows]), n_i, out=eta_ratio[rows])
    return CurveSet(x_nm, A_analytic, A_tmm, eta_ratio)


def reproduce_table2(registry: MaterialRegistry | None = None) -> Table2Report:
    """Recompute every reference-table cell and flag it against tolerance.

    Analytic cells must land on the published rounded values (0.1 nm for the
    wire, 1 nm for the dielectric); oracle cells must agree with the closed
    forms within 2% (wire) and 6% (dielectric).
    """
    registry = _registry(registry)
    cells: list[Table2Cell] = []
    for slit in (80.0, 120.0, 160.0):
        for name in CAVITIES:
            spec = DesignSpec(cavity=name, slit_nm=slit)
            ctx = build_context(spec, registry)
            wire_opt, (wire_nm, _), spacer_opt, spacer_nm, _ = _optima(
                spec, registry, ctx, _TABLE2_WINDOWS
            )
            cells.append(_make_cell(name, "wire", slit, wire_opt.d_opt_nm, wire_nm))
            if spacer_opt is not None:
                cells.append(_make_cell(name, "dielectric", slit, spacer_opt.d_opt_nm, spacer_nm))
    cells.sort(key=lambda c: (CAVITIES.index(c.cavity), c.quantity, c.slit_nm))
    return Table2Report(tuple(cells))


# quantity -> (regression targets, display tolerance nm, oracle agreement)
_CELL_CHECKS = {
    "wire": (WIRE_TARGETS_NM, WIRE_DISPLAY_TOL_NM, WIRE_AGREEMENT_REL),
    "dielectric": (DIELECTRIC_TARGETS_NM, DIELECTRIC_DISPLAY_TOL_NM, DIELECTRIC_AGREEMENT_REL),
}


def _rel_dev(analytic_nm: float, oracle_nm: float) -> float:
    return abs(oracle_nm - analytic_nm) / analytic_nm


def _disagreements(*thicknesses) -> list[str]:
    """An ``oracle-disagrees`` warning for each (quantity, closed-form nm,
    oracle nm) whose oracle lies outside the quantity's agreement band, as a
    reference-table cell fails; a quantity without a closed form is skipped."""
    messages = []
    for quantity, analytic_nm, oracle_nm in thicknesses:
        if analytic_nm is None:
            continue
        band = _CELL_CHECKS[quantity][2]
        rel_dev = _rel_dev(analytic_nm, oracle_nm)
        if not rel_dev <= band:
            messages.append(
                f"oracle-disagrees: {quantity} oracle {oracle_nm:.6g} nm is {100 * rel_dev:.3g}% "
                f"off the closed form {analytic_nm:.6g} nm, outside the {100 * band:g}% band"
            )
    return messages


def _make_cell(
    cavity: str, quantity: str, slit_nm: float, analytic_nm: float, oracle_nm: float
) -> Table2Cell:
    targets, display_tol_nm, agreement_rel = _CELL_CHECKS[quantity]
    target_nm = targets[(cavity, slit_nm)]
    rounded = round(analytic_nm / display_tol_nm) * display_tol_nm
    analytic_ok = abs(rounded - target_nm) <= display_tol_nm + 1e-9
    rel_dev = _rel_dev(analytic_nm, oracle_nm)
    return Table2Cell(
        cavity, quantity, slit_nm, analytic_nm, oracle_nm, target_nm,
        analytic_ok, rel_dev <= agreement_rel, rel_dev,
    )


def mlc_convergence(
    spec: DesignSpec,
    n_max: int,
    d_w_nm: float | None = None,
    registry: MaterialRegistry | None = None,
) -> ConvergenceReport:
    """Exact absorptance and residual transmission versus reflector periods.

    Reports the smallest period count where adding one more pair moves the
    absorptance by less than 1e-4 (None if that never happens below n_max).
    """
    if _TABLE[spec.cavity].layout.has_mirror:
        raise InputError("convergence in period count only applies to the multi-layer cavity")
    if n_max < 2:
        raise InputError(f"need n_max >= 2, got {n_max}")
    if n_max > MAX_PERIODS:
        raise InputError(f"need n_max <= {MAX_PERIODS}, got {n_max}")
    registry = _registry(registry)
    ctx = build_context(spec, registry)
    if d_w_nm is None:
        d_w_nm = analytic.wire_optimum_mlc(ctx).d_opt_nm
    try:
        analytic_A = analytic.absorptance_mlc(d_w_nm, ctx)
    except OverflowError:  # a float ** overflows where numpy gives inf
        raise InputError(
            f"the closed-form absorptance overflows at a {d_w_nm:.6g} nm wire"
        ) from None

    # Layers are wire | (c1, c2) * n_max: p periods are the first 1 + 2p.
    stack = _stack_on(spec._replace(periods=n_max), registry, _wire(spec, registry, d_w_nm))
    result = tmm.scatter_truncations(stack, range(3, 2 * n_max + 2, 2), spec.wavelength_nm)
    finite = np.isfinite(result.A) & np.isfinite(result.T)
    if not finite.all():
        raise InputError(
            f"absorptance or transmission is not finite at {np.argmin(finite) + 1} periods; "
            "the reflector chain overflows"
        )
    steps = np.flatnonzero(np.abs(np.diff(result.A)) < _CONVERGENCE_TOL)
    converged = int(steps[0]) + 1 if steps.size else None
    return ConvergenceReport(result.A, result.T, converged, analytic_A, d_w_nm)
