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
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import analytic, tmm
from .analytic import CavityContext, OptimumPoint, ValidityWarning
from .materials import (
    Material,
    MaterialRegistry,
    builtin_registry,
    effective_wire_permittivity,
    permittivity,
)
from .stack import (
    MAX_PERIODS,
    Medium,
    Stack,
    WireGeometry,
    build_dsc,
    build_mlc,
    build_ssc,
    filling_factor,
    quarter_wave_thickness,
    resolve_mirror,
)

__all__ = [
    "DesignSpec",
    "DesignReport",
    "CurveSet",
    "Table2Cell",
    "Table2Report",
    "ConvergenceRow",
    "ConvergenceReport",
    "run_design_flow",
    "sweep_curves",
    "sweep_grid",
    "reproduce_table2",
    "mlc_convergence",
    "WIRE_TARGETS_NM",
    "DIELECTRIC_TARGETS_NM",
    "MAX_PERIODS",
]

CAVITIES = ("ssc", "dsc", "mlc")

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


@dataclass(frozen=True)
class DesignSpec:
    """Everything needed to design one cavity."""

    cavity: str
    wavelength_nm: float = 1550.0
    line_nm: float = 80.0
    slit_nm: float = 80.0
    wire_material: str = "NbN"
    slit_material: str | None = None  # per-cavity default when None
    dielectric: str = "SiO"           # single-side spacer
    lower_dielectric: str = "SiO2"    # double-side, input side
    upper_dielectric: str = "SiO"     # double-side, mirror side
    low_index: str = "SiO2"           # reflector pair, wire side
    high_index: str = "Ta2O5"
    periods: int = 6
    mirror: str = "Ag"                # 'pec' | 'pec-surrogate' | material name
    mirror_nm: float = 130.0
    input_medium: str | None = None   # Vacuum, or Si for the double-side type
    output_medium: str = "Vacuum"

    def __post_init__(self) -> None:
        if self.cavity not in CAVITIES:
            raise ValueError(f"cavity must be one of {CAVITIES}, got {self.cavity!r}")
        if self.periods < 1:
            raise ValueError(f"period count must be >= 1, got {self.periods}")
        if self.periods > MAX_PERIODS:
            raise ValueError(f"period count must be <= {MAX_PERIODS}, got {self.periods}")
        for label, value in (
            ("wavelength", self.wavelength_nm),
            ("line width", self.line_nm),
            ("slit width", self.slit_nm),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{label} must be a finite number of nm, got {value}")

    @property
    def f(self) -> float:
        return filling_factor(self.line_nm, self.slit_nm)


@dataclass(frozen=True)
class DesignReport:
    """Closed-form and oracle design values side by side."""

    cavity: str
    wavelength_nm: float
    filling_factor: float
    wire_analytic_nm: float
    wire_oracle_nm: float
    absorptance_analytic: float
    absorptance_oracle: float
    dielectric_analytic_nm: float | None
    dielectric_oracle_nm: float | None
    dphi_dsc_max: float | None
    impedance_match_ratio: float
    qwt_index: float | None
    qwt_index_target: float | None
    warnings: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "cavity": self.cavity,
            "wavelength_nm": self.wavelength_nm,
            "filling_factor": self.filling_factor,
            "wire_analytic_nm": self.wire_analytic_nm,
            "wire_oracle_nm": self.wire_oracle_nm,
            "absorptance_analytic": self.absorptance_analytic,
            "absorptance_oracle": self.absorptance_oracle,
            "dielectric_analytic_nm": self.dielectric_analytic_nm,
            "dielectric_oracle_nm": self.dielectric_oracle_nm,
            "dphi_dsc_max": self.dphi_dsc_max,
            "impedance_match_ratio": self.impedance_match_ratio,
            "qwt_index": self.qwt_index,
            "qwt_index_target": self.qwt_index_target,
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True, eq=False)  # numpy columns have no single truth value for ==
class CurveSet:
    """Columns of x, analytic A, exact A and |eta_in|/eta_i over one swept
    variable; row i of the curve is element i of each column."""

    variable: str
    unit: str
    x_nm: np.ndarray
    A_analytic: np.ndarray
    A_tmm: np.ndarray
    eta_ratio: np.ndarray


@dataclass(frozen=True)
class Table2Cell:
    cavity: str
    quantity: str  # 'wire' | 'dielectric'
    slit_nm: float
    analytic_nm: float
    oracle_nm: float
    target_nm: float
    analytic_ok: bool
    oracle_ok: bool
    oracle_rel_dev: float


@dataclass(frozen=True)
class Table2Report:
    cells: tuple[Table2Cell, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.analytic_ok and c.oracle_ok for c in self.cells)


@dataclass(frozen=True)
class ConvergenceRow:
    periods: int
    A: float
    T: float


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]
    converged_periods: int | None
    analytic_A: float
    d_w_nm: float


def _registry(registry: MaterialRegistry | None) -> MaterialRegistry:
    return registry if registry is not None else builtin_registry()


def _slit_material(spec: DesignSpec, registry: MaterialRegistry) -> Material:
    if spec.slit_material is not None:
        return registry.get(spec.slit_material)
    # Patterned layers are slit-filled by whatever surrounds them: vacuum for
    # top-side cavities, the upper dielectric when buried in a double-side one.
    if spec.cavity == "dsc":
        return registry.get(spec.upper_dielectric)
    return registry.get("Vacuum")


def _input_material(spec: DesignSpec, registry: MaterialRegistry) -> Material:
    if spec.input_medium is not None:
        return registry.get(spec.input_medium)
    return registry.get("Si" if spec.cavity == "dsc" else "Vacuum")


def _mirror_index(spec: DesignSpec, registry: MaterialRegistry) -> complex | None:
    """Complex mirror index for the closed forms; None in the ideal limit."""
    mirror = resolve_mirror(spec.mirror, registry)
    if isinstance(mirror, Medium):
        return None
    return mirror.optical_constant.n


def build_context(spec: DesignSpec, registry: MaterialRegistry | None = None) -> CavityContext:
    """Assemble the closed-form inputs for a design spec."""
    registry = _registry(registry)
    wire = registry.get(spec.wire_material)
    slit = _slit_material(spec, registry)
    eps_w = analytic_wire_permittivity(spec, wire, slit)
    n_i = _input_material(spec, registry).optical_constant.n_re
    n_m = _mirror_index(spec, registry)
    out = registry.get(spec.output_medium).optical_constant.n_re
    if spec.cavity == "ssc":
        n_c = registry.get(spec.dielectric).optical_constant.n_re
        return CavityContext(eps_w, n_i, n_c=n_c, n_m=n_m, n_o=out, wavelength_nm=spec.wavelength_nm)
    if spec.cavity == "dsc":
        n_c1 = registry.get(spec.lower_dielectric).optical_constant.n_re
        n_c2 = registry.get(spec.upper_dielectric).optical_constant.n_re
        return CavityContext(
            eps_w, n_i, n_c1=n_c1, n_c2=n_c2, n_m=n_m, n_o=out, wavelength_nm=spec.wavelength_nm
        )
    n_c1 = registry.get(spec.low_index).optical_constant.n_re
    n_c2 = registry.get(spec.high_index).optical_constant.n_re
    if n_c1 >= n_c2:
        raise ValueError(
            "the reflector layer adjacent to the wire must have the smaller "
            f"refractive index, got n({spec.low_index}) = {n_c1} >= n({spec.high_index}) = {n_c2}"
        )
    return CavityContext(eps_w, n_i, n_c1=n_c1, n_c2=n_c2, n_o=out, wavelength_nm=spec.wavelength_nm)


def analytic_wire_permittivity(spec: DesignSpec, wire: Material, slit: Material) -> complex:
    return effective_wire_permittivity(
        permittivity(wire.optical_constant), permittivity(slit.optical_constant), spec.f
    )


def _wire_geometry(spec: DesignSpec, registry: MaterialRegistry, thickness_nm: float) -> WireGeometry:
    return WireGeometry(
        spec.line_nm,
        spec.slit_nm,
        registry.get(spec.wire_material),
        _slit_material(spec, registry),
        thickness_nm,
    )


def _build_stack(
    spec: DesignSpec,
    registry: MaterialRegistry,
    d_w_nm: float,
    dielectric_nm: float | None = None,
    mirror_token: str | None = None,
) -> tuple[Stack, int, int | None]:
    """Concrete stack for a spec; returns (stack, wire index, spacer index)."""
    wire = _wire_geometry(spec, registry, d_w_nm)
    mirror = resolve_mirror(mirror_token if mirror_token is not None else spec.mirror, registry)
    inp = _input_material(spec, registry)
    out = registry.get(spec.output_medium)
    if spec.cavity == "ssc":
        stack = build_ssc(
            wire, registry.get(spec.dielectric), dielectric_nm, mirror, spec.mirror_nm,
            inp, out, spec.wavelength_nm, registry,
        )
        return stack, 0, 1
    if spec.cavity == "dsc":
        stack = build_dsc(
            wire, registry.get(spec.lower_dielectric), None,
            registry.get(spec.upper_dielectric), dielectric_nm, mirror, spec.mirror_nm,
            inp, out, spec.wavelength_nm, registry,
        )
        return stack, 1, 2
    stack = build_mlc(
        wire, registry.get(spec.low_index), registry.get(spec.high_index), spec.periods,
        inp, out, spec.wavelength_nm, registry,
    )
    return stack, 0, None


def _wire_oracle_stack(spec: DesignSpec, registry: MaterialRegistry, d_w_nm: float):
    """Stack under the closed forms' mirror assumption: surrogate film for the
    single- and double-side types, the reflector itself for the multi-layer."""
    token = spec.mirror if spec.cavity == "mlc" else "pec-surrogate"
    return _build_stack(spec, registry, d_w_nm, mirror_token=token)


def _wire_search_range(d_analytic: float) -> tuple[float, float]:
    return 0.3 * d_analytic, 3.0 * d_analytic


def _dielectric_search_range(spec: DesignSpec, registry: MaterialRegistry) -> tuple[float, float]:
    name = spec.dielectric if spec.cavity == "ssc" else spec.upper_dielectric
    qw = quarter_wave_thickness(registry.get(name), spec.wavelength_nm)
    return 0.6 * qw, 1.2 * qw


def run_design_flow(spec: DesignSpec, registry: MaterialRegistry | None = None) -> DesignReport:
    """Execute the full design sequence for one cavity spec.

    Closed-form wire and spacer optima come first; the exact engine then
    refines both and evaluates the impedance match of the designed stack.
    Validity warnings raised by the closed forms are collected in the report
    rather than surfaced.
    """
    registry = _registry(registry)
    ctx = build_context(spec, registry)

    collected: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ValidityWarning)
        if spec.cavity == "ssc":
            wire_opt = analytic.wire_optimum_ssc(ctx)
            diel_opt: OptimumPoint | None = analytic.dielectric_optimum_ssc(ctx)
            absorptance_analytic = analytic.absorptance_ssc(wire_opt.d_opt_nm, ctx)
            analytic.absorptance_ssc_dielectric(diel_opt.dphi, ctx)
        elif spec.cavity == "dsc":
            wire_opt = analytic.wire_optimum_dsc(ctx)
            diel_opt = analytic.dielectric_optimum_dsc(ctx)
            absorptance_analytic = analytic.absorptance_dsc(wire_opt.d_opt_nm, ctx)
            analytic.absorptance_dsc_dielectric(diel_opt.dphi, ctx)
        else:
            wire_opt = analytic.wire_optimum_mlc(ctx)
            diel_opt = None
            absorptance_analytic = analytic.absorptance_mlc(wire_opt.d_opt_nm, ctx)
    collected.extend(str(w.message) for w in caught if issubclass(w.category, ValidityWarning))

    # Oracle refinement of the wire thickness under the ideal-mirror layout.
    stack, wire_idx, _ = _wire_oracle_stack(spec, registry, wire_opt.d_opt_nm)
    lo, hi = _wire_search_range(wire_opt.d_opt_nm)
    wire_oracle_nm, absorptance_oracle = tmm.argmax_absorptance(
        stack, wire_idx, lo, hi, spec.wavelength_nm
    )

    # Oracle refinement of the spacer on the actual mirror.
    diel_oracle_nm = None
    if diel_opt is not None:
        designed, _, diel_idx = _build_stack(spec, registry, wire_opt.d_opt_nm)
        lo, hi = _dielectric_search_range(spec, registry)
        diel_oracle_nm, _ = tmm.argmax_absorptance(
            designed, diel_idx, lo, hi, spec.wavelength_nm
        )

    # Impedance match of the designed stack at the closed-form design point.
    designed, _, _ = _build_stack(
        spec, registry, wire_opt.d_opt_nm,
        dielectric_nm=None if diel_opt is None else diel_opt.d_opt_nm,
    )
    eta_in = tmm.input_impedance(designed, spec.wavelength_nm)
    ratio = float(abs(eta_in) * ctx.n_i)

    qwt_index = qwt_target = None
    if spec.cavity == "dsc":
        qwt = analytic.qwt_relations(ctx, wire_opt.d_opt_nm)
        qwt_index = qwt.n_qwt
        qwt_target = ctx.n_c1

    return DesignReport(
        cavity=spec.cavity,
        wavelength_nm=spec.wavelength_nm,
        filling_factor=spec.f,
        wire_analytic_nm=wire_opt.d_opt_nm,
        wire_oracle_nm=wire_oracle_nm,
        absorptance_analytic=absorptance_analytic,
        absorptance_oracle=absorptance_oracle,
        dielectric_analytic_nm=None if diel_opt is None else diel_opt.d_opt_nm,
        dielectric_oracle_nm=diel_oracle_nm,
        dphi_dsc_max=diel_opt.dphi if spec.cavity == "dsc" and diel_opt else None,
        impedance_match_ratio=ratio,
        qwt_index=qwt_index,
        qwt_index_target=qwt_target,
        warnings=tuple(collected),
    )


def _analytic_wire_absorptance(
    spec: DesignSpec, ctx: CavityContext, d_w: np.ndarray
) -> np.ndarray:
    if spec.cavity == "dsc":
        return analytic.absorptance_dsc(d_w, ctx)
    return analytic.absorptance_ssc(d_w, ctx)


def _analytic_dielectric_absorptance(
    spec: DesignSpec, ctx: CavityContext, d_c: np.ndarray
) -> np.ndarray:
    if spec.cavity == "ssc":
        dphi = analytic.detuning_from_thickness(d_c, ctx.n_c, ctx.wavelength_nm)
        return analytic.absorptance_ssc_dielectric(dphi, ctx)
    # Lower dielectric pinned at exact quarter-wave, so only the upper detunes.
    dphi_c2 = analytic.detuning_from_thickness(d_c, ctx.n_c2, ctx.wavelength_nm)
    dphi_dsc = analytic.combine_dsc_detunings(0.0, dphi_c2, ctx)
    return analytic.absorptance_dsc_dielectric(dphi_dsc, ctx)


def sweep_grid(lo_nm: float, hi_nm: float, step_nm: float) -> np.ndarray:
    """Thicknesses lo, lo + step, ... up to hi (within half a step).

    A zero-length range gives the single point lo. Non-finite bounds or step,
    and grids beyond MAX_SWEEP_POINTS, are rejected before anything is
    allocated.
    """
    if not all(math.isfinite(v) for v in (lo_nm, hi_nm, step_nm)):
        raise ValueError(
            f"sweep bounds and step must be finite, got [{lo_nm}, {hi_nm}] step {step_nm}"
        )
    if lo_nm > hi_nm:
        raise ValueError(f"need lo <= hi, got [{lo_nm}, {hi_nm}]")
    if step_nm <= 0:
        raise ValueError(f"step must be > 0 nm, got {step_nm}")
    stop = hi_nm + 0.5 * step_nm
    # numpy sizes the grid as ceil((stop - lo)/step); a span that overflows
    # to inf fails this test too.
    if not (stop - lo_nm) / step_nm <= MAX_SWEEP_POINTS:
        raise ValueError(
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
    from :func:`sweep_grid`. Validity warnings are suppressed: probing beyond
    the formulas' comfort zone is exactly what a sweep is for.
    """
    registry = _registry(registry)
    if variable not in ("wire", "dielectric"):
        raise ValueError(f"variable must be 'wire' or 'dielectric', got {variable!r}")
    if spec.cavity == "mlc" and variable == "dielectric":
        raise ValueError("the multi-layer cavity has no free dielectric thickness")
    xs = sweep_grid(lo_nm, hi_nm, step_nm)

    ctx = build_context(spec, registry)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        wire_opt = (
            analytic.wire_optimum_dsc(ctx) if spec.cavity == "dsc" else analytic.wire_optimum_ssc(ctx)
        )
        if variable == "wire":
            stack, idx, _ = _wire_oracle_stack(spec, registry, wire_opt.d_opt_nm)
            analytic_A = _analytic_wire_absorptance(spec, ctx, xs)
        else:
            stack, _, idx = _build_stack(spec, registry, wire_opt.d_opt_nm)
            analytic_A = _analytic_dielectric_absorptance(spec, ctx, xs)

    result = tmm.sweep(stack, idx, xs, spec.wavelength_nm)
    return CurveSet(variable, "nm", xs, analytic_A, result.A, np.abs(result.eta_in) * ctx.n_i)


def _table2_specs(slit_nm: float) -> dict[str, DesignSpec]:
    return {cavity: DesignSpec(cavity=cavity, slit_nm=slit_nm) for cavity in CAVITIES}


def reproduce_table2(registry: MaterialRegistry | None = None) -> Table2Report:
    """Recompute every reference-table cell and flag it against tolerance.

    Analytic cells must land on the published rounded values (0.1 nm for the
    wire, 1 nm for the dielectric); oracle cells must agree with the closed
    forms within 2% (wire) and 6% (dielectric).
    """
    registry = _registry(registry)
    cells: list[Table2Cell] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for slit in (80.0, 120.0, 160.0):
            for cavity, spec in _table2_specs(slit).items():
                ctx = build_context(spec, registry)
                wire_opt = (
                    analytic.wire_optimum_dsc(ctx) if cavity == "dsc" else analytic.wire_optimum_ssc(ctx)
                )
                stack, wire_idx, _ = _wire_oracle_stack(spec, registry, wire_opt.d_opt_nm)
                oracle_nm, _ = tmm.argmax_absorptance(stack, wire_idx, 1.0, 30.0, spec.wavelength_nm)
                cells.append(
                    _make_cell(
                        cavity, "wire", slit, wire_opt.d_opt_nm, oracle_nm,
                        WIRE_TARGETS_NM[(cavity, slit)], WIRE_DISPLAY_TOL_NM, WIRE_AGREEMENT_REL,
                    )
                )
                if cavity == "mlc":
                    continue
                diel_opt = (
                    analytic.dielectric_optimum_dsc(ctx) if cavity == "dsc" else analytic.dielectric_optimum_ssc(ctx)
                )
                designed, _, diel_idx = _build_stack(spec, registry, wire_opt.d_opt_nm)
                oracle_nm, _ = tmm.argmax_absorptance(designed, diel_idx, 150.0, 300.0, spec.wavelength_nm)
                cells.append(
                    _make_cell(
                        cavity, "dielectric", slit, diel_opt.d_opt_nm, oracle_nm,
                        DIELECTRIC_TARGETS_NM[(cavity, slit)], DIELECTRIC_DISPLAY_TOL_NM,
                        DIELECTRIC_AGREEMENT_REL,
                    )
                )
    order = {"ssc": 0, "dsc": 1, "mlc": 2}
    cells.sort(key=lambda c: (order[c.cavity], c.quantity, c.slit_nm))
    return Table2Report(tuple(cells))


def _make_cell(
    cavity: str,
    quantity: str,
    slit_nm: float,
    analytic_nm: float,
    oracle_nm: float,
    target_nm: float,
    display_tol_nm: float,
    agreement_rel: float,
) -> Table2Cell:
    rounded = round(analytic_nm / display_tol_nm) * display_tol_nm
    analytic_ok = abs(rounded - target_nm) <= display_tol_nm + 1e-9
    rel_dev = abs(oracle_nm - analytic_nm) / analytic_nm
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
    if spec.cavity != "mlc":
        raise ValueError("convergence in period count only applies to the multi-layer cavity")
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    if n_max > MAX_PERIODS:
        raise ValueError(f"need n_max <= {MAX_PERIODS}, got {n_max}")
    registry = _registry(registry)
    ctx = build_context(spec, registry)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        if d_w_nm is None:
            d_w_nm = analytic.wire_optimum_mlc(ctx).d_opt_nm
        analytic_A = analytic.absorptance_mlc(d_w_nm, ctx)

    # Layers are wire | (c1, c2) * n_max: p periods are the first 1 + 2p.
    stack, _, _ = _build_stack(replace(spec, periods=n_max), registry, d_w_nm)
    results = tmm.scatter_truncations(
        stack, [1 + 2 * p for p in range(1, n_max + 1)], spec.wavelength_nm
    )
    rows = [ConvergenceRow(p, res.A, res.T) for p, res in enumerate(results, start=1)]
    for row in rows:
        if not (math.isfinite(row.A) and math.isfinite(row.T)):
            raise ValueError(
                f"absorptance or transmission is not finite at {row.periods} periods; "
                "the reflector chain overflows"
            )

    converged = None
    for i in range(len(rows) - 1):
        if abs(rows[i + 1].A - rows[i].A) < _CONVERGENCE_TOL:
            converged = rows[i].periods
            break
    return ConvergenceReport(tuple(rows), converged, analytic_A, d_w_nm)
