"""Optical cavity design and analysis for superconducting strip single-photon
detectors: an exact transfer-matrix engine, closed-form optimal thicknesses,
and impedance-matching diagnostics, with a CLI for reports and curve data."""

from .analytic import (
    CavityContext,
    OptimumPoint,
    QwtResult,
    absorptance_dsc,
    absorptance_dsc_dielectric,
    absorptance_mlc,
    absorptance_ssc,
    absorptance_ssc_dielectric,
    combine_dsc_detunings,
    detuning_from_thickness,
    detuning_strain,
    dielectric_optimum_dsc,
    dielectric_optimum_ssc,
    max_absorptance,
    max_absorptance_detuned,
    qwt_relations,
    thickness_from_detuning,
    wire_optimum_dsc,
    wire_optimum_mlc,
    wire_optimum_ssc,
    wire_strain,
)
from .design import (
    CurveSet,
    DesignReport,
    DesignSpec,
    build_context,
    mlc_convergence,
    reproduce_table2,
    run_design_flow,
    sweep_curves,
    sweep_stack,
)
from .materials import (
    InputError,
    Material,
    MaterialConfigError,
    MaterialRegistry,
    OpticalConstant,
    builtin_registry,
    effective_wire_permittivity,
    load_registry,
    permittivity,
    refractive_index,
)
from .stack import (
    EXACT_SHORT,
    Layer,
    Medium,
    Stack,
    StackConfigError,
    WireGeometry,
    build_dsc,
    build_mlc,
    build_ssc,
    effective_wire_material,
    filling_factor,
    load_stack_config,
    quarter_wave_thickness,
    wire_permittivity,
)
from .tmm import (
    OPEN_CIRCUIT,
    ScatterResult,
    SweepResult,
    argmax_absorptance,
    input_impedance,
    scatter,
    sweep,
)

__version__ = "0.1.0"
