"""The package's value classes as immutable records: fields, defaults,
checks, equality, hash, frozenness and the copy with a change."""

import numpy as np
import pytest

from stripcavity import analytic, design, materials, stack, tmm
from stripcavity.design import MAX_PERIODS, DesignSpec
from stripcavity.materials import InputError, Material, OpticalConstant, builtin_registry
from stripcavity.stack import Layer, Medium, Stack, WireGeometry

# class -> its fields in order
FIELDS = {
    analytic.CavityContext: "eps_w n_i n_c n_c1 n_c2 n_m wavelength_nm",
    analytic.OptimumPoint: "d_opt_nm A_opt dphi",
    analytic.QwtResult: "eta_qwt n_qwt d_w_implied_nm",
    design.DesignSpec: "cavity wavelength_nm line_nm slit_nm wire_material slit_material "
                       "dielectric lower_dielectric upper_dielectric low_index high_index "
                       "periods mirror mirror_nm input_medium output_medium",
    design.DesignReport: "cavity wavelength_nm filling_factor wire_analytic_nm wire_oracle_nm "
                         "absorptance_analytic absorptance_oracle dielectric_analytic_nm "
                         "dielectric_oracle_nm dphi_dsc_max impedance_match_ratio qwt_index "
                         "qwt_index_target warnings",
    design.CurveSet: "x_nm A_analytic A_tmm eta_ratio",
    design.Table2Cell: "cavity quantity slit_nm analytic_nm oracle_nm target_nm analytic_ok "
                       "oracle_ok oracle_rel_dev",
    design.Table2Report: "cells",
    design.ConvergenceReport: "A T converged_periods analytic_A d_w_nm",
    materials.OpticalConstant: "n_re n_im",
    materials.Material: "name optical_constant kind",
    stack.Layer: "material thickness_nm",
    stack.Medium: "material",
    stack.Stack: "input layers output",
    stack.WireGeometry: "line_nm slit_nm wire_material slit_material thickness_nm",
    stack.StackConfig: "cavity stack wavelength_nm wire_layer_index dielectric_layer_index",
    tmm.ScatterResult: "r t R T A",
    tmm.SweepResult: "thicknesses_nm r t R T A eta_in",
}

REG = builtin_registry()
SIO, NBN, PEC = REG.get("SiO"), REG.get("NbN"), REG.get("PEC")
LOSSY = Material("lossy", OpticalConstant(1.5, 0.5), "metal")

# (constructor call, its message): every check a record makes on its fields
REFUSALS = [
    (lambda: OpticalConstant(1.0, -0.1), "extinction magnitude must be >= 0, got -0.1"),
    (lambda: OpticalConstant(0.0), "index magnitude |n| must lie in [0.001, 10000], got 0"),
    (lambda: OpticalConstant(1e4, 1.0),
     "index magnitude |n| must lie in [0.001, 10000], got 10000.00005"),
    (lambda: Material("X", OpticalConstant(1.5), "plasma"),
     "unknown material kind 'plasma'; expected one of ('dielectric', 'metal')"),
    (lambda: Material("X", OpticalConstant(1.5, 0.2)),
     "dielectric 'X' must be lossless (n_im = 0), got n_im = 0.2"),
    (lambda: Layer(SIO, 0.0), "layer thickness must be > 0 nm, got 0.0"),
    (lambda: Stack(Medium(None), [], Medium(SIO)),
     "the short-circuit terminal is only allowed as the output medium"),
    (lambda: Stack(Medium(LOSSY), [], Medium(SIO)), "input medium 'lossy' must be lossless; "
                                                   "the scattering formulas discard input/output "
                                                   "absorption"),
    (lambda: WireGeometry(0.0, 80.0, NBN, SIO, 6.0), "line width must be > 0 nm, got 0.0"),
    (lambda: WireGeometry(80.0, -1.0, NBN, SIO, 6.0), "slit width must be >= 0 nm, got -1.0"),
    (lambda: WireGeometry(80.0, 80.0, NBN, SIO, 0.0), "wire thickness must be > 0 nm, got 0.0"),
    (lambda: analytic.CavityContext(-1 + 0j, n_i=0.0), "input index must be > 0, got 0.0"),
    (lambda: analytic.CavityContext(-1 + 0j, wavelength_nm=float("nan")),
     "wavelength must be > 0 nm, got nan"),
    (lambda: analytic.CavityContext(-1 + 0j, n_c2=-1.0), "n_c2 must be > 0, got -1.0"),
    (lambda: analytic.CavityContext(-1 + 1j),
     "Im(eps_w) must be <= 0 under the package sign convention"),
    (lambda: analytic.CavityContext(-1 + 0j, n_m=1 + 1j),
     "Im(n_m) must be <= 0 under the package sign convention"),
    (lambda: analytic.CavityContext(0j), "wire permittivity must be nonzero"),
    (lambda: DesignSpec("hex"), "cavity must be one of ('ssc', 'dsc', 'mlc'), got 'hex'"),
    (lambda: DesignSpec("mlc", periods=0), "period count must be >= 1, got 0"),
    (lambda: DesignSpec("mlc", periods=MAX_PERIODS + 1),
     f"period count must be <= {MAX_PERIODS}, got {MAX_PERIODS + 1}"),
    (lambda: DesignSpec("ssc", slit_nm=float("inf")),
     "slit width must be a finite number of nm, got inf"),
    # the copy with a change is checked as a new record is
    (lambda: DesignSpec("mlc")._replace(periods=MAX_PERIODS + 1),
     f"period count must be <= {MAX_PERIODS}, got {MAX_PERIODS + 1}"),
    (lambda: DesignSpec._make(["mlc", 1550.0, 80.0, float("nan")]),
     "slit width must be a finite number of nm, got nan"),
    (lambda: Layer(SIO, 10.0)._replace(thickness_nm=-1.0),
     "layer thickness must be > 0 nm, got -1.0"),
]


def test_records_keep_the_value_semantics():
    # fields in order, and the defaults
    for cls, names in FIELDS.items():
        assert cls._fields == tuple(names.split()), cls.__name__
    assert DesignSpec._field_defaults == {
        "wavelength_nm": 1550.0, "line_nm": 80.0, "slit_nm": 80.0, "wire_material": "NbN",
        "slit_material": None, "dielectric": "SiO", "lower_dielectric": "SiO2",
        "upper_dielectric": "SiO", "low_index": "SiO2", "high_index": "Ta2O5", "periods": 6,
        "mirror": "Ag", "mirror_nm": 130.0, "input_medium": None, "output_medium": "Vacuum",
    }
    assert analytic.CavityContext(-1j) == analytic.CavityContext(-1j, 1.0, None, None, None,
                                                                 None, 1550.0)
    assert analytic.OptimumPoint(1.0, 0.5).dphi is None
    assert design.DesignReport(*range(13)).warnings == ()
    assert stack.StackConfig("custom", None, 1550.0)[3:] == (None, None)
    assert Material("X", OpticalConstant(1.5)).kind == "dielectric"
    assert OpticalConstant(1.5).n_im == 0.0 and Medium().material is None
    # kept and converted fields
    assert Medium(PEC).material is PEC
    assert type(Stack(Medium(SIO), [Layer(SIO, 1.0)], Medium(SIO)).layers) is tuple

    # every check, with its message, also on the copy with a change
    for make, message in REFUSALS:
        with pytest.raises(InputError) as caught:
            make()
        assert str(caught.value) == message

    # equal only to the same class with equal fields, hashed as the fields' tuple
    point = analytic.OptimumPoint(1.0, 2.0, None)
    same = analytic.QwtResult(1.0, 2.0, None)
    assert point == analytic.OptimumPoint(1.0, 2.0) and not point != analytic.OptimumPoint(1.0, 2.0)
    assert point != (1.0, 2.0, None) and (1.0, 2.0, None) != point
    assert not point == (1.0, 2.0, None) and not (1.0, 2.0, None) == point
    assert point != same and not point == same and point not in [same, (1.0, 2.0, None)]
    layer = Layer(SIO, 10.0)
    assert layer == Layer(SIO, 10.0) and layer != Layer(SIO, 11.0)
    assert hash(point) == hash((1.0, 2.0, None))
    assert hash(layer) == hash(((SIO.name, (1.551, 0.0), SIO.kind), 10.0))
    with pytest.raises(TypeError):
        point < (2.0, 0.0, None)
    with pytest.raises(TypeError):
        (2.0, 0.0, None) > point

    # frozen: no field or other attribute can be set or deleted
    geometry = WireGeometry(80.0, 80.0, NBN, REG.get("Vacuum"), 6.0)
    for record, name in ((point, "dphi"), (layer, "thickness_nm"), (geometry, "layer"),
                         (geometry, "other"), (OpticalConstant(1.0), "_eps")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)

    # one effective wire layer per geometry
    assert geometry.layer is geometry.layer
    stacks = [stack.build_ssc(geometry), stack.build_mlc(geometry, periods=2)]
    assert all(built.layers[0] is geometry.layer for built in stacks)

    # columns: equal only to themselves
    columns = [np.arange(3.0)] * 4
    curves = design.CurveSet(*columns)
    convergence = design.ConvergenceReport(columns[0], columns[0], None, 0.5, 6.0)
    for record, twin in ((curves, design.CurveSet(*columns)),
                         (convergence, design.ConvergenceReport(*convergence))):
        assert record == record and not record != record
        assert record != twin and not record == twin and record != tuple(twin)
        assert hash(record) == object.__hash__(record)

    # the memoised permittivity takes no part in equality, hash or repr
    exact = materials.refractive_index(-2.0 - 0.5j)
    plain = OpticalConstant(exact.n_re, exact.n_im)
    assert exact._eps == -2.0 - 0.5j and plain._eps is None
    assert exact == plain and hash(exact) == hash(plain) and repr(exact) == repr(plain)
    assert repr(OpticalConstant(1.5)) == "OpticalConstant(n_re=1.5, n_im=0.0)"
    assert materials.permittivity(exact) == -2.0 - 0.5j
    assert plain._replace(n_re=plain.n_re)._eps is None

    # the report's dict keeps the field order
    report = design.run_design_flow(DesignSpec("ssc"))
    assert list(report.as_dict()) == list(design.DesignReport._fields)
    assert report.as_dict()["warnings"] == list(report.warnings)
