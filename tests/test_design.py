import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripcavity import design
from stripcavity import stack as stack_module
from stripcavity.design import (
    DIELECTRIC_TARGETS_NM,
    MAX_PERIODS,
    WIRE_TARGETS_NM,
    DesignSpec,
    build_context,
    mlc_convergence,
    reproduce_table2,
    run_design_flow,
    sweep_curves,
)
from stripcavity.materials import builtin_registry, load_registry
from stripcavity.stack import WireGeometry, build_mlc
from stripcavity.tmm import scatter
from stripcavity import analytic


def round_to(value, step):
    return round(value / step) * step


class TestRunDesignFlow:
    def test_single_side_defaults(self):
        report = run_design_flow(DesignSpec(cavity="ssc"))
        assert round_to(report.wire_analytic_nm, 0.1) == pytest.approx(11.6)
        assert round_to(report.dielectric_analytic_nm, 1.0) == pytest.approx(211.0)
        assert 0.98 <= report.impedance_match_ratio <= 1.02
        assert abs(report.wire_oracle_nm - report.wire_analytic_nm) / report.wire_analytic_nm < 0.02
        assert report.dphi_dsc_max is None
        assert report.warnings == ()

    def test_double_side_f04(self):
        report = run_design_flow(DesignSpec(cavity="dsc", slit_nm=120.0))
        assert round_to(report.wire_analytic_nm, 0.1) == pytest.approx(8.2)
        assert round_to(report.dielectric_analytic_nm, 1.0) == pytest.approx(215.0)
        assert 0.98 <= report.impedance_match_ratio <= 1.02
        assert report.qwt_index == pytest.approx(report.qwt_index_target, rel=1e-12)

    def test_multi_layer_f033(self):
        report = run_design_flow(DesignSpec(cavity="mlc", slit_nm=160.0))
        assert round_to(report.wire_analytic_nm, 0.1) == pytest.approx(17.3)
        assert report.dielectric_analytic_nm is None
        assert report.dielectric_oracle_nm is None
        assert 0.98 <= report.impedance_match_ratio <= 1.02

    def test_report_self_consistency(self):
        spec = DesignSpec(cavity="ssc")
        report = run_design_flow(spec)
        ctx = build_context(spec)
        assert report.absorptance_analytic == pytest.approx(
            analytic.absorptance_ssc(report.wire_analytic_nm, ctx), rel=1e-12
        )

    def test_determinism(self):
        spec = DesignSpec(cavity="dsc")
        a = run_design_flow(spec)
        b = run_design_flow(spec)
        assert a == b
        assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())

    def test_unresolved_material(self):
        with pytest.raises(KeyError):
            run_design_flow(DesignSpec(cavity="ssc", wire_material="Unobtanium"))

    def test_mlc_ordering_guard(self):
        spec = DesignSpec(cavity="mlc", low_index="Ta2O5", high_index="SiO2")
        with pytest.raises(ValueError, match="smaller refractive index"):
            run_design_flow(spec)

    @pytest.mark.parametrize("input_medium, spacer", [(None, "-74.74"), ("Vacuum", "-917.4")])
    def test_negative_closed_form_spacer_fails_before_any_stack(
        self, monkeypatch, input_medium, spacer
    ):
        # Si below the wire detunes the upper SiO2 past -pi/2: the closed form
        # asks for a negative spacer, which is refused by name, not by Layer
        def no_stack(*args, **kwargs):
            raise AssertionError("a stack was built")

        monkeypatch.setattr(design, "_stack_on", no_stack)
        spec = DesignSpec(cavity="dsc", line_nm=20, slit_nm=400, lower_dielectric="Si",
                          upper_dielectric="SiO2", input_medium=input_medium)
        with pytest.raises(ValueError, match=rf"closed-form spacer is {spacer}\d* nm: its "
                                             r"detuning -\S+ rad is at or below -pi/2"):
            run_design_flow(spec)

    @pytest.mark.filterwarnings("error")
    def test_infinite_closed_form_spacer_fails_before_any_stack(self, monkeypatch):
        # at a 1e308 nm wavelength the quarter-wave spacer overflows to inf
        def no_stack(*args, **kwargs):
            raise AssertionError("a stack was built")

        monkeypatch.setattr(design, "_stack_on", no_stack)
        spec = DesignSpec(cavity="ssc", wavelength_nm=1e308, slit_material="Ag")
        with pytest.raises(ValueError, match=r"closed-form spacer is inf nm: not a finite "
                                             r"thickness at a 1e\+308 nm wavelength"):
            run_design_flow(spec)

    def test_negative_closed_form_ssc_spacer_is_a_value_error(self):
        # a dense input over a low-index spacer: -n_i*Re(eps)/(n_c*|eps|) < -pi/2
        ctx = analytic.CavityContext(10.0 - 1.0j, n_i=3.5, n_c=1.0)
        with pytest.raises(ValueError, match="closed-form spacer is -.* at or below -pi/2"):
            analytic.dielectric_optimum_ssc(ctx)

    def test_warning_collection(self):
        # nearly empty grating: the optimum wire is far beyond the thin-wire zone
        report = run_design_flow(DesignSpec(cavity="ssc", slit_nm=7920.0))
        assert report.warnings

    def test_oracle_disagreement_warns(self):
        # at 1e9 nm the surrogate film no longer acts as an ideal mirror
        report = run_design_flow(DesignSpec(cavity="ssc", wavelength_nm=1e9))
        assert report.warnings == (
            "oracle-disagrees: wire oracle 1.91428e+07 nm is 156% off the closed form "
            "7.4663e+06 nm, outside the 2% band",
            "oracle-disagrees: dielectric oracle 9.67118e+07 nm is 29.1% off the closed form "
            "1.36429e+08 nm, outside the 6% band",
        )


DIELECTRICS = ["SiO", "SiO2", "Ta2O5", "Si"]
BANDS = {"wire": design.WIRE_AGREEMENT_REL, "dielectric": design.DIELECTRIC_AGREEMENT_REL}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    cavity=st.sampled_from(design.CAVITIES),
    wavelength=st.one_of(st.floats(400.0, 3000.0), st.sampled_from([1e4, 1e6, 1e9])),
    line=st.floats(20.0, 200.0),
    slit=st.floats(5.0, 400.0),
    dielectrics=st.lists(st.sampled_from(DIELECTRICS), min_size=2, max_size=2),
    periods=st.integers(1, 20),
)
def test_property_every_out_of_band_oracle_warns(cavity, wavelength, line, slit, dielectrics,
                                                 periods):
    lower, upper = dielectrics
    spec = DesignSpec(
        cavity=cavity, wavelength_nm=wavelength, line_nm=line, slit_nm=slit,
        dielectric=upper, lower_dielectric=lower, upper_dielectric=upper,
        low_index=min(dielectrics, key=DIELECTRICS.index), high_index="Ta2O5", periods=periods,
    )
    try:
        report = run_design_flow(spec)
    except ValueError:  # an overflowing chain or an unrealisable spacer, refused by name
        return
    flagged = {w.split()[1] for w in report.warnings if w.startswith("oracle-disagrees: ")}
    for quantity, analytic_nm, oracle_nm in (
        ("wire", report.wire_analytic_nm, report.wire_oracle_nm),
        ("dielectric", report.dielectric_analytic_nm, report.dielectric_oracle_nm),
    ):
        outside = analytic_nm is not None and not (
            abs(oracle_nm - analytic_nm) / analytic_nm <= BANDS[quantity]
        )
        assert (quantity in flagged) == outside, (quantity, report)


def test_concurrent_designs_keep_their_warnings(capfd):
    # The checks are values in the report, and no call touches the process's
    # warning filters: designs racing sweeps and period studies in other
    # threads all get the single-thread report. A short switch interval makes
    # the threads interleave inside each call.
    spec = DesignSpec(cavity="ssc", wire_material="SiO", slit_material="Ag")
    expected = run_design_flow(spec)
    assert [w.split()[0] for w in expected.warnings] == ["detuning", "oracle-disagrees:"]
    filters = list(warnings.filters)
    reports = []

    def designs():
        for _ in range(400):
            reports.append(run_design_flow(spec))

    def studies():
        for _ in range(200):
            sweep_curves(DesignSpec(cavity="ssc"), "wire", 1.0, 30.0, 1.0)
            mlc_convergence(DesignSpec(cavity="mlc"), 8)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for run in (designs, designs, studies, studies)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(reports) == 800
    assert all(report == expected for report in reports)
    assert warnings.filters == filters
    assert capfd.readouterr().err == ""


class TestSweepCurves:
    def test_wire_sweep_peaks(self):
        curves = sweep_curves(DesignSpec(cavity="ssc"), "wire", 1.0, 30.0, 0.25)
        xs, analytic_col, oracle_col = curves.x_nm, curves.A_analytic, curves.A_tmm
        assert np.all(np.diff(xs) > 0)
        assert xs[int(np.argmax(analytic_col))] == pytest.approx(11.6, abs=0.4)
        assert xs[int(np.argmax(oracle_col))] == pytest.approx(11.6, abs=0.4)
        # unimodal: one sign change in the finite differences
        for col in (analytic_col, oracle_col):
            signs = np.sign(np.diff(col))
            changes = np.count_nonzero(np.diff(signs))
            assert changes == 1

    def test_dielectric_sweep_peaks(self):
        curves = sweep_curves(DesignSpec(cavity="ssc"), "dielectric", 150.0, 300.0, 0.5)
        xs, analytic_col, oracle_col = curves.x_nm, curves.A_analytic, curves.A_tmm
        peak_analytic = xs[int(np.argmax(analytic_col))]
        peak_oracle = xs[int(np.argmax(oracle_col))]
        assert peak_analytic == pytest.approx(211.5, abs=1.0)
        # the exact engine shifts the optimum upward, within the 6% band
        assert peak_analytic < peak_oracle < peak_analytic * 1.06

    def test_impedance_ratio_column(self):
        curves = sweep_curves(DesignSpec(cavity="ssc"), "wire", 11.5, 11.7, 0.1)
        for eta_ratio in curves.eta_ratio:
            assert 0.97 <= eta_ratio <= 1.03

    def test_zero_length_range(self):
        curves = sweep_curves(DesignSpec(cavity="ssc"), "wire", 11.6, 11.6, 0.5)
        assert len(curves.x_nm) == 1
        assert curves.x_nm[0] == 11.6

    def test_zero_lower_bound_is_the_no_layer_limit(self):
        assert design.sweep_grid(0.0, 2.0, 1.0).tolist() == [0.0, 1.0, 2.0]

    def test_negative_zero_lower_bound_is_zero(self):
        # -0.0 is not < 0; its curve holds the bytes of the one from 0, with no -0 cell
        spec = DesignSpec(cavity="ssc")
        assert not np.signbit(design.sweep_grid(-0.0, 2.0, 1.0)).any()
        from_minus, from_zero = (sweep_curves(spec, "wire", lo, 2.0, 1.0) for lo in (-0.0, 0.0))
        for column, expected in zip(from_minus, from_zero, strict=True):
            assert column.tobytes() == expected.tobytes()

    def test_span_lost_to_rounding(self):
        # stop - lo rounds to 0 at 1e20 nm, so arange is empty: the grid is lo
        assert design.sweep_grid(1e20, 1e20, 1e-10).tolist() == [1e20]

    def test_guards(self):
        spec = DesignSpec(cavity="ssc")
        with pytest.raises(ValueError):
            sweep_curves(spec, "wire", 30.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            sweep_curves(spec, "wire", 1.0, 30.0, 0.0)
        with pytest.raises(ValueError):
            sweep_curves(spec, "porosity", 1.0, 30.0, 0.5)
        with pytest.raises(ValueError):
            sweep_curves(DesignSpec(cavity="mlc"), "dielectric", 150.0, 300.0, 0.5)


    def test_grid_bounds(self):
        spec = DesignSpec(cavity="ssc")
        for lo, hi, step in (
            (math.nan, 30.0, 0.1),
            (1.0, math.inf, 0.1),
            (1.0, 30.0, math.nan),
            (1.0, 30.0, 1e-9),  # 2.9e10 points
            (-5.0, -3.0, 1.0),  # no layer has a negative thickness
            (-1.0, 30.0, 1.0),
        ):
            with pytest.raises(ValueError):
                sweep_curves(spec, "wire", lo, hi, step)

    @pytest.mark.parametrize(
        "cavity, variable, lo, hi, step",
        [
            ("ssc", "wire", 1.0, 40.0, 0.5),
            ("dsc", "wire", 1.0, 40.0, 0.5),
            ("mlc", "wire", 1.0, 40.0, 0.5),
            ("ssc", "dielectric", 150.0, 300.0, 2.5),
            ("dsc", "dielectric", 150.0, 300.0, 2.5),
        ],
    )
    def test_analytic_column_matches_scalar_calls(self, cavity, variable, lo, hi, step):
        spec = DesignSpec(cavity=cavity)
        curves = sweep_curves(spec, variable, lo, hi, step)
        ctx = build_context(spec)
        wl = spec.wavelength_nm

        def one_point(x):
            if variable == "wire":
                family = analytic.absorptance_dsc if cavity == "dsc" else analytic.absorptance_ssc
                return family(x, ctx)
            if cavity == "ssc":
                dphi = analytic.detuning_from_thickness(x, ctx.n_c, wl)
                return analytic.absorptance_ssc_dielectric(dphi, ctx)
            dphi_c2 = analytic.detuning_from_thickness(x, ctx.n_c2, wl)
            dphi = analytic.combine_dsc_detunings(0.0, dphi_c2, ctx)
            return analytic.absorptance_dsc_dielectric(dphi, ctx)

        reference = [one_point(float(x)) for x in curves.x_nm]
        assert len(curves.A_tmm) == len(curves.eta_ratio) == len(reference)
        np.testing.assert_allclose(curves.A_analytic, reference, rtol=1e-15, atol=0.0)


class TestReproduceTable2:
    def test_all_cells_pass(self):
        report = reproduce_table2()
        assert len(report.cells) == 15
        assert report.all_pass

    def test_cell_coverage(self):
        report = reproduce_table2()
        wires = [c for c in report.cells if c.quantity == "wire"]
        diels = [c for c in report.cells if c.quantity == "dielectric"]
        assert len(wires) == 9 and len(diels) == 6
        for cell in report.cells:
            key = (cell.cavity, cell.slit_nm)
            targets = WIRE_TARGETS_NM if cell.quantity == "wire" else DIELECTRIC_TARGETS_NM
            assert cell.target_nm == targets[key]

    def test_mlc_wire_matches_ssc_wire_analytically(self):
        report = reproduce_table2()
        by_key = {(c.cavity, c.quantity, c.slit_nm): c for c in report.cells}
        for slit in (80.0, 120.0, 160.0):
            assert by_key[("mlc", "wire", slit)].analytic_nm == by_key[("ssc", "wire", slit)].analytic_nm

    def test_perturbed_wire_index_fails(self):
        # +10% extinction shifts every wire optimum off its regression target
        registry = load_registry(
            {"materials": [{"name": "NbN", "n_re": 4.905, "n_im": 4.7223, "kind": "metal", "override": True}]}
        )
        report = reproduce_table2(registry)
        assert not report.all_pass
        for cell in report.cells:
            if cell.quantity == "wire":
                assert not cell.analytic_ok


class TestMlcConvergence:
    def test_transmission_monotone_and_convergence(self):
        spec = DesignSpec(cavity="mlc")
        report = mlc_convergence(spec, 12)
        transmissions = report.T.tolist()
        assert all(a > b for a, b in zip(transmissions, transmissions[1:]))
        assert report.converged_periods == 11

    def test_close_to_closed_form_at_ten_periods(self):
        report = mlc_convergence(DesignSpec(cavity="mlc"), 10, d_w_nm=11.6)
        assert abs(report.A[-1] - report.analytic_A) < 1e-3

    def test_minimal_table(self):
        report = mlc_convergence(DesignSpec(cavity="mlc"), 2)
        assert len(report.A) == len(report.T) == 2
        assert report.converged_periods is None

    def test_guards(self):
        with pytest.raises(ValueError):
            mlc_convergence(DesignSpec(cavity="mlc"), 1)
        with pytest.raises(ValueError):
            mlc_convergence(DesignSpec(cavity="ssc"), 8)

    @pytest.mark.parametrize("c1, c2, n_max", [("SiO2", "Ta2O5", 14), ("SiO2", "SiO", 60)])
    def test_rows_equal_scatter_of_each_period_count(self, c1, c2, n_max):
        registry = builtin_registry()
        spec = DesignSpec(cavity="mlc", low_index=c1, high_index=c2)
        report = mlc_convergence(spec, n_max)
        wire = WireGeometry(
            spec.line_nm, spec.slit_nm, registry.get("NbN"), registry.get("Vacuum"), report.d_w_nm
        )
        assert len(report.A) == len(report.T) == n_max
        for periods, A, T in zip(range(1, n_max + 1), report.A, report.T):
            stack = build_mlc(wire, registry.get(c1), registry.get(c2), periods)
            result = scatter(stack, spec.wavelength_nm)
            assert (A, T) == (result.A, result.T)

    def test_period_bound_checked_before_any_stack(self, monkeypatch):
        spec = DesignSpec(cavity="mlc")

        def no_stack(*args, **kwargs):
            raise AssertionError("a stack or layer was built")

        # every design stack goes through _stack_on and every layer is a Layer
        monkeypatch.setattr(design, "_stack_on", no_stack)
        monkeypatch.setattr(stack_module, "Layer", no_stack)
        with pytest.raises(ValueError, match=f"need n_max <= {MAX_PERIODS}"):
            mlc_convergence(spec, MAX_PERIODS + 1)
        with pytest.raises(ValueError, match=f"period count must be <= {MAX_PERIODS}"):
            DesignSpec(cavity="mlc", periods=MAX_PERIODS + 1)
        assert DesignSpec(cavity="mlc", periods=MAX_PERIODS).periods == MAX_PERIODS

    @pytest.mark.parametrize("run", [
        run_design_flow,
        lambda spec: sweep_curves(spec, "wire", 1.0, 30.0, 0.1),
        lambda spec: mlc_convergence(spec, 12),
    ], ids=["design", "sweep", "convergence"])
    def test_reflector_order_refused_before_exact_engine(self, monkeypatch, run):
        def no_exact(*args, **kwargs):
            raise AssertionError("the exact engine ran")

        for name in ("argmax_absorptance", "sweep", "scatter_truncations", "input_impedance"):
            monkeypatch.setattr(design.tmm, name, no_exact)
        spec = DesignSpec(cavity="mlc", low_index="Ta2O5", high_index="SiO2")
        with pytest.raises(ValueError, match=r"reflector layer adjacent .* n\(Ta2O5\) = 2.15"):
            run(spec)

    def test_overflowing_reflector_names_the_period_count(self):
        for c2, n_max, periods in (("Ta2O5", 3000, 1784), ("SiO", 10_000, 9930)):
            spec = DesignSpec(cavity="mlc", low_index="SiO2", high_index=c2)
            with pytest.raises(ValueError, match=rf"not finite at {periods} periods;"):
                mlc_convergence(spec, n_max)


# Every built-in optical constant is wavelength-independent, and every
# closed-form thickness and search window scales with the wavelength, so a
# design at wavelength L is the 1550 nm design with each thickness times
# L/1550 and the same absorptances. The closed forms keep that to rounding;
# the oracles only to the golden refinement's tolerance (tmm._REFINE_TOL_NM),
# because their grids do not scale bit for bit. impedance_match_ratio is
# left out: it moves by 2e-6 to 4e-5 between these designs.
THICKNESSES = ("wire_analytic_nm", "wire_oracle_nm", "dielectric_analytic_nm",
               "dielectric_oracle_nm")


@pytest.mark.parametrize("wavelength, oracle_nm, oracle_absorptance", [
    (1310.0, 1e-13, 1e-15),
    (2000.0, 0.01, 1e-8),
])
@pytest.mark.parametrize("cavity", ["ssc", "dsc", "mlc"])
def test_design_scales_with_the_wavelength(cavity, wavelength, oracle_nm, oracle_absorptance):
    base = run_design_flow(DesignSpec(cavity=cavity))
    scaled = run_design_flow(DesignSpec(cavity=cavity, wavelength_nm=wavelength))
    assert not base.warnings and not scaled.warnings
    factor = wavelength / 1550.0
    for name in THICKNESSES:
        want, got = getattr(base, name), getattr(scaled, name)
        assert (want is None) == (got is None), name
        if want is not None:
            bound = oracle_nm if "oracle" in name else 1e-13
            assert got == pytest.approx(want * factor, rel=0, abs=bound), name
    assert scaled.absorptance_analytic == pytest.approx(base.absorptance_analytic, rel=0, abs=1e-15)
    assert scaled.absorptance_oracle == pytest.approx(
        base.absorptance_oracle, rel=0, abs=oracle_absorptance)
    for name in ("filling_factor", "dphi_dsc_max", "qwt_index", "qwt_index_target"):
        assert getattr(scaled, name) == getattr(base, name), name
