import json
import math
import warnings

import numpy as np
import pytest

from stripcavity import design
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

    def test_warning_collection(self):
        # nearly empty grating: the optimum wire is far beyond the thin-wire zone
        report = run_design_flow(DesignSpec(cavity="ssc", slit_nm=7920.0))
        assert report.warnings


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

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", analytic.ValidityWarning)
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
        transmissions = [row.T for row in report.rows]
        assert all(a > b for a, b in zip(transmissions, transmissions[1:]))
        assert report.converged_periods == 11

    def test_close_to_closed_form_at_ten_periods(self):
        report = mlc_convergence(DesignSpec(cavity="mlc"), 10, d_w_nm=11.6)
        assert abs(report.rows[-1].A - report.analytic_A) < 1e-3

    def test_minimal_table(self):
        report = mlc_convergence(DesignSpec(cavity="mlc"), 2)
        assert len(report.rows) == 2
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
        assert [row.periods for row in report.rows] == list(range(1, n_max + 1))
        for row in report.rows:
            stack = build_mlc(wire, registry.get(c1), registry.get(c2), row.periods)
            result = scatter(stack, spec.wavelength_nm)
            assert (row.A, row.T) == (result.A, result.T)

    def test_period_bound_checked_before_any_stack(self, monkeypatch):
        spec = DesignSpec(cavity="mlc")

        def no_stack(*args):
            raise AssertionError("a stack was built")

        monkeypatch.setattr(design, "_build_stack", no_stack)
        with pytest.raises(ValueError, match=f"need n_max <= {MAX_PERIODS}"):
            mlc_convergence(spec, MAX_PERIODS + 1)
        with pytest.raises(ValueError, match=f"period count must be <= {MAX_PERIODS}"):
            DesignSpec(cavity="mlc", periods=MAX_PERIODS + 1)
        assert DesignSpec(cavity="mlc", periods=MAX_PERIODS).periods == MAX_PERIODS

    def test_overflowing_reflector_names_the_period_count(self):
        with pytest.raises(ValueError, match=r"not finite at \d+ periods"):
            mlc_convergence(DesignSpec(cavity="mlc"), 3000)
