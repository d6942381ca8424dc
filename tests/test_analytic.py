import math
import warnings

import numpy as np
import pytest

from stripcavity.analytic import (
    CavityContext,
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
    wire_optimum_dsc,
    wire_optimum_mlc,
    wire_optimum_ssc,
    wire_strain,
)

EPS_NBN = complex(4.905**2 - 4.293**2, -2 * 4.905 * 4.293)
EPS_SIO = 1.551**2
N_AG = complex(0.322, -10.99)
LAMBDA = 1550.0


def mix(f, eps_slit=1.0):
    return EPS_NBN * f + eps_slit * (1 - f)


def ctx_ssc(f=0.5, mirror=N_AG):
    return CavityContext(mix(f), n_i=1.0, n_c=1.551, n_m=mirror, wavelength_nm=LAMBDA)


def ctx_dsc(f=0.5, mirror=N_AG):
    return CavityContext(
        mix(f, EPS_SIO), n_i=3.628, n_c1=1.444, n_c2=1.551, n_m=mirror, wavelength_nm=LAMBDA
    )


def ctx_mlc(f=0.5):
    return CavityContext(mix(f), n_i=1.0, n_c1=1.444, n_c2=2.15, wavelength_nm=LAMBDA)


class TestWireOptimumSsc:
    @pytest.mark.parametrize(
        "f, expected",
        [(0.5, 11.5728), (0.4, 14.4387), (1.0 / 3.0, 17.2915), (1.0, 5.8060)],
    )
    def test_thickness(self, f, expected):
        assert wire_optimum_ssc(ctx_ssc(f)).d_opt_nm == pytest.approx(expected, abs=1e-3)

    def test_peak_absorptance(self):
        assert wire_optimum_ssc(ctx_ssc()).A_opt == pytest.approx(0.993881, abs=1e-5)

    def test_absorptance_vanishes_with_wire(self):
        assert absorptance_ssc(1e-9, ctx_ssc()) == pytest.approx(0.0, abs=1e-9)

    def test_optimum_consistency(self):
        for f in (0.5, 0.4):
            ctx = ctx_ssc(f)
            opt = wire_optimum_ssc(ctx)
            assert absorptance_ssc(opt.d_opt_nm, ctx) == pytest.approx(opt.A_opt, rel=1e-12)

    def test_near_optimum_example(self):
        # rounded design value sits within 2e-5 of the true peak
        ctx = ctx_ssc(0.4)
        assert absorptance_ssc(14.4, ctx) == pytest.approx(wire_optimum_ssc(ctx).A_opt, abs=2e-5)

    def test_zero_permittivity_rejected(self):
        with pytest.raises(ValueError):
            wire_optimum_ssc(CavityContext(0.0j, wavelength_nm=LAMBDA))


class TestDielectricOptimumSsc:
    @pytest.mark.parametrize(
        "f, expected",
        [(0.5, 211.4656), (0.4, 210.2953), (1.0 / 3.0, 209.1318)],
    )
    def test_thickness_with_metal_mirror(self, f, expected):
        assert dielectric_optimum_ssc(ctx_ssc(f)).d_opt_nm == pytest.approx(expected, abs=1e-3)

    def test_ideal_mirror_limit(self):
        assert dielectric_optimum_ssc(ctx_ssc(mirror=None)).d_opt_nm == pytest.approx(
            233.893, abs=1e-2
        )

    def test_below_quarter_wave_for_metal_mirrors(self):
        quarter = LAMBDA / (4 * 1.551)
        for mirror in (N_AG, complex(4.905, -4.293)):
            assert dielectric_optimum_ssc(ctx_ssc(mirror=mirror)).d_opt_nm < quarter

    def test_peak_reached_at_detuning_optimum(self):
        ctx = ctx_ssc()
        opt = dielectric_optimum_ssc(ctx)
        assert absorptance_ssc_dielectric(opt.dphi, ctx) == pytest.approx(
            max_absorptance_detuned(ctx.eps_w), rel=1e-12
        )
        assert absorptance_ssc_dielectric(0.0, ctx) < opt.A_opt

    def test_detuning_thickness_consistency(self):
        ctx = ctx_ssc()
        opt = dielectric_optimum_ssc(ctx)
        assert detuning_from_thickness(opt.d_opt_nm, ctx.n_c, LAMBDA) == pytest.approx(
            opt.dphi, abs=1e-12
        )


class TestWireOptimumDsc:
    @pytest.mark.parametrize(
        "f, expected",
        [(0.5, 6.6139), (0.4, 8.2210), (1.0 / 3.0, 9.8030)],
    )
    def test_thickness(self, f, expected):
        assert wire_optimum_dsc(ctx_dsc(f)).d_opt_nm == pytest.approx(expected, abs=1e-3)

    def test_scaling_against_single_side(self):
        # same eps_w: optimum rescales by n_c1**2 / n_i
        eps = mix(0.5)
        a = CavityContext(eps, n_i=3.628, n_c1=1.444, n_c2=1.551, wavelength_nm=LAMBDA)
        b = CavityContext(eps, n_i=1.0, n_c=1.551, wavelength_nm=LAMBDA)
        assert wire_optimum_dsc(a).d_opt_nm == pytest.approx(
            wire_optimum_ssc(b).d_opt_nm * 1.444**2 / 3.628, rel=1e-12
        )

    def test_optimum_consistency(self):
        ctx = ctx_dsc()
        opt = wire_optimum_dsc(ctx)
        assert absorptance_dsc(opt.d_opt_nm, ctx) == pytest.approx(opt.A_opt, rel=1e-12)
        assert absorptance_dsc(2 * opt.d_opt_nm, ctx) < opt.A_opt

    def test_absorptance_vanishes_with_wire(self):
        assert absorptance_dsc(1e-9, ctx_dsc()) == pytest.approx(0.0, abs=1e-9)


class TestDielectricOptimumDsc:
    @pytest.mark.parametrize(
        "f, expected",
        [(0.5, 216.3660), (0.4, 214.7837), (1.0 / 3.0, 213.2295)],
    )
    def test_thickness_with_metal_mirror(self, f, expected):
        assert dielectric_optimum_dsc(ctx_dsc(f)).d_opt_nm == pytest.approx(expected, abs=1e-3)

    def test_ideal_mirror_limit(self):
        assert dielectric_optimum_dsc(ctx_dsc(mirror=None)).d_opt_nm == pytest.approx(
            238.794, abs=1e-2
        )

    def test_below_quarter_wave(self):
        assert dielectric_optimum_dsc(ctx_dsc()).d_opt_nm < LAMBDA / (4 * 1.551)

    def test_peak_reached_at_detuning_optimum(self):
        ctx = ctx_dsc()
        opt = dielectric_optimum_dsc(ctx)
        assert absorptance_dsc_dielectric(opt.dphi, ctx) == pytest.approx(
            max_absorptance_detuned(ctx.eps_w), rel=1e-12
        )
        assert absorptance_dsc_dielectric(0.0, ctx) < opt.A_opt

    def test_detuning_trade_invariance(self):
        ctx = ctx_dsc()
        base = combine_dsc_detunings(0.05, -0.02, ctx)
        a = absorptance_dsc_dielectric(base, ctx)
        for delta in (0.01, -0.03, 0.07):
            traded = combine_dsc_detunings(
                0.05 + delta * ctx.n_c2 / ctx.n_c1, -0.02 - delta, ctx
            )
            b = absorptance_dsc_dielectric(traded, ctx)
            assert abs(a - b) < 1e-12


class TestUniversality:
    def test_same_peak_formula_all_cavities(self):
        eps = mix(0.5)
        a = wire_optimum_ssc(CavityContext(eps, wavelength_nm=LAMBDA)).A_opt
        b = wire_optimum_dsc(
            CavityContext(eps, n_i=3.628, n_c1=1.444, wavelength_nm=LAMBDA)
        ).A_opt
        c = wire_optimum_mlc(CavityContext(eps, wavelength_nm=LAMBDA)).A_opt
        assert a == b == c == max_absorptance(eps)

    def test_mlc_absorptance_is_single_side_formula(self):
        assert absorptance_mlc is absorptance_ssc

    def test_detuned_peaks_shared(self):
        eps = mix(0.5)
        assert dielectric_optimum_ssc(ctx_ssc()).A_opt == max_absorptance_detuned(eps)


class TestStationarity:
    H = 1e-3

    def central_diff(self, fn, x):
        return (fn(x + self.H) - fn(x - self.H)) / (2 * self.H)

    def test_wire_formulas(self):
        ctx = ctx_ssc()
        d = wire_optimum_ssc(ctx).d_opt_nm
        assert abs(self.central_diff(lambda x: absorptance_ssc(x, ctx), d)) < 1e-6
        ctx = ctx_dsc()
        d = wire_optimum_dsc(ctx).d_opt_nm
        assert abs(self.central_diff(lambda x: absorptance_dsc(x, ctx), d)) < 1e-6

    def test_dielectric_formulas(self):
        ctx = ctx_ssc()
        opt = dielectric_optimum_ssc(ctx)

        def a_of_thickness(d):
            return absorptance_ssc_dielectric(detuning_from_thickness(d, ctx.n_c, LAMBDA), ctx)

        assert abs(self.central_diff(a_of_thickness, opt.d_opt_nm)) < 1e-6

        ctx = ctx_dsc()
        opt = dielectric_optimum_dsc(ctx)

        def a_of_upper(d):
            dphi = combine_dsc_detunings(0.0, detuning_from_thickness(d, ctx.n_c2, LAMBDA), ctx)
            return absorptance_dsc_dielectric(dphi, ctx)

        assert abs(self.central_diff(a_of_upper, opt.d_opt_nm)) < 1e-6


class TestQwtRelations:
    def test_roundtrip(self):
        ctx = ctx_dsc()
        for d in (3.0, 6.6139, 12.0):
            assert qwt_relations(ctx, d).d_w_implied_nm == pytest.approx(d, rel=1e-12)

    def test_matched_index_at_optimum(self):
        ctx = ctx_dsc()
        d = wire_optimum_dsc(ctx).d_opt_nm
        result = qwt_relations(ctx, d)
        assert result.n_qwt == pytest.approx(ctx.n_c1, rel=1e-12)
        assert abs(result.eta_qwt) == pytest.approx(1.0 / 1.444, rel=1e-12)

    def test_sqrt_scaling(self):
        ctx = ctx_dsc()
        a = abs(qwt_relations(ctx, 6.6139).eta_qwt)
        b = abs(qwt_relations(ctx, 2 * 6.6139).eta_qwt)
        assert b == pytest.approx(a / math.sqrt(2), rel=1e-12)

    @pytest.mark.parametrize("d_w", [0.0, -1.0])
    def test_non_positive_wire_rejected(self, d_w):
        with pytest.raises(ValueError, match=f"wire thickness must be > 0 nm, got {d_w}"):
            qwt_relations(ctx_dsc(), d_w)


class TestValidityWarnings:
    def test_thick_wire_warns(self):
        assert wire_strain(32.0, LAMBDA).startswith("wire thickness 32 nm exceeds 31 nm")

    def test_large_detuning_warns(self):
        assert detuning_strain(0.6).startswith("detuning 0.6 rad exceeds 0.5 rad")

    def test_quiet_in_comfort_zone(self):
        assert wire_strain(11.6, LAMBDA) is None
        assert detuning_strain(-0.24) is None
        assert wire_strain(math.nan, LAMBDA) is None
        assert detuning_strain(math.nan) is None
        assert wire_strain(np.array([11.6, math.nan]), LAMBDA) is None
        assert detuning_strain(np.array([-0.24, math.nan])) is None

    def test_families_emit_no_warning(self):
        # the checks are separate calls: a family at a bad value only computes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, (fn, grid, bad) in ELEMENTWISE.items():
                if bad is not None:
                    values = grid.copy()
                    values[0] = bad
                    fn(bad)
                    fn(values)


# name -> (closed form of one swept argument, in-range grid, an out-of-range
# value or None when the form has no validity check)
ELEMENTWISE = {
    "absorptance_ssc": (
        lambda x: absorptance_ssc(x, ctx_ssc()), np.linspace(0.5, 30.0, 60), 32.0,
    ),
    "absorptance_mlc": (
        lambda x: absorptance_mlc(x, ctx_mlc()), np.linspace(0.5, 30.0, 60), 45.0,
    ),
    "absorptance_dsc": (
        lambda x: absorptance_dsc(x, ctx_dsc()), np.linspace(0.5, 30.0, 60), 40.25,
    ),
    "absorptance_ssc_dielectric": (
        lambda x: absorptance_ssc_dielectric(x, ctx_ssc()), np.linspace(-0.5, 0.5, 41), 0.6,
    ),
    "absorptance_dsc_dielectric": (
        lambda x: absorptance_dsc_dielectric(x, ctx_dsc()), np.linspace(-0.5, 0.5, 41), -0.75,
    ),
    "detuning_from_thickness": (
        lambda x: detuning_from_thickness(x, 1.551, LAMBDA), np.linspace(150.0, 300.0, 61), None,
    ),
    "combine_dsc_detunings/c2": (
        lambda x: combine_dsc_detunings(0.1, x, ctx_dsc()), np.linspace(-0.5, 0.5, 41), None,
    ),
    "combine_dsc_detunings/c1": (
        lambda x: combine_dsc_detunings(x, -0.2, ctx_dsc()), np.linspace(-0.5, 0.5, 41), None,
    ),
}


# the validity check of each checked form's swept argument
CHECKS = {
    "absorptance_ssc": lambda x: wire_strain(x, LAMBDA),
    "absorptance_mlc": lambda x: wire_strain(x, LAMBDA),
    "absorptance_dsc": lambda x: wire_strain(x, LAMBDA),
    "absorptance_ssc_dielectric": detuning_strain,
    "absorptance_dsc_dielectric": detuning_strain,
}


class TestElementwise:
    @pytest.mark.parametrize("name", ELEMENTWISE)
    def test_array_matches_scalar_calls(self, name):
        fn, grid, _ = ELEMENTWISE[name]
        column = fn(grid)
        reference = np.array([fn(float(x)) for x in grid])
        assert isinstance(column, np.ndarray) and column.shape == grid.shape
        np.testing.assert_allclose(column, reference, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("name", ELEMENTWISE)
    def test_scalar_returns_float(self, name):
        fn, grid, _ = ELEMENTWISE[name]
        assert type(fn(float(grid[3]))) is float

    @pytest.mark.parametrize("name", [n for n, (_, _, bad) in ELEMENTWISE.items() if bad is not None])
    def test_one_bad_element_warns_once(self, name):
        fn, grid, bad = ELEMENTWISE[name]
        values = grid.copy()
        values[len(values) // 2] = bad
        check = CHECKS[name]
        assert check(grid) is None
        message = check(values)
        assert isinstance(message, str) and f"{bad:.3g}" in message

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: wire_strain(32.0, LAMBDA),
             "wire thickness 32 nm exceeds 31 nm; the thin-wire expansion is strained"),
            (lambda: wire_strain(40.25, LAMBDA),
             "wire thickness 40.2 nm exceeds 31 nm; the thin-wire expansion is strained"),
            (lambda: detuning_strain(0.6),
             "detuning 0.6 rad exceeds 0.5 rad; the linearised spacer matrix is strained"),
            (lambda: detuning_strain(-0.75),
             "detuning -0.75 rad exceeds 0.5 rad; the linearised spacer matrix is strained"),
        ],
    )
    def test_scalar_warning_text(self, call, message):
        assert call() == message


class TestContextValidation:
    def test_bad_input_index(self):
        with pytest.raises(ValueError):
            CavityContext(mix(0.5), n_i=0.0)

    def test_wrong_sign_eps(self):
        with pytest.raises(ValueError, match="sign convention"):
            CavityContext(complex(3.0, 21.0))

    def test_wrong_sign_mirror(self):
        with pytest.raises(ValueError, match="sign convention"):
            CavityContext(mix(0.5), n_m=complex(0.3, 11.0))

    def test_missing_field(self):
        with pytest.raises(ValueError, match="n_c"):
            absorptance_ssc_dielectric(0.0, CavityContext(mix(0.5)))

    @pytest.mark.parametrize("field", ["n_c", "n_c1", "n_c2"])
    @pytest.mark.parametrize("value", [0.0, -1.5, math.nan])
    def test_non_positive_dielectric_index(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be > 0, got {value}"):
            CavityContext(mix(0.5), **{field: value})

    # the context refuses eps_w = 0 first; the peak formulas take eps_w alone
    @pytest.mark.parametrize("peak", [max_absorptance, max_absorptance_detuned])
    def test_peak_of_zero_permittivity(self, peak):
        with pytest.raises(ValueError, match="wire permittivity must be nonzero"):
            peak(0j)
