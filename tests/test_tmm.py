import math

import numpy as np
import pytest

from stripcavity.materials import METAL, Material, OpticalConstant, builtin_registry
from stripcavity.stack import (
    EXACT_SHORT,
    Layer,
    Medium,
    Stack,
    WireGeometry,
    build_dsc,
    build_ssc,
)
from stripcavity.tmm import (
    OPEN_CIRCUIT,
    FMatrix,
    absorptance_of_layer,
    argmax_absorptance,
    chain,
    input_impedance,
    layer_fmatrix,
    scatter,
    sweep,
)

REG = builtin_registry()
LAMBDA = 1550.0
VACUUM = Medium(REG.get("Vacuum"))


def make_wire(slit_nm=80.0, thickness_nm=11.6, slit_material="Vacuum"):
    return WireGeometry(80.0, slit_nm, REG.get("NbN"), REG.get(slit_material), thickness_nm)


def lossless_layer(n_re, d):
    return Layer(Material(f"n{n_re}", OpticalConstant(n_re)), d)


def make_wire_layer():
    return build_ssc(make_wire()).layers[0]


def random_lossy_stack(rng, n_layers, output):
    layers = tuple(
        Layer(
            Material(f"m{j}", OpticalConstant(rng.uniform(1.0, 4.0), rng.uniform(0.0, 3.0)), METAL),
            rng.uniform(1.0, 100.0),
        )
        for j in range(n_layers)
    )
    return Stack(VACUUM, layers, output)


def rel_det_error(m: FMatrix) -> float:
    scale = max(1.0, abs(m.f11 * m.f22), abs(m.f12 * m.f21))
    return abs(m.det - 1.0) / scale


class TestLayerFMatrix:
    def test_vanishing_thickness_is_identity(self):
        m = layer_fmatrix(lossless_layer(2.0, 1e-9), LAMBDA)
        assert abs(m.f11 - 1) < 1e-10 and abs(m.f22 - 1) < 1e-10
        assert abs(m.f12) < 1e-10 and abs(m.f21) < 1e-10

    def test_quarter_wave_form(self):
        n = 1.551
        m = layer_fmatrix(lossless_layer(n, LAMBDA / (4 * n)), LAMBDA)
        eta = 1.0 / n
        assert abs(m.f11) < 1e-12 and abs(m.f22) < 1e-12
        assert m.f12 == pytest.approx(1j * eta, abs=1e-12)
        assert m.f21 == pytest.approx(1j / eta, abs=1e-12)

    def test_half_wave_is_minus_identity(self):
        n = 2.15
        m = layer_fmatrix(lossless_layer(n, LAMBDA / (2 * n)), LAMBDA)
        assert m.f11 == pytest.approx(-1.0, abs=1e-12)
        assert m.f22 == pytest.approx(-1.0, abs=1e-12)
        assert abs(m.f12) < 1e-12 and abs(m.f21) < 1e-12

    def test_determinant_random_layers(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            oc = OpticalConstant(rng.uniform(1.0, 6.0), rng.uniform(0.0, 10.0))
            layer = Layer(Material("x", oc, "metal" if oc.n_im else "dielectric"), rng.uniform(1e-6, LAMBDA))
            assert rel_det_error(layer_fmatrix(layer, LAMBDA)) < 1e-12


class TestChain:
    def test_empty_is_identity(self):
        assert chain([]) == FMatrix.identity()

    def test_identity_pair(self):
        eye = FMatrix.identity()
        m = chain([eye, eye])
        assert m == eye

    def test_quarter_wave_pair_diagonal(self):
        n1, n2 = 1.444, 2.15
        pair = chain(
            [
                layer_fmatrix(lossless_layer(n1, LAMBDA / (4 * n1)), LAMBDA),
                layer_fmatrix(lossless_layer(n2, LAMBDA / (4 * n2)), LAMBDA),
            ]
        )
        eta1, eta2 = 1 / n1, 1 / n2
        assert pair.f11 == pytest.approx(-eta1 / eta2, abs=1e-12)
        assert pair.f22 == pytest.approx(-eta2 / eta1, abs=1e-12)
        assert abs(pair.f12) < 1e-12 and abs(pair.f21) < 1e-12

    def test_n_periods_power(self):
        n1, n2 = 1.444, 2.15
        mats = []
        for _ in range(4):
            mats.append(layer_fmatrix(lossless_layer(n1, LAMBDA / (4 * n1)), LAMBDA))
            mats.append(layer_fmatrix(lossless_layer(n2, LAMBDA / (4 * n2)), LAMBDA))
        total = chain(mats)
        ratio = (1 / n1) / (1 / n2)
        assert total.f11 == pytest.approx((-ratio) ** 4, rel=1e-12)
        assert total.f22 == pytest.approx((-1 / ratio) ** 4, rel=1e-12)
        assert rel_det_error(total) < 1e-12


class TestScatter:
    def test_bare_interface_vacuum_to_vacuum(self):
        stack = Stack(VACUUM, (), VACUUM)
        res = scatter(stack, LAMBDA)
        assert res.r == 0.0
        assert res.t == 1.0
        assert res.A == 0.0

    def test_fresnel_vacuum_to_si(self):
        stack = Stack(VACUUM, (), Medium(REG.get("Si")))
        res = scatter(stack, LAMBDA)
        n_o = 3.628
        expected = ((1 - n_o) / (1 + n_o)) ** 2
        assert res.R == pytest.approx(expected, rel=1e-12)
        assert res.R == pytest.approx(0.3224512176, abs=1e-9)
        assert res.R + res.T == pytest.approx(1.0, abs=1e-12)

    def test_single_side_design_point(self):
        # NbN grating at f = 0.5, quarter-wave SiO, ideal-mirror surrogate
        stack = build_ssc(make_wire())
        res = scatter(stack, LAMBDA)
        assert res.A == pytest.approx(0.99487, abs=1e-3)

    def test_composition_matches_explicit_chain(self):
        stack = build_dsc(make_wire(slit_material="SiO"))
        res = scatter(stack, LAMBDA)
        total = chain(layer_fmatrix(layer, LAMBDA) for layer in stack.layers)
        eta_i = 1 / 3.628
        eta_o = 1.0
        den = total.f11 * eta_o + total.f12 + total.f21 * eta_i * eta_o + total.f22 * eta_i
        r = (total.f11 * eta_o + total.f12 - total.f21 * eta_i * eta_o - total.f22 * eta_i) / den
        t = 2 * math.sqrt(eta_i * eta_o) / den
        assert abs(res.r - r) < 1e-12
        assert abs(res.t - t) < 1e-12

    def test_layer_split_invariance(self):
        base = build_ssc(make_wire())
        layers = list(base.layers)
        half = Layer(layers[0].material, layers[0].thickness_nm / 2)
        split = Stack(base.input, (half, half, *layers[1:]), base.output)
        a = scatter(base, LAMBDA)
        b = scatter(split, LAMBDA)
        assert abs(a.r - b.r) < 1e-12
        assert abs(a.t - b.t) < 1e-12

    def test_energy_conservation_lossless(self):
        rng = np.random.default_rng(12)
        media = [REG.get("Vacuum"), REG.get("Si"), REG.get("SiO2")]
        for _ in range(200):
            layers = tuple(
                lossless_layer(rng.uniform(1.0, 4.0), rng.uniform(1.0, 500.0))
                for _ in range(rng.integers(0, 6))
            )
            stack = Stack(
                Medium(media[rng.integers(0, 3)]), layers, Medium(media[rng.integers(0, 3)])
            )
            assert abs(scatter(stack, LAMBDA).A) < 1e-10

    def test_passivity_registry_stacks(self):
        rng = np.random.default_rng(13)
        finite = [m for m in REG if m.kind != "pec-terminal"]
        lossless = [m for m in REG if m.kind == "dielectric"]
        for _ in range(200):
            layers = []
            for _ in range(rng.integers(1, 6)):
                mat = finite[rng.integers(0, len(finite))]
                cap = 150.0 if mat.optical_constant.n_im > 100 else 300.0
                layers.append(Layer(mat, rng.uniform(1.0, cap)))
            stack = Stack(
                Medium(lossless[rng.integers(0, len(lossless))]),
                tuple(layers),
                Medium(lossless[rng.integers(0, len(lossless))]),
            )
            res = scatter(stack, LAMBDA)
            assert -1e-12 <= res.R <= 1 + 1e-12
            assert -1e-10 <= res.A <= 1

    def test_surrogate_film_matches_exact_short(self):
        for build, kwargs in (
            (build_ssc, {}),
            (build_dsc, {"slit_material": "SiO"}),
        ):
            wire = make_wire(**kwargs)
            film = build(wire)
            short = build(wire, mirror=EXACT_SHORT)
            assert abs(scatter(film, LAMBDA).A - scatter(short, LAMBDA).A) < 1e-3

    def test_lossy_input_unbuildable(self):
        with pytest.raises(ValueError, match="lossless"):
            Stack(Medium(REG.get("Ag")), (), VACUUM)


class TestInputImpedance:
    def test_bare_short(self):
        stack = Stack(VACUUM, (), EXACT_SHORT)
        assert input_impedance(stack, LAMBDA) == 0.0

    def test_quarter_wave_on_short_is_open(self):
        n = 1.444
        stack = Stack(VACUUM, (lossless_layer(n, LAMBDA / (4 * n)),), EXACT_SHORT)
        eta = input_impedance(stack, LAMBDA)
        assert eta == OPEN_CIRCUIT
        assert math.isinf(abs(eta))

    def test_design_point_matches_input(self):
        stack = build_ssc(make_wire(thickness_nm=11.5728))
        ratio = abs(input_impedance(stack, LAMBDA))
        assert 0.98 <= ratio <= 1.02


class TestSweep:
    def test_matches_scatter_pointwise(self):
        stack = build_ssc(make_wire())
        values = np.linspace(2.0, 25.0, 9)
        result = sweep(stack, 0, values, LAMBDA)
        for i, value in enumerate(values):
            res = scatter(stack.replace_thickness(0, value), LAMBDA)
            assert result.A[i] == pytest.approx(res.A, abs=1e-13)
            assert result.r[i] == pytest.approx(res.r, abs=1e-13)

    def test_eta_in_matches(self):
        stack = build_ssc(make_wire())
        values = np.array([5.0, 11.6, 20.0])
        result = sweep(stack, 0, values, LAMBDA)
        for i, value in enumerate(values):
            eta = input_impedance(stack.replace_thickness(0, value), LAMBDA)
            assert result.eta_in[i] == pytest.approx(eta, rel=1e-12)

    def test_bad_layer_index(self):
        with pytest.raises(IndexError):
            sweep(build_ssc(make_wire()), 5, np.array([1.0]), LAMBDA)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_chain_rejected(self):
        reflector = [lossless_layer(n, LAMBDA / (4 * n)) for n in (1.45, 2.1) * 3000]
        stack = Stack(VACUUM, (make_wire_layer(),) + tuple(reflector), VACUUM)
        with pytest.raises(ValueError, match="not finite at 2 nm of layer 0"):
            sweep(stack, 0, np.array([2.0, 11.6]), LAMBDA)


class TestArgmax:
    def test_single_side_wire_optimum(self):
        stack = build_ssc(make_wire())
        d_best, a_best = argmax_absorptance(stack, 0, 1.0, 30.0, LAMBDA)
        assert d_best == pytest.approx(11.6, abs=0.3)
        assert a_best == pytest.approx(0.9949, abs=1e-3)

    def test_degenerate_family_returns_lo(self):
        stack = Stack(VACUUM, (lossless_layer(1.0, 10.0),), VACUUM)
        d_best, a_best = argmax_absorptance(stack, 0, 3.0, 40.0, LAMBDA)
        assert d_best == 3.0
        assert abs(a_best) < 1e-10

    def test_double_side_dielectric_optimum(self):
        wire = make_wire(thickness_nm=6.6139, slit_material="SiO")
        stack = build_dsc(wire, mirror=REG.get("Ag"))
        d_best, _ = argmax_absorptance(stack, 2, 150.0, 280.0, LAMBDA)
        assert d_best == pytest.approx(218.0, abs=2.0)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            argmax_absorptance(build_ssc(make_wire()), 0, 30.0, 1.0, LAMBDA)

    def test_overflowing_chain_rejected(self):
        reflector = [lossless_layer(n, LAMBDA / (4 * n)) for n in (1.45, 2.1) * 3000]
        stack = Stack(VACUUM, (make_wire_layer(),) + tuple(reflector), VACUUM)
        with pytest.raises(ValueError, match="not finite"):
            argmax_absorptance(stack, 0, 1.0, 30.0, LAMBDA)

    def test_resolution(self):
        # two runs over shifted ranges land on the same optimum within 0.02 nm
        stack = build_ssc(make_wire())
        d1, _ = argmax_absorptance(stack, 0, 1.0, 30.0, LAMBDA)
        d2, _ = argmax_absorptance(stack, 0, 2.0, 28.0, LAMBDA)
        assert abs(d1 - d2) < 0.02


class TestAbsorptanceOfLayer:
    """The factored evaluator against the left-to-right sweep."""

    @pytest.mark.parametrize("output", [VACUUM, EXACT_SHORT], ids=["vacuum", "pec-short"])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_matches_sweep(self, output, position):
        rng = np.random.default_rng(11)
        values = np.linspace(1.0, 60.0, 101)
        for _ in range(10):
            stack = random_lossy_stack(rng, 7, output)
            idx = {"first": 0, "middle": 3, "last": 6}[position]
            expected = sweep(stack, idx, values, LAMBDA).A
            absorptance = absorptance_of_layer(stack, idx, LAMBDA)
            np.testing.assert_allclose(absorptance(values), expected, rtol=1e-13, atol=0)
            for value, a in zip(values[::10].tolist(), expected[::10]):
                assert float(absorptance(value)) == pytest.approx(a, rel=1e-13, abs=0)

    def test_single_layer_stack(self):
        stack = Stack(VACUUM, (make_wire_layer(),), EXACT_SHORT)
        values = np.linspace(1.0, 30.0, 11)
        np.testing.assert_allclose(
            absorptance_of_layer(stack, 0, LAMBDA)(values),
            sweep(stack, 0, values, LAMBDA).A,
            rtol=1e-13, atol=0,
        )

    def test_bad_layer_index(self):
        with pytest.raises(IndexError):
            absorptance_of_layer(build_ssc(make_wire()), 5, LAMBDA)
