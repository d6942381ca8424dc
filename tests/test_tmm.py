import cmath
import math
from dataclasses import astuple

import numpy as np
import pytest

from stripcavity import _kernels, tmm
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
    ScatterResult,
    absorptance_of_layer,
    argmax_absorptance,
    input_impedance,
    scatter,
    scatter_truncations,
    sweep,
)
from test_kernels import numpy_scalar_prefixes, per_layer_loop_sweep, same_bits

REG = builtin_registry()
LAMBDA = 1550.0
K0 = 2.0 * math.pi / LAMBDA
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


def layer_arrays(layers):
    """The index and thickness arrays of layers, as the kernels take them."""
    n = np.array([layer.material.optical_constant.n for layer in layers], dtype=np.complex128)
    d = np.array([layer.thickness_nm for layer in layers], dtype=np.float64)
    return n, d


def product(*layers):
    """The engine's chain product (f11, f12, f21, f22) of layers, input side first."""
    return _kernels.chain_product(*layer_arrays(layers), K0)


def rel_det_error(m) -> float:
    f11, f12, f21, f22 = m
    scale = max(1.0, abs(f11 * f22), abs(f12 * f21))
    return abs(f11 * f22 - f12 * f21 - 1.0) / scale


class TestLayerFMatrix:
    """One layer's F matrix, as the engine's chain product of that layer."""

    def test_vanishing_thickness_is_identity(self):
        f11, f12, f21, f22 = product(lossless_layer(2.0, 1e-9))
        assert abs(f11 - 1) < 1e-10 and abs(f22 - 1) < 1e-10
        assert abs(f12) < 1e-10 and abs(f21) < 1e-10

    def test_quarter_wave_form(self):
        n = 1.551
        f11, f12, f21, f22 = product(lossless_layer(n, LAMBDA / (4 * n)))
        eta = 1.0 / n
        assert abs(f11) < 1e-12 and abs(f22) < 1e-12
        assert f12 == pytest.approx(1j * eta, abs=1e-12)
        assert f21 == pytest.approx(1j / eta, abs=1e-12)

    def test_half_wave_is_minus_identity(self):
        n = 2.15
        f11, f12, f21, f22 = product(lossless_layer(n, LAMBDA / (2 * n)))
        assert f11 == pytest.approx(-1.0, abs=1e-12)
        assert f22 == pytest.approx(-1.0, abs=1e-12)
        assert abs(f12) < 1e-12 and abs(f21) < 1e-12

    def test_determinant_random_layers(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            oc = OpticalConstant(rng.uniform(1.0, 6.0), rng.uniform(0.0, 10.0))
            layer = Layer(Material("x", oc, "metal" if oc.n_im else "dielectric"), rng.uniform(1e-6, LAMBDA))
            assert rel_det_error(product(layer)) < 1e-12


class TestChain:
    """The engine's chain product of several layers."""

    def test_empty_is_identity(self):
        assert product() == (1.0, 0.0, 0.0, 1.0)

    def test_identity_pair(self):
        # a layer of zero thickness is exactly the identity
        n = np.array([1.444, 2.15], dtype=np.complex128)
        assert _kernels.chain_product(n, np.zeros(2), K0) == (1.0, 0.0, 0.0, 1.0)

    def test_quarter_wave_pair_diagonal(self):
        n1, n2 = 1.444, 2.15
        f11, f12, f21, f22 = product(
            lossless_layer(n1, LAMBDA / (4 * n1)), lossless_layer(n2, LAMBDA / (4 * n2))
        )
        eta1, eta2 = 1 / n1, 1 / n2
        assert f11 == pytest.approx(-eta1 / eta2, abs=1e-12)
        assert f22 == pytest.approx(-eta2 / eta1, abs=1e-12)
        assert abs(f12) < 1e-12 and abs(f21) < 1e-12

    def test_n_periods_power(self):
        n1, n2 = 1.444, 2.15
        pair = (lossless_layer(n1, LAMBDA / (4 * n1)), lossless_layer(n2, LAMBDA / (4 * n2)))
        total = product(*pair * 4)
        ratio = (1 / n1) / (1 / n2)
        assert total[0] == pytest.approx((-ratio) ** 4, rel=1e-12)
        assert total[3] == pytest.approx((-1 / ratio) ** 4, rel=1e-12)
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
        f11, f12, f21, f22 = numpy_scalar_prefixes(*layer_arrays(stack.layers), K0)[-1]
        eta_i = 1 / 3.628
        eta_o = 1.0
        den = f11 * eta_o + f12 + f21 * eta_i * eta_o + f22 * eta_i
        r = (f11 * eta_o + f12 - f21 * eta_i * eta_o - f22 * eta_i) / den
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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_chain_is_nan_without_a_warning(self):
        lossy = Layer(Material("lossy", OpticalConstant(1.5, 0.5), METAL), 200.0)
        res = scatter(Stack(VACUUM, (lossy,) * 3000, VACUUM), LAMBDA)
        assert all(math.isnan(value) for value in (res.R, res.T, res.A))
        assert cmath.isnan(res.r) and cmath.isnan(res.t)

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
            res = scatter(build_ssc(make_wire(thickness_nm=value)), LAMBDA)
            assert result.A[i] == pytest.approx(res.A, abs=1e-13)
            assert result.r[i] == pytest.approx(res.r, abs=1e-13)

    def test_eta_in_matches(self):
        stack = build_ssc(make_wire())
        values = np.array([5.0, 11.6, 20.0])
        result = sweep(stack, 0, values, LAMBDA)
        for i, value in enumerate(values):
            eta = input_impedance(build_ssc(make_wire(thickness_nm=value)), LAMBDA)
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

    def test_evaluation_does_no_chain_work(self, monkeypatch):
        calls = []
        chain_product = _kernels.chain_product

        def counting(*args):
            calls.append(args)
            return chain_product(*args)

        def forbidden(*args):
            raise AssertionError("an evaluation ran a chain sweep")

        monkeypatch.setattr(_kernels, "chain_product", counting)
        monkeypatch.setattr(_kernels, "chain_sweep", forbidden)
        stack = build_dsc(make_wire(slit_material="SiO"), mirror=REG.get("Ag"))
        absorptance = absorptance_of_layer(stack, 2, LAMBDA)
        assert len(calls) == 2
        absorptance(218.0)
        absorptance(np.linspace(150.0, 280.0, 256))
        assert len(calls) == 2


def reference_chain(stack):
    """The engine's inputs with every layer's index read at its own position.

    These reference_* functions are the engine with numpy-scalar chain
    entries, no memoised layer terms and ``conj(eta_i)``: the code that
    `tmm` must match bit for bit."""
    n, d = layer_arrays(stack.layers)
    short = stack.output.is_short
    eta_o = 0.0 if short else 1.0 / stack.output.material.optical_constant.n_re
    return n, d, 2.0 * math.pi / LAMBDA, 1.0 / stack.input.material.optical_constant.n_re, eta_o, short


def reference_coefficients(f11, f12, f21, f22, eta_i, eta_o, short):
    """r and t from numpy-scalar chain entries (the identity's are Python complex)."""
    eta_i_conj = np.conjugate(eta_i)
    num = f11 * eta_o + f12 - f21 * eta_i_conj * eta_o - f22 * eta_i_conj
    den = f11 * eta_o + f12 + f21 * eta_i * eta_o + f22 * eta_i
    r = num / den
    if short:
        return r, (np.zeros_like(r) if isinstance(r, np.ndarray) else 0.0j)
    return r, 2.0 * math.sqrt(eta_i * eta_o) / den


def reference_truncations(stack, counts):
    """Rows (r, t, R, T, A), one per count, each count divided on its own and
    its power balance CPython's ``(r.conjugate() * r).real``."""
    n, d, k0, eta_i, eta_o, short = reference_chain(stack)
    prefixes = numpy_scalar_prefixes(n, d, k0)
    rows = []
    for count in counts:
        r, t = map(complex, reference_coefficients(*prefixes[count], eta_i, eta_o, short))
        R, T = (r.conjugate() * r).real, (t.conjugate() * t).real
        rows.append((r, t, R, T, 1.0 - R - T))
    return np.array(rows, dtype=np.complex128).reshape(len(rows), 5)


def reference_input_impedance(stack):
    n, d, k0, _, eta_o, _ = reference_chain(stack)
    f11, f12, f21, f22 = numpy_scalar_prefixes(n, d, k0)[-1]
    num = f11 * eta_o + f12
    den = f21 * eta_o + f22
    return OPEN_CIRCUIT if abs(den) <= 1e-12 * max(1.0, abs(num)) else num / den


def reference_absorptance(stack, i):
    n, d, k0, eta_i, eta_o, short = reference_chain(stack)
    p11, p12, p21, p22 = map(complex, numpy_scalar_prefixes(n[:i], d[:i], k0)[-1])
    q11, q12, q21, q22 = map(complex, numpy_scalar_prefixes(n[i + 1:], d[i + 1:], k0)[-1])
    ni = complex(n[i])
    xn1, xn2 = p11 - eta_i * p21, p12 - eta_i * p22
    xd1, xd2 = p11 + eta_i * p21, p12 + eta_i * p22
    w1, w2 = q11 * eta_o + q12, q21 * eta_o + q22
    t_num = 0.0 if short else 2.0 * math.sqrt(eta_i * eta_o)

    def absorptance(thickness_nm):
        gd = 1j * k0 * ni * thickness_nm
        if isinstance(gd, np.ndarray):
            c, s = np.cosh(gd), np.sinh(gd)
        else:
            c, s = cmath.cosh(gd), cmath.sinh(gd)
        y1 = c * w1 + (s / ni) * w2
        y2 = (s * ni) * w1 + c * w2
        den = xd1 * y1 + xd2 * y2
        r = (xn1 * y1 + xn2 * y2) / den
        t = t_num / den
        return 1.0 - (r.conjugate() * r).real - (t.conjugate() * t).real

    return absorptance


def periodic_stacks():
    """A first layer and 1-300 periods of one pair, all lossless or lossy,
    ending in vacuum, a short or a dielectric, with the pair's `Layer`
    objects shared as `build_mlc` builds them or made anew per period as a
    stack config does; the lossless pair's indices differ only in the sign
    of a zero imaginary part. Last, a chain whose product overflows."""
    rng = np.random.default_rng(16)
    outputs = (VACUUM, EXACT_SHORT, Medium(REG.get("SiO")))
    for pairs in (1, 3, 40, 300):
        for lossy in (False, True):
            if lossy:
                constants = [OpticalConstant(3.0, 5.2), OpticalConstant(1.45, 0.02),
                             OpticalConstant(1.9, 0.0)]
            else:  # n_im = 0.0 gives an index of 1.45-0j, n_im = -0.0 one of 1.45+0j
                constants = [OpticalConstant(2.2, 0.0), OpticalConstant(1.45, 0.0),
                             OpticalConstant(1.45, -0.0)]
            wire, low, high = (Material(f"m{i}", oc, METAL) for i, oc in enumerate(constants))
            d_low = rng.uniform(50.0, 300.0)
            d_high = d_low if not lossy else rng.uniform(50.0, 300.0)
            shared = (Layer(low, d_low), Layer(high, d_high)) * pairs
            fresh = tuple(Layer(m, t) for _ in range(pairs) for m, t in ((low, d_low), (high, d_high)))
            first = Layer(wire, rng.uniform(2.0, 20.0))
            for output, reflector in zip(outputs, (shared, fresh, shared)):
                yield Stack(VACUUM, (first,) + reflector, output)
    lossy = Layer(Material("lossy", OpticalConstant(2.0, 3.0), METAL), 300.0)
    yield Stack(VACUUM, (make_wire_layer(),) + (lossy, lossless_layer(1.5, 200.0)) * 300, VACUUM)


def result_bits(result):
    """Rows (r, t, R, T, A) of a `ScatterResult` of Python numbers or columns."""
    fields = np.array([result.r, result.t, result.R, result.T, result.A], dtype=np.complex128)
    return np.ascontiguousarray(fields.reshape(5, -1).T)


def test_power_balance_float_form_contract():
    """`ScatterResult.from_coefficients` forms R as ``r.real*r.real +
    r.imag*r.imag``. That keeps `scatter` on the bits of CPython's
    ``(r.conjugate() * r).real`` only while the two agree, and keeps the
    columns of `scatter_truncations` on `scatter`'s bits only while numpy's
    float64 arrays round the form alike. numpy's array complex product does
    not agree, which is why `sweep` keeps ``(np.conjugate(r) * r).real``, the
    form its CSV digits were recorded with."""
    rng = np.random.default_rng(31)
    size = 20000
    with np.errstate(under="ignore"):
        parts = rng.normal(size=(2, size)) * 10.0 ** rng.integers(-330, 300, (2, size))
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1e155,
                math.inf, -math.inf, math.nan]
    pairs = np.array([(x, y) for x in specials for y in specials]).T
    parts[:, : pairs.shape[1]] = pairs
    parts[0, 200::13] = rng.choice(specials, parts[0, 200::13].size)
    parts[1, 201::17] = rng.choice(specials, parts[1, 201::17].size)
    values = list(map(complex, parts[0].tolist(), parts[1].tolist()))

    def bits(column):
        return np.array(column, dtype=np.complex128)

    cpython = bits([(z.conjugate() * z).real for z in values])
    floats = bits([z.real * z.real + z.imag * z.imag for z in values])
    array = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):
        numpy_floats = bits(array.real * array.real + array.imag * array.imag)
        numpy_complex = bits((np.conjugate(array) * array).real)
        column = bits(ScatterResult.from_coefficients(array, array).R)
    assert same_bits(floats, cpython), "float form against CPython's conjugate product"
    assert same_bits(numpy_floats, cpython), "float64 arrays against CPython's conjugate product"
    assert same_bits(column, cpython), "from_coefficients on a column"
    assert not same_bits(numpy_complex, cpython), "numpy's array complex product now agrees"


class TestAgainstReferenceEngine:
    """Bit for bit against the reference engine, on periodic stacks."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scatter_and_truncations(self):
        for stack in periodic_stacks():
            size = len(stack.layers)
            every = list(range(size + 1))
            # unordered and repeated, the identity in the middle, and none at all
            mixed = [3 % (size + 1), 0, 1, 0, size, 1, size // 2, size, 0]
            for counts in (every, mixed, []):
                got = scatter_truncations(stack, counts, LAMBDA)
                assert all(np.shape(field) == (len(counts),) for field in astuple(got))
                assert same_bits(result_bits(got), reference_truncations(stack, counts))
            for count in every[:: max(1, len(every) // 40)] + [size]:
                truncated = Stack(stack.input, stack.layers[:count], stack.output)
                got = scatter(truncated, LAMBDA)
                assert [type(field) for field in astuple(got)] == [complex, complex, float, float, float]
                assert same_bits(result_bits(got), reference_truncations(truncated, [count]))
        assert not np.isfinite(result_bits(got)).all()  # the last chain overflows

    def test_input_impedance(self):
        for stack in list(periodic_stacks())[:-1]:
            got = np.array([input_impedance(stack, LAMBDA)])
            assert same_bits(got, np.array([reference_input_impedance(stack)]))

    def test_absorptance_of_layer(self):
        values = np.linspace(1.0, 300.0, 37)

        def evaluations(f):  # the array, and each value alone as a float
            return np.array([f(values), [f(x) for x in values.tolist()]], np.complex128)

        for stack in list(periodic_stacks())[:-1]:
            for i in sorted({0, 1, 2, len(stack.layers) // 2, len(stack.layers) - 1}):
                got = evaluations(absorptance_of_layer(stack, i, LAMBDA))
                assert same_bits(got, evaluations(reference_absorptance(stack, i))), (stack, i)

    def test_sweep(self):
        values = np.linspace(1.0, 300.0, 51)
        for stack in list(periodic_stacks())[:-1]:
            n, d, k0, eta_i, eta_o, short = reference_chain(stack)
            for i in sorted({0, 2, len(stack.layers) - 1}):
                got = sweep(stack, i, values, LAMBDA)
                want = reference_coefficients(*per_layer_loop_sweep(n, d, i, values, k0), eta_i, eta_o, short)
                assert same_bits(np.array([got.r, got.t]), np.array(want))


def old_selection(grid, grid_A, refined, refined_A):
    """The list-and-generator tie rule that `_select_thickness` replaces."""
    candidates = list(zip(grid.tolist(), grid_A.tolist()))
    candidates.append((refined, refined_A))
    a_max = max(value for _, value in candidates)
    return min(d for d, value in candidates if value >= a_max - 1e-12)


SELECTION_GRID = np.linspace(3.0, 40.0, 256)


class TestSelection:
    """`_select_thickness` against the old rule on hand-built families.

    Every family is 0.5 except the listed (index, value) grid peaks."""

    @pytest.mark.parametrize("peaks, refined, refined_A, expected", [
        ((), 20.0, 0.5, SELECTION_GRID[0]),
        (((100, 0.9),), 26.01, 0.9 + 2e-12, 26.01),
        (((100, 0.9),), 26.01, 0.9 + 5e-13, SELECTION_GRID[100]),
        (((100, 0.9), (200, 0.9 + 5e-13)), 26.01, 0.8, SELECTION_GRID[100]),
        (((100, 0.9),), 17.5, 0.9 - 5e-13, 17.5),
    ], ids=[
        "flat-family-returns-lo",
        "refined-above-grid-wins",
        "refined-tied-with-lower-grid-point-loses",
        "lower-of-two-tied-grid-points-wins",
        "refined-below-tied-grid-point-wins",
    ])
    def test_hand_built_cases(self, peaks, refined, refined_A, expected):
        grid_A = np.full(SELECTION_GRID.shape, 0.5)
        for index, value in peaks:
            grid_A[index] = value
        chosen = tmm._select_thickness(SELECTION_GRID, grid_A, refined, refined_A)
        assert chosen == expected
        assert chosen == old_selection(SELECTION_GRID, grid_A, refined, refined_A)

    def test_random_near_ties(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            # values on a 1e-13 lattice near the top make ties and near-ties common
            grid_A = 0.9 - rng.integers(0, 40, 256) * 1e-13
            refined = float(rng.uniform(3.0, 40.0))
            refined_A = 0.9 + float(rng.integers(-30, 30)) * 1e-13
            assert tmm._select_thickness(SELECTION_GRID, grid_A, refined, refined_A) == (
                old_selection(SELECTION_GRID, grid_A, refined, refined_A)
            )
