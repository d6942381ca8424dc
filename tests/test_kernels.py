import cmath
import operator
import types

import numpy as np
import pytest

from stripcavity import _kernels, tmm
from stripcavity._text import _BLOCK_ROWS
from stripcavity.design import DesignSpec, _stack_on, _wire, mlc_convergence, sweep_curves
from stripcavity.materials import Material, OpticalConstant, builtin_registry
from stripcavity.stack import Layer, Medium, Stack, load_stack_config

K0 = 2 * np.pi / 1550.0


def random_stack(rng, n_layers):
    n = (rng.uniform(1.0, 5.0, n_layers) - 1j * rng.uniform(0.0, 6.0, n_layers)).astype(
        np.complex128
    )
    d = rng.uniform(1.0, 400.0, n_layers)
    return n, d


def test_sweep_consistent_with_single_point():
    rng = np.random.default_rng(5)
    n, d = random_stack(rng, 5)
    values = np.linspace(2.0, 20.0, 7)
    swept = _kernels.chain_sweep(n, d, 2, values, K0, _kernels.layer_terms(n, d, range(5), 2, K0))
    for p, value in enumerate(values):
        d_mod = d.copy()
        d_mod[2] = value
        single = _kernels.chain_product(n, d_mod, range(5), K0)
        for array, scalar in zip(swept, single):
            assert array[p] == pytest.approx(scalar, rel=1e-13)


def test_empty_chain_is_identity():
    n = np.array([], dtype=np.complex128)
    d = np.array([], dtype=np.float64)
    assert _kernels.chain_product(n, d, range(0), K0) == (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)


def test_prefixes_are_the_products_of_each_truncation():
    rng = np.random.default_rng(6)
    n, d = random_stack(rng, 9)
    prefixes = _kernels.chain_prefixes(n, d, range(9), K0)
    assert len(prefixes) == len(n) + 1
    for j, prefix in enumerate(prefixes):
        assert prefix == _kernels.chain_product(n[:j], d[:j], range(j), K0)


def test_overflowing_layer_is_a_value_error():
    # |Re(i k0 n d)| above ~710 overflows cosh; the message names the layer
    n = np.array([1.5, -1000j], dtype=np.complex128)
    d = np.array([100.0, 130.0])
    with pytest.raises(ValueError, match="a 130 nm layer of index -?0-1000j overflows"):
        _kernels.chain_product(n, d, range(2), 2 * np.pi / 400.0)


def bit_codes(n, d):
    """Each layer's code as `stripcavity.tmm._prepare` numbers it: layers of
    equal index and thickness bits share one, and 0.0 and -0.0 do not."""
    first = {}
    return [first.setdefault((x.tobytes(), y.tobytes()), len(first)) for x, y in zip(n, d)]


def per_layer_loop_sweep(n, d, idx, values, k0):
    """The entry-by-entry sweep with twelve fresh temporaries per layer: the
    reference the in-place column kernel must match bit for bit."""
    m = values.shape[0]
    f11 = np.ones(m, np.complex128)
    f12 = np.zeros(m, np.complex128)
    f21 = np.zeros(m, np.complex128)
    f22 = np.ones(m, np.complex128)
    for j in range(n.shape[0]):
        dj = values if j == idx else d[j]
        gd = 1j * k0 * n[j] * dj
        c = np.cosh(gd)
        s = np.sinh(gd)
        b = s / n[j]
        g = s * n[j]
        f11, f12, f21, f22 = (
            f11 * c + f12 * g,
            f11 * b + f12 * c,
            f21 * c + f22 * g,
            f21 * b + f22 * c,
        )
    return f11, f12, f21, f22


def same_bits(x, y):
    """Real and imaginary parts equal bit for bit, a NaN equal to any NaN."""
    x, y = x.view(np.float64), y.view(np.float64)
    both_nan = np.isnan(x) & np.isnan(y)
    return x.shape == y.shape and np.array_equal(
        x.view(np.uint64)[~both_nan], y.view(np.uint64)[~both_nan]
    )


def periodic_stacks():
    """Reflector-like chains: a first layer, then 1-300 repeats of one pair,
    all lossless or the first layer and the pair lossy, and last a chain
    whose product overflows. The lossless pair's indices share a real part,
    one with an imaginary part of -0.0 (as the built-ins give) and one with
    +0.0 (as a materials file can), at one thickness: equal under ``==``,
    not in their bits, which a lossless chain carries to its zero parts."""
    rng = np.random.default_rng(12)
    for pairs in (1, 2, 5, 40, 120, 300):
        for lossy in (False, True):
            wire = complex(rng.uniform(1.0, 5.0), -rng.uniform(0.0, 6.0) if lossy else -0.0)
            if lossy:
                pair = [complex(1.45, -rng.uniform(0.0, 0.05)), complex(1.9, -0.0)]
                thickness = list(rng.uniform(50.0, 300.0, 2))
            else:
                pair = [complex(1.45, -0.0), complex(1.45, 0.0)]
                thickness = [rng.uniform(50.0, 300.0)] * 2
            n = np.array([wire] + pair * pairs, dtype=np.complex128)
            d = np.array([rng.uniform(2.0, 20.0)] + thickness * pairs)
            yield n, d
    n = np.array([1.5 - 0.4j] + [2.0 - 3.0j, 1.5 - 0.0j] * 300, dtype=np.complex128)
    yield n, np.array([10.0] + [300.0, 200.0] * 300)


def sweep_cases():
    """Random stacks of 1-200 layers, lossless and lossy, swept at the first,
    middle and last layer; periodic stacks swept at one occurrence of a
    repeated layer; last one chain that overflows partway."""
    rng = np.random.default_rng(10)
    for lossy in (False, True):
        for m in (1, 2, 3, 1451, 2049):
            for n_layers in (1, 200, *rng.integers(2, 200, 6)):
                n, d = random_stack(rng, n_layers)
                if not lossy:
                    n = n.real.astype(np.complex128)
                values = rng.uniform(1.0, 400.0, m)
                for idx in sorted({0, n_layers // 2, n_layers - 1}):
                    yield n, d, idx, values
    for n, d in periodic_stacks():
        for m in (1, 1451):
            values = rng.uniform(1.0, 400.0, m)
            for idx in sorted({1, 2, len(n) // 2, len(n) - 1}):
                yield n, d, idx, values
    n = np.array([1.5, 2.0 - 1000j, 1.4, 2.1], dtype=np.complex128)
    yield n, np.array([100.0, 300.0, 250.0, 180.0]), 2, np.linspace(1.0, 400.0, 1451)


def test_chain_sweep_is_bitwise_the_per_layer_loop():
    checked = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n, d, idx, values in sweep_cases():
            terms = _kernels.layer_terms(n, d, bit_codes(n, d), idx, K0)
            got = _kernels.chain_sweep(n, d, idx, values, K0, terms)
            want = per_layer_loop_sweep(n, d, idx, values, K0)
            for name, x, y in zip(("f11", "f12", "f21", "f22"), got, want):
                assert same_bits(x, y), (name, len(n), idx, values.shape[0])
            checked += 1
        assert not np.isfinite(got[0]).all()  # the last chain overflows
    assert checked > 250


# The curves the benchmark's sweep-large and deep-reflector workloads draw,
# with the (layers, points) each hands to `chain_sweep` in its blocks.
BENCHMARK_SWEEPS = {
    "ssc-wire": (DesignSpec(cavity="ssc"), "wire", (1.0, 30.0, 0.002), (3, 14501)),
    "dsc-dielectric": (DesignSpec(cavity="dsc"), "dielectric", (150.0, 300.0, 0.01), (4, 15001)),
    "mlc-wire": (DesignSpec(cavity="mlc"), "wire", (1.0, 30.0, 0.002), (13, 14501)),
    "SiO2-SiO-80-wire": (
        DesignSpec(cavity="mlc", low_index="SiO2", high_index="SiO", periods=80),
        "wire", (1.0, 30.0, 0.02), (161, 1451),
    ),
}


@pytest.mark.parametrize("case", BENCHMARK_SWEEPS)
def test_chain_sweep_is_bitwise_the_per_layer_loop_at_benchmark_shapes(monkeypatch, case):
    spec, variable, grid, (layers, points) = BENCHMARK_SWEEPS[case]
    kernel, calls = _kernels.chain_sweep, []

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "chain_sweep", recording)
    curves = sweep_curves(spec, variable, *grid)
    # one call per block of the grid, in order
    assert len(calls) == -(-points // _BLOCK_ROWS)
    assert np.array_equal(np.concatenate([args[3] for args in calls]), curves.x_nm)
    for args in calls:
        n, d, idx, values, k0 = args[:5]
        assert len(n) == layers
        got = [x.copy() for x in kernel(*args)]
        want = per_layer_loop_sweep(n, d, idx, values, k0)
        for name, x, y in zip(("f11", "f12", "f21", "f22"), got, want):
            assert same_bits(x, y), (name, len(values))


def numpy_scalar_prefixes(n, d, k0):
    """The running products with every layer's terms computed at its own
    position and the product in numpy scalars: the reference that
    `chain_prefixes`, with its distinct-layer table and Python complex product,
    must match bit for bit."""
    f11, f12, f21, f22 = (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)
    out = [(f11, f12, f21, f22)]
    for j in range(n.shape[0]):
        gd = 1j * k0 * n[j] * d[j]
        c = cmath.cosh(gd)
        s = cmath.sinh(gd)
        b = s / n[j]
        g = s * n[j]
        f11, f12, f21, f22 = (
            f11 * c + f12 * g,
            f11 * b + f12 * c,
            f21 * c + f22 * g,
            f21 * b + f22 * c,
        )
        out.append((f11, f12, f21, f22))
    return out


def test_chain_prefixes_is_bitwise_the_numpy_scalar_loop():
    rng = np.random.default_rng(14)
    cases = [*(random_stack(rng, m) for m in (0, 1, 2, 13, 200)), *periodic_stacks()]
    with np.errstate(over="ignore", invalid="ignore"):
        for n, d in cases:
            got = np.array(_kernels.chain_prefixes(n, d, bit_codes(n, d), K0), dtype=np.complex128)
            want = np.array(numpy_scalar_prefixes(n, d, K0), dtype=np.complex128)
            assert same_bits(got, want), (len(n), n[:3])
    assert not np.isfinite(got[-1]).all()  # the last chain overflows
    assert all(type(entry) is complex for entry in _kernels.chain_product(n[:5], d[:5], range(5), K0))


def test_scalar_complex_arithmetic_contract():
    """The kernels' Python complex products equal the numpy-scalar ones only
    while CPython's complex ``*``, ``+`` and ``-``, also against a float,
    round as numpy's scalar ones do; and batching the divisions of a scalar
    path, the one batching allowed, keeps its bits only while numpy's scalar
    and array ``/`` agree. An interpreter that changes mixed real/complex
    arithmetic (CPython 3.14 follows C99 there) fails here, by name, before
    any CSV digit moves."""
    rng = np.random.default_rng(15)
    size = 4000
    parts = rng.normal(size=(4, size)) * 10.0 ** rng.integers(-8, 9, (4, size))
    parts[:, ::7] = 0.0
    parts[:, 1::7] = -0.0
    parts[1, 2::5] = 0.0  # real-valued left operands
    parts[3, 3::5] = -0.0  # real-valued right operands
    # complex(re, im), not re + 1j * im, which loses the sign of a zero part
    left = list(map(complex, parts[0].tolist(), parts[1].tolist()))
    right = list(map(complex, parts[2].tolist(), parts[3].tolist()))
    floats = parts[2].tolist()

    def bits(values):
        return np.array(values, dtype=np.complex128).view(np.uint64)

    for name, op in (("*", operator.mul), ("+", operator.add), ("-", operator.sub)):
        py = [op(x, y) for x, y in zip(left, right)]
        npy = [op(np.complex128(x), np.complex128(y)) for x, y in zip(left, right)]
        assert type(npy[0]) is np.complex128  # numpy's scalar arithmetic ran
        assert np.array_equal(bits(py), bits(npy)), f"complex {name} complex"
    py = [(x * y, y * x, x + y, x - y) for x, y in zip(left, floats)]
    npy = [(np.complex128(x) * np.float64(y), np.float64(y) * np.complex128(x),
            np.complex128(x) + np.float64(y), np.complex128(x) - np.float64(y))
           for x, y in zip(left, floats)]
    assert {type(z) for row in npy for z in row} == {np.complex128}
    assert np.array_equal(bits(py), bits(npy)), "complex and float"
    with np.errstate(divide="ignore", invalid="ignore"):
        scalar = [np.complex128(x) / np.complex128(y) for x, y in zip(left, right)]
        array = np.array(left) / np.array(right)
    assert np.array_equal(bits(scalar), bits(array)), "numpy scalar and array /"


@pytest.mark.parametrize("m", [1, 2, 3, 1451, 14501])
def test_zero_d_operand_multiplies_as_the_numpy_scalar(m):
    """`chain_sweep` takes each distinct layer's terms as 0-d complex128 arrays,
    which numpy dispatches faster than its scalar. That keeps the kernel's bits
    only while ``np.multiply`` of a ``(2, m)`` array by the 0-d array rounds as
    by the numpy scalar, into a fresh array or the kernel's ``out=``."""
    rng = np.random.default_rng(32 + m)
    parts = rng.normal(size=(4, 2, m)) * 10.0 ** rng.integers(-150, 150, (4, 2, m))
    parts[:, :, ::7] = 0.0
    parts[:, :, 1::7] = -0.0
    columns = parts[0] + 1j * parts[1]
    columns.imag[:, ::5] = parts[1, :, ::5]  # signed zero imaginary parts
    operands = np.append(parts[2, 0, :8] + 1j * parts[3, 0, :8],
                         [1.0 + 0.0j, complex(0.0, -0.0), 1e300 + 1e-300j])
    out_scalar, out_array = np.empty_like(columns), np.empty_like(columns)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for z in operands:
            scalar, array = np.complex128(z), np.asarray(np.complex128(z))
            assert array.shape == () and array.dtype == np.complex128
            assert same_bits(np.multiply(columns, array), np.multiply(columns, scalar)), z
            np.multiply(columns, scalar, out=out_scalar)
            np.multiply(columns, array, out=out_array)
            assert same_bits(out_array, out_scalar), z


# The distinct-layer table: `tmm._prepare` gives every layer a code, and a
# kernel computes each code's terms once.

REFLECTOR = DesignSpec(cavity="mlc", low_index="SiO2", high_index="SiO", periods=80)


@pytest.fixture
def cosh_calls(monkeypatch):
    """The arguments of every ``cmath.cosh`` that `_kernels` calls."""
    calls = []

    def cosh(z):
        calls.append(z)
        return cmath.cosh(z)

    monkeypatch.setattr(_kernels, "cmath", types.SimpleNamespace(cosh=cosh, sinh=cmath.sinh))
    return calls


def test_deep_reflector_prefixes_compute_three_layers(monkeypatch, cosh_calls):
    # mlc-convergence --max-periods 120: wire | (SiO2, SiO) * 120
    chains = []
    prefixes = _kernels.chain_prefixes

    def recording(n, d, codes, k0):
        chains.append(len(n))
        return prefixes(n, d, codes, k0)

    monkeypatch.setattr(_kernels, "chain_prefixes", recording)
    mlc_convergence(REFLECTOR, 120)
    assert chains == [241]
    assert len(cosh_calls) == 3


def test_reflector_repeats_share_one_terms_object():
    registry = builtin_registry()
    stack = _stack_on(REFLECTOR, registry, _wire(REFLECTOR, registry, 10.0))
    n, d, codes, k0, *_ = tmm._prepare(stack, REFLECTOR.wavelength_nm, 0)
    assert len(codes) == 161 and len(set(codes)) == 3
    terms = _kernels.layer_terms(n, d, codes, 0, k0)
    assert terms[0] is None
    low, high = terms[1], terms[2]
    assert low is not high
    assert all(term is low for term in terms[1::2])
    assert all(term is high for term in terms[2::2])


def test_equal_layers_of_a_config_compute_their_terms_once(cosh_calls):
    layers = [("NbN", 8), ("SiO", 230), ("SiO", 230.0), ("Ag", 120)]
    stack = load_stack_config({
        "cavity": "custom",
        "layers": [{"material": name, "thickness_nm": nm} for name, nm in layers],
    }).stack
    assert stack.layers[1] is not stack.layers[2]
    n, d, codes, k0, *_ = tmm._prepare(stack, 1550.0)
    assert codes[1] == codes[2] and len(set(codes)) == 3
    _kernels.chain_product(n, d, codes, k0)
    assert len(cosh_calls) == 3
    terms = _kernels.layer_terms(n, d, codes, 0, k0)
    assert terms[1] is terms[2]


def test_signed_zero_indices_keep_separate_terms():
    # n_im = 0.0 gives the index 1.45-0j and n_im = -0.0 gives 1.45+0j:
    # equal under ==, apart in their bits, which this lossless chain carries
    # into its product
    vacuum = Medium(Material("vac", OpticalConstant(1.0)))
    glass = Layer(Material("g", OpticalConstant(1.5)), 10.0)
    minus, plus = (Layer(Material("d", OpticalConstant(1.45, n_im)), 300.0) for n_im in (0.0, -0.0))
    assert minus == plus
    n, d, codes, k0, *_ = tmm._prepare(Stack(vacuum, (glass, minus, plus, minus, plus), vacuum), 1550.0)
    assert codes == [0, 1, 2, 1, 2]
    terms = _kernels.layer_terms(n, d, codes, 0, k0)
    assert terms[1] is terms[3] and terms[2] is terms[4] and terms[1] is not terms[2]
    want = np.array(numpy_scalar_prefixes(n, d, k0))
    assert same_bits(np.array(_kernels.chain_prefixes(n, d, codes, k0)), want)
    # one code for both would move the product's bits
    assert not same_bits(np.array(_kernels.chain_prefixes(n, d, [0, 1, 1, 1, 1], k0)), want)
