import cmath
import operator

import numpy as np
import pytest

from stripcavity import _kernels

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
    swept = _kernels.chain_sweep(n, d, 2, values, K0)
    for p, value in enumerate(values):
        d_mod = d.copy()
        d_mod[2] = value
        single = _kernels.chain_product(n, d_mod, K0)
        for array, scalar in zip(swept, single):
            assert array[p] == pytest.approx(scalar, rel=1e-13)


def test_empty_chain_is_identity():
    n = np.array([], dtype=np.complex128)
    d = np.array([], dtype=np.float64)
    assert _kernels.chain_product(n, d, K0) == (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)


def test_prefixes_are_the_products_of_each_truncation():
    rng = np.random.default_rng(6)
    n, d = random_stack(rng, 9)
    prefixes = _kernels.chain_prefixes(n, d, K0)
    assert len(prefixes) == len(n) + 1
    for j, prefix in enumerate(prefixes):
        assert prefix == _kernels.chain_product(n[:j], d[:j], K0)


def test_overflowing_layer_is_a_value_error():
    # |Re(i k0 n d)| above ~710 overflows cosh; the message names the layer
    n = np.array([1.5, -1000j], dtype=np.complex128)
    d = np.array([100.0, 130.0])
    with pytest.raises(ValueError, match="a 130 nm layer of index -?0-1000j overflows"):
        _kernels.chain_product(n, d, 2 * np.pi / 400.0)


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
            got = _kernels.chain_sweep(n, d, idx, values, K0)
            want = per_layer_loop_sweep(n, d, idx, values, K0)
            for name, x, y in zip(("f11", "f12", "f21", "f22"), got, want):
                assert same_bits(x, y), (name, len(n), idx, values.shape[0])
            checked += 1
        assert not np.isfinite(got[0]).all()  # the last chain overflows
    assert checked > 250


def numpy_scalar_prefixes(n, d, k0):
    """The running products with every layer's terms computed at its own
    position and the product in numpy scalars: the reference that
    `chain_prefixes`, with its memoised terms and Python complex product,
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
            got = np.array(_kernels.chain_prefixes(n, d, K0), dtype=np.complex128)
            want = np.array(numpy_scalar_prefixes(n, d, K0), dtype=np.complex128)
            assert same_bits(got, want), (len(n), n[:3])
    assert not np.isfinite(got[-1]).all()  # the last chain overflows
    assert all(type(entry) is complex for entry in _kernels.chain_product(n[:5], d[:5], K0))


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
