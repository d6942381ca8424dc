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


def sweep_cases():
    """Random stacks of 1-200 layers, lossless and lossy, swept at the first,
    middle and last layer, plus one chain that overflows partway."""
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
    assert checked > 200
