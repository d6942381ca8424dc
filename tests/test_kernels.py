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
