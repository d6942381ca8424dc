import os
import subprocess
import sys

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


needs_numba = pytest.mark.skipif(not _kernels.NUMBA_ENABLED, reason="numba path disabled")


@needs_numba
def test_chain_product_paths_agree():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, d = random_stack(rng, rng.integers(0, 8))
        a = _kernels.chain_product_numba(n, d, K0)
        b = _kernels.chain_product_numpy(n, d, K0)
        for x, y in zip(a, b):
            assert abs(x - y) <= 1e-11 * max(1.0, abs(x))


@needs_numba
def test_chain_sweep_paths_agree():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n, d = random_stack(rng, rng.integers(1, 8))
        idx = int(rng.integers(0, len(n)))
        values = np.linspace(1.0, 50.0, 37)
        a = _kernels.chain_sweep_numba(n, d, idx, values, K0)
        b = _kernels.chain_sweep_numpy(n, d, idx, values, K0)
        for x, y in zip(a, b):
            assert np.all(np.abs(x - y) <= 1e-11 * np.maximum(1.0, np.abs(x)))


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


def test_env_flag_disables_numba():
    # the child imports the package from wherever this process found it
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, STRIPCAVITY_DISABLE_NUMBA="1", PYTHONPATH=path)
    code = (
        "from stripcavity import _kernels; "
        "assert not _kernels.NUMBA_ENABLED; "
        "assert _kernels.chain_product is _kernels.chain_product_numpy"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
