"""Machine-speed calibration for a host whose speed drifts during a run.

On a shared 2-vCPU host the same pass can take 1.6 times as long for a
minute at a time, and process CPU time drifts with it, so the slowdown is
lost throughput, not preemption. ``calibrate()`` times a fixed piece of
work with the same profile as a CLI pass: interpreted Python with complex
arithmetic, float formatting, and numpy chain products over short and long
arrays. It uses only the benchmark's own code, so no change to the package
can move it. run.py runs it between passes and scales each timing by
``REFERENCE_S / median(calibration seconds)``; the record keeps the raw
values next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

import reference

# Median calibrate() time on the host the benchmark was defined on
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4), in its fast state.
REFERENCE_S = 1.8e-3

_STACK = reference.Cavity("mlc", 100.0).wire_stack(12.0)
_N = np.array([n for n, _ in _STACK])
_D = np.array([d for _, d in _STACK])
_SHORT = np.linspace(1.0, 30.0, 256)


def _chain(xs: np.ndarray) -> complex:
    f11, f12 = np.ones(len(xs), complex), np.zeros(len(xs), complex)
    for j in range(len(_N)):
        gd = 1j * reference.K0 * _N[j] * (xs if j == 0 else _D[j])
        c, s = np.cosh(gd), np.sinh(gd)
        f11, f12 = f11 * c + f12 * s * _N[j], f11 * s / _N[j] + f12 * c
    return complex(f11[-1] + f12[-1])


def calibrate() -> float:
    """Seconds taken by the fixed calibration work (about 1.8 ms): about
    60 % interpreted Python, 40 % numpy on short arrays, as in a pass."""
    start = time.perf_counter()
    for i in range(24):
        for _ in range(3):
            reference.optics(1.0, _STACK)
        "".join(format(i * k * 0.123456789, ".12g") for k in range(40))
        if i % 4 == 0:
            _chain(_SHORT)
    return time.perf_counter() - start
