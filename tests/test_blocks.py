"""Sweeps run in blocks of `_BLOCK_ROWS` rows through one per-thread block
arena, which the CSV encoder's blocks share. These tests hold the blocked
curves to the whole-array evaluation bit for bit, and pin what a sweep
allocates."""

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from stripcavity import _kernels, _text, design, tmm
from stripcavity._text import _BLOCK_ROWS, encode_rows
from stripcavity.cli import main
from stripcavity.design import DesignSpec, sweep_curves, sweep_stack
from stripcavity.stack import load_stack_config

from test_kernels import per_layer_loop_sweep, same_bits

HEADER = "x_nm,A_analytic,A_tmm,eta_ratio\n"
CUSTOM_STACK = (
    "cavity: custom\n"
    "layers:\n"
    "  - {material: NbN, thickness_nm: 8}\n"
    "  - {material: SiO, thickness_nm: 230}\n"
    "  - {material: Ag, thickness_nm: 120}\n"
)


def whole_array_sweep(stack, index, xs, wavelength_nm):
    """(r, t, R, T, A, eta_in) of every point at once: the entry-by-entry chain
    and the whole-grid expressions that the blocked sweep replaces."""
    n, d, _, k0, eta_i, eta_o, short = tmm._prepare(stack, wavelength_nm, index)
    with np.errstate(all="ignore"):
        f11, f12, f21, f22 = per_layer_loop_sweep(n, d, index, xs, k0)
        num = f11 * eta_o + f12 - f21 * eta_i * eta_o - f22 * eta_i
        den = f11 * eta_o + f12 + f21 * eta_i * eta_o + f22 * eta_i
        r = num / den
        t = np.zeros_like(r) if short else 2.0 * math.sqrt(eta_i * eta_o) / den
        R = (np.conjugate(r) * r).real
        T = (np.conjugate(t) * t).real
        num = f11 * eta_o + f12
        den = f21 * eta_o + f22
        eta_in = np.where(
            np.abs(den) <= 1e-12 * np.maximum(1.0, np.abs(num)),
            complex(math.inf, 0.0),
            num / np.where(den == 0, 1.0, den),
        )
    return r, t, R, T, 1.0 - R - T, eta_in


def grid(lo, step, points):
    return ["--range", f"{lo!r}:{lo + (points - 1) * step!r}", "--step", repr(step)]


# argv of each kind of curve, before its --out, for a grid of ``points``
CURVES = {
    "ssc-wire": lambda config, points: [
        "sweep", "--cavity", "ssc", "--variable", "wire", *grid(1.0, 29.0 / points, points)],
    "dsc-dielectric": lambda config, points: [
        "sweep", "--cavity", "dsc", "--variable", "dielectric",
        *grid(150.0, 150.0 / points, points)],
    "mlc-impedance": lambda config, points: [
        "impedance", "--cavity", "mlc", *grid(1.0, 29.0 / points, points)],
    "custom-stack": lambda config, points: [
        "sweep", "--stack", str(config), "--layer", "1", *grid(100.0, 200.0 / points, points)],
}


def recorded_curves(monkeypatch):
    """Calls of `design._curves`, each (its arguments, its CurveSet)."""
    calls, curves = [], design._curves

    def recording(*args):
        calls.append((args, curves(*args)))
        return calls[-1][1]

    monkeypatch.setattr(design, "_curves", recording)
    return calls


@pytest.mark.parametrize("points", [1, 4095, 4096, 4097, 14_501, 290_001])
@pytest.mark.parametrize("kind", CURVES)
def test_blocked_curve_is_the_whole_array_curve(tmp_path, monkeypatch, kind, points):
    config = tmp_path / "stack.yaml"
    config.write_text(CUSTOM_STACK)
    calls = recorded_curves(monkeypatch)
    out = tmp_path / "curve.csv"
    assert main([*CURVES[kind](config, points), "--out", str(out)]) == 0
    [((stack, index, columns, wavelength_nm, *analytic), curves)] = calls
    xs = columns[0]
    assert len(xs) == points
    *_, A, eta_in = whole_array_sweep(stack, index, xs, wavelength_nm)
    ratio = np.abs(eta_in) * stack.input.material.optical_constant.n_re
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        A_analytic = analytic[0](xs) if analytic else np.full(points, np.nan)
    columns = (xs, A_analytic, A, ratio)
    for name, got, want in zip(("x_nm", "A_analytic", "A_tmm", "eta_ratio"), (
            curves.x_nm, curves.A_analytic, curves.A_tmm, curves.eta_ratio), columns):
        assert same_bits(got, want), name
    assert out.read_bytes() == (HEADER + encode_rows(columns)).encode()


def test_overflow_in_a_later_block_names_the_first_thickness(tmp_path, capsys):
    # Ag's cosh overflows from about 15.9 um at 1550 nm, in the third block
    config = tmp_path / "stack.yaml"
    config.write_text(CUSTOM_STACK)
    out = tmp_path / "curve.csv"
    argv = ["sweep", "--stack", str(config), "--layer", "2", "--range", "1:20000",
            "--step", "1.4", "--out", str(out)]
    stack = load_stack_config(config).stack
    xs = design.sweep_grid(1.0, 20000.0, 1.4)
    A = whole_array_sweep(stack, 2, xs, 1550.0)[4]
    first = int(np.argmin(np.isfinite(A)))
    assert first >= 2 * _BLOCK_ROWS and not np.isfinite(A[first])
    assert main(argv) == 1
    captured = capsys.readouterr()
    # one line, as test_overflowing_chain_rejected words it, and no warning
    assert captured.err == (f"error: absorptance is not finite at {xs[first]:.6g} nm of layer 2; "
                            "the chain overflows\n")
    assert not out.exists()


def test_public_sweep_owns_the_whole_array_sweep():
    stack = load_stack_config({"cavity": "ssc", "wire": {"thickness_nm": 11.6}}).stack
    xs = np.linspace(1.0, 300.0, 2 * _BLOCK_ROWS + 7)
    result = tmm.sweep(stack, 1, xs, 1550.0)
    fields = (result.r, result.t, result.R, result.T, result.A, result.eta_in)
    for got, want in zip(fields, whole_array_sweep(stack, 1, xs, 1550.0)):
        assert same_bits(got, want)
    arena = _text._ARENA.bytes
    assert arena.size
    for field in fields:
        assert not np.shares_memory(field, arena)


def test_chain_sweep_takes_one_block():
    n, d = np.array([1.5 + 0j]), np.array([10.0])
    with pytest.raises(ValueError, match=f"at most {_BLOCK_ROWS} thicknesses"):
        _kernels.chain_sweep(n, d, 0, np.ones(_BLOCK_ROWS + 1), 0.004, [None])


def test_threads_sweep_at_once():
    """Each thread has its own block arena, which its sweep kernel and its
    encoder share, so threads sweeping and encoding at the same time each get
    the curve and the text that one thread alone gets."""
    stack = load_stack_config({"cavity": "mlc", "wire": {"thickness_nm": 11.6}})
    jobs = [(stack, 0, 1.0, 30.0, 0.004), (stack, 2, 100.0, 400.0, 0.05),
            (stack, 0, 5.0, 9.0, 0.001)]

    def curve(job):
        curves = sweep_stack(job[0], "wire", *job[1:])
        columns = np.stack([curves.A_tmm, curves.eta_ratio])
        return columns, "".join(_text.encode_blocks(curves))

    alone = [curve(job) for job in jobs]
    start = threading.Barrier(len(jobs))
    same = []

    def run(job, want):
        start.wait()
        for _ in range(10):
            columns, text = curve(job)
            same.append(same_bits(columns, want[0]) and text == want[1])

    threads = [threading.Thread(target=run, args=pair) for pair in zip(jobs, alone)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert same.count(True) == 10 * len(jobs)


def test_warm_sweep_allocates_its_four_columns(tmp_path):
    """A warm sweep to a file allocates its four float64 columns, and beyond
    them less than 1 MiB: each block's closed form and text, not the grid's."""
    points = 14_501
    argv = ["sweep", "--cavity", "ssc", "--range", "1:30", "--step", "0.002",
            "--out", str(tmp_path / "curve.csv")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert (tmp_path / "curve.csv").read_text().count("\n") == points + 1
    assert peak <= 4 * 8 * points + (1 << 20), peak


def test_a_thread_holds_one_arena_for_its_sweep_and_its_text():
    """A curve's sweep blocks and its encoded blocks share the thread's one
    arena: a fresh thread's sweep and text peak at the four columns, one
    arena and less than 512 KiB beyond, the closed-form blocks and the text
    pieces. Two workspaces, 776 KiB for the kernel besides the encoder's
    1.1 MiB, peaked at 2622 KiB where one arena peaks at 1846 KiB."""
    peaks = []

    def run():
        tracemalloc.start()
        try:
            curves = sweep_curves(DesignSpec("ssc"), "wire", 1.0, 30.0, 0.002)
            for _ in _text.encode_blocks(curves):
                pass
            peaks.append((tracemalloc.get_traced_memory()[1], curves.x_nm.size,
                          _text._ARENA.bytes.nbytes))
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    [(peak, points, arena)] = peaks
    assert points == 14_501
    assert peak <= 4 * 8 * points + arena + (512 << 10), peak


def test_a_sweep_inside_an_encoded_block_raises():
    """An encoded block's pieces are cut from the thread's arena, so a sweep
    block run between two of them raises where the text would be wrong; one
    run between two encoded blocks changes nothing."""
    stack = load_stack_config({"cavity": "ssc", "wire": {"thickness_nm": 11.6}}).stack
    xs = np.linspace(1.0, 30.0, _BLOCK_ROWS + 1)
    columns = [xs, np.sqrt(xs)]
    text = encode_rows(columns)
    # two columns: a block is 2 * _BLOCK_ROWS cells, cut in three pieces
    pieces = _text.encode_blocks(columns)
    first = [next(pieces) for _ in range(3)]
    tmm.sweep(stack, 1, xs, 1550.0)
    assert "".join(first) + "".join(pieces) == text
    pieces = _text.encode_blocks(columns)
    next(pieces)
    tmm.sweep(stack, 1, xs, 1550.0)
    with pytest.raises(RuntimeError, match="taken by another block"):
        next(pieces)
