"""Acceptance checks: every headline tolerance of the package in one module.

Each test prints a `[acceptance] <name>: PASS/FAIL` line (run with `-s` to
see them). Timed tests time the call they check with `time.perf_counter`;
the engine is plain numpy, so there is nothing to compile or warm first.
"""

import math
import time

import numpy as np

from stripcavity import _kernels, analytic
from stripcavity.design import (
    DIELECTRIC_TARGETS_NM,
    WIRE_TARGETS_NM,
    DesignSpec,
    build_context,
    mlc_convergence,
    reproduce_table2,
    sweep_curves,
)
from stripcavity.materials import Material, OpticalConstant, builtin_registry
from stripcavity.stack import (
    Layer,
    Medium,
    Stack,
    WireGeometry,
    build_dsc,
    build_mlc,
    build_ssc,
)
from stripcavity.tmm import input_impedance, scatter

REG = builtin_registry()
LAMBDA = 1550.0
K0 = 2.0 * math.pi / LAMBDA
VACUUM = Medium(REG.get("Vacuum"))

SLITS = (80.0, 120.0, 160.0)


def report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    return ok


def ideal_mirror_stack(cavity: str, d_w: float, slit_nm: float = 80.0) -> Stack:
    """Quarter-wave layout backed by the ideal-mirror surrogate (or reflector)."""
    if cavity == "ssc":
        wire = WireGeometry(80.0, slit_nm, REG.get("NbN"), REG.get("Vacuum"), d_w)
        return build_ssc(wire)
    if cavity == "dsc":
        wire = WireGeometry(80.0, slit_nm, REG.get("NbN"), REG.get("SiO"), d_w)
        return build_dsc(wire)
    wire = WireGeometry(80.0, slit_nm, REG.get("NbN"), REG.get("Vacuum"), d_w)
    return build_mlc(wire)


def test_reference_table_analytic():
    """Closed-form optima land on the published rounded values.

    Wire: 11.6/14.4/17.3 (single-side and reflector), 6.6/8.2/9.8
    (double-side), within 0.1 nm. Dielectric: 211/210/209 and 216/215/213,
    within 1 nm. Must complete in under a second.
    """
    start = time.perf_counter()
    failures = []
    for slit in SLITS:
        for cavity in ("ssc", "dsc", "mlc"):
            ctx = build_context(DesignSpec(cavity=cavity, slit_nm=slit))
            wire_opt = (
                analytic.wire_optimum_dsc(ctx) if cavity == "dsc" else analytic.wire_optimum_ssc(ctx)
            )
            target = WIRE_TARGETS_NM[(cavity, slit)]
            if abs(round(wire_opt.d_opt_nm, 1) - target) > 0.1 + 1e-9:
                failures.append(f"{cavity} wire slit={slit}: {wire_opt.d_opt_nm:.3f} vs {target}")
            if cavity == "mlc":
                continue
            diel_opt = (
                analytic.dielectric_optimum_dsc(ctx)
                if cavity == "dsc"
                else analytic.dielectric_optimum_ssc(ctx)
            )
            target = DIELECTRIC_TARGETS_NM[(cavity, slit)]
            if abs(round(diel_opt.d_opt_nm) - target) > 1.0 + 1e-9:
                failures.append(f"{cavity} diel slit={slit}: {diel_opt.d_opt_nm:.2f} vs {target}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    ok = report("reference-table analytic columns", not failures, f"{elapsed * 1e3:.0f} ms")
    assert ok, failures


def test_reference_table_oracle():
    """Exact-engine optima agree with the closed forms: wire within 2%,
    dielectric within 6%, on all fifteen cells, in under five seconds."""
    start = time.perf_counter()
    table = reproduce_table2()
    elapsed = time.perf_counter() - start
    failures = [
        f"{c.cavity} {c.quantity} slit={c.slit_nm}: dev {c.oracle_rel_dev:.4f}"
        for c in table.cells
        if not c.oracle_ok
    ]
    wire_cells = [c for c in table.cells if c.quantity == "wire"]
    diel_cells = [c for c in table.cells if c.quantity == "dielectric"]
    if len(wire_cells) != 9 or len(diel_cells) != 6:
        failures.append("cell coverage wrong")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    worst = max(c.oracle_rel_dev for c in table.cells)
    ok = report(
        "reference-table oracle columns",
        not failures,
        f"worst dev {worst:.4f}, {elapsed * 1e3:.0f} ms",
    )
    assert ok, failures


def test_impedance_matching():
    """At each closed-form wire optimum the exact input impedance matches the
    input medium within 2%; at half and double thickness the mismatch exceeds
    0.2 (quarter-wave layouts with the ideal-mirror surrogate)."""
    failures = []
    details = []
    for cavity in ("ssc", "dsc", "mlc"):
        spec = DesignSpec(cavity=cavity)
        ctx = build_context(spec)
        wire_opt = (
            analytic.wire_optimum_dsc(ctx) if cavity == "dsc" else analytic.wire_optimum_ssc(ctx)
        )
        d_star = wire_opt.d_opt_nm
        ratios = {}
        for scale in (1.0, 0.5, 2.0):
            stack = ideal_mirror_stack(cavity, scale * d_star)
            eta = input_impedance(stack, LAMBDA)
            ratios[scale] = abs(eta) * ctx.n_i
        details.append(f"{cavity}: {ratios[1.0]:.4f}")
        if not 0.98 <= ratios[1.0] <= 1.02:
            failures.append(f"{cavity} matched ratio {ratios[1.0]:.4f} outside [0.98, 1.02]")
        for scale in (0.5, 2.0):
            if abs(ratios[scale] - 1.0) <= 0.2:
                failures.append(f"{cavity} {scale}x ratio {ratios[scale]:.4f} too close to 1")
    ok = report("impedance matching at the optimum", not failures, "; ".join(details))
    assert ok, failures


def test_peak_absorptance():
    """Exact absorptance at the single-side f = 0.5 design point is
    0.994 +/- 0.003 and matches the reflector-backed cavity at the same wire
    permittivity within 0.002 (12 reflector pairs, where the per-pair step
    is below 1e-4)."""
    ctx = build_context(DesignSpec(cavity="ssc"))
    d_star = analytic.wire_optimum_ssc(ctx).d_opt_nm
    wire = WireGeometry(80.0, 80.0, REG.get("NbN"), REG.get("Vacuum"), d_star)
    a_ssc = scatter(build_ssc(wire), LAMBDA).A
    a_mlc = scatter(build_mlc(wire, periods=12), LAMBDA).A
    failures = []
    if abs(a_ssc - 0.994) > 0.003:
        failures.append(f"single-side design point A = {a_ssc:.5f} not 0.994 +/- 0.003")
    if abs(a_ssc - a_mlc) > 0.002:
        failures.append(f"|A_ssc - A_mlc| = {abs(a_ssc - a_mlc):.5f} > 0.002")
    ok = report(
        "peak absorptance at the design point",
        not failures,
        f"A_ssc = {a_ssc:.5f}, A_mlc = {a_mlc:.5f}",
    )
    assert ok, failures


def test_curve_agreement():
    """Closed forms track the exact engine: wire curves within 0.02 over
    2-25 nm for all three cavities, spacer curves within 0.03 for +/-40 nm
    around quarter-wave. Beyond that window the deviation keeps growing;
    the tail values are printed but only the bounded window is asserted."""
    failures = []
    details = []
    for cavity in ("ssc", "dsc", "mlc"):
        curves = sweep_curves(DesignSpec(cavity=cavity), "wire", 2.0, 25.0, 0.1)
        dev = np.max(np.abs(curves.A_analytic - curves.A_tmm))
        details.append(f"{cavity} wire {dev:.4f}")
        if dev >= 0.02:
            failures.append(f"{cavity} wire curve deviation {dev:.4f} >= 0.02")

    for cavity, n_c in (("ssc", 1.551), ("dsc", 1.551)):
        quarter = LAMBDA / (4 * n_c)
        curves = sweep_curves(
            DesignSpec(cavity=cavity), "dielectric", quarter - 40.0, quarter + 40.0, 1.0
        )
        dev = np.max(np.abs(curves.A_analytic - curves.A_tmm))
        details.append(f"{cavity} diel {dev:.4f}")
        if dev >= 0.03:
            failures.append(f"{cavity} dielectric curve deviation {dev:.4f} >= 0.03")
        tail = sweep_curves(
            DesignSpec(cavity=cavity), "dielectric", quarter + 40.0, quarter + 100.0, 20.0
        )
        tail_devs = np.abs(tail.A_analytic - tail.A_tmm)
        print(
            f"[acceptance]   {cavity} dielectric deviation beyond +40 nm: "
            + ", ".join(f"{d:.4f}" for d in tail_devs)
        )
    ok = report("analytic-vs-exact curve agreement", not failures, "; ".join(details))
    assert ok, failures


def test_property_suite():
    """Bulk structural properties of the exact engine, under ten seconds:
    unit determinant on 1000 random layers, energy conservation on 1000
    random lossless stacks, layer-split invariance, the bare-interface
    reflectance against the independent two-index formula, the quarter-wave
    pair diagonal form, and detuning-trade invariance."""
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2024)

    # determinant = 1, relative to the entry scale float64 can support
    worst_det = 0.0
    for _ in range(1000):
        oc = OpticalConstant(rng.uniform(1.0, 6.0), rng.uniform(0.0, 10.0))
        d = rng.uniform(1e-9, LAMBDA)
        f11, f12, f21, f22 = _kernels.chain_product(np.array([oc.n]), np.array([d]), range(1), K0)
        scale = max(1.0, abs(f11 * f22), abs(f12 * f21))
        worst_det = max(worst_det, abs(f11 * f22 - f12 * f21 - 1.0) / scale)
    if worst_det >= 1e-12:
        failures.append(f"det deviation {worst_det:.2e} >= 1e-12")

    # energy conservation on lossless stacks
    media = [REG.get("Vacuum"), REG.get("Si"), REG.get("SiO2"), REG.get("Ta2O5")]
    worst_a = 0.0
    for _ in range(1000):
        layers = tuple(
            Layer(Material("d", OpticalConstant(rng.uniform(1.0, 4.0))), rng.uniform(1.0, 600.0))
            for _ in range(rng.integers(0, 7))
        )
        stack = Stack(
            Medium(media[rng.integers(0, len(media))]),
            layers,
            Medium(media[rng.integers(0, len(media))]),
        )
        worst_a = max(worst_a, abs(scatter(stack, LAMBDA).A))
    if worst_a >= 1e-10:
        failures.append(f"lossless |A| {worst_a:.2e} >= 1e-10")

    # splitting a layer in two changes nothing
    base = ideal_mirror_stack("ssc", 11.5728)
    half = Layer(base.layers[0].material, base.layers[0].thickness_nm / 2)
    split = Stack(base.input, (half, half, *base.layers[1:]), base.output)
    res_a, res_b = scatter(base, LAMBDA), scatter(split, LAMBDA)
    if abs(res_a.r - res_b.r) >= 1e-12 or abs(res_a.t - res_b.t) >= 1e-12:
        failures.append("layer-split invariance broken")

    # bare interface against the independent two-index reflectance
    res = scatter(Stack(VACUUM, (), Medium(REG.get("Si"))), LAMBDA)
    n_o = REG.get("Si").optical_constant.n_re
    fresnel = (1.0 - n_o) ** 2 / (1.0 + n_o) ** 2
    if abs(res.R - fresnel) >= 1e-4 or abs(res.R - 0.3224512176) >= 1e-4:
        failures.append(f"interface reflectance {res.R:.6f} vs {fresnel:.6f}")

    # quarter-wave pair collapses to the impedance-ratio diagonal
    n1, n2 = 1.444, 2.15
    pair = _kernels.chain_product(
        np.array([n1, n2], np.complex128), np.array([LAMBDA / (4 * n1), LAMBDA / (4 * n2)]),
        range(2), K0,
    )
    expected = (-(n2 / n1), 0.0j, 0.0j, -(n1 / n2))
    if max(abs(got - want) for got, want in zip(pair, expected)) >= 1e-12:
        failures.append("quarter-wave pair form broken")

    # trading detuning between the two spacers leaves absorptance unchanged
    ctx = build_context(DesignSpec(cavity="dsc"))
    combined = analytic.combine_dsc_detunings(0.04, -0.01, ctx)
    a_ref = analytic.absorptance_dsc_dielectric(combined, ctx)
    for delta in (0.02, -0.05):
        traded = analytic.combine_dsc_detunings(
            0.04 + delta * ctx.n_c2 / ctx.n_c1, -0.01 - delta, ctx
        )
        if abs(analytic.absorptance_dsc_dielectric(traded, ctx) - a_ref) >= 1e-12:
            failures.append("detuning trade invariance broken")

    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    ok = report("property suite", not failures, f"{elapsed:.2f} s")
    assert ok, failures


def test_property_mlc_convergence_gate():
    """Reflector convergence gate: the absorptance step |A(N) - A(N+1)| must
    drop below 1e-4 by eight pairs.

    For the 1.444/2.15 index contrast the residual transmission shrinks by
    (1.444/2.15)**2 = 0.45 per pair, so the 1e-4 step threshold is first met
    at eleven pairs (the 1e-3 threshold is met exactly at eight). The gate is
    asserted as stated and the measured convergence is printed alongside.
    """
    result = mlc_convergence(DesignSpec(cavity="mlc"), 14, d_w_nm=11.6)
    steps = {
        periods: abs(nxt - A)
        for periods, A, nxt in zip(range(1, len(result.A)), result.A, result.A[1:])
    }
    ok = result.converged_periods is not None and result.converged_periods <= 8
    report(
        "reflector convergence gate (step < 1e-4 by 8 pairs)",
        ok,
        f"first step below 1e-4 at N = {result.converged_periods}; "
        f"step at N=8: {steps[8]:.2e}",
    )
    assert ok, (
        f"smallest period count with |A(N) - A(N+1)| < 1e-4 is "
        f"{result.converged_periods}, above the gate of 8; the step at N = 8 "
        f"is {steps[8]:.2e} and shrinks by only ~0.45 per added pair"
    )


def test_oracle_substitution_note():
    """The reference simulation columns cannot be regenerated here; the exact
    transfer-matrix engine substitutes for them, and the tolerance bands plus
    the property suite above carry the comparison."""
    report(
        "oracle substitution",
        True,
        "exact transfer-matrix engine stands in for the external solvers",
    )
