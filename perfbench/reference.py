"""Independent output check for the benchmark's CLI commands.

Every number it verifies is recomputed with a scalar ``cmath`` 2x2 chain
written from the formulas in the ``stripcavity.tmm`` module docstring,

    F = [[cosh(g*d), sinh(g*d)/n], [sinh(g*d)*n, cosh(g*d)]],  g = i*k0*n,
    r = (F11*eta_o + F12 - F21*eta_i*eta_o - F22*eta_i) / D,
    t = 2*sqrt(eta_i*eta_o) / D,  D = F11*eta_o + F12 + F21*eta_i*eta_o + F22*eta_i,
    eta_in = (F11*eta_o + F12) / (F21*eta_o + F22),

with its own copy of the built-in 1550 nm constants. It imports nothing from
the package, so a change to the batched kernel, ``tmm.chain`` or the
material table cannot hide a wrong result from it.

Rules, per command:
- exit code, header and data-row count are exact;
- sampled sweep rows: x on the grid, A_tmm and the impedance ratio within
  1e-9 relative of the chain, A_analytic a finite number in [0, 1];
- design reports: filling factor and closed-form wire optimum, the oracle
  absorptance at the oracle thickness, the impedance ratio of the designed
  stack, and both oracle thicknesses sitting on a peak;
- table2: 15 cells, every cell passing, oracle cells on a peak;
- mlc-convergence: sampled A and T rows, and the converged period count.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, replace

from workloads import Command

WAVELENGTH_NM = 1550.0
K0 = 2.0 * math.pi / WAVELENGTH_NM
LINE_NM = 80.0
DEFAULT_SLIT_NM = 80.0
MIRROR_NM = 130.0
INDEX = {
    "Vacuum": 1.0 + 0.0j,
    "NbN": complex(4.905, -4.293),
    "Si": 3.628 + 0.0j,
    "SiO": 1.551 + 0.0j,
    "SiO2": 1.444 + 0.0j,
    "Ta2O5": 2.15 + 0.0j,
    "Ag": complex(0.322, -10.99),
}
PEC_FILM = complex(0.0, -1000.0)  # ideal-mirror surrogate film

REL_TOL = 1e-9
SAMPLED_ROWS = 8
PEAK_PROBE_NM = 0.05  # well beyond the engine's 0.01 nm refinement
CONVERGENCE_STEP = 1e-4

SWEEP_HEADER = "x_nm,A_analytic,A_tmm,eta_ratio"
TABLE2_HEADER = ("cavity,quantity,slit_nm,analytic_nm,oracle_nm,target_nm,"
                 "analytic_pass,oracle_pass,oracle_rel_dev")
DESIGN_KEYS = (
    "cavity", "wavelength_nm", "filling_factor", "wire_analytic_nm", "wire_oracle_nm",
    "absorptance_analytic", "absorptance_oracle", "dielectric_analytic_nm",
    "dielectric_oracle_nm", "dphi_dsc_max", "impedance_match_ratio", "qwt_index",
    "qwt_index_target", "warnings",
)
TABLE2_CELLS = {
    (cavity, quantity, slit)
    for slit in (80.0, 120.0, 160.0)
    for cavity, quantity in (("ssc", "wire"), ("ssc", "dielectric"), ("dsc", "wire"),
                             ("dsc", "dielectric"), ("mlc", "wire"))
}


@dataclass(frozen=True)
class Output:
    """What one command produced: exit code (None if it raised) and text."""

    rc: int | None
    stdout: str
    stderr: str
    file_text: str | None = None

    @property
    def text(self) -> str:
        return self.file_text if self.file_text is not None else self.stdout


@dataclass(frozen=True)
class Cavity:
    cavity: str
    slit_nm: float
    periods: int = 6
    c1: str = "SiO2"
    c2: str = "Ta2O5"

    @classmethod
    def of(cls, cmd: Command) -> "Cavity":
        return cls(
            cmd.cavity,
            cmd.slit_nm if cmd.slit_nm is not None else DEFAULT_SLIT_NM,
            cmd.periods if cmd.periods is not None else 6,
            cmd.c1 or "SiO2",
            cmd.c2 or "Ta2O5",
        )

    @property
    def n_in(self) -> float:
        return INDEX["Si"].real if self.cavity == "dsc" else 1.0

    @property
    def wire_eps(self) -> complex:
        f = LINE_NM / (LINE_NM + self.slit_nm)
        slit = INDEX["SiO"] if self.cavity == "dsc" else INDEX["Vacuum"]
        return INDEX["NbN"] ** 2 * f + slit**2 * (1.0 - f)

    @property
    def wire_n(self) -> complex:
        root = cmath.sqrt(self.wire_eps)
        return -root if root.imag > 0 else root

    def wire_optimum_nm(self) -> float:
        """Closed-form wire optimum: n_i/(k0|eps|), or n_c1^2/(k0 n_i |eps|)."""
        mag = abs(self.wire_eps)
        if self.cavity == "dsc":
            return INDEX["SiO2"].real ** 2 / (K0 * self.n_in * mag)
        return self.n_in / (K0 * mag)

    def wire_stack(self, d_w: float) -> list[tuple[complex, float]]:
        """Layout the wire formulas assume: surrogate film, or the reflector."""
        wire = (self.wire_n, d_w)
        if self.cavity == "ssc":
            return [wire, _qw("SiO"), (PEC_FILM, MIRROR_NM)]
        if self.cavity == "dsc":
            return [_qw("SiO2"), wire, _qw("SiO"), (PEC_FILM, MIRROR_NM)]
        return [wire] + [_qw(self.c1), _qw(self.c2)] * self.periods

    def designed_stack(self, d_w: float, d_c: float | None = None) -> list[tuple[complex, float]]:
        """Layout on the actual silver mirror, spacer at d_c (quarter-wave if None)."""
        if self.cavity == "mlc":
            return self.wire_stack(d_w)
        spacer = _qw("SiO") if d_c is None else (INDEX["SiO"], d_c)
        mirror = (INDEX["Ag"], MIRROR_NM)
        if self.cavity == "ssc":
            return [(self.wire_n, d_w), spacer, mirror]
        return [_qw("SiO2"), (self.wire_n, d_w), spacer, mirror]


def _qw(name: str) -> tuple[complex, float]:
    return INDEX[name], WAVELENGTH_NM / (4.0 * INDEX[name].real)


def optics(n_in: float, layers: list[tuple[complex, float]]) -> tuple[float, float, float]:
    """(A, T, |eta_in|*n_in) of a layer chain between n_in and vacuum."""
    f11, f12, f21, f22 = 1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j
    for n, d in layers:
        gd = 1j * K0 * n * d
        c, s = cmath.cosh(gd), cmath.sinh(gd)
        b, g = s / n, s * n
        f11, f12, f21, f22 = f11 * c + f12 * g, f11 * b + f12 * c, f21 * c + f22 * g, f21 * b + f22 * c
    eta_i, eta_o = 1.0 / n_in, 1.0
    den = f11 * eta_o + f12 + f21 * eta_i * eta_o + f22 * eta_i
    r = (f11 * eta_o + f12 - f21 * eta_i * eta_o - f22 * eta_i) / den
    t = 2.0 * math.sqrt(eta_i * eta_o) / den
    R, T = abs(r) ** 2, abs(t) ** 2
    eta_in = (f11 * eta_o + f12) / (f21 * eta_o + f22)
    return 1.0 - R - T, T, abs(eta_in) * n_in


def absorptance(n_in: float, layers) -> float:
    return optics(n_in, layers)[0]


@dataclass
class Check:
    """Problems found, and the data rows whose last field was recomputed."""

    problems: list[str]
    verified: list[int]

    def close(self, label: str, got: float, want: float, abs_tol: float = 0.0) -> None:
        if not abs(got - want) <= max(REL_TOL * max(abs(got), abs(want)), abs_tol):
            self.problems.append(f"{label}: got {got!r}, independent chain gives {want!r}")

    def peak(self, label: str, n_in: float, stack_at, d: float) -> None:
        """The reported optimum must beat both probes PEAK_PROBE_NM away."""
        a = absorptance(n_in, stack_at(d))
        side = max(absorptance(n_in, stack_at(d - PEAK_PROBE_NM)),
                   absorptance(n_in, stack_at(d + PEAK_PROBE_NM)))
        if side > a + 1e-12:
            self.problems.append(f"{label}: {d!r} nm is not a peak (A {a!r} < {side!r} nearby)")


def check(cmd: Command, out: Output, rng: random.Random) -> Check:
    """Verify one command's output; ``rng`` picks the sampled rows."""
    result = Check([], [])
    if out.rc is None:
        result.problems.append("command raised:\n" + out.stderr)
        return result
    if "Traceback" in out.stderr or "error:" in out.stderr:
        result.problems.append(f"stderr reports a failure: {out.stderr.strip()[-300:]}")
    lines = out.text.splitlines()
    header, rows = (lines[0], lines[1:]) if lines else ("", [])
    if len(rows) != cmd.expected_rows:
        result.problems.append(f"{len(rows)} data rows, expected {cmd.expected_rows}")
        return result
    try:
        if cmd.kind == "design":
            _check_design(cmd, out, header, rows, result)
        elif cmd.kind == "table2":
            _check_table2(out, header, rows, result)
        elif cmd.kind == "mlc-convergence":
            _check_convergence(cmd, out, header, rows, rng, result)
        else:
            _check_sweep(cmd, out, header, rows, rng, result)
    except (ValueError, KeyError, IndexError) as exc:
        result.problems.append(f"unparseable output: {exc!r}")
    return result


def _expect_rc(out: Output, want: int, result: Check) -> None:
    if out.rc != want:
        result.problems.append(f"exit code {out.rc}, expected {want}")


def _check_sweep(cmd, out, header, rows, rng, result) -> None:
    _expect_rc(out, 0, result)
    if header != SWEEP_HEADER:
        result.problems.append(f"header {header!r}")
    cav = Cavity.of(cmd)
    if cmd.variable == "dielectric":
        d_w = cav.wire_optimum_nm()

        def stack_at(x):
            return cav.designed_stack(d_w, x)
    else:
        stack_at = cav.wire_stack
    last = len(rows) - 1
    for i in sorted({0, last, *(rng.randrange(len(rows)) for _ in range(SAMPLED_ROWS))}):
        x_nm, a_analytic, a_tmm, ratio = (float(v) for v in rows[i].split(","))
        x = cmd.lo_nm + i * cmd.step_nm
        result.close(f"row {i} x_nm", x_nm, x)
        if not 0.0 <= a_analytic <= 1.0:
            result.problems.append(f"row {i} A_analytic {a_analytic!r} outside [0, 1]")
        a_ref, _, ratio_ref = optics(cav.n_in, stack_at(x))
        result.close(f"row {i} A_tmm", a_tmm, a_ref)
        result.close(f"row {i} eta_ratio", ratio, ratio_ref)
        result.verified.append(i)


def _check_design(cmd, out, header, rows, result) -> None:
    if header != "key,value":
        result.problems.append(f"header {header!r}")
    pairs = [row.split(",", 1) for row in rows]
    keys = tuple(key for key, _ in pairs)
    if keys != DESIGN_KEYS:
        result.problems.append(f"report keys {keys}")
        return
    data = dict(pairs)
    _expect_rc(out, 2 if data["warnings"] else 0, result)
    if data["cavity"] != cmd.cavity:
        result.problems.append(f"cavity {data['cavity']!r}")
    cav = Cavity.of(cmd)
    value = {key: float(text) for key, text in pairs if text and key not in ("cavity", "warnings")}
    result.close("filling_factor", value["filling_factor"], LINE_NM / (LINE_NM + cav.slit_nm))
    result.close("wire_analytic_nm", value["wire_analytic_nm"], cav.wire_optimum_nm())
    d_or = value["wire_oracle_nm"]
    result.close("absorptance_oracle", value["absorptance_oracle"],
                 absorptance(cav.n_in, cav.wire_stack(d_or)))
    result.peak("wire_oracle_nm", cav.n_in, cav.wire_stack, d_or)
    d_an = value["wire_analytic_nm"]
    d_c = value.get("dielectric_analytic_nm")
    result.close("impedance_match_ratio", value["impedance_match_ratio"],
                 optics(cav.n_in, cav.designed_stack(d_an, d_c))[2])
    if cmd.cavity != "mlc":
        result.peak("dielectric_oracle_nm", cav.n_in,
                    lambda x: cav.designed_stack(d_an, x), value["dielectric_oracle_nm"])
    result.verified += [keys.index(k) for k in
                        ("filling_factor", "wire_analytic_nm", "absorptance_oracle",
                         "impedance_match_ratio")]


def _check_table2(out, header, rows, result) -> None:
    _expect_rc(out, 0, result)
    if header != TABLE2_HEADER:
        result.problems.append(f"header {header!r}")
    if "table cells: 15 total, 15 pass, 0 fail" not in out.stderr:
        result.problems.append(f"table2 summary: {out.stderr.strip()!r}")
    seen = set()
    for i, row in enumerate(rows):
        cavity, quantity, slit, analytic_nm, oracle_nm, _, a_ok, o_ok, rel = row.split(",")
        slit, analytic_nm, oracle_nm = float(slit), float(analytic_nm), float(oracle_nm)
        seen.add((cavity, quantity, slit))
        if (a_ok, o_ok) != ("true", "true"):
            result.problems.append(f"cell {cavity}/{quantity}/{slit} does not pass")
        # recomputed from 12-digit cells, so only good to about 1e-12 absolute
        result.close(f"cell {i} oracle_rel_dev", float(rel),
                     abs(oracle_nm - analytic_nm) / analytic_nm, abs_tol=1e-11)
        cav = Cavity(cavity, slit)
        d_w = cav.wire_optimum_nm()
        if quantity == "wire":
            result.close(f"cell {i} analytic_nm", analytic_nm, d_w)
            result.peak(f"cell {i} oracle_nm", cav.n_in, cav.wire_stack, oracle_nm)
        else:
            result.peak(f"cell {i} oracle_nm", cav.n_in,
                        lambda x, cav=cav, d_w=d_w: cav.designed_stack(d_w, x), oracle_nm)
        result.verified.append(i)
    if seen != TABLE2_CELLS:
        result.problems.append(f"table2 cells {sorted(seen)}")


def _check_convergence(cmd, out, header, rows, rng, result) -> None:
    _expect_rc(out, 0, result)
    if header != "periods,A_tmm,T_tmm":
        result.problems.append(f"header {header!r}")
    table = [row.split(",") for row in rows]
    if [int(p) for p, _, _ in table] != list(range(1, cmd.max_periods + 1)):
        result.problems.append("period column is not 1..max_periods")
        return
    a = [float(v) for _, v, _ in table]
    converged = next((i + 1 for i in range(len(a) - 1)
                      if abs(a[i + 1] - a[i]) < CONVERGENCE_STEP), None)
    if converged != cmd.expected_converged:
        result.problems.append(f"rows converge at {converged}, expected {cmd.expected_converged}")
    if f"converged at periods = {cmd.expected_converged} " not in out.stderr:
        result.problems.append(f"convergence summary: {out.stderr.strip()!r}")
    cav = Cavity.of(cmd)
    d_w = cav.wire_optimum_nm()
    last = len(rows) - 1
    for i in sorted({0, last, *(rng.randrange(len(rows)) for _ in range(SAMPLED_ROWS))}):
        a_ref, t_ref, _ = optics(cav.n_in, replace(cav, periods=i + 1).wire_stack(d_w))
        result.close(f"row {i} A_tmm", a[i], a_ref)
        result.close(f"row {i} T_tmm", float(table[i][2]), t_ref)
        result.verified.append(i)


def self_test(cmd: Command, out: Output, sample_seed: int) -> list[str]:
    """Show that the checker passes ``out`` and catches a corrupted copy.

    Two corruptions: the last field of the first verified row scaled by
    1 + 1e-6, and the last data row dropped. Returns what went wrong.
    """
    clean = check(cmd, out, random.Random(sample_seed))
    if clean.problems:
        return [f"self-test: clean output rejected: {clean.problems[:3]}"]
    lines = out.text.splitlines(keepends=True)
    row = 1 + clean.verified[0]
    head, _, last = lines[row].rstrip("\n").rpartition(",")
    bumped = float(last) * (1.0 + 1e-6) if float(last) else 1e-6
    corrupted = {
        "scaled field": lines[:row] + [f"{head},{format(bumped, '.12g')}\n"] + lines[row + 1:],
        "dropped row": lines[:-1],
    }
    failures = []
    for name, text in corrupted.items():
        text = "".join(text)
        bad = replace(out, file_text=text) if out.file_text is not None else replace(out, stdout=text)
        if not check(cmd, bad, random.Random(sample_seed)).problems:
            failures.append(f"self-test: {cmd.kind} output with a {name} passed the checker")
    return failures
