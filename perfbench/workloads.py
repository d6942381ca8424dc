"""Workload definitions: the CLI commands one closed-loop pass runs.

A workload turns a seed into an endless sequence of passes. The seed only
draws the slit width of the patterned wire (60-200 nm), which leaves the
amount of work per command unchanged, so runs with different seeds compare.
The wavelength stays at 1550 nm because every built-in optical constant is a
1550 nm value.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

SLIT_RANGE_NM = (60.0, 200.0)


@dataclass(frozen=True)
class Command:
    """One CLI invocation, described as data so the checker can rebuild it.

    ``kind`` is ``design``, ``sweep``, ``impedance``, ``table2`` or
    ``mlc-convergence``. ``slit_nm`` None keeps the CLI default (80 nm).
    Sweeps and impedance curves are written to a file with ``--out``; the
    other commands write to standard output.
    """

    kind: str
    cavity: str | None = None
    slit_nm: float | None = None
    periods: int | None = None
    c1: str | None = None
    c2: str | None = None
    variable: str | None = None
    lo_nm: float | None = None
    hi_nm: float | None = None
    step_nm: float | None = None
    max_periods: int | None = None
    expected_converged: int | None = None

    @property
    def writes_file(self) -> bool:
        return self.kind in ("sweep", "impedance")

    @property
    def expected_rows(self) -> int:
        """Data rows the command must emit, computed without numpy."""
        if self.writes_file:
            return math.ceil((self.hi_nm + 0.5 * self.step_nm - self.lo_nm) / self.step_nm)
        if self.kind == "design":
            return 14
        if self.kind == "table2":
            return 15
        return self.max_periods

    def argv(self, out_path: str | None = None) -> list[str]:
        argv = [self.kind]
        if self.cavity is not None:
            argv += ["--cavity", self.cavity]
        if self.slit_nm is not None:
            argv += ["--slit-nm", repr(self.slit_nm)]
        if self.periods is not None:
            argv += ["--periods", str(self.periods)]
        if self.c1 is not None:
            argv += ["--c1", self.c1, "--c2", self.c2]
        if self.variable is not None:
            argv += ["--variable", self.variable]
        if self.lo_nm is not None:
            argv += ["--range", f"{self.lo_nm!r}:{self.hi_nm!r}", "--step", repr(self.step_nm)]
        if self.max_periods is not None:
            argv += ["--max-periods", str(self.max_periods)]
        if self.writes_file:
            argv += ["--out", out_path]
        return argv


def _design_mix(slit: float) -> list[Command]:
    return [
        Command("design", cavity="ssc", slit_nm=slit),
        Command("design", cavity="dsc", slit_nm=slit),
        Command("design", cavity="mlc", slit_nm=slit),
        Command("table2"),
        Command("mlc-convergence", cavity="mlc", max_periods=12, expected_converged=11),
    ]


def _sweep_large(slit: float) -> list[Command]:
    return [
        Command("sweep", cavity="ssc", slit_nm=slit, variable="wire",
                lo_nm=1.0, hi_nm=30.0, step_nm=0.002),
        Command("sweep", cavity="dsc", slit_nm=slit, variable="dielectric",
                lo_nm=150.0, hi_nm=300.0, step_nm=0.01),
        Command("impedance", cavity="mlc", slit_nm=slit,
                lo_nm=1.0, hi_nm=30.0, step_nm=0.002),
    ]


def _deep_reflector(slit: float) -> list[Command]:
    pair = {"c1": "SiO2", "c2": "SiO"}
    return [
        Command("design", cavity="mlc", slit_nm=slit, periods=80, **pair),
        Command("impedance", cavity="mlc", slit_nm=slit, periods=80,
                lo_nm=1.0, hi_nm=30.0, step_nm=0.02, **pair),
        Command("mlc-convergence", cavity="mlc", max_periods=120, expected_converged=51, **pair),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[float], list[Command]]  # slit_nm -> the commands of one pass
    # Tail percentile: the highest of p99.9/p99/p95/p90/p75 that leaves at
    # least ten passes above it in a 30 s run even when the host runs at
    # half speed (design-mix >= 300 passes, deep-reflector >= 150, sweep-large >= 50).
    tail_pct: float

    def passes(self, seed: int) -> Iterator[list[Command]]:
        rng = random.Random(seed)
        while True:
            yield self.build(round(rng.uniform(*SLIT_RANGE_NM), 2))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "design-mix",
            "everyday design flow: design x3 cavities, table2, mlc-convergence; "
            "many small argmax searches on 2-13 layer stacks",
            _design_mix, 95.0,
        ),
        Workload(
            "sweep-large",
            "three 15k-row sweep and impedance CSVs to files per pass; per-row "
            "Python (CSV formatting, row objects, scalar closed forms) dominates",
            _sweep_large, 75.0,
        ),
        Workload(
            "deep-reflector",
            "SiO2/SiO reflector of 80-120 periods: deep 161-241 layer stacks "
            "where the chain kernel and the stack builder dominate",
            _deep_reflector, 90.0,
        ),
    )
}
