"""Command-line front end.

Subcommands: ``design`` (closed-form plus oracle design report), ``sweep``
(absorptance/impedance curves over a thickness), ``table2`` (reference-table
regression with pass/fail flags), ``impedance`` (wire-thickness impedance
curves), ``mlc-convergence`` (reflector period study).

Exit codes: 0 success, 2 success with validity warnings, 1 error. Errors are
one line on stderr prefixed with ``error:``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__, tmm
from ._text import encode_rows
from .design import (
    CAVITIES,
    SWEEP_DEFAULTS,
    CurveSet,
    DesignReport,
    DesignSpec,
    mlc_convergence,
    reproduce_table2,
    run_design_flow,
    sweep_curves,
    sweep_grid,
)
from .materials import MaterialRegistry, load_registry
from .stack import load_stack_config

__all__ = ["main"]

_SWEEP_HEADER = ("x_nm", "A_analytic", "A_tmm", "eta_ratio")


class CliError(Exception):
    """Maps to exit code 1 and a single-line error message."""


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for validity-warning-only runs, so argument
    # errors must not use argparse's default SystemExit(2)
    def error(self, message):
        raise CliError(message)


def _message(exc: KeyError | ValueError) -> str:
    # str() of a KeyError is the repr of its argument, quotes included
    return str(exc.args[0]) if isinstance(exc, KeyError) else str(exc)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buffer.getvalue()


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise CliError(f"cannot parse range {text!r}; expected LO:HI") from exc
    return lo, hi


def _registry_from(args) -> MaterialRegistry:
    try:
        return load_registry(args.materials)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from exc


# Spec flags by parser dest, and the DesignSpec field each sets. A flag that
# is absent leaves the field's default; `sweep --stack` refuses one present.
_SPEC_FIELDS = {
    "wavelength_nm": "wavelength_nm", "line_nm": "line_nm", "slit_nm": "slit_nm",
    "wire_material": "wire_material", "slit_material": "slit_material",
    "c1": "low_index", "c2": "high_index", "mirror": "mirror", "periods": "periods",
}


def _spec_from(args) -> DesignSpec:
    kwargs = {}
    for dest, field in _SPEC_FIELDS.items():
        if hasattr(args, dest):
            kwargs[field] = getattr(args, dest)
    if hasattr(args, "f"):
        if "slit_nm" in kwargs:
            raise CliError("give either --slit-nm or --f, not both")
        if not 0 < args.f <= 1:
            raise CliError(f"--f must lie in (0, 1], got {args.f}")
        kwargs["slit_nm"] = kwargs.get("line_nm", DesignSpec.line_nm) * (1.0 - args.f) / args.f
    try:
        return DesignSpec(cavity=args.cavity, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _report_rows(report: DesignReport):
    data = report.as_dict()
    data["warnings"] = "; ".join(report.warnings)
    return [(key, _fmt(value)) for key, value in data.items()]


def _json_safe(value):
    """``value`` with every non-finite float made None: JSON has no NaN or
    infinities, so a report writes them as null (the CSV keeps nan and inf)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_safe(item) for item in value]
    return value


def _emit(args, csv_text, report) -> None:
    """Write the rendering that ``--format`` selects; each of ``csv_text``
    and ``report`` builds one when called, so only the selected one is built."""
    if args.format == "structured-report":
        _write_text(args.out, json.dumps(_json_safe(report()), indent=2, allow_nan=False) + "\n")
    else:
        _write_text(args.out, csv_text())


def _cmd_design(args) -> int:
    registry = _registry_from(args)
    try:
        report = run_design_flow(_spec_from(args), registry)
    except (KeyError, ValueError) as exc:
        raise CliError(_message(exc)) from exc
    _emit(args, lambda: _csv_text(("key", "value"), _report_rows(report)), report.as_dict)
    return 2 if report.warnings else 0


def _emit_curves(args, curves: CurveSet) -> None:
    columns = (curves.x_nm, curves.A_analytic, curves.A_tmm, curves.eta_ratio)
    _emit(
        args,
        lambda: ",".join(_SWEEP_HEADER) + "\n" + encode_rows(columns),
        lambda: [dict(zip(_SWEEP_HEADER, row)) for row in zip(*(c.tolist() for c in columns))],
    )


def _grid_from(args, variable: str) -> tuple[float, float, float]:
    lo, hi, step = SWEEP_DEFAULTS[variable]
    if args.range:
        lo, hi = _parse_range(args.range)
    if args.step is not None:
        step = args.step
    return lo, hi, step


def _sweep_common(args, registry, variable: str) -> CurveSet:
    try:
        return sweep_curves(_spec_from(args), variable, *_grid_from(args, variable), registry)
    except (KeyError, ValueError) as exc:
        raise CliError(_message(exc)) from exc


def _custom_sweep(args, registry) -> CurveSet:
    for dest in (*_SPEC_FIELDS, "f"):
        if hasattr(args, dest):
            flag = "--" + dest.replace("_", "-")
            raise CliError(f"{flag} does not apply with --stack; the stack config sets it")
    try:
        config = load_stack_config(args.stack, registry)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    index = args.layer
    if index is None:
        index = config.wire_layer_index if args.variable == "wire" else config.dielectric_layer_index
    if index is None:
        reason = ("a custom stack names no layer to sweep" if config.cavity == "custom"
                  else f"the {config.cavity} layout has no dielectric spacer")
        raise CliError(f"{reason}; --layer picks the swept layer")
    # Custom stacks default to the wire range whichever layer is swept.
    try:
        xs = sweep_grid(*_grid_from(args, "wire"))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    try:
        result = tmm.sweep(config.stack, index, xs, config.wavelength_nm)
    except (IndexError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    n_i = config.stack.input.material.optical_constant.n_re
    return CurveSet(
        "custom", "nm", xs, np.full(len(xs), np.nan), result.A, np.abs(result.eta_in) * n_i
    )


def _cmd_sweep(args) -> int:
    registry = _registry_from(args)
    if args.stack is not None:
        curves = _custom_sweep(args, registry)
    elif args.cavity is None:
        # --cavity is optional only next to --stack, which it does not affect
        raise CliError("the following arguments are required: --cavity")
    else:
        curves = _sweep_common(args, registry, args.variable)
    _emit_curves(args, curves)
    return 0


def _cmd_impedance(args) -> int:
    registry = _registry_from(args)
    _emit_curves(args, _sweep_common(args, registry, "wire"))
    return 0


def _cmd_table2(args) -> int:
    registry = _registry_from(args)
    report = reproduce_table2(registry)
    header = (
        "cavity", "quantity", "slit_nm", "analytic_nm", "oracle_nm",
        "target_nm", "analytic_pass", "oracle_pass", "oracle_rel_dev",
    )
    rows = [
        (
            c.cavity, c.quantity, c.slit_nm, c.analytic_nm, c.oracle_nm,
            c.target_nm, c.analytic_ok, c.oracle_ok, c.oracle_rel_dev,
        )
        for c in report.cells
    ]
    _emit(args, lambda: _csv_text(header, rows), lambda: [dict(zip(header, row)) for row in rows])
    failed = sum(1 for c in report.cells if not (c.analytic_ok and c.oracle_ok))
    print(f"table cells: {len(report.cells)} total, {len(report.cells) - failed} pass, {failed} fail", file=sys.stderr)
    if failed:
        raise CliError(f"{failed} table cells outside tolerance")
    return 0


def _cmd_mlc_convergence(args) -> int:
    registry = _registry_from(args)
    spec = _spec_from(args)
    try:
        report = mlc_convergence(spec, args.max_periods, args.wire_nm, registry)
    except (KeyError, ValueError) as exc:
        raise CliError(_message(exc)) from exc
    header = ("periods", "A_tmm", "T_tmm")
    rows = [(r.periods, r.A, r.T) for r in report.rows]
    # all numbers: csv.writer would quote no cell, and "%.12g" is _fmt's format
    template = ",".join(header) + "\n" + "%d,%.12g,%.12g\n" * len(rows)
    _emit(args, lambda: template % tuple(v for row in rows for v in row), lambda: {
        "rows": [dict(zip(header, row)) for row in rows],
        "converged_periods": report.converged_periods,
        "analytic_A": report.analytic_A,
        "d_w_nm": report.d_w_nm,
    })
    label = report.converged_periods if report.converged_periods is not None else "none"
    print(f"converged at periods = {label} (step threshold 1e-4)", file=sys.stderr)
    return 0


def _add_common(parser: argparse.ArgumentParser, cavity_required: bool = True) -> None:
    parser.add_argument("--cavity", choices=CAVITIES, required=cavity_required)
    spec = functools.partial(parser.add_argument, default=argparse.SUPPRESS)
    spec("--wavelength-nm", type=float)
    spec("--line-nm", type=float)
    spec("--slit-nm", type=float)
    spec("--f", type=float, help="filling factor; alternative to --slit-nm")
    spec("--wire-material")
    spec("--slit-material")
    spec("--c1", help="reflector layer adjacent to the wire")
    spec("--c2", help="second reflector layer")
    spec("--mirror", help="pec | pec-surrogate | material name (default Ag)")
    spec("--periods", type=int)
    _add_io(parser)


def _add_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--materials", default=None, help="material config file")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "structured-report"), default="csv")


def _design_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.set_defaults(func=_cmd_design)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    _add_common(p, cavity_required=False)
    p.add_argument("--variable", choices=("wire", "dielectric"), default="wire")
    p.add_argument("--range", default=None, help="LO:HI in nm")
    p.add_argument("--step", type=float, default=None, help="step in nm")
    p.add_argument("--stack", default=None, help="stack config file (custom cavities)")
    p.add_argument("--layer", type=int, default=None, help="swept layer index for custom stacks")
    p.set_defaults(func=_cmd_sweep)


def _impedance_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--range", default=None, help="LO:HI in nm (default 1:30)")
    p.add_argument("--step", type=float, default=None, help="step in nm (default 0.1)")
    p.set_defaults(func=_cmd_impedance)


def _table2_args(p: argparse.ArgumentParser) -> None:
    _add_io(p)
    p.set_defaults(func=_cmd_table2)


def _mlc_convergence_args(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--max-periods", type=int, default=12)
    p.add_argument("--wire-nm", type=float, default=None,
                   help="wire thickness (default: closed-form optimum)")
    p.set_defaults(func=_cmd_mlc_convergence)


# name -> (help line, adder of the subcommand's flags), in help order
_COMMANDS = {
    "design": ("closed-form design with oracle refinement", _design_args),
    "sweep": ("absorptance and impedance curves over a thickness", _sweep_args),
    "impedance": ("wire-thickness impedance-match curves", _impedance_args),
    "table2": ("reference-table regression with pass/fail flags", _table2_args),
    "mlc-convergence": ("reflector period-count study", _mlc_convergence_args),
}


@functools.cache  # built once per process and command; parse_args leaves it unchanged
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full command tree, or only ``command``'s subparser under the same
    top-level parser: a run pays for the flags of the command it runs."""
    parser = _Parser(
        prog="stripcavity",
        description="Design and analyse optical cavities for superconducting strip single-photon detectors.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in _COMMANDS.items():
        if command is None or name == command:
            add_args(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # --help, --version, no command and an unknown command see the full tree
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _build_parser(command)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
