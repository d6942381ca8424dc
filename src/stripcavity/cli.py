"""Command-line front end.

Subcommands: ``design`` (closed-form plus oracle design report), ``sweep``
(absorptance/impedance curves over a thickness), ``table2`` (reference-table
regression with pass/fail flags), ``impedance`` (wire-thickness impedance
curves), ``mlc-convergence`` (reflector period study).

Exit codes: 0 success, 2 success with validity warnings, 1 error. An error
is a refusal, an ``InputError`` from anywhere in the package, printed as one
line on stderr prefixed with ``error:``.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import sys
from types import SimpleNamespace

from . import __version__
from ._text import encode_blocks
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
    sweep_stack,
)
from .materials import InputError, load_registry
from .stack import load_stack_config

__all__ = ["main"]

_SWEEP_HEADER = ("x_nm", "A_analytic", "A_tmm", "eta_ratio")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_text(path: str | None, chunks) -> None:
    """Write the strings of ``chunks`` in turn to ``path``, or to stdout."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        try:
            with open(path, "w", newline="") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}") from exc


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
        raise InputError(f"cannot parse range {text!r}; expected LO:HI") from exc
    return lo, hi


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
            raise InputError("give either --slit-nm or --f, not both")
        if not 0 < args.f <= 1:
            raise InputError(f"--f must lie in (0, 1], got {args.f}")
        line_nm = kwargs.get("line_nm", DesignSpec._field_defaults["line_nm"])
        kwargs["slit_nm"] = line_nm * (1.0 - args.f) / args.f
    return DesignSpec(cavity=args.cavity, **kwargs)


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
    and ``report`` builds one when called, so only the selected one is built.
    ``csv_text`` gives the CSV as strings to write in turn."""
    if args.format == "structured-report":
        import json  # only a structured report pays for the encoder

        _write_text(args.out, [json.dumps(_json_safe(report()), indent=2, allow_nan=False) + "\n"])
    else:
        _write_text(args.out, csv_text())


def _cmd_design(args) -> int:
    registry = load_registry(args.materials)
    report = run_design_flow(_spec_from(args), registry)
    _emit(args, lambda: [_csv_text(("key", "value"), _report_rows(report))], report.as_dict)
    return 2 if report.warnings else 0


def _emit_curves(args, curves: CurveSet) -> None:
    columns = (curves.x_nm, curves.A_analytic, curves.A_tmm, curves.eta_ratio)
    _emit(
        args,
        # the columns are finished; their text is made as it is written
        lambda: itertools.chain([",".join(_SWEEP_HEADER) + "\n"], encode_blocks(columns)),
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
    return sweep_curves(_spec_from(args), variable, *_grid_from(args, variable), registry)


def _custom_sweep(args, registry) -> CurveSet:
    for dest in (*_SPEC_FIELDS, "f"):
        if hasattr(args, dest):
            flag = "--" + dest.replace("_", "-")
            raise InputError(f"{flag} does not apply with --stack; the stack config sets it")
    config = load_stack_config(args.stack, registry)
    # Custom stacks default to the wire range whichever layer is swept.
    return sweep_stack(config, args.variable, args.layer, *_grid_from(args, "wire"))


def _cmd_sweep(args) -> int:
    registry = load_registry(args.materials)
    if args.stack is not None:
        curves = _custom_sweep(args, registry)
    elif args.layer is not None:
        raise InputError("--layer applies only with --stack; a built-in cavity sweeps "
                         "the layer --variable names")
    elif args.cavity is None:
        # --cavity is optional only next to --stack, which it does not affect
        raise InputError("the following arguments are required: --cavity")
    else:
        curves = _sweep_common(args, registry, args.variable)
    _emit_curves(args, curves)
    return 0


def _cmd_impedance(args) -> int:
    registry = load_registry(args.materials)
    _emit_curves(args, _sweep_common(args, registry, "wire"))
    return 0


_TABLE2_HEADER = (
    "cavity", "quantity", "slit_nm", "analytic_nm", "oracle_nm",
    "target_nm", "analytic_pass", "oracle_pass", "oracle_rel_dev",
)
# Names without separators, numbers and flags: csv.writer would quote no
# cell, "%.12g" is _fmt's format for a float, and each flag goes in as _fmt's
# text.
_TABLE2_ROW = "%s,%s,%.12g,%.12g,%.12g,%.12g,%s,%s,%.12g\n"


def _cmd_table2(args) -> int:
    registry = load_registry(args.materials)
    report = reproduce_table2(registry)
    rows = [
        (
            c.cavity, c.quantity, c.slit_nm, c.analytic_nm, c.oracle_nm,
            c.target_nm, c.analytic_ok, c.oracle_ok, c.oracle_rel_dev,
        )
        for c in report.cells
    ]
    template = ",".join(_TABLE2_HEADER) + "\n" + _TABLE2_ROW * len(rows)
    _emit(
        args,
        lambda: [template % tuple(
            _fmt(cell) if cell is True or cell is False else cell for row in rows for cell in row
        )],
        lambda: [dict(zip(_TABLE2_HEADER, row)) for row in rows],
    )
    failed = sum(1 for c in report.cells if not (c.analytic_ok and c.oracle_ok))
    print(f"table cells: {len(report.cells)} total, {len(report.cells) - failed} pass, {failed} fail", file=sys.stderr)
    if failed:
        raise InputError(f"{failed} table cells outside tolerance")
    return 0


def _cmd_mlc_convergence(args) -> int:
    registry = load_registry(args.materials)
    report = mlc_convergence(_spec_from(args), args.max_periods, args.wire_nm, registry)
    header = ("periods", "A_tmm", "T_tmm")
    rows = list(zip(range(1, len(report.A) + 1), report.A.tolist(), report.T.tolist()))
    # all numbers: csv.writer would quote no cell, and "%.12g" is _fmt's format
    template = ",".join(header) + "\n" + "%d,%.12g,%.12g\n" * len(rows)
    _emit(args, lambda: [template % tuple(v for row in rows for v in row)], lambda: {
        "rows": [dict(zip(header, row)) for row in rows],
        "converged_periods": report.converged_periods,
        "analytic_A": report.analytic_A,
        "d_w_nm": report.d_w_nm,
    })
    label = report.converged_periods if report.converged_periods is not None else "none"
    print(f"converged at periods = {label} (step threshold 1e-4)", file=sys.stderr)
    return 0


def _flag(option, type=None, choices=None, default=None, required=False, help=None):
    """One flag of the table: its option and the keywords of argparse's
    add_argument, which _read follows too."""
    return option, {"type": type, "choices": choices, "default": default,
                    "required": required, "help": help}


def _cavity(required: bool):
    return _flag("--cavity", choices=CAVITIES, required=required)


# An absent spec flag sets no attribute, so the DesignSpec default holds; the
# argparse tree reads this default as argparse.SUPPRESS.
_ABSENT = object()
_spec_flag = functools.partial(_flag, default=_ABSENT)
_SPEC_FLAGS = (
    _spec_flag("--wavelength-nm", float),
    _spec_flag("--line-nm", float),
    _spec_flag("--slit-nm", float),
    _spec_flag("--f", float, help="filling factor; alternative to --slit-nm"),
    _spec_flag("--wire-material"),
    _spec_flag("--slit-material"),
    _spec_flag("--c1", help="reflector layer adjacent to the wire"),
    _spec_flag("--c2", help="second reflector layer"),
    _spec_flag("--mirror", help="pec | pec-surrogate | material name (default Ag)"),
    _spec_flag("--periods", int),
)
_IO_FLAGS = (
    _flag("--materials", help="material config file"),
    _flag("--out", help="output path (default stdout)"),
    _flag("--format", choices=("csv", "structured-report"), default="csv"),
)

# name -> (help line, handler, flags), in help order; _build_parser makes the
# argparse tree of it, and _read reads a well-formed argv straight from it
_COMMANDS = {
    "design": ("closed-form design with oracle refinement", _cmd_design,
               (_cavity(True), *_SPEC_FLAGS, *_IO_FLAGS)),
    "sweep": ("absorptance and impedance curves over a thickness", _cmd_sweep, (
        _cavity(False), *_SPEC_FLAGS, *_IO_FLAGS,
        _flag("--variable", choices=("wire", "dielectric"), default="wire"),
        _flag("--range", help="LO:HI in nm"),
        _flag("--step", float, help="step in nm"),
        _flag("--stack", help="stack config file (custom cavities)"),
        _flag("--layer", int, help="swept layer index for custom stacks"),
    )),
    "impedance": ("wire-thickness impedance-match curves", _cmd_impedance, (
        _cavity(True), *_SPEC_FLAGS, *_IO_FLAGS,
        _flag("--range", help="LO:HI in nm (default 1:30)"),
        _flag("--step", float, help="step in nm (default 0.1)"),
    )),
    "table2": ("reference-table regression with pass/fail flags", _cmd_table2, _IO_FLAGS),
    "mlc-convergence": ("reflector period-count study", _cmd_mlc_convergence, (
        _cavity(True), *(f for f in _SPEC_FLAGS if f[0] != "--periods"), *_IO_FLAGS,
        _flag("--max-periods", int, default=12),
        _flag("--wire-nm", float, help="wire thickness (default: closed-form optimum)"),
    )),
}


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    import argparse  # only help, version and errors build the tree

    class _Parser(argparse.ArgumentParser):
        # exit code 2 is reserved for validity-warning-only runs, so argument
        # errors must not use argparse's default SystemExit(2)
        def error(self, message):
            raise InputError(message)

    parser = _Parser(
        prog="stripcavity",
        description="Design and analyse optical cavities for superconducting strip single-photon detectors.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for option, kwargs in flags:
            if kwargs["default"] is _ABSENT:
                kwargs = {**kwargs, "default": argparse.SUPPRESS}
            command.add_argument(option, **kwargs)
        command.set_defaults(func=func)
    return parser


def _read(argv: list[str]) -> SimpleNamespace | None:
    """A namespace holding what argparse's would hold for ``argv``, without
    importing argparse, when every token after the command is an exact
    ``--flag value`` pair that converts and lies in its choices; None for
    anything else (help, version, abbreviations, ``--flag=value``, a value
    starting with ``-``, every error), which argparse then parses, so its
    text stays the only help and error text."""
    if len(argv) % 2 == 0 or argv[0] not in _COMMANDS:
        return None
    _, func, flags = _COMMANDS[argv[0]]
    specs = dict(flags)
    values = {}
    for option, value in zip(argv[1::2], argv[2::2]):
        spec = specs.get(option)
        if spec is None or (value.startswith("-") and value != "-"):
            return None
        if spec["type"] is not None:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if spec["choices"] is not None and value not in spec["choices"]:
            return None
        values[option] = value
    if any(spec["required"] and option not in values for option, spec in flags):
        return None
    args = SimpleNamespace(command=argv[0], func=func)
    for option, spec in flags:
        if option in values or spec["default"] is not _ABSENT:
            setattr(args, option[2:].replace("-", "_"), values.get(option, spec["default"]))
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    try:
        if args is None:
            args = _build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:  # every deliberate refusal of the package
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
