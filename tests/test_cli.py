import argparse
import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripcavity import cli
from stripcavity.cli import main
from stripcavity.design import MAX_PERIODS, DesignSpec
from stripcavity.materials import InputError
from stripcavity.stack import StackConfigError, load_stack_config
from test_cli_fuzz import mostly

SWEEP_HEADER = ["x_nm", "A_analytic", "A_tmm", "eta_ratio"]


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def write_custom_stack(directory):
    config = directory / "stack.yaml"
    config.write_text(
        "cavity: custom\n"
        "layers:\n"
        "  - {material: NbN, thickness_nm: 6}\n"
        "  - {material: SiO, thickness_nm: 250}\n"
        "output: short\n"
    )
    return config


def kv_report(path):
    rows = read_csv(path)
    assert rows[0] == ["key", "value"]
    return {key: value for key, value in rows[1:]}


# PyYAML converts an integer with int(), which refuses more digits than
# sys.get_int_max_str_digits() (4300 by default)
TOO_MANY_DIGITS = ("exceeds the limit (4300 digits) for integer string conversion: "
                   "value has 5001 digits")


def write_config(directory, config):
    """The path of a config file holding the text ``config``; "<missing>"
    names a file that does not exist, and "<directory>" a directory."""
    if config == "<directory>":
        return directory
    path = directory / "config.yaml"
    if config != "<missing>":
        path.write_text(config)
    return path


def one_error_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    return captured.err


class TestDesign:
    def test_single_side(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["design", "--cavity", "ssc", "--f", "0.5", "--out", str(out)]) == 0
        report = kv_report(out)
        assert round(float(report["wire_analytic_nm"]), 1) == 11.6
        assert round(float(report["dielectric_analytic_nm"])) == 211
        assert 0.98 <= float(report["impedance_match_ratio"]) <= 1.02

    def test_double_side_f04(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["design", "--cavity", "dsc", "--f", "0.4", "--out", str(out)]) == 0
        report = kv_report(out)
        assert round(float(report["wire_analytic_nm"]), 1) == 8.2
        assert round(float(report["dielectric_analytic_nm"])) == 215

    def test_slit_flag_equivalent(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["design", "--cavity", "ssc", "--f", "0.5", "--out", str(a)])
        main(["design", "--cavity", "ssc", "--slit-nm", "80", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_reflector_ordering_error(self, tmp_path, capsys):
        code = main(["design", "--cavity", "mlc", "--c1", "Ta2O5", "--c2", "SiO2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_unknown_material_error(self, capsys):
        code = main(["design", "--cavity", "ssc", "--wire-material", "Unobtanium"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: unknown material 'Unobtanium'")

    def test_structured_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main([
            "design", "--cavity", "ssc", "--format", "structured-report", "--out", str(out)
        ]) == 0
        data = json.loads(out.read_text())
        assert data["wire_analytic_nm"] == pytest.approx(11.5728, abs=1e-3)
        assert data["warnings"] == []

    def test_warning_only_exit_code(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["design", "--cavity", "ssc", "--f", "0.01", "--out", str(out)])
        assert code == 2
        assert kv_report(out)["warnings"]

    def test_oracle_disagreement_exit_code(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["design", "--cavity", "ssc", "--wavelength-nm", "1e9", "--out", str(out)])
        assert code == 2
        assert kv_report(out)["warnings"].startswith(
            "oracle-disagrees: wire oracle 1.91428e+07 nm is 156% off the closed form 7.4663e+06 nm"
        )

    @pytest.mark.parametrize("wavelength", ["0", "-1550"])
    def test_non_positive_wavelength(self, capsys, wavelength):
        err = one_error_line(capsys, ["design", "--cavity", "ssc", "--wavelength-nm", wavelength])
        assert err == f"error: wavelength must be > 0 nm, got {float(wavelength)}\n"

    def test_conflicting_width_flags(self, capsys):
        assert main(["design", "--cavity", "ssc", "--f", "0.5", "--slit-nm", "80"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_usage_errors_exit_one(self, capsys):
        # exit code 2 is reserved for warning-only runs
        assert main(["design", "--cavity", "hexagonal"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert main(["design"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestSweep:
    def test_wire_sweep_header_and_peak(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--cavity", "ssc", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == SWEEP_HEADER
        data = [(float(x), float(a), float(t)) for x, a, t, _ in rows[1:]]
        peak_tmm = max(data, key=lambda row: row[2])
        assert peak_tmm[0] == pytest.approx(11.6, abs=0.3)
        assert peak_tmm[2] == pytest.approx(0.9949, abs=1e-3)

    def test_lossless_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--cavity", "ssc", "--wire-material", "Vacuum", "--mirror", "pec",
            "--range", "1:30", "--step", "1", "--out", str(out),
        ]) == 0
        for row in read_csv(out)[1:]:
            assert abs(float(row[1])) < 1e-10
            assert abs(float(row[2])) < 1e-10

    def test_dielectric_sweep_dsc(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--cavity", "dsc", "--f", "0.5", "--variable", "dielectric",
            "--out", str(out),
        ]) == 0
        rows = read_csv(out)[1:]
        peak = max(rows, key=lambda row: float(row[2]))
        assert 214.0 <= float(peak[0]) <= 220.0

    def test_custom_stack(self, tmp_path):
        config = write_custom_stack(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--cavity", "ssc", "--stack", str(config), "--layer", "0",
            "--range", "2:10", "--step", "1", "--out", str(out),
        ]) == 0
        rows = read_csv(out)
        assert rows[0] == SWEEP_HEADER
        assert len(rows) == 10
        assert rows[1][1] == "nan"
        # a quarter-wave layer on a short is an open circuit: the CSV keeps
        # inf and nan, and the strict-JSON report writes both as null
        config.write_text("cavity: custom\nlayers: [{material: SiO, thickness_nm: 250}]\noutput: short\n")
        argv = ["sweep", "--stack", str(config), "--layer", "0",
                "--range", f"{1550 / (4 * 1.551)!r}:251", "--step", "1", "--out", str(out)]
        assert main(argv) == 0
        assert [row[1::2] for row in read_csv(out)[1:]] == [["nan", "inf"], ["nan", "102.546894219"]]
        assert main(argv + ["--format", "structured-report"]) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert [(row["A_analytic"], row["eta_ratio"]) for row in report] == [
            (None, None), (None, pytest.approx(102.546894219)),
        ]

    def test_bad_range(self, capsys):
        assert main(["sweep", "--cavity", "ssc", "--range", "30:1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_range_format(self, capsys):
        assert main(["sweep", "--cavity", "ssc", "--range", "1-30"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "grid",
        [
            ["--step", "1e-9"],
            ["--range", "1:1e12"],
            ["--range", "nan:30"],
            ["--range", "1:nan"],
            ["--range", "1:inf"],
            ["--range", "-inf:30"],
            ["--step", "nan"],
            ["--step", "inf"],
            ["--range", "1:1e308", "--step", "1e-308"],
            # no layer has a negative thickness; "--range -5:-3" is a usage error
            ["--range=-5:-3"],
            ["--range=-1:30"],
        ],
    )
    @pytest.mark.parametrize("custom", [False, True], ids=["builtin", "stack"])
    def test_unbounded_or_non_finite_grid(self, tmp_path, capsys, grid, custom):
        # every grid here is refused before numpy allocates a point
        argv = ["sweep", "--cavity", "ssc", *grid, "--out", str(tmp_path / "sweep.csv")]
        if custom:
            argv += ["--stack", str(write_custom_stack(tmp_path)), "--layer", "0"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()


    @pytest.mark.parametrize("flag, value", [
        ("--wavelength-nm", "1310"), ("--line-nm", "90"), ("--slit-nm", "5"), ("--f", "0.5"),
        ("--wire-material", "NbN"), ("--slit-material", "SiO"), ("--c1", "bogus"),
        ("--c2", "SiO"), ("--mirror", "Ag"), ("--periods", "6"),
    ])
    def test_custom_stack_refuses_spec_flags(self, tmp_path, capsys, flag, value):
        # refused when given at all, also at its default value: the config sets it
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--stack", str(write_custom_stack(tmp_path)), "--layer", "0",
                flag, value, "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
        assert not out.exists()


# sha256 of CSVs recorded on x86-64 Linux with the numpy kernels: the sweep,
# impedance, custom-stack and table2 entries by the code before sweeps became
# column arrays (per-row objects, one format() per cell); the design and
# mlc-convergence entries by the code before the argmax search factored the
# swept layer out of the chain and the period study used one running
# product; the fine-grid (14.5k-15k row) and 80-period impedance entries by
# the code before a vectorised encoder wrote the sweep CSV body (one "%.12g"
# row template per row); the ssc dielectric, dsc wire and mirror-variant
# entries by the code that still branched on the cavity name in every design
# function. The code must reproduce them byte for byte; a mismatch is a
# last-ulp change in some value, not a reason to re-record.
GOLDEN_SHA256 = {
    "sweep-ssc": (
        ["sweep", "--cavity", "ssc"],
        "7389981aa9c37f55c38a2db117fe17485d10164f0147602d258c5477dd6f6c69",
    ),
    "sweep-dsc-dielectric": (
        ["sweep", "--cavity", "dsc", "--variable", "dielectric"],
        "8ae111833f87051afb080f349e52ef125123582d72645d8b5b758b2663c17c74",
    ),
    "impedance-mlc": (
        ["impedance", "--cavity", "mlc"],
        "8f3b37e4fe5a8277c8fc17b37f359c168301ca5c3121508b2f326517e3170618",
    ),
    "sweep-custom-stack": (
        ["sweep", "--cavity", "ssc", "--stack", "{stack}", "--layer", "0",
         "--range", "2:10", "--step", "1"],
        "3c9dd2f48a24b1bb22ce3b43f5884307d898060a7206c93ba8411e11006f8b17",
    ),
    "table2": (
        ["table2"],
        "007188fe28458bd583f8fb2f503fdf599cee1e546ccc5cda9759ee3fd9d641be",
    ),
    "mlc-convergence": (
        ["mlc-convergence", "--cavity", "mlc"],
        "1114bfd2013d533bf15d883ce2100c981da250f56d91dbb64af88ebacd2725d5",
    ),
    "mlc-convergence-sio2-sio-120": (
        ["mlc-convergence", "--cavity", "mlc", "--c1", "SiO2", "--c2", "SiO",
         "--max-periods", "120"],
        "04fe08cc0f880f08c415f87ef3611dbc0b93132e88373026e195ed5ba0c2177c",
    ),
    "design-ssc": (
        ["design", "--cavity", "ssc"],
        "f5c21975ade7c22d3d98bf3c0f7a1d3f60bf8296fd2643c3a1cd9d05af5f6081",
    ),
    "design-dsc": (
        ["design", "--cavity", "dsc"],
        "83806a2a32ca37983e3ff2bbe4cf02eb75f06d8765e4e6bb09822ef648c99047",
    ),
    "design-mlc": (
        ["design", "--cavity", "mlc"],
        "e70343456bb3f4ea9c29f159c481b4e0b1ab767e37d981d290aeb08a79867af9",
    ),
    "design-mlc-sio2-sio-80": (
        ["design", "--cavity", "mlc", "--c1", "SiO2", "--c2", "SiO", "--periods", "80"],
        "1e73221ad41d29510f9f3217474b0307d7b60ee9f276fb4430dce7f9b53970f6",
    ),
    "sweep-ssc-wire-fine": (
        ["sweep", "--cavity", "ssc", "--variable", "wire", "--range", "1:30", "--step", "0.002"],
        "dbdd7aed93dd089c0aba73449b458e46b807a6f619c2883a3e8ddbba4fd8b0e5",
    ),
    "sweep-dsc-dielectric-fine": (
        ["sweep", "--cavity", "dsc", "--variable", "dielectric", "--range", "150:300",
         "--step", "0.01"],
        "8ffffd69829dc53762b17e1d8cc744d2ec18eebb819add23104f387f0c77295c",
    ),
    "impedance-mlc-fine": (
        ["impedance", "--cavity", "mlc", "--range", "1:30", "--step", "0.002"],
        "addcfae394ded7db4871fdf696f2e633e42741df6b9ccf19acdc5cd739ac2a45",
    ),
    "design-mlc-sio2-sio-120": (
        ["design", "--cavity", "mlc", "--periods", "120", "--c1", "SiO2", "--c2", "SiO"],
        "c4cd47e5089440fa38084822e19a1ef45b39ebb447c0854bde4400750ecbac21",
    ),
    "design-dsc-slit-160": (
        ["design", "--cavity", "dsc", "--slit-nm", "160"],
        "854f1848fae4daddd7fae20b67f6efd57f063ae6ee8778ba05a84f3a71606be2",
    ),
    "impedance-mlc-sio2-sio-80": (
        ["impedance", "--cavity", "mlc", "--c1", "SiO2", "--c2", "SiO", "--periods", "80",
         "--range", "1:30", "--step", "0.02"],
        "622b8d77385666ee2f98cc0a3f263f9168adb98d84c09b1765629f7e01739d5b",
    ),
    "sweep-ssc-dielectric": (
        ["sweep", "--cavity", "ssc", "--variable", "dielectric"],
        "31d020eb4087518a2b16b866ce9805d7676043653c144047741d7e6e1a537ce1",
    ),
    "sweep-dsc": (
        ["sweep", "--cavity", "dsc"],
        "ba875f6c2127bc831329de9507532e999d34c0ca741843a23dc2deb172d57e52",
    ),
    "impedance-dsc": (
        ["impedance", "--cavity", "dsc"],
        "ba875f6c2127bc831329de9507532e999d34c0ca741843a23dc2deb172d57e52",
    ),
    "design-ssc-pec": (
        ["design", "--cavity", "ssc", "--mirror", "pec"],
        "4f6bb760a8b5b2501f0ad677ca1b480c258ac31af28e837e0a64595e599c31af",
    ),
    "design-dsc-pec-surrogate": (
        ["design", "--cavity", "dsc", "--mirror", "pec-surrogate"],
        "aa9e89e60b341e1cd33bebfdda009bbbf06874c12249d76e29ff7e76d1afbf19",
    ),
}


@pytest.mark.parametrize("name", GOLDEN_SHA256)
def test_golden_csv(tmp_path, name):
    argv, digest = GOLDEN_SHA256[name]
    stack = write_custom_stack(tmp_path)
    out = tmp_path / "out.csv"
    assert main([arg.format(stack=stack) for arg in argv] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_back_to_back_calls_share_no_state(tmp_path):
    # the parser is built once per process; each call still starts from its defaults
    assert cli._build_parser() is cli._build_parser()
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["design", "--cavity", "ssc", "--f", "0.4", "--out", str(first)]) == 0
    assert main(["design", "--cavity", "ssc", "--out", str(second)]) == 0
    assert float(kv_report(first)["filling_factor"]) == pytest.approx(0.4)
    assert float(kv_report(second)["filling_factor"]) == 0.5
    assert hashlib.sha256(second.read_bytes()).hexdigest() == GOLDEN_SHA256["design-ssc"][1]


# A stack config that spells out a built-in cavity sweeps through the same
# tail as the built-in: its exact columns are byte-equal, and it has no
# closed-form column.
@pytest.mark.parametrize("cavity, keys, variable, grid", [
    ("ssc", "wire: {thickness_nm: 10}\n", "wire", ["--range", "1:30", "--step", "0.1"]),
    # the dsc wire at its closed-form optimum
    ("dsc", "mirror: Ag\nwire: {thickness_nm: 6.6138687609835065}\n", "dielectric",
     ["--range", "150:300", "--step", "0.5"]),
], ids=["ssc-wire", "dsc-dielectric"])
def test_stack_sweep_agrees_with_builtin_sweep(tmp_path, cavity, keys, variable, grid):
    path, custom, builtin = tmp_path / "stack.yaml", tmp_path / "custom.csv", tmp_path / "builtin.csv"
    path.write_text(f"cavity: {cavity}\n{keys}")
    assert main(["sweep", "--stack", str(path), "--variable", variable, *grid,
                 "--out", str(custom)]) == 0
    assert main(["sweep", "--cavity", cavity, "--variable", variable, "--out", str(builtin)]) == 0
    custom_columns = list(zip(*read_csv(custom)))
    builtin_columns = list(zip(*read_csv(builtin)))
    assert [c[0] for c in custom_columns] == SWEEP_HEADER
    for k in (0, 2, 3):  # x_nm, A_tmm, eta_ratio
        assert custom_columns[k] == builtin_columns[k]
    assert len(custom_columns[0]) > 100
    assert set(custom_columns[1][1:]) == {"nan"}


# a stray numpy warning would print more lines on a real stderr
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["design", "--cavity", "mlc", "--periods", "3000"], "not finite"),
    (["mlc-convergence", "--cavity", "mlc", "--max-periods", "3000"], "not finite at"),
    (["mlc-convergence", "--cavity", "mlc", "--wire-material", "bogus"], "unknown material 'bogus'"),
    (["mlc-convergence", "--cavity", "mlc", "--c1", "bogus"], "unknown material 'bogus'"),
    # the 130 nm -1000i surrogate mirror film overflows below about 1150 nm
    (["design", "--cavity", "ssc", "--wavelength-nm", "400"], "overflows the transfer matrix"),
    (["sweep", "--cavity", "ssc", "--wavelength-nm", "1000"], "not finite at 1 nm of layer 0"),
    (["sweep", "--cavity", "dsc", "--variable", "dielectric", "--mirror", "pec-surrogate",
      "--wavelength-nm", "1000"], "not finite at 150 nm of layer 2"),
    (["impedance", "--cavity", "mlc", "--periods", "3000", "--range", "2:4", "--step", "1"],
     "not finite at 2 nm of layer 0"),
    (["sweep", "--cavity", "ssc", "--stack", "{stack}", "--layer", "2"], "layer index 2 outside"),
    (["sweep", "--cavity", "ssc", "--stack", "{stack}", "--layer", "-1"], "layer index -1 outside"),
    # the closed-form column overflows too, and must not warn before the error
    (["sweep", "--cavity", "mlc", "--wavelength-nm", "1e-300"], "not finite at 1 nm of layer 0"),
    (["impedance", "--cavity", "mlc", "--wavelength-nm", "1e-300"], "not finite at 1 nm of layer 0"),
    (["sweep", "--cavity", "ssc", "--variable", "dielectric", "--wavelength-nm", "1e-300"],
     "not finite at 150 nm of layer 1"),
    (["sweep", "--cavity", "dsc", "--variable", "dielectric", "--wavelength-nm", "1e-300"],
     "not finite at 150 nm of layer 2"),
    # a Python float ** raises OverflowError where numpy would give inf
    (["mlc-convergence", "--cavity", "mlc", "--wire-nm", "1e308"],
     "closed-form absorptance overflows at a 1e+308 nm wire"),
    # a config without the layer that --variable names
    (["sweep", "--stack", "{stack}"], "a custom stack names no layer to sweep; --layer picks"),
    (["sweep", "--stack", "{mlc}", "--variable", "dielectric"],
     "the mlc layout has no dielectric spacer; --layer picks the swept layer"),
    # a built-in cavity sweeps the layer --variable names, so --layer would be ignored
    (["sweep", "--cavity", "ssc", "--range", "1:30", "--step", "0.5", "--layer", "7"],
     "--layer applies only with --stack"),
    # the closed-form spacer overflows to inf before any stack is built
    (["design", "--cavity", "ssc", "--wavelength-nm", "1e308", "--slit-material", "Ag"],
     "the closed-form spacer is inf nm: not a finite thickness at a 1e+308 nm wavelength"),
    (["sweep", "--cavity", "mlc", "--variable", "dielectric"],
     "the multi-layer cavity has no free dielectric thickness"),
    (["sweep", "--cavity", "ssc", "--step", "0"], "step must be > 0 nm, got 0.0"),
    (["mlc-convergence", "--cavity", "mlc", "--max-periods", "1"], "need n_max >= 2, got 1"),
])
def test_engine_failures_are_one_error_line(tmp_path, capsys, argv, message):
    stack, mlc = write_custom_stack(tmp_path), tmp_path / "mlc.yaml"
    mlc.write_text("cavity: mlc\nwire: {thickness_nm: 8}\n")
    assert message in one_error_line(capsys, [arg.format(stack=stack, mlc=mlc) for arg in argv])


# Every error branch of a stack config, as `sweep --stack` reaches it.
@pytest.mark.parametrize("config, message", [
    ("[1, 2]\n", "stack config: the top level must be a mapping, got list"),
    ("cavity: custom\nlayers: []\n", "stack config: 'layers' must be a non-empty list, got []"),
    ("cavity: custom\nlayers: [5]\n", "stack config: 'layers[0]' must be a mapping, got int"),
    ("cavity: custom\nlayers: [{material: SiO, thickness_nm: abc}]\n",
     "stack config: 'layers[0].thickness_nm' must be a number, got 'abc'"),
    ("cavity: custom\nlayers: [{material: SiO, thickness_nm: 1" + "0" * 400 + "}]\n",
     "stack config: 'layers[0].thickness_nm' must be finite, got 1" + "0" * 400),
    ("cavity: custom\n1: 2\nfoo: 3\nlayers: [{material: SiO, thickness_nm: 5}]\n",
     "stack config: the top level has unknown keys: [1, 'foo']"),
    ("cavity: ssc\n", "stack config: 'wire' is missing"),
    ("cavity: ssc\nwire: 5\n", "stack config: 'wire' must be a mapping, got int"),
    ("cavity: ssc\nwire: {thickness_nm: 8}\noutput: short\n",
     "stack config: 'output' cannot be short in a standard cavity; use mirror: pec"),
    # mlc has no mirror key, so its refusals give no mirror advice
    ("cavity: mlc\nwire: {thickness_nm: 8}\noutput: short\n",
     "stack config: 'output' cannot be short in a standard cavity"),
    ("cavity: mlc\nwire: {thickness_nm: 8}\nperiods: 2.5\n",
     "stack config: 'periods' must be an integer, got 2.5"),
    ("cavity: custom\nlayers:\n  - {material: SiO, thickness_nm: " + "1" * 5001 + "}\n",
     "cannot parse stack config: " + TOO_MANY_DIGITS),
    ("cavity: custom\nlayers: [{thickness_nm: 5}]\n", "stack config: 'layers[0].material' is missing"),
    ("cavity: ssc\nwire: {material: null, thickness_nm: 6}\n",
     "stack config: 'wire.material' must be a material name, got None"),
    ("<missing>", "cannot read stack config: No such file or directory: '{path}'"),
    ("<directory>", "cannot read stack config: Is a directory: '{path}'"),
    # values the library guards of Layer and WireGeometry refuse, named by their key
    ("cavity: custom\nlayers: [{material: NbN, thickness_nm: -3}]\n",
     "stack config: 'layers[0]': layer thickness must be > 0 nm, got -3.0"),
    ("cavity: ssc\nwire: {thickness_nm: -2}\n",
     "stack config: 'wire': wire thickness must be > 0 nm, got -2.0"),
    ("cavity: mlc\nwire: {line_nm: 0, thickness_nm: 6}\n",
     "stack config: 'wire': line width must be > 0 nm, got 0.0"),
    ("cavity: ssc\nwire: {thickness_nm: 8}\ndielectric_nm: -3\n",
     "stack config: 'dielectric_nm': layer thickness must be > 0 nm, got -3.0"),
    ("cavity: ssc\nwire: {thickness_nm: 8}\nmirror_nm: -3\n",
     "stack config: 'mirror_nm': layer thickness must be > 0 nm, got -3.0"),
    ("cavity: ssc\nwire: {thickness_nm: 8}\ndielectric: NbN\n",
     "stack config: 'dielectric': spacer dielectric 'NbN' must be a lossless dielectric"),
    # the quarter-wave spacer of a negative wavelength
    ("cavity: ssc\nwire: {thickness_nm: 8}\nwavelength_nm: -5\n",
     "a quarter-wave layer of 'SiO' needs a positive wavelength and real index, "
     "got a -5.0 nm wavelength and n_re = 1.551"),
    # PEC is a material, the -1000i surrogate, so it cannot be an output half-space;
    # a standard config refuses it under its key, a custom one in the engine
    ("cavity: ssc\nwire: {thickness_nm: 10}\nmirror: Ag\noutput: PEC\n",
     "stack config: 'output' must have a positive real index, got 'PEC' with n_re = 0; "
     "use mirror: pec"),
    ("cavity: dsc\nwire: {thickness_nm: 10}\noutput: PEC\n",
     "stack config: 'output' must have a positive real index, got 'PEC' with n_re = 0; "
     "use mirror: pec"),
    ("cavity: mlc\nwire: {thickness_nm: 10}\noutput: PEC\n",
     "stack config: 'output' must have a positive real index, got 'PEC' with n_re = 0"),
    ("cavity: custom\nlayers: [{material: SiO, thickness_nm: 5}]\noutput: PEC\n",
     "output medium must have a positive real index; "
     "use the short-circuit terminal for an ideal mirror"),
], ids=["top-level-list", "empty-layers", "layer-not-mapping", "non-numeric", "huge-int",
        "non-string-key", "no-wire", "wire-not-mapping", "short-output", "mlc-short-output",
        "fractional-periods",
        "over-4300-digits", "layer-without-material", "null-wire-material", "missing-file",
        "directory", "negative-layer", "negative-wire", "zero-line-width",
        "negative-spacer", "negative-mirror", "lossy-spacer", "quarter-wave-wavelength",
        "ssc-output-pec", "dsc-output-pec", "mlc-output-pec", "custom-output-pec"])
def test_stack_config_errors_are_one_error_line(tmp_path, capsys, config, message):
    path = write_config(tmp_path, config)
    err = one_error_line(capsys, ["sweep", "--stack", str(path), "--layer", "0"])
    assert err == f"error: {message.replace('{path}', str(path))}\n"


def test_stack_config_pec_layer_sweeps(tmp_path, capsys):
    # PEC is a metal, the ideal mirror's -1000i surrogate, so it forms a custom layer
    path = write_config(tmp_path, "cavity: custom\nlayers: [{material: NbN, thickness_nm: 6}, "
                                  "{material: PEC, thickness_nm: 9}]\n")
    assert main(["sweep", "--stack", str(path), "--layer", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == SWEEP_HEADER and len(rows) == 292  # the default 1:30 step 0.1
    assert all(0 < float(row[2]) < 1 for row in rows[1:])


# Every error branch of a material config, as `design --materials` reaches it;
# the lossy dielectric is refused by the Material it would make, and the
# negative spacer index passes the config and fails in the closed forms' context.
@pytest.mark.parametrize("config, message", [
    ("[1, 2]\n", "material config: the top level must be a mapping, got list"),
    ("materials: {name: X}\n", "material config: 'materials' must be a list, got dict"),
    ("materials: [1]\n", "material config: 'materials[0]' must be a mapping, got int"),
    ("materials: [{name: X, n_re: 1.5, n_im: a}]\n",
     "material config: 'materials[0].n_im' must be a number, got 'a'"),
    ("materials: [{name: X, n_re: 1" + "0" * 400 + "}]\n",
     "material config: 'materials[0].n_re' must be finite, got 1" + "0" * 400),
    ("materials: [{name: X, n_re: 1.5, override: 1}]\n",
     "material config: 'materials[0].override' must be true or false, got 1"),
    ("materials: [{name: X, n_re: 1.5, n_im: 0.1, kind: dielectric}]\n",
     "material config: 'materials[0]': dielectric 'X' must be lossless (n_im = 0), got n_im = 0.1"),
    ("materials: [{name: X, n_re: 1.5, 3: 4, a: 5}]\n",
     "material config: 'materials[0]' has unknown keys: [3, 'a']"),
    ("materials: []\ntrue: 1\nfoo: 2\n",
     "material config: the top level has unknown keys: [True, 'foo']"),
    ("materials: [{name: SiO, n_re: -1.5, override: true}]\n", "n_c must be > 0, got -1.5"),
    ("materials: [{name: X, n_re: " + "1" * 5001 + "}]\n",
     "cannot parse material config: " + TOO_MANY_DIGITS),
    ("materials: [{name: X, n_re: 2001-13-45}]\n",
     "cannot parse material config: month must be in 1..12"),
    ("materials: [{n_re: 1.5}]\n", "material config: 'materials[0].name' is missing"),
    ("<missing>", "cannot read material config: No such file or directory: '{path}'"),
    ("<directory>", "cannot read material config: Is a directory: '{path}'"),
    ("materials: [{name: X, n_re: 1.5, n_im: -1}]\n",
     "material config: 'materials[0]': extinction magnitude must be >= 0, got -1.0"),
    ("materials: [{name: MgF2, n_re: 1.37}, {name: nbn, n_re: 5.0, n_im: 4.0}]\n",
     "material config: 'materials[1].name' is 'nbn', a name already registered; "
     "set override: true to replace it"),
    # an index this small once underflowed the ssc spacer's closed form to a
    # ZeroDivisionError traceback (with --wire-material Tiny --slit-material Tiny)
    ("materials: [{name: Tiny, n_re: 1.0e-150, n_im: 1.0e-150},"
     " {name: SiO, n_re: 1.0e-150, override: true}]\n",
     "material config: 'materials[0]': index magnitude |n| must lie in [0.001, 10000], "
     "got 1.41421356237e-150"),
    ("materials: [{name: X, n_re: 6000, n_im: 8001}]\n",
     "material config: 'materials[0]': index magnitude |n| must lie in [0.001, 10000], "
     "got 10000.800018"),
], ids=["top-level-list", "materials-not-list", "entry-not-mapping", "non-numeric-n_im",
        "huge-int", "non-boolean-override", "lossy-dielectric", "non-string-entry-key",
        "non-string-key", "negative-spacer-index", "over-4300-digits", "out-of-range-date",
        "entry-without-name", "missing-file", "directory", "negative-n_im", "duplicate-name",
        "tiny-index", "huge-index"])
def test_material_config_errors_are_one_error_line(tmp_path, capsys, config, message):
    path = write_config(tmp_path, config)
    err = one_error_line(capsys, ["design", "--cavity", "ssc", "--materials", str(path)])
    assert err == f"error: {message.replace('{path}', str(path))}\n"


def test_empty_material_config_is_the_builtin_table(tmp_path):
    empty, out = tmp_path / "materials.yaml", tmp_path / "design.csv"
    empty.write_text("# no entries\n")
    assert main(["design", "--cavity", "ssc", "--materials", str(empty), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256["design-ssc"][1]


@pytest.mark.parametrize("fmt", ["csv", "structured-report"])
@pytest.mark.parametrize("target, reason", [
    ("missing/x.csv", "No such file or directory"),
    ("", "Is a directory"),
], ids=["missing-directory", "directory"])
@pytest.mark.parametrize("argv", [
    ["design", "--cavity", "ssc"],
    ["table2"],
    ["sweep", "--cavity", "ssc", "--range", "1:2", "--step", "0.5"],
    ["impedance", "--cavity", "mlc", "--range", "1:2", "--step", "0.5"],
    ["mlc-convergence", "--cavity", "mlc", "--max-periods", "3"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_one_error_line(tmp_path, capsys, argv, target, reason, fmt):
    path = tmp_path / target
    err = one_error_line(capsys, argv + ["--format", fmt, "--out", str(path)])
    assert err == f"error: cannot write {path}: {reason}\n"


@pytest.mark.parametrize("command", ["design", "mlc-convergence"])
def test_mlc_ignores_mirror(tmp_path, command):
    # the reflector-backed cavity has no mirror, so --mirror names nothing it uses
    plain, bogus = tmp_path / "plain.csv", tmp_path / "bogus.csv"
    assert main([command, "--cavity", "mlc", "--out", str(plain)]) == 0
    assert main([command, "--cavity", "mlc", "--mirror", "bogus", "--out", str(bogus)]) == 0
    assert bogus.read_bytes() == plain.read_bytes()


# README's mirror-token rule: `PEC` is an ordinary metal, the ideal mirror's
# -1000i surrogate film as `pec-surrogate` is, and only the lower-case token
# `pec` is the exact short, whatever the case of the material lookup.
@pytest.mark.parametrize("token, oracle_nm", [
    ("pec", "235.530754358"),
    ("PEC", "235.280058531"),
    ("Pec", "235.280058531"),
    ("pec-surrogate", "235.280058531"),
])
def test_only_lower_case_pec_is_the_short(capsys, token, oracle_nm):
    assert main(["design", "--cavity", "ssc", "--mirror", token]) == 0
    assert f"dielectric_oracle_nm,{oracle_nm}" in capsys.readouterr().out.splitlines()


def test_custom_sweep_needs_no_cavity(tmp_path):
    argv, digest = GOLDEN_SHA256["sweep-custom-stack"]
    argv = [arg.format(stack=write_custom_stack(tmp_path)) for arg in argv]
    assert argv[1:3] == ["--cavity", "ssc"]
    out = tmp_path / "out.csv"
    assert main(argv[:1] + argv[3:] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_builtin_sweep_needs_cavity(capsys):
    err = one_error_line(capsys, ["sweep", "--variable", "dielectric"])
    assert err == "error: the following arguments are required: --cavity\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["sweep", "--cavity", "ssc", "--wavelength-nm", "nan"],
    ["impedance", "--cavity", "mlc", "--wavelength-nm", "inf"],
    ["design", "--cavity", "ssc", "--wavelength-nm", "inf"],
    ["design", "--cavity", "dsc", "--line-nm", "nan"],
    ["design", "--cavity", "ssc", "--slit-nm", "inf"],
    ["design", "--cavity", "ssc", "--slit-nm", "nan"],
    ["design", "--cavity", "ssc", "--f", "nan"],
    ["mlc-convergence", "--cavity", "mlc", "--wavelength-nm", "nan"],
])
def test_non_finite_inputs_are_one_error_line(capsys, argv):
    one_error_line(capsys, argv)


class TestImpedance:
    def test_ratio_curve(self, tmp_path):
        out = tmp_path / "imp.csv"
        assert main(["impedance", "--cavity", "ssc", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == SWEEP_HEADER
        by_x = {float(x): float(ratio) for x, _, _, ratio in rows[1:]}
        assert by_x[11.6] == pytest.approx(1.0, abs=0.02)
        assert abs(by_x[5.8] - 1.0) > 0.2
        assert abs(by_x[23.2] - 1.0) > 0.2


class TestTable2:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table2", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 16
        assert all(row[6] == "true" and row[7] == "true" for row in rows[1:])

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["table2", "--out", str(a)])
        main(["table2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_structured_report(self, tmp_path):
        out = tmp_path / "table.json"
        assert main(["table2", "--format", "structured-report", "--out", str(out)]) == 0
        cells = json.loads(out.read_text())
        assert len(cells) == 15
        wire = [c for c in cells if c["quantity"] == "wire" and c["cavity"] == "ssc"]
        assert wire[0]["analytic_nm"] == pytest.approx(11.5728, abs=1e-3)

    def test_perturbed_index_fails(self, tmp_path, capsys):
        materials = tmp_path / "materials.yaml"
        materials.write_text(
            "materials:\n"
            "  - {name: NbN, n_re: 4.905, n_im: 4.7223, kind: metal, override: true}\n"
        )
        out = tmp_path / "table.csv"
        code = main(["table2", "--materials", str(materials), "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        rows = read_csv(out)
        wire_flags = [row[6] for row in rows[1:] if row[1] == "wire"]
        assert all(flag == "false" for flag in wire_flags)

    @pytest.mark.parametrize("flags", [
        ["--wavelength-nm", "1310", "--slit-nm", "5", "--mirror", "bogus"],
        ["--cavity", "dsc"],
        ["--periods", "3"],
    ])
    def test_spec_flags_refused(self, capsys, flags):
        # the reference table has fixed geometries, so a spec flag would be ignored
        assert "unrecognized arguments" in one_error_line(capsys, ["table2", *flags])


class TestMlcConvergence:
    def test_table_and_summary(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        assert main([
            "mlc-convergence", "--cavity", "mlc", "--max-periods", "12", "--out", str(out),
        ]) == 0
        rows = read_csv(out)
        assert rows[0] == ["periods", "A_tmm", "T_tmm"]
        assert len(rows) == 13
        transmissions = [float(row[2]) for row in rows[1:]]
        assert all(a > b for a, b in zip(transmissions, transmissions[1:]))
        assert "converged at periods = 11" in capsys.readouterr().err

    def test_requires_mlc(self, capsys):
        assert main(["mlc-convergence", "--cavity", "ssc"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_periods_flag_refused(self, capsys):
        # --max-periods sets the period counts, so --periods would be ignored
        err = one_error_line(capsys, ["mlc-convergence", "--cavity", "mlc", "--periods", "3"])
        assert "unrecognized arguments: --periods 3" in err


class TestInputBounds:
    # MAX_PERIODS + 1 is refused before a layer is built, so these are quick
    @pytest.mark.parametrize("argv", [
        ["design", "--cavity", "mlc", "--periods", str(MAX_PERIODS + 1)],
        ["sweep", "--cavity", "mlc", "--periods", str(MAX_PERIODS + 1)],
        ["mlc-convergence", "--cavity", "mlc", "--max-periods", str(MAX_PERIODS + 1)],
    ])
    def test_period_counts_above_the_bound(self, capsys, argv):
        assert str(MAX_PERIODS) in one_error_line(capsys, argv)

    # 0 is read from the flag table, -1 by argparse
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_period_counts_below_one(self, capsys, count):
        err = one_error_line(capsys, ["design", "--cavity", "mlc", "--periods", count])
        assert err == f"error: period count must be >= 1, got {count}\n"

    # the engine's own guards, which only a stack config reaches
    @pytest.mark.parametrize("config, message", [
        ("wavelength_nm: 0\n", "wavelength must be > 0 nm, got 0.0"),
        ("wavelength_nm: -1550\n", "wavelength must be > 0 nm, got -1550.0"),
        ("input: Z\n", "input medium must have a positive real index"),
        ("output: Z\n", "output medium must have a positive real index; "
                        "use the short-circuit terminal for an ideal mirror"),
    ], ids=["zero-wavelength", "negative-wavelength", "input", "output"])
    def test_stack_config_refused_by_the_engine(self, tmp_path, capsys, config, message):
        materials, path = tmp_path / "materials.yaml", tmp_path / "stack.yaml"
        # a negative index: the range of index magnitudes refuses 0 at the config
        materials.write_text("materials:\n  - {name: Z, n_re: -1}\n")
        path.write_text("cavity: custom\nlayers: [{material: NbN, thickness_nm: 6}]\n" + config)
        err = one_error_line(capsys, [
            "sweep", "--stack", str(path), "--layer", "0", "--materials", str(materials),
        ])
        assert err == f"error: {message}\n"

    @pytest.mark.filterwarnings("error")
    def test_nan_thickness_in_stack_file(self, tmp_path, capsys):
        config = tmp_path / "stack.yaml"
        config.write_text(
            "cavity: custom\n"
            "layers:\n"
            "  - {material: NbN, thickness_nm: 6}\n"
            "  - {material: SiO, thickness_nm: .nan}\n"
            "output: short\n"
        )
        out = tmp_path / "sweep.csv"
        err = one_error_line(capsys, [
            "sweep", "--cavity", "ssc", "--stack", str(config), "--layer", "0", "--out", str(out),
        ])
        assert "'layers[1].thickness_nm' must be finite" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_nan_index_in_materials_file(self, tmp_path, capsys):
        materials = tmp_path / "materials.yaml"
        materials.write_text("materials:\n  - {name: Foo, n_re: .nan}\n")
        err = one_error_line(capsys, [
            "design", "--cavity", "ssc", "--slit-material", "Foo", "--materials", str(materials),
        ])
        assert err == "error: material config: 'materials[0].n_re' must be finite, got nan\n"

    @pytest.mark.parametrize("command, cavity", [
        ("design", "ssc"), ("sweep", "ssc"), ("impedance", "mlc"), ("mlc-convergence", "mlc"),
    ])
    def test_zero_wire_permittivity(self, tmp_path, capsys, command, cavity):
        materials = tmp_path / "materials.yaml"
        # eps = -1 half and half with the vacuum slit: the range of index
        # magnitudes refuses an index of 0 at the config
        materials.write_text("materials:\n  - {name: Z, n_re: 0, n_im: 1}\n")
        err = one_error_line(capsys, [
            command, "--cavity", cavity, "--materials", str(materials),
            "--wire-material", "Z", "--f", "0.5",
        ])
        assert err == "error: wire permittivity must be nonzero\n"

    def test_effective_wire_index_below_the_range(self, tmp_path, capsys):
        # nearly cancelling permittivities: the grating's index, not a config
        # entry, falls below the range of index magnitudes
        materials = tmp_path / "materials.yaml"
        materials.write_text("materials:\n  - {name: Z, n_re: 0, n_im: 1}\n")
        err = one_error_line(capsys, [
            "design", "--cavity", "ssc", "--materials", str(materials),
            "--wire-material", "Z", "--f", "0.5000000001",
        ])
        assert err == ("error: the wire grating's effective index: index magnitude |n| must "
                       "lie in [0.001, 10000], got 1.41421362088e-05\n")
        config = tmp_path / "stack.yaml"
        config.write_text("cavity: ssc\nwire: {material: Z, line_nm: 80.0000001, slit_nm: 80, "
                          "thickness_nm: 6}\n")
        err = one_error_line(capsys, [
            "sweep", "--stack", str(config), "--materials", str(materials),
        ])
        assert err == ("error: stack config: 'wire': the wire grating's effective index: index "
                       "magnitude |n| must lie in [0.001, 10000], got 2.50000010343e-05\n")

    # every material lookup of a stack config, named by its key: a custom
    # layer, the media, the wire, a layout part and the mirror; a YAML number
    # or bool is no name
    @pytest.mark.parametrize("config, start", [
        ("cavity: custom\nlayers: [{material: Foo, thickness_nm: 6}]\n",
         "'layers[0].material': unknown material 'Foo'; known materials: "),
        ("cavity: custom\nlayers: [{material: NbN, thickness_nm: 6}]\ninput: Foo\n",
         "'input': unknown material 'Foo'; known materials: "),
        ("cavity: custom\nlayers: [{material: NbN, thickness_nm: 6}]\noutput: Foo\n",
         "'output': unknown material 'Foo'; known materials: "),
        ("cavity: ssc\nwire: {material: Foo, thickness_nm: 6}\n",
         "'wire.material': unknown material 'Foo'; known materials: "),
        ("cavity: ssc\nwire: {slit_material: Foo, thickness_nm: 6}\n",
         "'wire.slit_material': unknown material 'Foo'; known materials: "),
        ("cavity: ssc\nwire: {thickness_nm: 6}\ndielectric: Foo\n",
         "'dielectric': unknown material 'Foo'; known materials: "),
        ("cavity: ssc\nwire: {thickness_nm: 6}\nmirror: Foo\n",
         "'mirror': unknown material 'Foo'; known materials: "),
        ("cavity: custom\nlayers: [{material: NbN, thickness_nm: 6}]\ninput: 1.5\n",
         "'input' must be a material name, got 1.5\n"),
        ("cavity: custom\nlayers: [{material: NbN, thickness_nm: 6}]\ninput: true\n",
         "'input' must be a material name, got True\n"),
    ], ids=[
        "layer", "input", "output", "wire", "slit", "part", "mirror", "number", "bool",
    ])
    def test_unknown_material_in_stack_file(self, tmp_path, capsys, config, start):
        path = tmp_path / "stack.yaml"
        path.write_text(config)
        err = one_error_line(capsys, ["sweep", "--stack", str(path), "--layer", "0"])
        assert err.startswith(f"error: stack config: {start}")

    @pytest.mark.parametrize("flag, text", [
        ("--stack", "cavity: [custom\n"),
        ("--stack", "layers: {material: SiO\n"),
        ("--materials", "materials:\n  - {name: Foo, n_re: 1.5\n"),
        ("--materials", "materials: [\n\t- x\n"),
    ])
    def test_malformed_yaml_file(self, tmp_path, capsys, flag, text):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        argv = ["sweep", "--cavity", "ssc", flag, str(path)]
        if flag == "--stack":
            argv += ["--layer", "0"]
        assert "cannot parse" in one_error_line(capsys, argv)


def test_import_leaves_yaml_unloaded():
    # a fresh interpreter: only --materials and --stack parse YAML, only help,
    # version and errors build argparse, only a structured report encodes
    # JSON, and the records are namedtuples, not dataclasses
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", "import stripcavity.cli, sys; "
         "print([m for m in ('yaml', 'argparse', 'json', 'dataclasses') if m in sys.modules])"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout == "[]\n"


def _fields(args):
    # repr tells nan from nan and -0.0 from 0.0, where == would not
    return repr(sorted(vars(args).items()))


def _argparse_fields(argv):
    """The full argparse tree's Namespace for ``argv``, as _fields, or None
    where argparse refuses it or exits (help, version)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _fields(cli._build_parser().parse_args(argv))
        except (InputError, SystemExit):
            return None


def assert_read_as_argparse(argv):
    """The flag-table reader declines ``argv`` or makes argparse's Namespace,
    ``func`` included."""
    read = cli._read(argv)
    if read is not None:
        assert _fields(read) == _argparse_fields(argv), argv
    return read


def test_accidental_error_is_not_a_refusal(monkeypatch, capsys):
    # only the package's refusal class becomes an error line; any other
    # exception is a fault, and keeps its traceback
    def run_design_flow(*args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "run_design_flow", run_design_flow)
    with pytest.raises(ValueError, match="boom"):
        main(["design", "--cavity", "ssc"])
    assert "error:" not in capsys.readouterr().err


def test_broken_pipe_is_exit_1_without_a_message(monkeypatch, capsys):
    class BrokenStdout(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    assert main(["design", "--cavity", "ssc"]) == 1
    assert capsys.readouterr().err == ""


def test_module_run_in_a_fresh_interpreter():
    # the __main__ line, and a well-formed command that never builds argparse:
    # its first message translation would import locale
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "stripcavity.cli", "design", "--cavity", "ssc"],
        env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_SHA256["design-ssc"][1]
    imported = [line.rpartition(b"|")[2].strip() for line in proc.stderr.splitlines()]
    assert b"stripcavity" in imported
    assert b"locale" not in imported


# Each command's argv, read from the flag table and parsed by the argparse
# tree. The defaults, every flag, and repeated flags.
PARSER_CASES = [
    ["design", "--cavity", "ssc"],
    ["design", "--cavity", "mlc", "--wavelength-nm", "1310", "--line-nm", "90", "--f", "0.4",
     "--wire-material", "NbN", "--slit-material", "SiO", "--c1", "SiO2", "--c2", "SiO",
     "--mirror", "pec", "--periods", "9", "--materials", "m.yaml", "--out", "o.csv",
     "--format", "structured-report"],
    ["design", "--cavity", "dsc", "--slit-nm", "100", "--slit-nm", "120"],
    ["sweep", "--cavity", "ssc"],
    ["sweep", "--cavity", "dsc", "--variable", "dielectric", "--range", "150:300", "--step", "0.5",
     "--stack", "s.yaml", "--layer", "2", "--mirror", "Ag", "--format", "csv"],
    ["impedance", "--cavity", "mlc"],
    ["impedance", "--cavity", "ssc", "--range", "1:30", "--step", "0.1", "--slit-nm", "60",
     "--out", "-"],
    ["table2"],
    ["table2", "--materials", "m.yaml", "--format", "structured-report"],
    ["mlc-convergence", "--cavity", "mlc"],
    ["mlc-convergence", "--cavity", "mlc", "--max-periods", "20", "--wire-nm", "11.6",
     "--c1", "SiO2", "--c2", "SiO"],
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=[" ".join(a) for a in PARSER_CASES])
def test_command_parser_matches_full_tree(argv):
    assert set(cli._COMMANDS) == {argv[0] for argv in PARSER_CASES}
    read = assert_read_as_argparse(argv)
    assert read is not None
    assert read.func is getattr(cli, "_cmd_" + argv[0].replace("-", "_"))


MALFORMED_VALUES = ["-", "-5", "-1e3", "x", "", "1_0", " 2 ", "nan", "1e400", "2.5", "ssc",
                    "--cavity", "--help"]


def _flag_text(option, spec):
    """A strategy for the text of one value of the flag ``option``."""
    if spec["choices"] is not None:
        valid = st.sampled_from(spec["choices"])
    elif spec["type"] is float:
        valid = st.floats(allow_nan=True).map(repr)
    elif spec["type"] is int:
        valid = st.integers(-5, 200).map(str)
    else:
        valid = st.sampled_from(["m.yaml", "o.csv", "1:30", "NbN", "-", ""])
    return mostly(valid, st.sampled_from(MALFORMED_VALUES))


@st.composite
def argvs(draw):
    """An argv of known flags, mostly well-formed, with the forms and tokens
    the reader must decline mixed in: malformed values, another command's
    flags, abbreviations, ``--flag=value``, stray tokens, a missing
    ``--cavity`` and a missing command."""
    command = draw(mostly(st.sampled_from(list(cli._COMMANDS)),
                          st.sampled_from(["bogus", "--cavity"])))
    own = cli._COMMANDS.get(command, cli._COMMANDS["design"])[2]
    every = [flag for _, _, flags in cli._COMMANDS.values() for flag in flags]
    argv = [command]
    if own[0][0] == "--cavity" and draw(st.integers(0, 7)):  # missing now and then
        argv += ["--cavity", draw(_flag_text(*own[0]))]
    for _ in range(draw(st.integers(0, 5))):
        option, spec = draw(mostly(st.sampled_from(own), st.sampled_from(every)))
        value = draw(_flag_text(option, spec))
        form = draw(st.integers(0, 29))
        if form == 0:
            argv.append(f"{option}={value}")
        elif form == 1:
            argv += [option[:4], value]  # an abbreviation, or an exact short flag
        elif form == 2:
            argv.append(draw(st.sampled_from([value, option, "--help", "--version", "--"])))
        else:
            argv += [option, value]
    return argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argvs())
def test_reader_is_argparse_or_declines(argv):
    assert_read_as_argparse(argv)


@pytest.mark.parametrize("argv, command", [
    (["design", "--cavity", "ssc"], "design"),
    (["mlc-convergence", "--cavity", "mlc"], "mlc-convergence"),
    (["table2", "--help"], "table2"),
    (["--help"], None),
    (["--version"], None),
    ([], None),
    (["bogus"], None),
    (["--cavity", "ssc", "design"], None),
])
def test_main_builds_the_invoked_command_only(monkeypatch, capsys, argv, command):
    # a well-formed argv runs its command straight from the flag table; help,
    # version and a malformed argv build the one full argparse tree
    built, codes, uncached = [], [], cli._build_parser.__wrapped__

    def build():
        parser = uncached()
        built.append(parser)
        return parser

    monkeypatch.setattr(cli, "_build_parser", build)
    monkeypatch.setattr(sys, "argv", ["stripcavity", *argv, "--out", os.devnull])
    for args in (argv, None):  # None reads sys.argv[1:]
        with contextlib.suppress(SystemExit):  # --help and --version exit
            codes.append(main(args))
    capsys.readouterr()
    if command is not None and "--help" not in argv:
        assert built == [] and codes == [0, 0]
    else:
        assert len(built) == 2
        for parser in built:
            (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            assert list(commands.choices) == list(cli._COMMANDS)


def _listed_names(exc_info) -> tuple:
    # "... must be one of ('ssc', ...), got 'bogus'"
    return ast.literal_eval(re.search(r"one of (\(.*?\)), got", str(exc_info.value)).group(1))


def test_cavity_names_are_one_tuple():
    top = cli._build_parser()
    (commands,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    choices = {
        name: tuple(action.choices)
        for name, parser in commands.choices.items()
        for action in parser._actions
        if action.dest == "cavity"
    }
    assert set(choices) == set(cli._COMMANDS) - {"table2"}
    with pytest.raises(ValueError) as spec_error:
        DesignSpec(cavity="bogus")
    with pytest.raises(StackConfigError) as config_error:
        load_stack_config({"cavity": "bogus"})
    spec_names = _listed_names(spec_error)
    assert spec_names == ("ssc", "dsc", "mlc")
    assert set(choices.values()) == {spec_names}
    assert tuple(n for n in _listed_names(config_error) if n != "custom") == spec_names


# stdout, stderr and exit code of help, usage and error cases, recorded
# in-process at 80 columns by the code that built every subparser on each run
CLI_TEXT = json.loads((Path(__file__).parent / "cli_text.json").read_text())


@pytest.mark.parametrize("name", CLI_TEXT)
def test_help_and_usage_text(monkeypatch, capsys, name):
    monkeypatch.setenv("COLUMNS", "80")
    case = CLI_TEXT[name]
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["out"], case["err"])
