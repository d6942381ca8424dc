import csv
import hashlib
import json

import pytest

from stripcavity.cli import main

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
        assert capsys.readouterr().err.startswith("error:")

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


# sha256 of CSVs written by the code before sweeps became column arrays
# (per-row objects, one format() per cell), recorded on x86-64 Linux with the
# numpy kernels. The column path must reproduce them byte for byte; a
# mismatch is a last-ulp change in some value, not a reason to re-record.
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
}


@pytest.mark.parametrize("name", GOLDEN_SHA256)
def test_golden_csv(tmp_path, name):
    argv, digest = GOLDEN_SHA256[name]
    stack = write_custom_stack(tmp_path)
    out = tmp_path / "out.csv"
    assert main([arg.format(stack=stack) for arg in argv] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
