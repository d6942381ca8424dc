"""Property test of the CLI over its argument space, run in-process.

Every argv, valid or not, must end in exit 0, 1 or 2 with at most one
``error:`` line and no traceback. Numeric flags are drawn around their bounds
and include nan, inf and negative values. Accepted values stay small (at most
50 periods, at most 30k sweep points), so no drawn command can allocate
without bound: a grid between 30k points and the 10^7-point limit is skipped,
and a grid or period count above its limit is refused before allocation.
"""

import contextlib
import io
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from stripcavity import cli
from stripcavity.design import MAX_PERIODS, MAX_SWEEP_POINTS

MAX_ACCEPTED_POINTS = 30_000

REFUSED_NUMBERS = ["nan", "inf", "-inf", "-1", "0", "-0", "1e308", "x", ""]
MATERIALS = ["NbN", "SiO", "SiO2", "Ta2O5", "Si", "Vacuum", "Ag", "PEC", "bogus"]


def mostly(usual, rare):
    """``usual`` seven times in eight, else ``rare``."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 7 else usual)


def numbers(lo, hi, *edges):
    """Flag text for a float in [lo, hi], or an edge case or malformed value."""
    return mostly(st.floats(lo, hi).map(repr),
                  st.sampled_from([*REFUSED_NUMBERS, *map(repr, edges)]))


def counts(lo, hi):
    """Flag text for an integer in [lo, hi], or one out of bounds or malformed."""
    return mostly(st.integers(lo, hi).map(str),
                  st.sampled_from([str(MAX_PERIODS + 1), str(10**30), "-1", "0", "2.5", "x"]))


COMMON = {
    "--cavity": mostly(st.sampled_from(["ssc", "dsc", "mlc"]), st.just("hexagonal")),
    "--wavelength-nm": numbers(400.0, 3000.0, 1e-300),
    "--line-nm": numbers(1.0, 500.0),
    "--slit-nm": numbers(0.0, 500.0),
    "--f": numbers(0.01, 1.0, 1.0000000000000002, 5e-324),
    "--wire-material": st.sampled_from(MATERIALS),
    "--slit-material": st.sampled_from(MATERIALS),
    "--c1": st.sampled_from(MATERIALS),
    "--c2": st.sampled_from(MATERIALS),
    "--mirror": st.sampled_from(["pec", "pec-surrogate", *MATERIALS]),
    "--periods": counts(1, 50),
    "--format": mostly(st.sampled_from(["csv", "structured-report"]), st.just("xml")),
}
GRID = {
    # a span of 1e7 steps of 1e-6 nm is 10 nm: just above MAX_SWEEP_POINTS
    "--range": st.one_of(
        st.tuples(numbers(-5.0, 400.0), numbers(-5.0, 400.0)).map(":".join),
        st.sampled_from(["1-30", "1:2:3", ":", "0:10.0000015"]),
    ),
    "--step": numbers(0.005, 50.0, 1e-6, 1e-9),
}
EXTRA = {
    "design": {},
    "sweep": {**GRID,
              "--variable": mostly(st.sampled_from(["wire", "dielectric"]), st.just("both")),
              "--layer": counts(-3, 3)},
    "impedance": GRID,
    "table2": {},
    "mlc-convergence": {"--max-periods": counts(2, 50), "--wire-nm": numbers(0.1, 60.0)},
}


def grid_points(argv):
    """Points the sweep in ``argv`` would allocate, 0 for one that is refused."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    variable = "wire" if flags.get("--stack") else flags.get("--variable", "wire")
    lo, hi, step = cli._SWEEP_DEFAULTS.get(variable, cli._SWEEP_DEFAULTS["wire"])
    try:
        if "--range" in flags:
            lo, hi = (float(part) for part in flags["--range"].split(":"))
        if "--step" in flags:
            step = float(flags["--step"])
    except ValueError:
        return 0
    if not all(math.isfinite(v) for v in (lo, hi, step)) or lo > hi or step <= 0:
        return 0
    points = (hi + 0.5 * step - lo) / step
    return points if points <= MAX_SWEEP_POINTS else 0


@pytest.fixture(scope="module")
def config_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {
        "stack": "cavity: custom\nlayers:\n  - {material: NbN, thickness_nm: 6}\n"
                 "  - {material: SiO, thickness_nm: 250}\noutput: short\n",
        "stack-nan": "cavity: custom\nlayers:\n  - {material: SiO, thickness_nm: .nan}\n",
        "stack-mlc": "cavity: mlc\nwire: {thickness_nm: 6}\nperiods: 4\n",
        "stack-bad": "cavity: [custom\n",
        "materials": "materials:\n  - {name: MgF2, n_re: 1.37}\n",
        "materials-nan": "materials:\n  - {name: Foo, n_re: .nan}\n",
        "materials-bad": "materials: {name: Foo\n",
    }
    for name, text in files.items():
        (root / f"{name}.yaml").write_text(text)
    missing = str(root / "missing.yaml")
    return {
        "stack": [str(root / f"{n}.yaml") for n in files if n.startswith("stack")] + [missing],
        "materials": [str(root / f"{n}.yaml") for n in files if n.startswith("materials")]
        + [missing],
    }


@st.composite
def argvs(draw, files):
    command = draw(mostly(st.sampled_from(list(cli._COMMANDS)), st.just("bogus")))
    # --cavity is required but for table2; leave it out now and then
    argv = [command]
    if command != "table2" and draw(mostly(st.just(True), st.just(False))):
        argv += ["--cavity", draw(COMMON["--cavity"])]
    flags = {**COMMON, **EXTRA.get(command, {}),
             "--materials": st.sampled_from(files["materials"])}
    if command == "sweep":
        flags["--stack"] = st.sampled_from(files["stack"])
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=8, unique=True)):
        argv += [flag, draw(flags[flag])]
    if draw(mostly(st.just(False), st.just(True))):
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--periods"])))
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_ends_in_a_known_exit(config_files, data):
    argv = data.draw(argvs(config_files))
    assume(grid_points(argv) <= MAX_ACCEPTED_POINTS)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in text
    assert text.count("error:") <= 1
    if code == 1:
        assert text.splitlines()[-1].startswith("error:")
    else:
        assert "error:" not in text
