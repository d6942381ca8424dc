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
import yaml
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from stripcavity import cli
from stripcavity.design import MAX_PERIODS, MAX_SWEEP_POINTS, SWEEP_DEFAULTS

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
    lo, hi, step = SWEEP_DEFAULTS.get(variable, SWEEP_DEFAULTS["wire"])
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


# Config files the argv fuzz names by file name; the test puts them in a
# temporary directory, and "missing.yaml" is never written.
CONFIG_FILES = {
    "stack.yaml": "cavity: custom\nlayers:\n  - {material: NbN, thickness_nm: 6}\n"
                  "  - {material: SiO, thickness_nm: 250}\noutput: short\n",
    "stack-nan.yaml": "cavity: custom\nlayers:\n  - {material: SiO, thickness_nm: .nan}\n",
    "stack-mlc.yaml": "cavity: mlc\nwire: {thickness_nm: 6}\nperiods: 4\n",
    "stack-bad.yaml": "cavity: [custom\n",
    "materials.yaml": "materials:\n  - {name: MgF2, n_re: 1.37}\n",
    "materials-nan.yaml": "materials:\n  - {name: Foo, n_re: .nan}\n",
    "materials-bad.yaml": "materials: {name: Foo\n",
}
STACK_FILES = [name for name in CONFIG_FILES if name.startswith("stack")] + ["missing.yaml"]
MATERIAL_FILES = [name for name in CONFIG_FILES if name.startswith("materials")] + ["missing.yaml"]


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in CONFIG_FILES.items():
        (root / name).write_text(text)
    return root


@st.composite
def argvs(draw):
    command = draw(mostly(st.sampled_from(list(cli._COMMANDS)), st.just("bogus")))
    # --cavity is required but for table2; leave it out now and then
    argv = [command]
    if command != "table2" and draw(mostly(st.just(True), st.just(False))):
        argv += ["--cavity", draw(COMMON["--cavity"])]
    flags = {**COMMON, **EXTRA.get(command, {}),
             "--materials": st.sampled_from(MATERIAL_FILES)}
    if command == "sweep":
        flags["--stack"] = st.sampled_from(STACK_FILES)
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=8, unique=True)):
        argv += [flag, draw(flags[flag])]
    if draw(mostly(st.just(False), st.just(True))):
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--periods"])))
    return argv


def assert_known_exit(argv):
    """``argv`` ends in exit 0, 1 or 2, with one ``error:`` line for exit 1
    and none otherwise, and no traceback."""
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


# Derandomised, so every run draws the same argvs; each @example is an argv
# that a fuzz run once ended in a traceback or in a misleading message.
@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
@example(argv=["design", "--cavity", "ssc", "--wavelength-nm", "400"])
@example(argv=["design", "--cavity", "ssc", "--wavelength-nm", "1064"])
@example(argv=["sweep", "--stack", "stack.yaml", "--layer", "5"])
@example(argv=["sweep", "--cavity", "mlc", "--wavelength-nm", "1e-300"])
@example(argv=["mlc-convergence", "--cavity", "mlc", "--wire-nm", "1e308"])
@example(argv=["mlc-convergence", "--cavity", "mlc", "--wire-nm", "1e200"])
def test_every_argv_ends_in_a_known_exit(config_dir, argv):
    argv = [str(config_dir / arg) if arg in (*CONFIG_FILES, "missing.yaml") else arg
            for arg in argv]
    assume(grid_points(argv) <= MAX_ACCEPTED_POINTS)
    assert_known_exit(argv)


# Whole config documents, drawn from the schema of stack and material
# configs: known keys with plausible values most of the time, and unknown
# keys, non-string keys and values of every YAML kind.
CONFIG_NAMES = ["NbN", "SiO", "SiO2", "Ta2O5", "Si", "Vacuum", "Ag", "PEC", "MgF2", "Foo", ""]
CONFIG_SCALARS = st.one_of(
    st.sampled_from([*CONFIG_NAMES, "ssc", "dsc", "mlc", "custom", "short", "pec",
                     "pec-surrogate", "dielectric", "metal", "pec-terminal"]),
    st.text(max_size=4),
    st.integers(-3, 60),
    st.sampled_from([0, -1, 10**30, -(10**400), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)
CONFIG_VALUES = st.recursive(
    CONFIG_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.one_of(st.text(max_size=3), st.integers(0, 3), st.booleans()),
                      inner, max_size=3),
    max_leaves=5,
)
CONFIG_THICKNESS = mostly(st.floats(0.5, 300.0), CONFIG_VALUES)
CONFIG_NAME = mostly(st.sampled_from(CONFIG_NAMES), CONFIG_VALUES)


def documents(fields):
    """A mapping of some of ``fields`` (key -> value strategy) and now and
    then an unknown or non-string key; rarely a list or a scalar instead."""
    known = st.fixed_dictionaries({}, optional=fields)
    extra = st.dictionaries(st.one_of(st.sampled_from(["bogus", "Cavity"]), st.integers(0, 2),
                                      st.booleans(), st.none()), CONFIG_VALUES, max_size=2)
    mapping = st.tuples(known, mostly(st.just({}), extra)).map(lambda pair: {**pair[0], **pair[1]})
    return mostly(mapping, st.one_of(st.lists(CONFIG_VALUES, max_size=3), CONFIG_SCALARS))


LAYER = documents({"material": CONFIG_NAME, "thickness_nm": CONFIG_THICKNESS})
WIRE = documents({"line_nm": CONFIG_THICKNESS, "slit_nm": CONFIG_THICKNESS,
                  "material": CONFIG_NAME, "slit_material": CONFIG_NAME,
                  "thickness_nm": CONFIG_THICKNESS})
STACK_CONFIGS = documents({
    "cavity": mostly(st.sampled_from(["ssc", "dsc", "mlc", "custom"]), CONFIG_VALUES),
    "wavelength_nm": mostly(st.sampled_from([1550.0, 1310.0, 2000.0]), CONFIG_VALUES),
    "input": CONFIG_NAME,
    "output": mostly(st.sampled_from(["Vacuum", "short", "Si"]), CONFIG_VALUES),
    "layers": mostly(st.lists(LAYER, min_size=1, max_size=4), CONFIG_VALUES),
    "wire": mostly(WIRE, CONFIG_VALUES),
    **{key: CONFIG_NAME for key in ("dielectric", "lower", "upper", "mirror", "c1", "c2")},
    **{key: CONFIG_THICKNESS for key in ("dielectric_nm", "lower_nm", "upper_nm", "mirror_nm")},
    "periods": mostly(st.integers(1, 12), CONFIG_VALUES),
})
MATERIAL_CONFIGS = documents({
    "materials": mostly(st.lists(documents({
        "name": CONFIG_NAME,
        "n_re": mostly(st.floats(0.1, 5.0), CONFIG_VALUES),
        "n_im": mostly(st.floats(0.0, 10.0), CONFIG_VALUES),
        "kind": mostly(st.sampled_from(["dielectric", "metal", "pec-terminal"]), CONFIG_VALUES),
        "override": mostly(st.booleans(), CONFIG_VALUES),
    }), max_size=3), CONFIG_VALUES),
})


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config-fuzz") / "config.yaml"


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=STACK_CONFIGS, layer=st.sampled_from([None, "0", "1", "3"]),
       variable=st.sampled_from(["wire", "dielectric"]))
def test_every_stack_config_ends_in_a_known_exit(config_path, doc, layer, variable):
    config_path.write_text(yaml.safe_dump(doc))
    argv = ["sweep", "--stack", str(config_path), "--variable", variable,
            "--range", "1:30", "--step", "1"]
    assert_known_exit(argv + (["--layer", layer] if layer is not None else []))


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=MATERIAL_CONFIGS, cavity=st.sampled_from(["ssc", "dsc", "mlc"]),
       use=st.sampled_from([[], ["--wire-material", "MgF2"], ["--c1", "MgF2"],
                            ["--mirror", "Foo"], ["--slit-material", "Foo"]]))
def test_every_material_config_ends_in_a_known_exit(config_path, doc, cavity, use):
    config_path.write_text(yaml.safe_dump(doc))
    assert_known_exit(["design", "--cavity", cavity, "--materials", str(config_path), *use])
