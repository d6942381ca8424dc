import json
from pathlib import Path

import pytest

from stripcavity import design
from stripcavity import stack as stack_module
from stripcavity.materials import METAL, InputError, builtin_registry, load_registry
from stripcavity.stack import (
    EXACT_SHORT,
    MAX_PERIODS,
    Layer,
    Medium,
    Stack,
    StackConfigError,
    WireGeometry,
    build_dsc,
    build_mlc,
    build_ssc,
    effective_wire_material,
    filling_factor,
    load_stack_config,
    quarter_wave_thickness,
    wire_permittivity,
)

REG = builtin_registry()


def make_wire(slit_nm=80.0, thickness_nm=11.6, slit_material="Vacuum"):
    return WireGeometry(80.0, slit_nm, REG.get("NbN"), REG.get(slit_material), thickness_nm)


class TestFillingFactor:
    @pytest.mark.parametrize(
        "line, slit, expected",
        [(80.0, 80.0, 0.5), (80.0, 120.0, 0.4), (80.0, 0.0, 1.0), (80.0, 160.0, 1.0 / 3.0)],
    )
    def test_values(self, line, slit, expected):
        assert filling_factor(line, slit) == pytest.approx(expected, rel=1e-15)

    def test_nonpositive_line_rejected(self):
        with pytest.raises(ValueError):
            filling_factor(0.0, 80.0)

    def test_negative_slit_rejected(self):
        with pytest.raises(ValueError):
            filling_factor(80.0, -1.0)


class TestLayerMedium:
    def test_layer_guards(self):
        with pytest.raises(ValueError):
            Layer(REG.get("SiO"), 0.0)

    @pytest.mark.parametrize("thickness", [float("nan"), -0.0, float("-inf")])
    def test_non_positive_or_nan_thickness_rejected(self, thickness):
        with pytest.raises(ValueError, match="layer thickness"):
            Layer(REG.get("SiO"), thickness)
        with pytest.raises(ValueError, match="wire thickness"):
            make_wire(thickness_nm=thickness)

    def test_pec_is_a_material_not_the_short(self):
        # the exact short is EXACT_SHORT alone; PEC is the -1000i surrogate film
        assert not Medium(REG.get("PEC")).is_short
        assert build_ssc(make_wire()).layers[-1] == Layer(REG.get("PEC"), 130.0)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError, match="output"):
            Stack(EXACT_SHORT, (), Medium(REG.get("Vacuum")))

    def test_lossy_input_rejected(self):
        with pytest.raises(ValueError, match="lossless"):
            Stack(Medium(REG.get("NbN")), (), Medium(REG.get("Vacuum")))


class TestBuildSsc:
    def test_default_structure(self):
        stack = build_ssc(make_wire())
        assert len(stack.layers) == 3
        assert stack.input.material.name == "Vacuum"
        assert stack.output.material.name == "Vacuum"
        assert stack.layers[1].material.name == "SiO"
        assert stack.layers[1].thickness_nm == pytest.approx(1550.0 / (4 * 1.551), rel=1e-15)
        assert stack.layers[2].thickness_nm == 130.0
        assert stack.layers[2].material.kind == METAL
        assert stack.layers[2].material.n == complex(0.0, -1000.0)

    def test_wire_layer_permittivity_exact(self):
        wire = make_wire()
        stack = build_ssc(wire)
        from stripcavity.materials import permittivity

        assert permittivity(stack.layers[0].material.optical_constant) == wire_permittivity(wire)

    def test_exact_short_mirror(self):
        stack = build_ssc(make_wire(), mirror=EXACT_SHORT)
        assert len(stack.layers) == 2
        assert stack.output.is_short

    def test_zero_mirror_thickness_rejected(self):
        with pytest.raises(ValueError):
            build_ssc(make_wire(), d_m_nm=0.0)

    def test_lossy_dielectric_rejected(self):
        with pytest.raises(ValueError, match="lossless"):
            build_ssc(make_wire(), dielectric=REG.get("NbN"))

    def test_deterministic(self):
        assert build_ssc(make_wire()) == build_ssc(make_wire())


class TestBuildDsc:
    def test_default_structure(self):
        stack = build_dsc(make_wire(slit_material="SiO"))
        assert len(stack.layers) == 4
        assert stack.input.material.name == "Si"
        names = [layer.material.name for layer in stack.layers]
        assert names[0] == "SiO2"
        assert "grating" in names[1]
        assert names[2] == "SiO"
        assert stack.layers[0].thickness_nm == pytest.approx(1550.0 / (4 * 1.444), rel=1e-15)

    def test_exact_short(self):
        stack = build_dsc(make_wire(slit_material="SiO"), mirror=EXACT_SHORT)
        assert len(stack.layers) == 3
        assert stack.output.is_short

    def test_degenerate_dielectrics(self):
        sio = REG.get("SiO")
        stack = build_dsc(make_wire(slit_material="SiO"), lower=sio, upper=sio)
        assert stack.layers[0].material is sio
        assert stack.layers[2].material is sio


class TestBuildMlc:
    def test_default_structure(self):
        stack = build_mlc(make_wire())
        assert len(stack.layers) == 13
        assert stack.output.material.name == "Vacuum"
        for i, layer in enumerate(stack.layers[1:]):
            expected = "SiO2" if i % 2 == 0 else "Ta2O5"
            assert layer.material.name == expected

    def test_single_period(self):
        assert len(build_mlc(make_wire(), periods=1).layers) == 3

    def test_periods_share_one_layer_pair(self):
        wire = make_wire()
        stack = build_mlc(wire, periods=120)
        assert len(stack.layers) == 241
        assert len({id(layer) for layer in stack.layers}) == 3
        c1, c2 = REG.get("SiO2"), REG.get("Ta2O5")
        one_by_one = [Layer(effective_wire_material(wire), wire.thickness_nm)]
        for _ in range(120):
            one_by_one.append(Layer(c1, quarter_wave_thickness(c1, 1550.0)))
            one_by_one.append(Layer(c2, quarter_wave_thickness(c2, 1550.0)))
        assert stack.layers == tuple(one_by_one)

    def test_quarter_wave_thicknesses(self):
        stack = build_mlc(make_wire())
        for layer in stack.layers[1:]:
            expected = 1550.0 / (4 * layer.material.optical_constant.n_re)
            assert abs(layer.thickness_nm - expected) < 1e-9

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="smaller refractive index"):
            build_mlc(make_wire(), c1=REG.get("Ta2O5"), c2=REG.get("SiO2"))

    def test_period_bound_checked_before_any_layer(self, monkeypatch):
        wire = make_wire()

        def no_layers(*args):
            raise AssertionError("a layer was built")

        monkeypatch.setattr(stack_module, "Layer", no_layers)
        with pytest.raises(ValueError, match=f"period count must be <= {MAX_PERIODS}"):
            build_mlc(wire, periods=MAX_PERIODS + 1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"periods": 0}, "period count must be >= 1"),
        ({"c1": REG.get("Ta2O5"), "c2": REG.get("SiO2")}, "smaller refractive index"),
    ], ids=["no-periods", "reversed-pair"])
    def test_reflector_checked_before_any_layer(self, monkeypatch, kwargs, message):
        def no_layers(*args):
            raise AssertionError("a layer was built")

        monkeypatch.setattr(stack_module, "Layer", no_layers)
        with pytest.raises(ValueError, match=message):
            build_mlc(make_wire(), **kwargs)


class TestEffectiveWireMaterial:
    def test_kind_tracks_loss(self):
        assert effective_wire_material(make_wire()).kind == METAL
        lossless = WireGeometry(80.0, 80.0, REG.get("Vacuum"), REG.get("Vacuum"), 10.0)
        assert effective_wire_material(lossless).kind == "dielectric"

    def test_quarter_wave_helper(self):
        assert quarter_wave_thickness(REG.get("SiO2"), 1550.0) == pytest.approx(268.3518, abs=1e-3)

    # a non-positive wavelength or index is named as such, not as a layer
    # thickness; test_cli has the config's negative wavelength
    @pytest.mark.parametrize("build, name, wavelength, n_re", [
        (lambda: build_ssc(make_wire(), wavelength_nm=-5.0), "SiO", -5.0, 1.551),
        (lambda: load_stack_config(
            {"cavity": "ssc", "wire": {"thickness_nm": 6}, "dielectric": "X"},
            load_registry({"materials": [{"name": "X", "n_re": -1.5}]})), "X", 1550.0, -1.5),
    ], ids=["builder-wavelength", "config-spacer-index"])
    def test_quarter_wave_of_non_positive_input(self, build, name, wavelength, n_re):
        with pytest.raises(InputError) as caught:
            build()
        assert str(caught.value) == (
            f"a quarter-wave layer of {name!r} needs a positive wavelength and real index, "
            f"got a {wavelength} nm wavelength and n_re = {n_re}"
        )


class TestStackConfig:
    def test_ssc_roundtrip(self):
        doc = {
            "cavity": "ssc",
            "wavelength_nm": 1550,
            "wire": {"line_nm": 80, "slit_nm": 80, "material": "NbN", "thickness_nm": 11.6},
            "dielectric": "SiO",
            "mirror": "pec-surrogate",
        }
        config = load_stack_config(doc)
        assert config.cavity == "ssc"
        assert config.wire_layer_index == 0
        assert config.dielectric_layer_index == 1
        assert len(config.stack.layers) == 3

    def test_dsc_slit_defaults_to_upper(self):
        doc = {
            "cavity": "dsc",
            "wire": {"thickness_nm": 6.6},
        }
        config = load_stack_config(doc)
        assert "SiO" in config.stack.layers[1].material.name
        assert config.stack.input.material.name == "Si"

    def test_mlc(self):
        doc = {"cavity": "mlc", "wire": {"thickness_nm": 11.6}, "periods": 4}
        config = load_stack_config(doc)
        assert len(config.stack.layers) == 9

    def test_custom(self):
        doc = {
            "cavity": "custom",
            "layers": [
                {"material": "SiO", "thickness_nm": 250},
                {"material": "Ag", "thickness_nm": 130},
            ],
            "output": "short",
        }
        config = load_stack_config(doc)
        assert len(config.stack.layers) == 2
        assert config.stack.output.is_short

    def test_pec_mirror_short_terminates(self):
        doc = {"cavity": "ssc", "wire": {"thickness_nm": 11.6}, "mirror": "pec"}
        config = load_stack_config(doc)
        assert config.stack.output.is_short
        assert len(config.stack.layers) == 2

    def test_unknown_key_rejected(self):
        doc = {"cavity": "ssc", "wire": {"thickness_nm": 11.6}, "varnish": True}
        with pytest.raises(StackConfigError, match="unknown keys"):
            load_stack_config(doc)

    def test_bad_cavity_rejected(self):
        with pytest.raises(StackConfigError, match="cavity"):
            load_stack_config({"cavity": "hexagonal"})

    def test_missing_wire_thickness_rejected(self):
        with pytest.raises(StackConfigError, match="thickness_nm"):
            load_stack_config({"cavity": "ssc", "wire": {"line_nm": 80}})

    @pytest.mark.parametrize("doc, key", [
        ({"cavity": "custom", "layers": [{"material": "SiO", "thickness_nm": float("nan")}]},
         "thickness_nm"),
        ({"cavity": "custom", "layers": [{"material": "SiO", "thickness_nm": float("inf")}]},
         "thickness_nm"),
        ({"cavity": "custom", "wavelength_nm": float("nan"),
          "layers": [{"material": "SiO", "thickness_nm": 250}]}, "wavelength_nm"),
        ({"cavity": "ssc", "wire": {"thickness_nm": float("nan")}}, "thickness_nm"),
        ({"cavity": "ssc", "wire": {"thickness_nm": 6, "slit_nm": float("inf")}}, "slit_nm"),
        ({"cavity": "ssc", "wire": {"thickness_nm": 6}, "dielectric_nm": float("inf")},
         "dielectric_nm"),
        ({"cavity": "dsc", "wire": {"thickness_nm": 6}, "mirror_nm": float("nan")}, "mirror_nm"),
    ])
    def test_non_finite_number_rejected(self, doc, key):
        # the message names the key's path, such as 'layers[0].thickness_nm'
        with pytest.raises(StackConfigError, match=f"{key}' must be finite"):
            load_stack_config(doc)

    def test_lossy_part_refused_before_its_quarter_wave(self):
        # PEC has n_re = 0, which its quarter-wave would refuse: the lossy check comes first
        doc = {"cavity": "ssc", "wire": {"thickness_nm": 6}, "dielectric": "PEC"}
        with pytest.raises(ValueError, match="spacer dielectric 'PEC' must be a lossless"):
            load_stack_config(doc)

    def test_period_bound(self):
        doc = {"cavity": "mlc", "wire": {"thickness_nm": 11.6}, "periods": MAX_PERIODS + 1}
        with pytest.raises(ValueError, match=f"<= {MAX_PERIODS}"):
            load_stack_config(doc)

    def test_from_file(self, tmp_path):
        path = tmp_path / "stack.yaml"
        path.write_text(
            "cavity: mlc\nwire: {thickness_nm: 11.6}\nperiods: 2\n"
        )
        assert len(load_stack_config(path).stack.layers) == 5


# Builder calls and stack configs, each with the stack it built (materials as
# name, n_re, n_im, kind; layers with their thickness) or its exact error.
# Material arguments are registry names; the mirror may also be "EXACT_SHORT"
# or {"medium": name}.
STACK_CASES = json.loads((Path(__file__).parent / "stack_cases.json").read_text())


def _case_arg(key, value):
    if key == "wire":
        return make_wire(**value)
    if value == "EXACT_SHORT":
        return EXACT_SHORT
    if isinstance(value, dict):
        return Medium(REG.get(value["medium"]))
    return REG.get(value) if isinstance(value, str) else value


def _material_row(material):
    oc = material.optical_constant
    return [material.name, oc.n_re, oc.n_im, material.kind]


def _describe(stack):
    return {
        "input": _material_row(stack.input.material),
        "layers": [[*_material_row(layer.material), layer.thickness_nm] for layer in stack.layers],
        "output": None if stack.output.is_short else _material_row(stack.output.material),
    }


def run_stack_case(call, args):
    """What ``call`` (a builder or load_stack_config) gives for ``args``."""
    try:
        if call == "load_stack_config":
            config = load_stack_config(args["source"])
            return {
                **_describe(config.stack),
                "cavity": config.cavity,
                "wavelength_nm": config.wavelength_nm,
                "wire_layer_index": config.wire_layer_index,
                "dielectric_layer_index": config.dielectric_layer_index,
            }
        kwargs = {key: _case_arg(key, value) for key, value in args.items()}
        return _describe(getattr(stack_module, call)(**kwargs))
    except (KeyError, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


@pytest.mark.parametrize("case", STACK_CASES, ids=[case["id"] for case in STACK_CASES])
def test_recorded_stack_case(case):
    assert run_stack_case(case["call"], case["args"]) == case["expect"]


def test_spec_part_defaults_match_layouts():
    # DesignSpec takes each layout part's default material as its field's default
    defaults = design.DesignSpec._field_defaults
    for cavity in design._TABLE.values():
        for (field, _), part in zip(cavity.part_fields, cavity.layout.parts, strict=True):
            assert defaults[field] == part[1], (cavity.layout.name, field)
