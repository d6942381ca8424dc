import pytest

from stripcavity import stack as stack_module
from stripcavity.materials import METAL, builtin_registry
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
        with pytest.raises(ValueError, match="surrogate"):
            Layer(REG.get("PEC"), 130.0)

    @pytest.mark.parametrize("thickness", [float("nan"), -0.0, float("-inf")])
    def test_non_positive_or_nan_thickness_rejected(self, thickness):
        with pytest.raises(ValueError, match="layer thickness"):
            Layer(REG.get("SiO"), thickness)
        with pytest.raises(ValueError, match="wire thickness"):
            make_wire(thickness_nm=thickness)

    def test_pec_medium_normalises_to_short(self):
        assert Medium(REG.get("PEC")).is_short

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


class TestEffectiveWireMaterial:
    def test_kind_tracks_loss(self):
        assert effective_wire_material(make_wire()).kind == METAL
        lossless = WireGeometry(80.0, 80.0, REG.get("Vacuum"), REG.get("Vacuum"), 10.0)
        assert effective_wire_material(lossless).kind == "dielectric"

    def test_quarter_wave_helper(self):
        assert quarter_wave_thickness(REG.get("SiO2"), 1550.0) == pytest.approx(268.3518, abs=1e-3)


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
        with pytest.raises(StackConfigError, match=f"'{key}' must be finite"):
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
