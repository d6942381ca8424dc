import numpy as np
import pytest

from stripcavity.materials import (
    DIELECTRIC,
    INDEX_RANGE,
    METAL,
    InputError,
    Material,
    MaterialConfigError,
    OpticalConstant,
    builtin_registry,
    effective_wire_permittivity,
    load_registry,
    permittivity,
    refractive_index,
)

NBN = OpticalConstant(4.905, 4.293)
# complex square of the NbN index, computed by hand:
# (4.905**2 - 4.293**2) - 2*4.905*4.293 i
EPS_NBN = complex(4.905**2 - 4.293**2, -2 * 4.905 * 4.293)

TABLE_NAMES = ("Vacuum", "NbN", "Si", "SiO", "SiO2", "Ta2O5", "PEC", "Ag")


class TestPermittivity:
    def test_vacuum_identity(self):
        assert permittivity(OpticalConstant(1.0)) == 1.0 + 0.0j

    def test_nbn(self):
        eps = permittivity(NBN)
        assert eps == pytest.approx(EPS_NBN, rel=1e-12)
        assert eps.real == pytest.approx(5.629176, abs=1e-9)
        assert eps.imag == pytest.approx(-42.11433, abs=1e-9)

    def test_sio2(self):
        assert permittivity(OpticalConstant(1.444)).real == pytest.approx(2.085136, rel=1e-12)
        assert permittivity(OpticalConstant(1.444)).imag == 0.0

    def test_sign_convention(self):
        # passive material with n_re >= 0 has Im(eps) <= 0
        for oc in (NBN, OpticalConstant(0.322, 10.99), OpticalConstant(2.0, 0.0)):
            assert permittivity(oc).imag <= 0.0


class TestRefractiveIndex:
    def test_vacuum(self):
        oc = refractive_index(1.0)
        assert (oc.n_re, oc.n_im) == (1.0, 0.0)

    def test_nbn_roundtrip(self):
        oc = refractive_index(EPS_NBN)
        assert oc.n_re == pytest.approx(4.905, rel=1e-12)
        assert oc.n_im == pytest.approx(4.293, rel=1e-12)

    def test_branch_rule(self):
        oc = refractive_index(-1.0)
        assert oc.n_re == pytest.approx(0.0, abs=1e-15)
        assert oc.n_im == pytest.approx(1.0, rel=1e-15)
        assert oc.n.imag <= 0.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            refractive_index(0.0)

    def test_permittivity_memo_is_exact(self):
        eps = 5.629176 - 42.11433j
        assert permittivity(refractive_index(eps)) == eps

    def test_roundtrip_random(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            oc = OpticalConstant(rng.uniform(0.05, 6.0), rng.uniform(0.0, 10.0))
            back = refractive_index(permittivity(oc))
            assert back.n == pytest.approx(oc.n, rel=1e-12)

    def test_negative_extinction_rejected(self):
        with pytest.raises(ValueError):
            OpticalConstant(1.0, -0.1)

    def test_index_magnitude_range(self):
        lo, hi = INDEX_RANGE
        # every built-in constant lies inside, the -1000i surrogate included
        assert all(lo <= abs(m.n) <= hi for m in builtin_registry())
        for n_re, n_im in ((lo, 0.0), (-lo, 0.0), (0.0, lo), (hi, 0.0), (0.6 * hi, 0.8 * hi)):
            OpticalConstant(n_re, n_im)
        for n_re, n_im in ((0.0, 0.0), (0.999 * lo, 0.0), (hi, 1.0), (1.0, float("nan")),
                           (float("inf"), 0.0)):
            with pytest.raises(InputError, match="index magnitude"):
                OpticalConstant(n_re, n_im)
        # a permittivity whose index falls outside is refused too
        with pytest.raises(InputError, match="index magnitude"):
            refractive_index(1e-300)


class TestEffectiveWirePermittivity:
    def test_all_metal_limit(self):
        assert effective_wire_permittivity(EPS_NBN, 1.0, 1.0) == EPS_NBN

    def test_all_slit_limit(self):
        assert effective_wire_permittivity(EPS_NBN, 1.0, 0.0) == 1.0 + 0.0j

    def test_half_fill(self):
        eps = effective_wire_permittivity(EPS_NBN, 1.0, 0.5)
        assert eps.real == pytest.approx(3.314588, abs=1e-9)
        assert eps.imag == pytest.approx(-21.057165, abs=1e-9)

    def test_linear_in_f(self):
        lo = effective_wire_permittivity(EPS_NBN, 1.0, 0.0)
        hi = effective_wire_permittivity(EPS_NBN, 1.0, 1.0)
        mid = effective_wire_permittivity(EPS_NBN, 1.0, 0.5)
        assert mid == (lo + hi) / 2

    @pytest.mark.parametrize("f", [-0.1, 1.1])
    def test_range_guard(self, f):
        with pytest.raises(ValueError):
            effective_wire_permittivity(EPS_NBN, 1.0, f)


class TestMaterial:
    def test_lossy_dielectric_rejected(self):
        with pytest.raises(ValueError):
            Material("bad", OpticalConstant(1.5, 0.2), DIELECTRIC)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Material("bad", OpticalConstant(1.5), "plasma")


class TestRegistry:
    def test_builtin_table(self):
        reg = builtin_registry()
        assert len(reg) == len(TABLE_NAMES)
        for name in TABLE_NAMES:
            assert reg.get(name).name == name

    def test_builtin_values(self):
        reg = builtin_registry()
        assert reg.get("NbN").n == complex(4.905, -4.293)
        assert reg.get("Si").n == 3.628
        assert reg.get("SiO").n == 1.551
        assert reg.get("SiO2").n == 1.444
        assert reg.get("Ta2O5").n == 2.15
        assert reg.get("Ag").n == complex(0.322, -10.99)
        assert reg.get("PEC").n == complex(0.0, -1000.0)
        assert reg.get("PEC").kind == METAL

    def test_dielectrics_are_lossless(self):
        for mat in builtin_registry():
            if mat.kind == DIELECTRIC:
                assert permittivity(mat.optical_constant).imag == 0.0

    def test_case_insensitive_lookup(self):
        reg = builtin_registry()
        assert reg.get("nbn") is reg.get("NbN")

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="known materials") as info:
            builtin_registry().get("Unobtanium")
        # a refusal too, whose text is the message, not KeyError's repr of it
        assert isinstance(info.value, InputError)
        assert str(info.value).startswith("unknown material 'Unobtanium'; known materials: Ag")

    def test_duplicate_rejected(self):
        reg = builtin_registry()
        with pytest.raises(MaterialConfigError):
            reg.add(Material("nbn", OpticalConstant(2.0, 1.0), METAL))


class TestLoadRegistry:
    def test_empty_document(self):
        assert load_registry(None).names() == list(TABLE_NAMES)
        assert load_registry({}).names() == list(TABLE_NAMES)
        assert load_registry({"materials": []}).names() == list(TABLE_NAMES)

    def test_additive_entry(self):
        reg = load_registry({"materials": [{"name": "MgF2", "n_re": 1.37}]})
        assert len(reg) == len(TABLE_NAMES) + 1
        assert reg.get("MgF2").n == 1.37
        assert reg.get("MgF2").kind == DIELECTRIC

    def test_kind_inference_metal(self):
        reg = load_registry({"materials": [{"name": "Au", "n_re": 0.55, "n_im": 11.5}]})
        assert reg.get("Au").kind == METAL

    def test_shadow_without_override_rejected(self):
        with pytest.raises(MaterialConfigError, match="override"):
            load_registry({"materials": [{"name": "NbN", "n_re": 5.0, "n_im": 4.0}]})

    def test_shadow_with_override(self):
        reg = load_registry(
            {"materials": [{"name": "NbN", "n_re": 5.0, "n_im": 4.0, "override": True}]}
        )
        assert reg.get("NbN").n == complex(5.0, -4.0)
        assert len(reg) == len(TABLE_NAMES)

    @pytest.mark.parametrize(
        "entry, match",
        [
            ({"n_re": 1.2}, "name"),
            ({"name": "X"}, "n_re"),
            ({"name": "X", "n_re": "big"}, "n_re"),
            pytest.param({"name": "X", "n_re": 1.0, "n_im": -1.0},
                         r"'materials\[0\]': extinction magnitude must be >= 0, got -1.0",
                         id="entry3-negative"),
            ({"name": "X", "n_re": 1.0, "colour": "blue"}, "unknown keys"),
            ({"name": "X", "n_re": 1.0, "kind": "plasma"}, "kind"),
            pytest.param({"name": "X", "n_re": float("nan")},
                         r"'materials\[0\]\.n_re' must be finite, got nan",
                         id="entry6-material 'X' has a non-finite 'n_re'"),
            pytest.param({"name": "X", "n_re": float("inf")},
                         r"'materials\[0\]\.n_re' must be finite, got inf",
                         id="entry7-material 'X' has a non-finite 'n_re'"),
            pytest.param({"name": "X", "n_re": 4.9, "n_im": float("nan")},
                         r"'materials\[0\]\.n_im' must be finite, got nan",
                         id="entry8-material 'X' has a non-finite 'n_im'"),
            pytest.param({"name": "X", "n_re": 4.9, "n_im": float("inf")},
                         r"'materials\[0\]\.n_im' must be finite, got inf",
                         id="entry9-material 'X' has a non-finite 'n_im'"),
        ],
    )
    def test_malformed_entry(self, entry, match):
        # the ids are the names these cases have long had in the suite's reports;
        # the messages they quote became key paths, as 'materials[0].n_re'
        with pytest.raises(MaterialConfigError, match=match):
            load_registry({"materials": [entry]})

    def test_unknown_top_level_key(self):
        with pytest.raises(MaterialConfigError, match="unknown keys"):
            load_registry({"stuff": []})

    def test_from_yaml_file(self, tmp_path):
        path = tmp_path / "materials.yaml"
        path.write_text("materials:\n  - {name: MgF2, n_re: 1.37, kind: dielectric}\n")
        assert load_registry(path).get("MgF2").n == 1.37

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "materials.json"
        path.write_text('{"materials": [{"name": "MgF2", "n_re": 1.37}]}')
        assert load_registry(str(path)).get("MgF2").n == 1.37
