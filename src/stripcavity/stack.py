"""Layered-structure model and builders for the three standard cavity layouts.

A :class:`Stack` is a semi-infinite input medium, an ordered list of finite
layers (input side first), and a semi-infinite output medium which may also
be an exact short-circuit terminal standing in for an ideal mirror. The
patterned superconducting wire enters as a single effective layer whose
permittivity mixes wire and slit material by the filling factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .materials import (
    DIELECTRIC,
    METAL,
    PEC_TERMINAL,
    Material,
    MaterialRegistry,
    _read_yaml,
    builtin_registry,
    effective_wire_permittivity,
    permittivity,
    refractive_index,
)

__all__ = [
    "Layer",
    "Medium",
    "EXACT_SHORT",
    "Stack",
    "WireGeometry",
    "StackConfigError",
    "filling_factor",
    "wire_permittivity",
    "effective_wire_material",
    "quarter_wave_thickness",
    "build_ssc",
    "build_dsc",
    "build_mlc",
    "load_stack_config",
    "StackConfig",
    "MAX_PERIODS",
]


# Reflector period counts above this are refused before any layer is built.
# Each period is two Layer objects. The chain product overflows near 1781
# SiO2/Ta2O5 or 9900 SiO2/SiO periods, so every built-in pair stays usable up
# to its overflow.
MAX_PERIODS = 10_000


class StackConfigError(ValueError):
    """A stack config document is malformed."""


@dataclass(frozen=True)
class Layer:
    """A finite layer: a material reference and a thickness in nm."""

    material: Material
    thickness_nm: float

    def __post_init__(self) -> None:
        if not self.thickness_nm > 0:
            raise ValueError(f"layer thickness must be > 0 nm, got {self.thickness_nm}")
        if self.material.kind == PEC_TERMINAL:
            raise ValueError(
                "the ideal-mirror marker cannot form a finite layer; "
                "use its -1000i surrogate material instead"
            )


@dataclass(frozen=True)
class Medium:
    """A semi-infinite medium, or the exact short-circuit terminal (material None).

    The ideal-mirror marker material normalises to the short terminal: as an
    output medium it means zero impedance, not a film of its surrogate index.
    """

    material: Material | None = None

    def __post_init__(self) -> None:
        if self.material is not None and self.material.kind == PEC_TERMINAL:
            object.__setattr__(self, "material", None)

    @property
    def is_short(self) -> bool:
        return self.material is None


EXACT_SHORT = Medium(None)


@dataclass(frozen=True)
class Stack:
    """Input medium | ordered finite layers | output medium."""

    input: Medium
    layers: tuple[Layer, ...]
    output: Medium

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.input.is_short:
            raise ValueError("the short-circuit terminal is only allowed as the output medium")
        oc = self.input.material.optical_constant
        if not oc.is_lossless:
            raise ValueError(
                f"input medium {self.input.material.name!r} must be lossless; "
                "the scattering formulas discard input/output absorption"
            )

    def replace_thickness(self, index: int, thickness_nm: float) -> "Stack":
        """Copy of the stack with one layer thickness changed."""
        layers = list(self.layers)
        layers[index] = Layer(layers[index].material, thickness_nm)
        return Stack(self.input, tuple(layers), self.output)


def filling_factor(line_nm: float, slit_nm: float) -> float:
    """Line width over line-plus-slit width of the patterned wire."""
    if line_nm <= 0:
        raise ValueError(f"line width must be > 0 nm, got {line_nm}")
    if slit_nm < 0:
        raise ValueError(f"slit width must be >= 0 nm, got {slit_nm}")
    return line_nm / (line_nm + slit_nm)


@dataclass(frozen=True)
class WireGeometry:
    """Geometry of the patterned wire layer: widths, materials, thickness."""

    line_nm: float
    slit_nm: float
    wire_material: Material
    slit_material: Material
    thickness_nm: float

    def __post_init__(self) -> None:
        filling_factor(self.line_nm, self.slit_nm)
        if not self.thickness_nm > 0:
            raise ValueError(f"wire thickness must be > 0 nm, got {self.thickness_nm}")

    @property
    def f(self) -> float:
        return filling_factor(self.line_nm, self.slit_nm)


def wire_permittivity(wire: WireGeometry) -> complex:
    """Effective permittivity of the wire layer for its geometry."""
    return effective_wire_permittivity(
        permittivity(wire.wire_material.optical_constant),
        permittivity(wire.slit_material.optical_constant),
        wire.f,
    )


def effective_wire_material(wire: WireGeometry) -> Material:
    """Synthetic material carrying the effective wire-layer permittivity."""
    eps = wire_permittivity(wire)
    oc = refractive_index(eps)
    kind = METAL if oc.n_im > 0 else DIELECTRIC
    name = f"{wire.wire_material.name}/{wire.slit_material.name} grating (f={wire.f:.6g})"
    return Material(name, oc, kind)


def quarter_wave_thickness(material: Material, wavelength_nm: float) -> float:
    """Quarter of the wavelength scaled by the material's real index."""
    return wavelength_nm / (4.0 * material.optical_constant.n_re)


def _registry_default(registry: MaterialRegistry | None) -> MaterialRegistry:
    return registry if registry is not None else builtin_registry()


def _require_lossless(material: Material, role: str) -> None:
    if not material.optical_constant.is_lossless:
        raise ValueError(f"{role} {material.name!r} must be a lossless dielectric")


def _mirror_parts(
    mirror: Material | Medium | None,
    d_m_nm: float,
    output: Medium,
    registry: MaterialRegistry,
) -> tuple[list[Layer], Medium]:
    """Mirror realisation: exact short terminal, surrogate film, or metal film."""
    if mirror is None:
        mirror = registry.get("PEC")
    if isinstance(mirror, Medium):
        if not mirror.is_short:
            raise ValueError("a Medium mirror must be the exact short terminal")
        return [], EXACT_SHORT
    if mirror.kind == PEC_TERMINAL:
        surrogate = Material(
            f"{mirror.name} film", mirror.optical_constant, METAL
        )
        return [Layer(surrogate, d_m_nm)], output
    return [Layer(mirror, d_m_nm)], output


def _medium(material: Material | None, registry: MaterialRegistry, default: str) -> Medium:
    return Medium(material if material is not None else registry.get(default))


def build_ssc(
    wire: WireGeometry,
    dielectric: Material | None = None,
    d_c_nm: float | None = None,
    mirror: Material | Medium | None = None,
    d_m_nm: float = 130.0,
    input_medium: Material | None = None,
    output_medium: Material | None = None,
    wavelength_nm: float = 1550.0,
    registry: MaterialRegistry | None = None,
) -> Stack:
    """Cavity with one spacer and a mirror on top of the wire.

    Layer order from the input side: wire | spacer | mirror. Defaults: vacuum
    input and output, SiO spacer at quarter-wave thickness, 130 nm ideal-mirror
    surrogate film.
    """
    registry = _registry_default(registry)
    dielectric = dielectric if dielectric is not None else registry.get("SiO")
    _require_lossless(dielectric, "spacer dielectric")
    if d_c_nm is None:
        d_c_nm = quarter_wave_thickness(dielectric, wavelength_nm)
    output = _medium(output_medium, registry, "Vacuum")
    mirror_layers, output = _mirror_parts(mirror, d_m_nm, output, registry)
    layers = [
        Layer(effective_wire_material(wire), wire.thickness_nm),
        Layer(dielectric, d_c_nm),
        *mirror_layers,
    ]
    return Stack(_medium(input_medium, registry, "Vacuum"), tuple(layers), output)


def build_dsc(
    wire: WireGeometry,
    lower: Material | None = None,
    d_c1_nm: float | None = None,
    upper: Material | None = None,
    d_c2_nm: float | None = None,
    mirror: Material | Medium | None = None,
    d_m_nm: float = 130.0,
    input_medium: Material | None = None,
    output_medium: Material | None = None,
    wavelength_nm: float = 1550.0,
    registry: MaterialRegistry | None = None,
) -> Stack:
    """Cavity with dielectrics below and above the wire plus a top mirror.

    Layer order from the input side: lower | wire | upper | mirror. Defaults
    model backside illumination: Si input, SiO2 below, SiO above, 130 nm
    ideal-mirror surrogate film, vacuum output.
    """
    registry = _registry_default(registry)
    lower = lower if lower is not None else registry.get("SiO2")
    upper = upper if upper is not None else registry.get("SiO")
    _require_lossless(lower, "lower dielectric")
    _require_lossless(upper, "upper dielectric")
    if d_c1_nm is None:
        d_c1_nm = quarter_wave_thickness(lower, wavelength_nm)
    if d_c2_nm is None:
        d_c2_nm = quarter_wave_thickness(upper, wavelength_nm)
    output = _medium(output_medium, registry, "Vacuum")
    mirror_layers, output = _mirror_parts(mirror, d_m_nm, output, registry)
    layers = [
        Layer(lower, d_c1_nm),
        Layer(effective_wire_material(wire), wire.thickness_nm),
        Layer(upper, d_c2_nm),
        *mirror_layers,
    ]
    return Stack(_medium(input_medium, registry, "Si"), tuple(layers), output)


def build_mlc(
    wire: WireGeometry,
    c1: Material | None = None,
    c2: Material | None = None,
    periods: int = 6,
    input_medium: Material | None = None,
    output_medium: Material | None = None,
    wavelength_nm: float = 1550.0,
    registry: MaterialRegistry | None = None,
) -> Stack:
    """Cavity backed by a quarter-wave dielectric reflector stack.

    Layer order from the input side: wire | (c1, c2) * periods, every
    dielectric at quarter-wave thickness. The layer adjacent to the wire must
    have the smaller refractive index. Defaults: vacuum both sides, SiO2/Ta2O5
    pairs.
    """
    registry = _registry_default(registry)
    c1 = c1 if c1 is not None else registry.get("SiO2")
    c2 = c2 if c2 is not None else registry.get("Ta2O5")
    _require_lossless(c1, "reflector dielectric c1")
    _require_lossless(c2, "reflector dielectric c2")
    if c1.optical_constant.n_re >= c2.optical_constant.n_re:
        raise ValueError(
            f"the layer adjacent to the wire must have the smaller refractive index, "
            f"got n({c1.name}) = {c1.optical_constant.n_re} >= "
            f"n({c2.name}) = {c2.optical_constant.n_re}"
        )
    if periods < 1:
        raise ValueError(f"period count must be >= 1, got {periods}")
    if periods > MAX_PERIODS:
        raise ValueError(f"period count must be <= {MAX_PERIODS}, got {periods}")
    layers = [Layer(effective_wire_material(wire), wire.thickness_nm)]
    d1 = quarter_wave_thickness(c1, wavelength_nm)
    d2 = quarter_wave_thickness(c2, wavelength_nm)
    for _ in range(periods):
        layers.append(Layer(c1, d1))
        layers.append(Layer(c2, d2))
    return Stack(
        _medium(input_medium, registry, "Vacuum"),
        tuple(layers),
        _medium(output_medium, registry, "Vacuum"),
    )


@dataclass(frozen=True)
class StackConfig:
    """Parsed stack config: the concrete stack plus its evaluation wavelength."""

    cavity: str
    stack: Stack
    wavelength_nm: float
    wire_layer_index: int | None = None
    dielectric_layer_index: int | None = None


_CAVITIES = ("ssc", "dsc", "mlc", "custom")


def _require_keys(doc: Mapping, allowed: set[str], label: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise StackConfigError(f"{label} has unknown keys: {sorted(unknown)}")


def _get_number(doc: Mapping, key: str, label: str, default: float | None = None) -> float:
    if key not in doc:
        if default is None:
            raise StackConfigError(f"{label} needs '{key}'")
        return default
    value = doc[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise StackConfigError(f"{label}: '{key}' must be a number")
    if not math.isfinite(value):
        raise StackConfigError(f"{label}: '{key}' must be finite, got {value}")
    return float(value)


def _parse_wire(doc: Mapping, registry: MaterialRegistry, thickness_required: bool) -> WireGeometry:
    if "wire" not in doc:
        raise StackConfigError("stack config needs a 'wire' block")
    wire = doc["wire"]
    if not isinstance(wire, Mapping):
        raise StackConfigError("'wire' must be a mapping")
    _require_keys(wire, {"line_nm", "slit_nm", "material", "slit_material", "thickness_nm"}, "'wire'")
    line = _get_number(wire, "line_nm", "'wire'", 80.0)
    slit = _get_number(wire, "slit_nm", "'wire'", 80.0)
    thickness = _get_number(wire, "thickness_nm", "'wire'", None if thickness_required else 10.0)
    material = registry.get(str(wire.get("material", "NbN")))
    slit_material = registry.get(str(wire["slit_material"])) if "slit_material" in wire else None
    return WireGeometry(line, slit, material, slit_material or registry.get("Vacuum"), thickness)


def resolve_mirror(token: str, registry: MaterialRegistry) -> Material | Medium:
    """Map a mirror token to a buildable mirror.

    ``pec`` is the exact short terminal, ``pec-surrogate`` the -1000i film;
    any other token is looked up as a material name.
    """
    if token == "pec":
        return EXACT_SHORT
    if token == "pec-surrogate":
        return registry.get("PEC")
    return registry.get(token)


def load_stack_config(
    source: str | Path | Mapping, registry: MaterialRegistry | None = None
) -> StackConfig:
    """Parse a stack config document into a concrete :class:`Stack`.

    Schema (standard cavities)::

        cavity: ssc | dsc | mlc
        wavelength_nm: 1550
        wire: {line_nm, slit_nm, material, slit_material, thickness_nm}
        # ssc: dielectric, dielectric_nm?, mirror, mirror_nm
        # dsc: lower, lower_nm?, upper, upper_nm?, mirror, mirror_nm
        # mlc: c1, c2, periods
        input: Vacuum
        output: Vacuum

    Custom cavities give an explicit ordered layer list instead of the wire
    block::

        cavity: custom
        layers: [{material: SiO, thickness_nm: 250}, ...]

    Unknown keys anywhere are rejected.
    """
    registry = _registry_default(registry)
    if isinstance(source, (str, Path)):
        doc = _read_yaml(source, "stack config", StackConfigError)
    else:
        doc = source
    if not isinstance(doc, Mapping):
        raise StackConfigError("stack config must be a mapping at the top level")

    cavity = doc.get("cavity")
    if cavity not in _CAVITIES:
        raise StackConfigError(f"'cavity' must be one of {_CAVITIES}, got {cavity!r}")
    wavelength = _get_number(doc, "wavelength_nm", "stack config", 1550.0)

    common = {"cavity", "wavelength_nm", "input", "output"}
    input_mat = registry.get(str(doc.get("input"))) if "input" in doc else None
    output_token = str(doc["output"]) if "output" in doc else None
    output_mat = None
    if output_token is not None:
        output_mat = None if output_token == "short" else registry.get(output_token)

    if cavity == "custom":
        _require_keys(doc, common | {"layers"}, "stack config")
        entries = doc.get("layers")
        if not isinstance(entries, list) or not entries:
            raise StackConfigError("custom stack config needs a non-empty 'layers' list")
        layers = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, Mapping):
                raise StackConfigError(f"layers[{i}] must be a mapping")
            _require_keys(entry, {"material", "thickness_nm"}, f"layers[{i}]")
            mat = registry.get(str(entry.get("material")))
            layers.append(Layer(mat, _get_number(entry, "thickness_nm", f"layers[{i}]")))
        inp = Medium(input_mat if input_mat is not None else registry.get("Vacuum"))
        out = EXACT_SHORT if output_token == "short" else Medium(
            output_mat if output_mat is not None else registry.get("Vacuum")
        )
        stack = Stack(inp, tuple(layers), out)
        return StackConfig("custom", stack, wavelength)

    if output_token == "short":
        raise StackConfigError("use mirror: pec for a short-terminated standard cavity")

    if cavity == "ssc":
        _require_keys(doc, common | {"wire", "dielectric", "dielectric_nm", "mirror", "mirror_nm"}, "stack config")
        wire = _parse_wire(doc, registry, thickness_required=True)
        dielectric = registry.get(str(doc.get("dielectric", "SiO")))
        d_c = _get_number(doc, "dielectric_nm", "stack config", quarter_wave_thickness(dielectric, wavelength))
        mirror = resolve_mirror(str(doc.get("mirror", "pec-surrogate")), registry)
        stack = build_ssc(
            wire, dielectric, d_c, mirror, _get_number(doc, "mirror_nm", "stack config", 130.0),
            input_mat, output_mat, wavelength, registry,
        )
        return StackConfig("ssc", stack, wavelength, wire_layer_index=0, dielectric_layer_index=1)

    if cavity == "dsc":
        _require_keys(
            doc, common | {"wire", "lower", "lower_nm", "upper", "upper_nm", "mirror", "mirror_nm"}, "stack config"
        )
        wire = _parse_wire(doc, registry, thickness_required=True)
        lower = registry.get(str(doc.get("lower", "SiO2")))
        upper = registry.get(str(doc.get("upper", "SiO")))
        if "slit_material" not in doc["wire"]:
            wire = WireGeometry(wire.line_nm, wire.slit_nm, wire.wire_material, upper, wire.thickness_nm)
        d_c1 = _get_number(doc, "lower_nm", "stack config", quarter_wave_thickness(lower, wavelength))
        d_c2 = _get_number(doc, "upper_nm", "stack config", quarter_wave_thickness(upper, wavelength))
        mirror = resolve_mirror(str(doc.get("mirror", "pec-surrogate")), registry)
        stack = build_dsc(
            wire, lower, d_c1, upper, d_c2, mirror,
            _get_number(doc, "mirror_nm", "stack config", 130.0),
            input_mat, output_mat, wavelength, registry,
        )
        return StackConfig("dsc", stack, wavelength, wire_layer_index=1, dielectric_layer_index=2)

    _require_keys(doc, common | {"wire", "c1", "c2", "periods"}, "stack config")
    wire = _parse_wire(doc, registry, thickness_required=True)
    c1 = registry.get(str(doc.get("c1", "SiO2")))
    c2 = registry.get(str(doc.get("c2", "Ta2O5")))
    periods = doc.get("periods", 6)
    if not isinstance(periods, int) or isinstance(periods, bool):
        raise StackConfigError("'periods' must be an integer")
    stack = build_mlc(wire, c1, c2, periods, input_mat, output_mat, wavelength, registry)
    return StackConfig("mlc", stack, wavelength, wire_layer_index=0)
