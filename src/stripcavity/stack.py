"""Layered-structure model and builders for the three standard cavity layouts.

A :class:`Stack` is a semi-infinite input medium, an ordered list of finite
layers (input side first), and a semi-infinite output medium which may also
be an exact short-circuit terminal standing in for an ideal mirror. The
patterned superconducting wire enters as a single effective layer whose
permittivity mixes wire and slit material by the filling factor.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from pathlib import Path
from typing import Mapping

from ._record import Record
from .materials import (
    _REQUIRED,
    DIELECTRIC,
    METAL,
    InputError,
    Material,
    MaterialRegistry,
    _at_key,
    _read_fields,
    _read_yaml,
    _refusal,
    _registry,
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
    "Layout",
    "LAYOUTS",
]


# Reflector period counts above this are refused before any layer is built.
# Every period repeats the same two Layer objects, yet still adds two entries
# to the layer tuple and two layers to every chain product. The product
# overflows near 1781 SiO2/Ta2O5 or 9900 SiO2/SiO periods, so every built-in
# pair stays usable up to its overflow.
MAX_PERIODS = 10_000


class StackConfigError(InputError):
    """A stack config document is malformed."""

    document = "stack config"


def _check_thickness(thickness_nm: float) -> None:
    if not thickness_nm > 0:
        raise InputError(f"layer thickness must be > 0 nm, got {thickness_nm}")


def _check_periods(periods: int) -> None:
    """Refuse a reflector period count outside 1..MAX_PERIODS."""
    if periods < 1:
        raise InputError(f"period count must be >= 1, got {periods}")
    if periods > MAX_PERIODS:
        raise InputError(f"period count must be <= {MAX_PERIODS}, got {periods}")


def _check_dielectric(part: Material, role: str) -> None:
    if not part.optical_constant.is_lossless:
        raise InputError(f"{role} {part.name!r} must be a lossless dielectric")


class Layer(Record, namedtuple("Layer", "material thickness_nm")):
    """A finite layer: a material reference and a thickness in nm."""

    __slots__ = ()

    def __new__(cls, material: Material, thickness_nm: float):
        _check_thickness(thickness_nm)
        return tuple.__new__(cls, (material, thickness_nm))


class Medium(Record, namedtuple("Medium", "material", defaults=(None,))):
    """A semi-infinite medium, or the exact short-circuit terminal (material None)."""

    __slots__ = ()

    @property
    def is_short(self) -> bool:
        return self.material is None


EXACT_SHORT = Medium(None)


class Stack(Record, namedtuple("Stack", "input layers output")):
    """Input medium | ordered finite layers (a tuple) | output medium."""

    __slots__ = ()

    def __new__(cls, input: Medium, layers, output: Medium):
        layers = tuple(layers)
        if input.is_short:
            raise InputError("the short-circuit terminal is only allowed as the output medium")
        oc = input.material.optical_constant
        if not oc.is_lossless:
            raise InputError(
                f"input medium {input.material.name!r} must be lossless; "
                "the scattering formulas discard input/output absorption"
            )
        return tuple.__new__(cls, (input, layers, output))


def filling_factor(line_nm: float, slit_nm: float) -> float:
    """Line width over line-plus-slit width of the patterned wire."""
    if line_nm <= 0:
        raise InputError(f"line width must be > 0 nm, got {line_nm}")
    if slit_nm < 0:
        raise InputError(f"slit width must be >= 0 nm, got {slit_nm}")
    return line_nm / (line_nm + slit_nm)


class WireGeometry(
    Record, namedtuple("WireGeometry", "line_nm slit_nm wire_material slit_material thickness_nm")
):
    """Geometry of the patterned wire layer: widths, materials, thickness."""

    # no __slots__: the cached layer lives in the instance's __dict__

    def __new__(cls, line_nm: float, slit_nm: float, wire_material: Material,
                slit_material: Material, thickness_nm: float):
        filling_factor(line_nm, slit_nm)
        if not thickness_nm > 0:
            raise InputError(f"wire thickness must be > 0 nm, got {thickness_nm}")
        return tuple.__new__(cls, (line_nm, slit_nm, wire_material, slit_material, thickness_nm))

    @property
    def f(self) -> float:
        return filling_factor(self.line_nm, self.slit_nm)

    @cached_property
    def layer(self) -> Layer:
        """The effective wire layer, made once per geometry: every stack built
        on this geometry shares it."""
        return Layer(effective_wire_material(self), self.thickness_nm)


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
    try:
        oc = refractive_index(eps)
    except InputError as exc:  # wire and slit permittivities that (nearly) cancel
        raise InputError(f"the wire grating's effective index: {exc}") from None
    kind = METAL if oc.n_im > 0 else DIELECTRIC
    name = f"{wire.wire_material.name}/{wire.slit_material.name} grating (f={wire.f:.6g})"
    return Material(name, oc, kind)


def quarter_wave_thickness(material: Material, wavelength_nm: float) -> float:
    """Quarter of the wavelength scaled by the material's real index; both
    must be positive."""
    n_re = material.optical_constant.n_re
    if not (wavelength_nm > 0 and n_re > 0):
        raise InputError(
            f"a quarter-wave layer of {material.name!r} needs a positive wavelength and real "
            f"index, got a {wavelength_nm} nm wavelength and n_re = {n_re}"
        )
    return wavelength_nm / (4.0 * n_re)


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
    return _assemble(
        SSC, wire, (dielectric,), (d_c_nm,), mirror, d_m_nm, None,
        input_medium, output_medium, wavelength_nm, registry,
    )


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
    return _assemble(
        DSC, wire, (lower, upper), (d_c1_nm, d_c2_nm), mirror, d_m_nm, None,
        input_medium, output_medium, wavelength_nm, registry,
    )


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
    return _assemble(
        MLC, wire, (c1, c2), (None, None), None, None, periods,
        input_medium, output_medium, wavelength_nm, registry,
    )


def _assemble(
    layout, wire, parts, part_nm, mirror, d_m_nm, periods, input, output, wavelength_nm, registry
) -> Stack:
    """The stack of a standard layout: its parts in input-side order (a None
    part is the layout's default material, a None thickness quarter-wave) with
    the wire at ``wire_index``, ended by the mirror, or without one by the
    two layers of the last two parts, the reflector pair, repeated
    ``periods`` times."""
    registry = _registry(registry)
    films = []  # (material, thickness) per part
    for part, nm, (_, default, role) in zip(parts, part_nm, layout.parts):
        part = part or registry.get(default)
        _check_dielectric(part, role)
        films.append((part, quarter_wave_thickness(part, wavelength_nm) if nm is None else nm))
    output = Medium(output or registry.get("Vacuum"))
    if layout.has_mirror:
        # the exact short terminal, the ideal mirror's surrogate film, or a metal film
        mirror = mirror or registry.get("PEC")
        if isinstance(mirror, Medium):
            if not mirror.is_short:
                raise InputError("a Medium mirror must be the exact short terminal")
            end, output = [], EXACT_SHORT
        else:
            end = [Layer(mirror, d_m_nm)]
    else:
        (low, _), (high, _) = films[-2:]
        if low.optical_constant.n_re >= high.optical_constant.n_re:
            raise InputError(
                "the reflector layer adjacent to the wire must have the smaller refractive "
                f"index, got n({low.name}) = {low.optical_constant.n_re} >= "
                f"n({high.name}) = {high.optical_constant.n_re}"
            )
        _check_periods(periods)
        end = [Layer(part, nm) for part, nm in films[-2:]] * periods  # frozen: one shared pair
        del films[-2:]
    layers = [Layer(part, nm) for part, nm in films]
    layers.insert(layout.wire_index, wire.layer)
    input = Medium(input or registry.get(layout.input_medium))
    return Stack(input, (*layers, *end), output)


class Layout(
    namedtuple("Layout", "name parts wire_index spacer slit_fill input_medium has_mirror build")
):
    """One standard cavity layout, as the design flow and stack configs see it.

    ``parts`` are the dielectric layers as (stack-config key, default
    material, role in error messages), filling the layers around the wire in
    input-side order; ``spacer`` and ``slit_fill`` index into them (no filler
    means vacuum). A layout that ``has_mirror`` takes each part's thickness as
    ``<key>_nm``; one without is backed by ``periods`` copies of its last two
    parts, a quarter-wave reflector pair. ``build(wire, parts, part_nm,
    mirror, mirror_nm, periods, input, output, wavelength, registry)`` calls
    the builder by its module-level name, so a wrapper on this module sees
    every stack; a None in ``parts`` is the default material, one in
    ``part_nm`` quarter-wave.
    """

    __slots__ = ()

    @property
    def spacer_index(self) -> int | None:
        """Layer index of the spacer in the built stack, or None."""
        return None if self.spacer is None else self.spacer + (self.spacer >= self.wire_index)


SSC = Layout(
    "ssc", (("dielectric", "SiO", "spacer dielectric"),), wire_index=0, spacer=0, slit_fill=None,
    input_medium="Vacuum", has_mirror=True,
    build=lambda w, p, nm, m, m_nm, n, *media: build_ssc(w, p[0], nm[0], m, m_nm, *media),
)
DSC = Layout(
    "dsc", (("lower", "SiO2", "lower dielectric"), ("upper", "SiO", "upper dielectric")),
    wire_index=1, spacer=1, slit_fill=1,
    input_medium="Si", has_mirror=True,
    build=lambda w, p, nm, m, m_nm, n, *media: build_dsc(
        w, p[0], nm[0], p[1], nm[1], m, m_nm, *media
    ),
)
MLC = Layout(
    "mlc", (("c1", "SiO2", "reflector dielectric c1"), ("c2", "Ta2O5", "reflector dielectric c2")),
    wire_index=0, spacer=None, slit_fill=None,
    input_medium="Vacuum", has_mirror=False,
    build=lambda w, p, nm, m, m_nm, n, *media: build_mlc(w, p[0], p[1], n, *media),
)
LAYOUTS = {SSC.name: SSC, DSC.name: DSC, MLC.name: MLC}


class StackConfig(Record, namedtuple(
    "StackConfig", "cavity stack wavelength_nm wire_layer_index dielectric_layer_index",
    defaults=(None, None),
)):
    """Parsed stack config: the concrete stack plus its evaluation wavelength,
    and the indices of its wire and dielectric layers (None where it has none)."""

    __slots__ = ()


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


def _resolve_output(token: str, registry: MaterialRegistry) -> Material | Medium:
    """An output medium of a stack config: ``short`` is the exact short terminal."""
    return EXACT_SHORT if token == "short" else registry.get(token)


# The field tables of a stack config (see materials._read_fields): the keys
# of every config, the wire block and a custom layer. A standard layout's
# own keys come from its Layout row.
_COMMON_FIELDS = {
    "cavity": ("choice", _REQUIRED, (*LAYOUTS, "custom")),
    "wavelength_nm": ("number", 1550.0),
    "input": ("material", None),  # None: the layout's default input medium
    "output": ("material", None, _resolve_output),  # None: vacuum
}
_WIRE_FIELDS = {
    "line_nm": ("number", 80.0),
    "slit_nm": ("number", 80.0),
    "material": ("material", "NbN"),
    "slit_material": ("material", None),  # None: the layout's slit filler, else vacuum
    "thickness_nm": ("number", _REQUIRED),
}
_LAYER_FIELDS = {"material": ("material", _REQUIRED), "thickness_nm": ("number", _REQUIRED)}


def _config_fields(layout: Layout | None) -> dict:
    """The field table of a stack config of ``layout``, None for a custom one."""
    if layout is None:
        return {**_COMMON_FIELDS, "layers": ("list", _REQUIRED, _LAYER_FIELDS)}
    fields = {**_COMMON_FIELDS, "wire": ("mapping", _REQUIRED, _WIRE_FIELDS)}
    fields.update({key: ("material", default) for key, default, _ in layout.parts})
    if layout.has_mirror:
        # a None part thickness is quarter-wave
        fields.update({key + "_nm": ("number", None) for key, *_ in layout.parts})
        fields["mirror"] = ("material", "pec-surrogate", resolve_mirror)
        fields["mirror_nm"] = ("number", 130.0)
    else:
        fields["periods"] = ("integer", 6)
    return fields


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

    A wrong key anywhere is named by its path, for example
    ``layers[0].thickness_nm``, and unknown keys are rejected.
    """
    registry = _registry(registry)
    if isinstance(source, (str, Path)):
        source = _read_yaml(source, StackConfigError)
    # A 'cavity' that names no layout reads the custom table, whose first
    # key, 'cavity', then refuses it.
    cavity = source.get("cavity") if isinstance(source, Mapping) else None
    layout = LAYOUTS.get(cavity) if isinstance(cavity, str) else None
    values = _read_fields(source, _config_fields(layout), StackConfigError, registry)
    wavelength, input, output = values["wavelength_nm"], values["input"], values["output"]
    if layout is None:  # custom
        if not values["layers"]:
            raise _refusal(StackConfigError, "layers", "must be a non-empty list, got []")
        layers = []
        for i, item in enumerate(values["layers"]):
            with _at_key(StackConfigError, f"layers[{i}]"):
                layers.append(Layer(item["material"], item["thickness_nm"]))
        output = output if output is EXACT_SHORT else Medium(output or registry.get("Vacuum"))
        stack = Stack(Medium(input or registry.get("Vacuum")), layers, output)
        return StackConfig("custom", stack, wavelength)

    # a short or an index-less half-space behind the stack would be an ideal
    # mirror, which ssc and dsc spell as their mirror and mlc has no key for
    advice = "; use mirror: pec" if layout.has_mirror else ""
    if output is EXACT_SHORT:
        raise _refusal(StackConfigError, "output",
                       "cannot be short in a standard cavity" + advice)
    if output is not None and (n_re := output.optical_constant.n_re) <= 0:
        raise _refusal(StackConfigError, "output", "must have a positive real index, "
                       f"got {output.name!r} with n_re = {n_re:g}" + advice)
    parts = [values[key] for key, *_ in layout.parts]
    part_nm = [values.get(key + "_nm") for key, *_ in layout.parts]
    wire = values["wire"]
    fill = registry.get("Vacuum") if layout.slit_fill is None else parts[layout.slit_fill]
    with _at_key(StackConfigError, "wire"):
        wire = WireGeometry(wire["line_nm"], wire["slit_nm"], wire["material"],
                            wire["slit_material"] or fill, wire["thickness_nm"])
        wire.layer  # made here, so a refusal of the grating's index names its key
    # the builder's guards on the values given, run here to name their keys
    for (key, _, role), part, nm in zip(layout.parts, parts, part_nm):
        with _at_key(StackConfigError, key):
            _check_dielectric(part, role)
        if nm is not None:
            with _at_key(StackConfigError, key + "_nm"):
                _check_thickness(nm)
    if layout.has_mirror and values["mirror"] is not EXACT_SHORT:
        with _at_key(StackConfigError, "mirror_nm"):
            _check_thickness(values["mirror_nm"])
    stack = layout.build(
        wire, parts, part_nm, values.get("mirror"),
        values.get("mirror_nm"), values.get("periods"), input, output, wavelength, registry,
    )
    return StackConfig(layout.name, stack, wavelength, layout.wire_index, layout.spacer_index)
