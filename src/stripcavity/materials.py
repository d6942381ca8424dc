"""Complex optical constants and the built-in material table.

Sign convention used throughout this package: a complex refractive index is
written n = n_re - i*n_im with n_im >= 0, the relative permittivity is
eps = n**2 (so Im(eps) <= 0 for any passive medium), and a layer of index n
has propagation constant gamma = +i*k0*n. Metals therefore carry negative
imaginary parts in both n and eps; keeping this signed form consistent is
what makes every closed-form expression in :mod:`stripcavity.analytic` come
out with the right sign.

All built-in constants are single-wavelength values for 1550 nm; a material
config file can add or (with an explicit override flag) replace entries.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from ._record import Record

__all__ = [
    "DIELECTRIC",
    "METAL",
    "INDEX_RANGE",
    "OpticalConstant",
    "Material",
    "MaterialRegistry",
    "InputError",
    "UnknownMaterialError",
    "MaterialConfigError",
    "permittivity",
    "refractive_index",
    "effective_wire_permittivity",
    "builtin_registry",
    "load_registry",
]

DIELECTRIC = "dielectric"
METAL = "metal"

_KINDS = (DIELECTRIC, METAL)

# The index magnitudes |n| an optical constant may have: every built-in
# constant lies inside, from Vacuum's 1 to the ideal mirror's surrogate
# 1000. Inside it a product or quotient of a few indices, as the closed
# forms take them, stays far from a float's underflow and overflow.
INDEX_RANGE = (1e-3, 1e4)


class InputError(ValueError):
    """An input the package refuses: a flag, a config value or a design it
    cannot make. Every deliberate refusal raises this class or a subclass,
    and the command line prints it as its one ``error:`` line."""


class UnknownMaterialError(InputError, KeyError):
    """A material name the registry does not hold; a KeyError too, as a
    mapping's lookup would raise."""

    __str__ = BaseException.__str__  # the message, not KeyError's repr of it


class MaterialConfigError(InputError):
    """A material config document is malformed or conflicts with the registry."""

    document = "material config"


class OpticalConstant(Record, namedtuple("OpticalConstant", "n_re n_im")):
    """Complex refractive index split into real part and extinction magnitude.

    The stored pair (n_re, n_im) encodes n = n_re - i*n_im, with n_im >= 0
    and the magnitude |n| inside `INDEX_RANGE`. When an instance is produced
    from a permittivity (see :func:`refractive_index`), the exact source
    value is memoised as ``_eps`` so the round trip back to eps is lossless;
    ``_eps`` takes no part in equality, hash or repr.
    """

    _eps = None  # the instance's own, when given, is in its __dict__

    def __new__(cls, n_re: float, n_im: float = 0.0, _eps: complex | None = None):
        if n_im < 0:
            raise InputError(f"extinction magnitude must be >= 0, got {n_im}")
        lo, hi = INDEX_RANGE
        magnitude = math.hypot(n_re, n_im)
        if not lo <= magnitude <= hi:  # NaN fails too
            raise InputError(
                f"index magnitude |n| must lie in [{lo:g}, {hi:g}], got {magnitude:.12g}"
            )
        self = tuple.__new__(cls, (n_re, n_im))
        if _eps is not None:
            self.__dict__["_eps"] = _eps
        return self

    @property
    def n(self) -> complex:
        """The complex index n_re - i*n_im."""
        return complex(self.n_re, -self.n_im)

    @property
    def is_lossless(self) -> bool:
        return self.n_im == 0.0


def permittivity(n: OpticalConstant) -> complex:
    """Relative permittivity eps = n**2 under the package sign convention."""
    if n._eps is not None:
        return n._eps
    return n.n * n.n


def refractive_index(eps: complex) -> OpticalConstant:
    """Square root of a permittivity on the branch with Im(n) <= 0.

    Raises:
        InputError: for eps = 0, which has no usable index.
    """
    eps = complex(eps)
    if eps == 0:
        raise InputError("permittivity must be nonzero")
    root = cmath.sqrt(eps)
    if root.imag > 0:
        root = -root
    return OpticalConstant(root.real, -root.imag, _eps=eps)


def effective_wire_permittivity(eps_metal: complex, eps_slit: complex, f: float) -> complex:
    """Permittivity of a patterned wire layer as a filling-factor weighted mix.

    Valid when the wire pitch is far from the wavelength and the field is
    polarised along the wires, so the grating behaves as a uniform layer with
    eps = eps_metal*f + eps_slit*(1 - f).
    """
    if not 0.0 <= f <= 1.0:
        raise InputError(f"filling factor must lie in [0, 1], got {f}")
    return complex(eps_metal) * f + complex(eps_slit) * (1.0 - f)


class Material(Record, namedtuple("Material", "name optical_constant kind")):
    """A named material with one complex optical constant.

    kind is ``dielectric`` (must be lossless) or ``metal``.
    """

    __slots__ = ()

    def __new__(cls, name: str, optical_constant: OpticalConstant, kind: str = DIELECTRIC):
        if kind not in _KINDS:
            raise InputError(f"unknown material kind {kind!r}; expected one of {_KINDS}")
        if kind == DIELECTRIC and not optical_constant.is_lossless:
            raise InputError(
                f"dielectric {name!r} must be lossless (n_im = 0), "
                f"got n_im = {optical_constant.n_im}"
            )
        return tuple.__new__(cls, (name, optical_constant, kind))

    @property
    def n(self) -> complex:
        return self.optical_constant.n


_BUILTIN = (
    Material("Vacuum", OpticalConstant(1.0), DIELECTRIC),
    Material("NbN", OpticalConstant(4.905, 4.293), METAL),
    Material("Si", OpticalConstant(3.628), DIELECTRIC),
    Material("SiO", OpticalConstant(1.551), DIELECTRIC),
    Material("SiO2", OpticalConstant(1.444), DIELECTRIC),
    Material("Ta2O5", OpticalConstant(2.15), DIELECTRIC),
    Material("PEC", OpticalConstant(0.0, 1000.0), METAL),  # the ideal mirror's surrogate
    Material("Ag", OpticalConstant(0.322, 10.99), METAL),
)


class MaterialRegistry:
    """Name -> material lookup, preloaded with the built-in table.

    Lookups are case-insensitive; stored names keep their original spelling.
    Adding a name that already exists requires ``override=True``.
    """

    def __init__(self, materials: Iterable[Material] | None = None):
        self._by_key: dict[str, Material] = {}
        for mat in materials if materials is not None else _BUILTIN:
            self.add(mat)

    def add(self, material: Material, override: bool = False) -> None:
        key = material.name.lower()
        if key in self._by_key and not override:
            raise MaterialConfigError(
                f"material {material.name!r} already registered; "
                "pass override to replace it"
            )
        self._by_key[key] = material

    def get(self, name: str) -> Material:
        key = name.lower()
        if key not in self._by_key:
            known = ", ".join(sorted(m.name for m in self._by_key.values()))
            raise UnknownMaterialError(f"unknown material {name!r}; known materials: {known}")
        return self._by_key[key]

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[Material]:
        return iter(self._by_key.values())

    def names(self) -> list[str]:
        return [m.name for m in self._by_key.values()]


def builtin_registry() -> MaterialRegistry:
    """A fresh registry holding exactly the built-in material table."""
    return MaterialRegistry()


def _registry(registry: MaterialRegistry | None) -> MaterialRegistry:
    """``registry``, or the built-in table when it is None."""
    return registry if registry is not None else builtin_registry()


# A config document is read against a field table: key -> (kind, default,
# detail), checked in order. A default of _REQUIRED marks a key that must be
# given, and None one that stays None when absent; any other default is read
# as if given. ``detail`` is a "choice"'s choices, the table of a "mapping"
# or of each mapping in a "list", or a "material"'s resolver
# ``(name, registry)`` in place of the registry's lookup.
_REQUIRED = object()


def _refusal(error: type[InputError], path: str, problem: str) -> InputError:
    """``error`` naming its document and the key at ``path``."""
    return error(f"{error.document}: {repr(path) if path else 'the top level'} {problem}")


@contextmanager
def _at_key(error: type[InputError], path: str):
    """Raise a refusal from inside the block, a library guard's or the
    registry's, as ``error`` naming its document and the key at ``path``."""
    try:
        yield
    except InputError as exc:
        raise error(f"{error.document}: {path!r}: {exc}") from None


def _read_fields(doc, fields: Mapping, error: type[InputError], registry=None, path="") -> dict:
    """``doc`` read against the field table ``fields``: key -> converted value,
    every absent key at its default, material names resolved in
    ``registry``. The first bad key raises ``error`` naming its path, for
    example ``layers[0].thickness_nm``; unknown keys come after the known, all
    named at once."""
    if not isinstance(doc, Mapping):
        raise _refusal(error, path, f"must be a mapping, got {type(doc).__name__}")
    values = {}
    for key, (kind, default, *detail) in fields.items():
        at = f"{path}.{key}" if path else key
        if key in doc:
            value = doc[key]
        elif default is _REQUIRED:
            raise _refusal(error, at, "is missing")
        elif default is None:
            values[key] = None
            continue
        else:
            value = default
        values[key] = _read_value(value, kind, detail[0] if detail else None, error, registry, at)
    unknown = sorted(doc.keys() - fields.keys(), key=str)
    if unknown:
        raise _refusal(error, path, f"has unknown keys: {unknown}")
    return values


def _read_value(value, kind: str, detail, error: type[InputError], registry, at: str):
    """One value of a config field, converted; see _read_fields."""
    if kind == "mapping":
        return _read_fields(value, detail, error, registry, at)
    if kind == "list":
        if not isinstance(value, list):
            raise _refusal(error, at, f"must be a list, got {type(value).__name__}")
        return [_read_fields(item, detail, error, registry, f"{at}[{i}]")
                for i, item in enumerate(value)]
    if kind == "choice":
        if value not in detail:
            raise _refusal(error, at, f"must be one of {detail}, got {value!r}")
        return value
    if kind == "boolean":
        if not isinstance(value, bool):
            raise _refusal(error, at, f"must be true or false, got {value!r}")
        return value
    if kind == "number":
        # a YAML bool is a Python int, but not a number of a config
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _refusal(error, at, f"must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, infinities and ints beyond a float
            raise _refusal(error, at, f"must be finite, got {value}")
        return float(value)
    if kind == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            raise _refusal(error, at, f"must be an integer, got {value!r}")
        return value
    if kind == "name":
        if not isinstance(value, str) or not value:
            raise _refusal(error, at, f"must be a non-empty string, got {value!r}")
        return value
    # "material"
    if not isinstance(value, str):
        raise _refusal(error, at, f"must be a material name, got {value!r}")
    with _at_key(error, at):
        return detail(value, registry) if detail else registry.get(value)


def _read_yaml(path: str | Path, error: type[InputError]) -> object:
    """Parse a YAML (or JSON) file. A file that cannot be read, a syntax
    error, or a scalar that Python cannot convert becomes ``error`` with a
    one-line message naming the document, the problem and, for a syntax
    error, where it is."""
    import yaml  # only a file pays for the parser, not every CLI start

    what = error.document
    try:
        # bytes: PyYAML decodes them, and refuses a bad encoding as a syntax error
        text = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what}: {exc.strerror}: {str(path)!r}") from exc
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        # str(exc) quotes the offending source lines; keep the problem and its position
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark is not None else ""
        problem = " ".join(str(getattr(exc, "problem", None) or exc).split())
        raise error(f"cannot parse {what}: {problem}{where}") from exc
    except ValueError as exc:
        # int() of a number longer than sys.get_int_max_str_digits(), or a
        # date out of range; drop the advice to call sys.set_int_max_str_digits()
        problem = str(exc).split(";")[0]
        raise error(f"cannot parse {what}: {problem[:1].lower()}{problem[1:]}") from exc


_MATERIAL_FIELDS = {"materials": ("list", None, {
    "name": ("name", _REQUIRED),
    "n_re": ("number", _REQUIRED),
    "n_im": ("number", 0.0),
    "kind": ("choice", None, _KINDS),  # None: dielectric when lossless, else metal
    "override": ("boolean", False),
})}


def load_registry(source: str | Path | Mapping | None = None) -> MaterialRegistry:
    """Build a registry from the built-in table plus a config document.

    ``source`` may be None (defaults only), a path to a YAML/JSON document,
    or an already-parsed mapping. The document schema is::

        materials:
          - {name: MgF2, n_re: 1.37, n_im: 0.0, kind: dielectric, override: false}

    Entries shadowing a built-in name are rejected unless they carry
    ``override: true``.
    """
    registry = builtin_registry()
    if isinstance(source, (str, Path)):
        source = _read_yaml(source, MaterialConfigError)
    if source is None:  # no document, or an empty file
        return registry
    entries = _read_fields(source, _MATERIAL_FIELDS, MaterialConfigError)["materials"] or ()
    for i, entry in enumerate(entries):
        kind = entry["kind"] or (DIELECTRIC if entry["n_im"] == 0 else METAL)
        with _at_key(MaterialConfigError, f"materials[{i}]"):
            material = Material(entry["name"], OpticalConstant(entry["n_re"], entry["n_im"]), kind)
        try:
            registry.add(material, override=entry["override"])
        except MaterialConfigError:  # the one refusal of add, a name already held
            raise _refusal(MaterialConfigError, f"materials[{i}].name", f"is {material.name!r}, a "
                           "name already registered; set override: true to replace it") from None
    return registry
