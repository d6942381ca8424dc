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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

__all__ = [
    "DIELECTRIC",
    "METAL",
    "PEC_TERMINAL",
    "OpticalConstant",
    "Material",
    "MaterialRegistry",
    "MaterialConfigError",
    "permittivity",
    "refractive_index",
    "effective_wire_permittivity",
    "builtin_registry",
    "load_registry",
]

DIELECTRIC = "dielectric"
METAL = "metal"
PEC_TERMINAL = "pec-terminal"

_KINDS = (DIELECTRIC, METAL, PEC_TERMINAL)


class MaterialConfigError(ValueError):
    """A material config document is malformed or conflicts with the registry."""


@dataclass(frozen=True)
class OpticalConstant:
    """Complex refractive index split into real part and extinction magnitude.

    The stored pair (n_re, n_im) encodes n = n_re - i*n_im. When an instance
    is produced from a permittivity (see :func:`refractive_index`), the exact
    source value is memoised so the round trip back to eps is lossless.
    """

    n_re: float
    n_im: float = 0.0
    _eps: complex | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_im < 0:
            raise ValueError(f"extinction magnitude must be >= 0, got {self.n_im}")

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
        ValueError: for eps = 0, which has no usable index.
    """
    eps = complex(eps)
    if eps == 0:
        raise ValueError("permittivity must be nonzero")
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
        raise ValueError(f"filling factor must lie in [0, 1], got {f}")
    return complex(eps_metal) * f + complex(eps_slit) * (1.0 - f)


@dataclass(frozen=True)
class Material:
    """A named material with one complex optical constant.

    kind is one of ``dielectric`` (must be lossless), ``metal``, or
    ``pec-terminal``. The last marks the ideal-mirror entry: used as an
    output medium it means an exact short circuit, while built into a finite
    layer it acts through its surrogate index -1000i.
    """

    name: str
    optical_constant: OpticalConstant
    kind: str = DIELECTRIC

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown material kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == DIELECTRIC and not self.optical_constant.is_lossless:
            raise ValueError(
                f"dielectric {self.name!r} must be lossless (n_im = 0), "
                f"got n_im = {self.optical_constant.n_im}"
            )

    @property
    def n(self) -> complex:
        return self.optical_constant.n

    @property
    def eps(self) -> complex:
        return permittivity(self.optical_constant)


_BUILTIN = (
    Material("Vacuum", OpticalConstant(1.0), DIELECTRIC),
    Material("NbN", OpticalConstant(4.905, 4.293), METAL),
    Material("Si", OpticalConstant(3.628), DIELECTRIC),
    Material("SiO", OpticalConstant(1.551), DIELECTRIC),
    Material("SiO2", OpticalConstant(1.444), DIELECTRIC),
    Material("Ta2O5", OpticalConstant(2.15), DIELECTRIC),
    Material("PEC", OpticalConstant(0.0, 1000.0), PEC_TERMINAL),
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
            raise KeyError(f"unknown material {name!r}; known materials: {known}")
        return self._by_key[key]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._by_key

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[Material]:
        return iter(self._by_key.values())

    def names(self) -> list[str]:
        return [m.name for m in self._by_key.values()]


def builtin_registry() -> MaterialRegistry:
    """A fresh registry holding exactly the built-in material table."""
    return MaterialRegistry()


def _parse_entry(entry: object, index: int) -> tuple[Material, bool]:
    label = f"materials[{index}]"
    if not isinstance(entry, Mapping):
        raise MaterialConfigError(f"{label} must be a mapping, got {type(entry).__name__}")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise MaterialConfigError(f"{label} needs a non-empty 'name'")
    label = f"material {name!r}"

    allowed = {"name", "n_re", "n_im", "kind", "override"}
    unknown = set(entry) - allowed
    if unknown:
        raise MaterialConfigError(f"{label} has unknown keys: {sorted(unknown)}")

    n_re = entry.get("n_re")
    if not isinstance(n_re, (int, float)) or isinstance(n_re, bool):
        raise MaterialConfigError(f"{label} needs a numeric 'n_re'")
    n_im = entry.get("n_im", 0.0)
    if not isinstance(n_im, (int, float)) or isinstance(n_im, bool):
        raise MaterialConfigError(f"{label} has a non-numeric 'n_im'")
    for key, value in (("n_re", n_re), ("n_im", n_im)):
        if not math.isfinite(value):
            raise MaterialConfigError(f"{label} has a non-finite '{key}': {value}")
    if n_im < 0:
        raise MaterialConfigError(f"{label} has negative 'n_im'")

    kind = entry.get("kind", DIELECTRIC if n_im == 0 else METAL)
    if kind not in _KINDS:
        raise MaterialConfigError(f"{label} has unknown kind {kind!r}")
    override = entry.get("override", False)
    if not isinstance(override, bool):
        raise MaterialConfigError(f"{label} has a non-boolean 'override'")

    try:
        mat = Material(name, OpticalConstant(float(n_re), float(n_im)), kind)
    except ValueError as exc:
        raise MaterialConfigError(f"{label}: {exc}") from exc
    return mat, override


def _read_yaml(path: str | Path, what: str, error: type[ValueError]) -> object:
    """Parse a YAML (or JSON) file. A syntax error becomes ``error`` with a
    one-line message naming the problem and where it is."""
    import yaml  # only a file pays for the parser, not every CLI start

    text = Path(path).read_text()
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        # str(exc) quotes the offending source lines; keep the problem and its position
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark is not None else ""
        problem = " ".join(str(getattr(exc, "problem", None) or exc).split())
        raise error(f"cannot parse {what}: {problem}{where}") from exc


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
    if source is None:
        return registry

    if isinstance(source, (str, Path)):
        doc = _read_yaml(source, "material config", MaterialConfigError)
        if doc is None:
            return registry
    else:
        doc = source

    if not isinstance(doc, Mapping):
        raise MaterialConfigError("material config must be a mapping at the top level")
    unknown = set(doc) - {"materials"}
    if unknown:
        raise MaterialConfigError(f"material config has unknown keys: {sorted(unknown)}")

    entries = doc.get("materials", [])
    if not isinstance(entries, list):
        raise MaterialConfigError("'materials' must be a list")
    for i, entry in enumerate(entries):
        mat, override = _parse_entry(entry, i)
        registry.add(mat, override=override)
    return registry
