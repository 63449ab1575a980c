"""Valuation config files (JSON).

Schema:

    {
      "atoms":          [{"at": "1/2", "weight": "1/2"}, ...],
      "density_pieces": [{"support": "[0,1/6)", "boxes": 2}, ...]
                        -- or, exclusively --
                        [{"support": "[0,1]", "density": "1/4"}, ...],
      "cantor":         [{"support": "[0,1]", "p": "1/3", "weight": "1/4"}, ...]
    }

Rationals and supports are strings, box counts JSON integers, and no other
top-level key is allowed.  Box counts and explicit densities are mutually
exclusive per file; the box form describes the whole valuation (it normalizes
itself to mass 1), so it cannot be combined with atoms or Cantor components.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .errors import ParseError
from .intervals import parse_interval, parse_rational
from .valuation import CantorComponent, Valuation, make_box_valuation, make_valuation

BUNDLED = ("fig2", "uniform", "dirac", "cantor_mix")


def _entries(data: dict, section: str) -> list[dict]:
    entries = data.get(section, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ParseError(f"{section!r} must be a list of objects")
    return entries


def _field(entry: dict, key: str):
    """One field of a section entry, parsed: "boxes" is a JSON integer,
    "support" an interval string and every other field a rational string."""
    if key not in entry:
        raise ParseError(f"missing field {key!r}")
    value = entry[key]
    if key == "boxes":
        # bool is an int, and int() would truncate a float
        if type(value) is not int:
            raise ParseError(f"box count must be a JSON integer, got {value!r}")
        return value
    if not isinstance(value, str):
        raise ParseError(f"{key!r} must be a string, got {value!r}")
    return parse_interval(value) if key == "support" else parse_rational(value)


def valuation_from_dict(data: dict) -> Valuation:
    """Check a parsed config against the schema above and build its valuation;
    every schema violation raises ParseError."""
    if not isinstance(data, dict):
        raise ParseError("config root must be a JSON object")
    unknown = data.keys() - {"atoms", "density_pieces", "cantor"}
    if unknown:
        raise ParseError(f"unknown config sections {sorted(unknown)}")
    atoms = [(_field(a, "at"), _field(a, "weight")) for a in _entries(data, "atoms")]
    cantor_parts = [
        CantorComponent(_field(c, "support"), _field(c, "p"), _field(c, "weight"))
        for c in _entries(data, "cantor")
    ]
    pieces = _entries(data, "density_pieces")
    kinds = {("boxes" in p, "density" in p) for p in pieces}
    if len(kinds) > 1 or (True, True) in kinds:
        raise ParseError("density_pieces must use either 'boxes' or 'density', not both")
    if pieces and "boxes" in pieces[0]:
        if atoms or cantor_parts:
            raise ParseError("box-count form cannot be combined with atoms or cantor")
        return make_box_valuation(
            [(_field(p, "support"), _field(p, "boxes")) for p in pieces]
        )
    density = [(_field(p, "support"), _field(p, "density")) for p in pieces]
    return make_valuation(atoms=atoms, density=density, cantor_parts=cantor_parts)


def load_valuation(path) -> Valuation:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from exc
    try:
        return valuation_from_dict(data)
    except ParseError as exc:
        raise ParseError(f"{exc} in {path}") from exc


def bundled_config_path(name: str) -> Path:
    """Path to one of the bundled example configs (fig2, uniform, dirac,
    cantor_mix)."""
    if name not in BUNDLED:
        raise ParseError(f"unknown bundled config {name!r}; available: {BUNDLED}")
    return Path(str(resources.files("cakecalc").joinpath("configs", f"{name}.json")))
