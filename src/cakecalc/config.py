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
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .errors import ParseError
from .intervals import encode_lexed, lex_interval, lex_rational, parse_interval
from .valuation import CantorComponent, Valuation, integer_box_valuation, integer_valuation

BUNDLED = ("fig2", "uniform", "dirac", "cantor_mix")


def _entries(data: dict, section: str) -> list[dict]:
    entries = data.get(section, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ParseError(f"{section!r} must be a list of objects")
    return entries


def _field(entry: dict, key: str, parse=lex_rational):
    """One field of a section entry: "boxes" is a JSON integer, and every
    other field a string read by `parse`, a rational by default."""
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
    return parse(value)


def valuation_from_dict(data: dict) -> Valuation:
    """Check a parsed config against the schema above and build its valuation;
    every schema violation raises ParseError.  Rationals are read as reduced
    integer pairs and supports as keys over one denominator, which go to the
    valuation's integer constructors as they are."""
    if not isinstance(data, dict):
        raise ParseError("config root must be a JSON object")
    unknown = data.keys() - {"atoms", "density_pieces", "cantor"}
    if unknown:
        raise ParseError(f"unknown config sections {sorted(unknown)}")
    atoms = [(*_field(a, "at"), *_field(a, "weight")) for a in _entries(data, "atoms")]
    cantor_parts = [
        CantorComponent(_field(c, "support", parse_interval),
                        Fraction(*_field(c, "p")), Fraction(*_field(c, "weight")))
        for c in _entries(data, "cantor")
    ]
    pieces = _entries(data, "density_pieces")
    kinds = {("boxes" in p, "density" in p) for p in pieces}
    if len(kinds) > 1 or (True, True) in kinds:
        raise ParseError("density_pieces must use either 'boxes' or 'density', not both")
    boxes = bool(pieces) and "boxes" in pieces[0]
    if boxes and (atoms or cantor_parts):
        raise ParseError("box-count form cannot be combined with atoms or cantor")
    rows = [(_field(p, "support", lex_interval), _field(p, "boxes" if boxes else "density"))
            for p in pieces]
    den, keys = encode_lexed([support for support, _ in rows])
    ends = zip(keys[::2], keys[1::2])
    if boxes:
        return integer_box_valuation(den, [(s, e, n) for (s, e), (_, n) in zip(ends, rows)])
    density = [(s, e, *d) for (s, e), (_, d) in zip(ends, rows)]
    return integer_valuation(atoms, den, density, cantor_parts)


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
