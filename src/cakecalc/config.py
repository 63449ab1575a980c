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

`load_valuation` reads the file, as UTF-8, on every call, so a missing file
is always an error and an edited one is parsed again, but it parses each
text only once: equal text read under the same int-to-str limit gives the
same (immutable) `Valuation` object.  Errors are never kept, and the memo
holds at most `functools.lru_cache`'s default of 128 texts.  `json` and
`pathlib` are imported only where they are used, so `import cakecalc` loads
neither.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from .errors import ParseError
from .intervals import encode_lexed, lex_interval, lex_rational
from .valuation import Valuation, integer_box_valuation, integer_valuation

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
    integer pairs and the density and Cantor supports as keys over one
    denominator, which go to the valuation's integer constructors as they
    are."""
    if not isinstance(data, dict):
        raise ParseError("config root must be a JSON object")
    unknown = data.keys() - {"atoms", "density_pieces", "cantor"}
    if unknown:
        raise ParseError(f"unknown config sections {sorted(unknown)}")
    atoms = [(*_field(a, "at"), *_field(a, "weight")) for a in _entries(data, "atoms")]
    cantor_parts = [(_field(c, "support", lex_interval), *_field(c, "p"), *_field(c, "weight"))
                    for c in _entries(data, "cantor")]
    pieces = _entries(data, "density_pieces")
    kinds = {("boxes" in p, "density" in p) for p in pieces}
    if len(kinds) > 1 or (True, True) in kinds:
        raise ParseError("density_pieces must use either 'boxes' or 'density', not both")
    boxes = bool(pieces) and "boxes" in pieces[0]
    if boxes and (atoms or cantor_parts):
        raise ParseError("box-count form cannot be combined with atoms or cantor")
    rows = [(_field(p, "support", lex_interval), _field(p, "boxes" if boxes else "density"))
            for p in pieces]
    den, keys = encode_lexed([support for support, *_ in rows + cantor_parts])
    ends = list(zip(keys[::2], keys[1::2]))
    if boxes:
        return integer_box_valuation(den, [(s, e, n) for (s, e), (_, n) in zip(ends, rows)])
    density = [(s, e, *d) for (s, e), (_, d) in zip(ends, rows)]
    cantor = [(s, e, *c) for (s, e), (_, *c) in zip(ends[len(rows):], cantor_parts)]
    return integer_valuation(atoms, den, density, cantor)


class _BadJSON(ParseError):
    """A config's text is not JSON; `load_valuation` names the file."""


@lru_cache
def _parsed(text: str, limit: int) -> Valuation:
    """The valuation of a config's text.  The int-to-str limit `limit` is part
    of the key, because it decides whether json.loads and lex_rational accept
    a long digit string."""
    import json
    try:
        data = json.loads(text)
    # a JSONDecodeError, an int past the int-to-str limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise _BadJSON(exc) from exc
    return valuation_from_dict(data)


def load_valuation(path) -> Valuation:
    """The valuation of the config file at `path`.  The file is read as
    bytes and decoded as UTF-8 on every call, with CRLF and lone CR line
    ends read as LF, as in text mode; its text is parsed once per int-to-str
    limit and the valuation reused (see the module docstring).  An
    unreadable file, one that is not UTF-8, bad JSON (nested too deep for
    the parser, too) or a schema violation raises ParseError naming `path`;
    the constructors' CakeErrors pass through."""
    try:
        with open(path, "rb") as f:
            data = f.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    if b"\r" in data:  # the newlines of a read in text mode
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return _parsed(text, getattr(sys, "get_int_max_str_digits", int)())  # none before 3.10.7
    except _BadJSON as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from exc.__cause__
    except ParseError as exc:
        raise ParseError(f"{exc} in {path}") from exc


def bundled_config_path(name: str):
    """The `pathlib.Path` of a bundled example config (fig2, uniform, dirac
    or cantor_mix), in the `configs` folder beside this module."""
    from pathlib import Path
    if name not in BUNDLED:
        raise ParseError(f"unknown bundled config {name!r}; available: {BUNDLED}")
    return Path(__file__).with_name("configs") / f"{name}.json"
