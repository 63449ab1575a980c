"""Exception hierarchy.

Domain errors (bad inputs to an otherwise well-formed request) derive from
CakeError; parse/config errors derive from ParseError.  The CLI maps these
to exit codes 1 and 2 respectively.  Every number in a message is written
by `rational_text`, so a message whose numbers pass Python's int-to-str
limit ends in `TooManyDigits`, not in a `ValueError`.
"""

import sys
from math import gcd


def rational_text(x, den: int = 1) -> str:
    """x/den in lowest terms, as `Fraction` prints it, for an int x over
    den > 0 or an int or `Fraction` x alone.  A number whose text would
    pass Python's int-to-str digit limit raises `TooManyDigits`; every
    number the CLI prints is written through here."""
    try:
        if den == 1:
            return str(x)
        g = gcd(x, den)
        return f"{x // g}/{den // g}" if g != den else f"{x // g}"
    except ValueError as exc:  # int-to-str refused a number past the limit
        limit = getattr(sys, "get_int_max_str_digits", int)()
        raise TooManyDigits(
            f"a number has more digits than Python's {limit}-digit int-to-str limit"
        ) from exc


def _atoms_text(atoms) -> str:
    return ", ".join(f"{{{rational_text(a)}}} (weight {rational_text(w)})" for a, w in atoms)


class CakeError(Exception):
    """Base class for domain errors."""


class InvalidInterval(CakeError):
    """Malformed interval: lo > hi, or a degenerate interval with an open end."""


class OutOfCake(CakeError):
    """A point outside [0,1] was supplied."""


class BadPartition(CakeError):
    """Supports do not partition [0,1]."""


class ZeroMass(CakeError):
    """All box counts are zero."""


class NotNormalized(CakeError):
    """Total mass of a valuation differs from 1."""

    def __init__(self, total):
        self.total = total
        text, deficit = rational_text(total), rational_text(1 - total)
        super().__init__(f"total mass is {text}, expected 1 (deficit {deficit})")


class BadTolerance(CakeError):
    """Nonpositive tolerance."""


class BadParameter(CakeError):
    """Parameter outside its admissible range."""


class BadIndex(CakeError):
    """Index outside the admissible range."""


class AtomObstruction(CakeError):
    """An atom prevents an exact proportional cut."""

    def __init__(self, atoms):
        self.atoms = list(atoms)
        super().__init__(f"atoms obstruct the cut: {_atoms_text(self.atoms)}")


class ZeroPiece(CakeError):
    """Attempt to cut a piece of zero value."""


class NotSliceable(CakeError):
    """Atoms heavier than the slicing threshold exist, or atoms lie beside
    a Cantor part; `why` says which."""

    def __init__(self, atoms, why="too heavy to slice"):
        self.atoms = list(atoms)
        super().__init__(f"atoms {why}: {_atoms_text(self.atoms)}")


class TooManyDigits(CakeError):
    """A number to be written as text has more digits than Python's
    int-to-str limit allows."""


class ParseError(Exception):
    """Malformed textual input (interval grammar, rationals, config files)."""
