"""Exception hierarchy.

Domain errors (bad inputs to an otherwise well-formed request) derive from
CakeError; parse/config errors derive from ParseError.  The CLI maps these
to exit codes 1 and 2 respectively.
"""


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
        super().__init__(f"total mass is {total}, expected 1 (deficit {1 - total})")


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
        locs = ", ".join(f"{{{a}}} (weight {w})" for a, w in self.atoms)
        super().__init__(f"atoms obstruct the cut: {locs}")


class ZeroPiece(CakeError):
    """Attempt to cut a piece of zero value."""


class NotSliceable(CakeError):
    """Atoms heavier than the slicing threshold exist."""

    def __init__(self, atoms):
        self.atoms = list(atoms)
        locs = ", ".join(f"{{{a}}} (weight {w})" for a, w in self.atoms)
        super().__init__(f"atoms too heavy to slice: {locs}")


class TooManyDigits(CakeError):
    """A number to be written as text has more digits than Python's
    int-to-str limit allows."""


class ParseError(Exception):
    """Malformed textual input (interval grammar, rationals, config files)."""
