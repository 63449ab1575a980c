"""Canonical finite unions of intervals of the unit cake [0,1].

Every set is kept in a unique canonical form: components are pairwise
disjoint, sorted, and no two of them can be merged into a single interval.
All endpoints are exact `Fraction`s; there is no floating point in this
module.  Degenerate singletons [a,a] are legal intervals (they carry atoms
and show up as intersection results); degenerate intervals with an open end
are rejected rather than silently dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidInterval, OutOfCake, ParseError

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True, slots=True)
class Interval:
    """A nonempty interval <lo,hi> of [0,1] with per-end open/closed flags."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if not (ZERO <= self.lo and self.hi <= ONE):
            raise OutOfCake(f"interval {self._render()} leaves [0,1]")
        if self.lo > self.hi:
            raise InvalidInterval(f"lo > hi in {self._render()}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise InvalidInterval(
                f"degenerate interval {self._render()} with an open end is empty"
            )

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def _render(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"

    def __str__(self) -> str:
        return self._render()


def _mergeable(a: Interval, b: Interval) -> bool:
    """a sorted before b: can a ∪ b be written as one interval?"""
    if b.lo < a.hi:
        return True
    if b.lo == a.hi:
        return a.hi_closed or b.lo_closed
    return False


def _merge(a: Interval, b: Interval) -> Interval:
    # a.lo <= b.lo by the sort order
    if b.hi > a.hi or (b.hi == a.hi and b.hi_closed):
        hi, hi_closed = b.hi, b.hi_closed
    else:
        hi, hi_closed = a.hi, a.hi_closed
    return Interval(a.lo, hi, a.lo_closed, hi_closed)


@dataclass(frozen=True, slots=True, eq=False)
class IntervalSet:
    """Canonical element of the algebra of finite unions of intervals.

    `x in A` tests whether the point x lies in the set.  Equality and
    hashing go by the components alone, so a subclass that stores its set
    in another form compares equal to the plain set with the same
    components, in either operand order."""

    components: tuple[Interval, ...]

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __iter__(self):
        return iter(self.components)

    def __contains__(self, x: Fraction) -> bool:
        return any(iv.contains(x) for iv in self.components)

    def __len__(self):
        return len(self.components)

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def length(self) -> Fraction:
        """Lebesgue measure of the set; endpoint kinds do not matter."""
        return sum((iv.length for iv in self.components), ZERO)

    def __str__(self) -> str:
        if not self.components:
            return "∅"
        return ", ".join(str(c) for c in self.components)


EMPTY = IntervalSet(())
FULL = IntervalSet((Interval(ZERO, ONE, True, True),))


def normalize(raw: Iterable[Interval]) -> IntervalSet:
    """Unique canonical IntervalSet with the same point set.  Idempotent."""
    comps = sorted(raw, key=lambda iv: (iv.lo, not iv.lo_closed))
    merged: list[Interval] = []
    for iv in comps:
        if merged and _mergeable(merged[-1], iv):
            merged[-1] = _merge(merged[-1], iv)
        else:
            merged.append(iv)
    return IntervalSet(tuple(merged))


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return normalize(a.components + b.components)


def complement(a: IntervalSet) -> IntervalSet:
    """Complement relative to [0,1]."""
    gaps: list[Interval] = []
    cursor = ZERO
    cursor_closed = True  # the point `cursor` is still available for a gap
    for iv in a.components:
        lo, lo_closed = cursor, cursor_closed
        hi, hi_closed = iv.lo, not iv.lo_closed
        if lo < hi or (lo == hi and lo_closed and hi_closed):
            gaps.append(Interval(lo, hi, lo_closed, hi_closed))
        cursor, cursor_closed = iv.hi, not iv.hi_closed
    if cursor < ONE or (cursor == ONE and cursor_closed):
        gaps.append(Interval(cursor, ONE, cursor_closed, True))
    return IntervalSet(tuple(gaps))


def _intersect_pair(a: Interval, b: Interval) -> Interval | None:
    if a.lo > b.lo:
        lo, lo_closed = a.lo, a.lo_closed
    elif b.lo > a.lo:
        lo, lo_closed = b.lo, b.lo_closed
    else:
        lo, lo_closed = a.lo, a.lo_closed and b.lo_closed
    if a.hi < b.hi:
        hi, hi_closed = a.hi, a.hi_closed
    elif b.hi < a.hi:
        hi, hi_closed = b.hi, b.hi_closed
    else:
        hi, hi_closed = a.hi, a.hi_closed and b.hi_closed
    if lo > hi:
        return None
    if lo == hi and not (lo_closed and hi_closed):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    out: list[Interval] = []
    for ia in a.components:
        for ib in b.components:
            if ib.lo > ia.hi:
                break
            piece = _intersect_pair(ia, ib)
            if piece is not None:
                out.append(piece)
    return normalize(out)


def difference(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return intersect(a, complement(b))


def contains(a: IntervalSet, x: Fraction) -> bool:
    x = Fraction(x)
    if x < ZERO or x > ONE:
        raise OutOfCake(f"point {x} is outside [0,1]")
    return x in a


def total_length(a: IntervalSet) -> Fraction:
    """Lebesgue measure of the set; endpoint kinds do not matter."""
    return a.length


def interval_set(*specs) -> IntervalSet:
    """Convenience constructor from (lo, hi[, lo_closed, hi_closed]) tuples."""
    ivs = []
    for s in specs:
        if isinstance(s, Interval):
            ivs.append(s)
        else:
            lo, hi = Fraction(s[0]), Fraction(s[1])
            lo_c = s[2] if len(s) > 2 else True
            hi_c = s[3] if len(s) > 3 else True
            ivs.append(Interval(lo, hi, lo_c, hi_c))
    return normalize(ivs)


# --- text grammar shared with the CLI -------------------------------------

_INTERVAL_RE = re.compile(
    r"\s*([\[\(])\s*([0-9]+(?:/[0-9]+)?)\s*,\s*([0-9]+(?:/[0-9]+)?)\s*([\]\)])\s*,?"
)


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def parse_interval_set(text: str) -> IntervalSet:
    """Parse "[0,1/3], (1/2,1]" into a canonical IntervalSet."""
    text = text.strip()
    if text in ("", "∅", "{}"):
        return EMPTY
    pos = 0
    ivs = []
    while pos < len(text):
        m = _INTERVAL_RE.match(text, pos)
        if not m:
            raise ParseError(f"cannot parse interval set at {text[pos:]!r}")
        lb, lo, hi, rb = m.groups()
        try:
            ivs.append(
                Interval(parse_rational(lo), parse_rational(hi), lb == "[", rb == "]")
            )
        except (InvalidInterval, OutOfCake) as exc:
            raise ParseError(str(exc)) from exc
        pos = m.end()
    return normalize(ivs)


def render_interval_set(a: IntervalSet) -> str:
    return str(a)
