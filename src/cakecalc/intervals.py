"""Canonical finite unions of intervals of the unit cake [0,1].

Every set is kept in a unique canonical form: components are pairwise
disjoint, sorted, and no two of them can be merged into a single interval.
All endpoints are exact `Fraction`s; there is no floating point in this
module.  Degenerate singletons [a,a] are legal intervals (they carry atoms
and show up as intersection results); degenerate intervals with an open end
are rejected rather than silently dropped.

Interval ends are *cuts*: (x, 0) lies just before the point x and (x, 1)
just after it.  An interval runs from its start cut, (lo, 0) closed or
(lo, 1) open, to its end cut, (hi, 1) closed or (hi, 0) open, so tuple
comparison answers every endpoint question (nonempty iff start < end), and
the set operations are linear sweeps over cuts (`normalize` sorts first).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InvalidInterval, OutOfCake, ParseError

ZERO = Fraction(0)
ONE = Fraction(1)

Cut = tuple[Fraction, int]


@dataclass(frozen=True, slots=True)
class Interval:
    """A nonempty interval <lo,hi> of [0,1] with per-end open/closed flags."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if not (ZERO <= self.lo and self.hi <= ONE):
            raise OutOfCake(f"interval {self} leaves [0,1]")
        if self.lo > self.hi:
            raise InvalidInterval(f"lo > hi in {self}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise InvalidInterval(f"degenerate interval {self} with an open end is empty")

    @classmethod
    def from_cuts(cls, start: Cut, end: Cut) -> "Interval":
        """The interval between two cuts, start < end."""
        return cls(start[0], end[0], start[1] == 0, end[1] == 1)

    @property
    def start(self) -> Cut:
        return (self.lo, 0 if self.lo_closed else 1)

    @property
    def end(self) -> Cut:
        return (self.hi, 1 if self.hi_closed else 0)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        return self.start <= (x, 0) and (x, 1) <= self.end

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"


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
    spans: list[list[Cut]] = []
    for s, e in sorted((iv.start, iv.end) for iv in raw):
        if spans and s <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], e)
        else:
            spans.append([s, e])
    return IntervalSet(tuple(Interval.from_cuts(s, e) for s, e in spans))


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return normalize(a.components + b.components)


def complement(a: IntervalSet) -> IntervalSet:
    """Complement relative to [0,1]: the gaps between consecutive cuts."""
    cuts = [(ZERO, 0), *(c for iv in a.components for c in (iv.start, iv.end)), (ONE, 1)]
    gaps = zip(cuts[::2], cuts[1::2])
    return IntervalSet(tuple(Interval.from_cuts(s, e) for s, e in gaps if s < e))


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """One sweep over both operands.  Each piece lies in one component of
    each, and components of one operand never touch: the result is canonical."""
    xs = [(iv.start, iv.end, iv) for iv in a.components]
    ys = [(iv.start, iv.end, iv) for iv in b.components]
    out: list[Interval] = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        (s1, e1, x), (s2, e2, y) = xs[i], ys[j]
        s, e = max(s1, s2), min(e1, e2)  # each is one of its arguments
        if s < e:  # a whole component is kept as it is, not rebuilt
            out.append(x if s is s1 and e is e1 else
                       y if s is s2 and e is e2 else Interval.from_cuts(s, e))
        if e is e1:  # the component that ends first is done
            i += 1
        else:
            j += 1
    return IntervalSet(tuple(out))


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
    """p/q, an integer or a plain decimal; an exponent would have Fraction
    build 10**exponent, so exponent forms are rejected."""
    if "e" in text.lower():
        raise ParseError(f"bad rational {text!r}: exponent forms are not accepted")
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
