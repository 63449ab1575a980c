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
comparison answers every endpoint question (nonempty iff start < end).  A
set is stored as the strictly increasing tuple of its components' cuts;
the set operations are linear sweeps over it (`normalize` sorts first) and
build no `Interval`.  `Interval` objects are made only where a caller asks
for them: by the checked constructors and the `components` view.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
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
    """Canonical element of the algebra of finite unions of intervals, held as
    the strictly increasing cuts (s0, e0, s1, e1, ...) of its components.

    The constructor takes an already canonical cut sequence and checks
    nothing; `normalize`, `interval_set` and `parse_interval_set` are the
    checked constructors.  `components` is a view built on first access and
    cached.  x lies in the set iff an odd number of cuts are <= (x, 0).
    Equality and hashing go by the cuts alone, also for subclasses."""

    cuts: tuple[Cut, ...]
    _components: tuple[Interval, ...] | None = field(default=None, init=False, repr=False)

    @property
    def components(self) -> tuple[Interval, ...]:
        if self._components is None:
            comps = tuple(map(Interval.from_cuts, self.cuts[::2], self.cuts[1::2]))
            object.__setattr__(self, "_components", comps)
        return self._components

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.cuts == other.cuts

    def __hash__(self):
        return hash(self.cuts)

    def __iter__(self):
        return iter(self.components)

    def __contains__(self, x: Fraction) -> bool:
        return bisect_right(self.cuts, (x, 0)) % 2 == 1

    def __len__(self):
        return len(self.cuts) // 2

    @property
    def is_empty(self) -> bool:
        return not self.cuts

    @property
    def length(self) -> Fraction:
        """Lebesgue measure of the set; endpoint kinds do not matter."""
        c = self.cuts
        return sum((x for x, _ in c[1::2]), ZERO) - sum((x for x, _ in c[::2]), ZERO)

    def __str__(self) -> str:
        return ", ".join(map(str, self.components)) or "∅"


EMPTY = IntervalSet(())
FULL = IntervalSet(((ZERO, 0), (ONE, 1)))


def normalize(raw: Iterable[Interval]) -> IntervalSet:
    """Unique canonical IntervalSet with the same point set.  Idempotent."""
    cuts: list[Cut] = []
    for s, e in sorted((iv.start, iv.end) for iv in raw):
        if cuts and s <= cuts[-1]:
            cuts[-1] = max(cuts[-1], e)
        else:
            cuts += (s, e)
    return IntervalSet(tuple(cuts))


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return complement(intersect(complement(a), complement(b)))


def complement(a: IntervalSet) -> IntervalSet:
    """Complement relative to [0,1]: the gaps between consecutive cuts of
    [(0,0), *a.cuts, (1,1)].  Only an end gap can be empty, so this toggles
    the cuts (0,0) and (1,1) at the ends of the cake."""
    lo, hi = FULL.cuts
    c = a.cuts[1:] if a.cuts[:1] == (lo,) else (lo, *a.cuts)
    return IntervalSet(c[:-1] if c[-1:] == (hi,) else (*c, hi))


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """One sweep over both operands' cut pairs.  Each piece lies in one
    component of each, and one operand's components never touch: canonical."""
    if a.is_empty or b.is_empty:  # the empty operand is the intersection
        return a if a.is_empty else b
    xs, ys = a.cuts, b.cuts
    out: list[Cut] = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        s, e = max(xs[i], ys[j]), min(xs[i + 1], ys[j + 1])
        if s < e:
            out += (s, e)
        if e is xs[i + 1]:  # the component that ends first is done
            i += 2
        else:
            j += 2
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
    """Convenience constructor from Intervals and (lo, hi[, lo_closed,
    hi_closed]) tuples, whose ends are closed unless a flag says otherwise."""
    return normalize(s if isinstance(s, Interval) else _interval(*s) for s in specs)


def _interval(lo, hi, lo_closed=True, hi_closed=True) -> Interval:
    return Interval(Fraction(lo), Fraction(hi), lo_closed, hi_closed)


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
