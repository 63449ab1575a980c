"""Canonical finite unions of intervals of the unit cake [0,1].

Every set is kept in a unique canonical form: components are pairwise
disjoint, sorted, and no two of them can be merged into a single interval.
All endpoints are exact rationals; there is no floating point in this
module.  Degenerate singletons [a,a] are legal intervals (they carry atoms
and show up as intersection results); degenerate intervals with an open end
are rejected rather than silently dropped.

Interval ends are *cuts*: (x, 0) lies just before the point x and (x, 1)
just after it.  An interval runs from its start cut, (lo, 0) closed or
(lo, 1) open, to its end cut, (hi, 1) closed or (hi, 0) open, so comparing
cuts answers every endpoint question (nonempty iff start < end).

A set is stored as a positive integer `den` and the strictly increasing
tuple `keys` of its components' cuts, where the cut (x, side) has the
integer key 2*x*den + side.  `den` is the lcm of the denominators of the
cut points present, so (den, keys) is unique to the point set.  The set
operations are sweeps over integers that build no `Fraction`: a binary one
rescales both operands to the lcm of their dens and divides the result's
den by the gcd of its points.  Only this module and the reader of a
valuation's distribution function at a set's cuts (`valuation._cdf_at_keys`
and the table sweep `valuation._table_at_keys` under it) know the encoding.
A set keeps nothing else, not even the cuts it was built from: the
`Fraction` cuts and the `Interval` components are views built from the
keys on demand.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import lt
from typing import Iterable, Sequence

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


class IntervalSet:
    """Canonical element of the algebra of finite unions of intervals.

    Held as `den` and `keys`: the strictly increasing keys 2*x*den + side of
    the cuts (s0, e0, s1, e1, ...) of its components, over the lcm `den` of
    their points' denominators, and nothing else.  `IntervalSet(cuts)` takes
    a canonical sequence of (Fraction, side) cuts, checks it and keeps only
    its keys; `normalize`, `interval_set` and `parse_interval_set` build a
    set from intervals.  The `cuts` and `components` views are always built
    from the keys on first access and cached.  x lies in the set iff an odd
    number of keys are <= the key of (x, 0).  Equality and hashing go by
    (den, keys) alone, also for subclasses."""

    __slots__ = ("den", "keys", "_cuts", "_components")

    def __init__(self, cuts: Iterable[Cut] = ()):
        cuts = tuple(cuts)
        den, keys = _encode(cuts)
        keys = tuple(keys)
        # strictly increasing from the key of (0,0) to that of (1,1) is canonical
        if len(keys) % 2 or not {side for _, side in cuts} <= {0, 1} or not all(
            map(lt, (-1, *keys), (*keys, 2 * den + 2))
        ):
            raise InvalidInterval(f"cuts {cuts} are not those of a canonical set")
        _from_keys(den, keys, self)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def cuts(self) -> tuple[Cut, ...]:
        """The cuts as (Fraction, side) pairs."""
        if self._cuts is None:
            den = self.den
            cuts = tuple((Fraction(k >> 1, den), k & 1) for k in self.keys)
            object.__setattr__(self, "_cuts", cuts)
        return self._cuts

    @property
    def components(self) -> tuple[Interval, ...]:
        if self._components is None:
            den, keys = self.den, self.keys
            comps = tuple(
                Interval(
                    Fraction(s >> 1, den), Fraction(e >> 1, den), not s & 1, e & 1 == 1
                )
                for s, e in zip(keys[::2], keys[1::2])
            )
            object.__setattr__(self, "_components", comps)
        return self._components

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.den == other.den and self.keys == other.keys

    def __hash__(self):
        return hash((self.den, self.keys))

    def __reduce__(self):
        return _from_keys, (self.den, self.keys)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(den={self.den}, keys={self.keys})"

    def __iter__(self):
        return iter(self.components)

    def __contains__(self, x: Fraction) -> bool:
        # the key of (x, 0) if x*den is an integer, else the odd key just below it
        v, r = divmod(x.numerator * self.den, x.denominator)
        return bisect_right(self.keys, 2 * v + (r != 0)) % 2 == 1

    def __len__(self):
        return len(self.keys) // 2

    def __bool__(self):
        return not self.is_empty

    @property
    def is_empty(self) -> bool:
        return not self.keys

    @property
    def length(self) -> Fraction:
        """Lebesgue measure of the set; endpoint kinds do not matter."""
        points = [k >> 1 for k in self.keys]
        return Fraction(sum(points[1::2]) - sum(points[::2]), self.den)

    def __str__(self) -> str:
        return ", ".join(map(str, self.components)) or "∅"


def _from_keys(
    den: int, keys: tuple[int, ...], s: IntervalSet | None = None
) -> IntervalSet:
    """The set of canonical `keys` over its canonical `den`, unchecked; it is
    `s` if given, else a new one.  The views are built on first access."""
    s = object.__new__(IntervalSet) if s is None else s
    init = object.__setattr__
    init(s, "den", den)
    init(s, "keys", keys)
    init(s, "_cuts", None)
    init(s, "_components", None)
    return s


def _encode(cuts: Sequence[Cut]) -> tuple[int, list[int]]:
    """The lcm of the denominators of the cut points, and the cuts' keys."""
    den = lcm(*{x.denominator for x, _ in cuts})
    return den, [2 * x.numerator * (den // x.denominator) + side for x, side in cuts]


def _reduced(den: int, keys: Iterable[int]) -> IntervalSet:
    """The set of canonical `keys` over `den`, with `den` divided by the gcd
    of its points, so that it is the lcm of their denominators."""
    keys = tuple(keys)
    g = den
    for k in keys:
        g = gcd(g, k >> 1)
        if g == 1:
            return _from_keys(den, keys)
    return _from_keys(den // g, tuple((k >> 1) // g * 2 + (k & 1) for k in keys))


def _rescaled(a: IntervalSet, den: int) -> Sequence[int]:
    """The keys of `a` over a multiple `den` of its own."""
    f = den // a.den
    if f == 1:
        return a.keys
    return [(k >> 1) * 2 * f + (k & 1) for k in a.keys]


def translate_keys(length: int, shifts: Iterable[int]) -> tuple[int, ...]:
    """The keys of the union of the closed intervals [t, t + length], in
    integer positions over the set's den, for t every sum of a subset of
    `shifts`.  Each shift must exceed the span of the union that the shifts
    before it make, so that each translated copy lies right of the last."""
    keys = [0, 2 * length + 1]
    for shift in shifts:
        step = 2 * shift
        keys += [k + step for k in keys]
    return tuple(keys)


EMPTY = IntervalSet()
FULL = IntervalSet(((ZERO, 0), (ONE, 1)))


def normalize(raw: Iterable[Interval]) -> IntervalSet:
    """Unique canonical IntervalSet with the same point set.  Idempotent."""
    ends = [cut for iv in raw for cut in (iv.start, iv.end)]
    den, encoded = _encode(ends)
    keys: list[int] = []
    for start, end in sorted(zip(encoded[::2], encoded[1::2])):
        if keys and start <= keys[-1]:
            keys[-1] = max(keys[-1], end)
        else:
            keys += (start, end)
    return _reduced(den, keys)


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return complement(intersect(complement(a), complement(b)))


def complement(a: IntervalSet) -> IntervalSet:
    """Complement relative to [0,1]: the gaps between consecutive cuts of
    [(0,0), *a.cuts, (1,1)].  Only an end gap can be empty, so this toggles
    the keys of (0,0) and (1,1).  No other point comes or goes, so neither
    does a factor of `den`."""
    keys, top = a.keys, 2 * a.den + 1
    c = keys[1:] if keys[:1] == (0,) else (0, *keys)
    return _from_keys(a.den, c[:-1] if c[-1:] == (top,) else (*c, top))


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Each component [s, e] of the operand with fewer keys is bisected into
    the other operand's keys ys: its piece starts at s if s lies inside the
    other operand, takes the keys of ys strictly between s and e, and ends
    at e if e lies inside.  So the work is O(k log m + output) for k and m
    components, and the keys rise strictly across pieces: canonical."""
    if len(a.keys) > len(b.keys):
        a, b = b, a
    if a.is_empty:  # the empty operand is the intersection
        return a
    den = lcm(a.den, b.den)
    xs, ys = _rescaled(a, den), _rescaled(b, den)
    out: list[int] = []
    append = out.append
    for s, e in zip(xs[::2], xs[1::2]):
        i = bisect_right(ys, s)
        j = bisect_left(ys, e, i)
        if i & 1:
            append(s)
        out += ys[i:j]
        if j & 1:
            append(e)
    result = _reduced(den, out)
    # an operand that is the result may have its views built already
    return a if result == a else b if result == b else result


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
    r"\s*([\[\(])\s*([0-9]+(?:/[0-9]+)?)\s*,\s*([0-9]+(?:/[0-9]+)?)\s*([\]\)])\s*"
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


def parse_interval(text: str) -> Interval:
    """Parse exactly one interval, such as "(1/4,1]"."""
    m = _INTERVAL_RE.fullmatch(text)
    if not m:
        raise ParseError(f"expected a single interval, got {text!r}")
    lb, lo, hi, rb = m.groups()
    try:
        return Interval(parse_rational(lo), parse_rational(hi), lb == "[", rb == "]")
    except (InvalidInterval, OutOfCake) as exc:
        raise ParseError(str(exc)) from exc


def parse_interval_set(text: str) -> IntervalSet:
    """Parse "[0,1/3], (1/2,1]" into a canonical IntervalSet."""
    text = text.strip()
    if text in ("", "∅", "{}"):
        return EMPTY
    if text.endswith(","):  # a comma only separates two intervals
        raise ParseError(f"trailing comma in interval set {text!r}")
    pos = 0
    ivs = []
    while True:
        m = _INTERVAL_RE.match(text, pos)
        if not m:
            raise ParseError(f"cannot parse interval set at {text[pos:]!r}")
        ivs.append(parse_interval(m.group()))
        pos = m.end()
        if pos == len(text):
            return normalize(ivs)
        if text[pos] != ",":  # exactly one comma separates two intervals
            raise ParseError(f"expected a comma between intervals at {text[pos:]!r}")
        pos += 1
