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
keys on demand, and `str` writes each point from its key with one gcd,
building neither.  The text grammar reads numbers into integers through
one lexer (ASCII digits, no underscores, on every Python), so a parsed set
goes from text to keys without a `Fraction` too.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import lt
from typing import Iterable, Sequence

from .errors import InvalidInterval, OutOfCake, ParseError, TooManyDigits

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
        lo, hi = self.lo, self.hi
        _check_ends(lo.numerator, lo.denominator, hi.numerator, hi.denominator,
                    self.lo_closed, self.hi_closed)

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


def _check_ends(ln: int, ld: int, hn: int, hd: int, lo_closed: bool, hi_closed: bool) -> None:
    """Raise the error of the interval <ln/ld, hn/hd> (ld, hd > 0), with the
    given end kinds, unless it is a nonempty interval of [0,1]."""
    c = ln * hd - hn * ld  # the sign of lo - hi
    if ln >= 0 and hn <= hd and (c < 0 or c == 0 and lo_closed and hi_closed):
        return
    text = (f"{'[' if lo_closed else '('}{Fraction(ln, ld)},"
            f"{Fraction(hn, hd)}{']' if hi_closed else ')'}")
    if ln < 0 or hn > hd:
        raise OutOfCake(f"interval {text} leaves [0,1]")
    if c > 0:
        raise InvalidInterval(f"lo > hi in {text}")
    raise InvalidInterval(f"degenerate interval {text} with an open end is empty")


def key_intervals(den: int, keys: Sequence[int]) -> tuple[Interval, ...]:
    """The `Interval`s from each start key keys[2i] to the end key
    keys[2i+1] over `den`.  An interval that starts at the point where the
    one before it ends shares its `Fraction`.  The keys must be those of
    nonempty intervals of [0,1]; `Interval`'s checks of them are not run
    again."""
    new, init = object.__new__, object.__setattr__
    out = []
    last = None, None  # the end point of the interval before, and its Fraction
    for s, e in zip(keys[::2], keys[1::2]):
        a, b = s >> 1, e >> 1
        lo = last[1] if a == last[0] else Fraction(a, den)
        hi = lo if b == a else Fraction(b, den)
        last = b, hi
        iv = new(Interval)
        init(iv, "lo", lo)
        init(iv, "hi", hi)
        init(iv, "lo_closed", not s & 1)
        init(iv, "hi_closed", e & 1 == 1)
        out.append(iv)
    return tuple(out)


def keys_text(den: int, keys: Sequence[int]) -> str:
    """The text of the components with the cut keys `keys` over `den`, as
    `Interval` prints them: each point is written from its key with one gcd,
    and no `Fraction` or `Interval` is built.  A point whose text would pass
    Python's int-to-str digit limit raises `TooManyDigits`."""

    def point(x: int) -> str:  # x/den in lowest terms, as Fraction prints it
        g = gcd(x, den)
        return f"{x // g}/{den // g}" if g != den else f"{x // g}"

    try:
        return ", ".join(
            f"{'(' if s & 1 else '['}{point(s >> 1)},{point(e >> 1)}{']' if e & 1 else ')'}"
            for s, e in zip(keys[::2], keys[1::2])
        )
    except ValueError as exc:  # int-to-str refused a number past the limit
        limit = getattr(sys, "get_int_max_str_digits", int)()
        raise TooManyDigits(
            f"a point of the set has more digits than Python's {limit}-digit int-to-str limit"
        ) from exc


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
            object.__setattr__(self, "_components", key_intervals(self.den, self.keys))
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
        return keys_text(self.den, self.keys) or "∅"


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
    return _merged(*_encode([cut for iv in raw for cut in (iv.start, iv.end)]))


def _merged(den: int, encoded: Sequence[int]) -> IntervalSet:
    """The canonical set of the union of the intervals whose start and end
    keys over `den` alternate in `encoded`."""
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


def as_fraction(x) -> Fraction:
    """x as a `Fraction`; one is returned as it is, without `Fraction(x)`'s
    slow path for it."""
    return x if type(x) is Fraction else Fraction(x)


def contains(a: IntervalSet, x: Fraction) -> bool:
    x = as_fraction(x)
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
#
# One lexer reads a rational into a reduced integer pair, and the interval
# grammar reads its endpoint tokens with int(): ASCII digits only, with no
# underscores, on every Python version.  Digit strings past Python's
# int-to-str limit are parse errors too.

_RATIONAL_RE = re.compile(r"\s*([-+]?)(?=[0-9]|\.[0-9])([0-9]*)(?:/([0-9]+)|\.([0-9]*))?\s*")
_INTERVAL_RE = re.compile(
    r"\s*([\[\(])\s*([0-9]+)(?:/([0-9]+))?\s*,\s*([0-9]+)(?:/([0-9]+))?\s*([\]\)])\s*"
)

Lexed = tuple[int, int, int, int, bool, bool]  # (ln, ld, hn, hd, lo_closed, hi_closed)


def lex_rational(text: str) -> tuple[int, int]:
    """p/q, an integer or a plain decimal, with an optional sign, as the
    reduced pair (n, d) with d > 0.  An exponent form is rejected: Fraction
    would build 10**exponent for it."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        why = ": exponent forms are not accepted" if "e" in text.lower() else ""
        raise ParseError(f"bad rational {text!r}{why}")
    sign, num, den, decimals = m.groups()
    try:
        n = int(num or 0)
        if decimals:
            d = 10 ** len(decimals)
            n = n * d + int(decimals)
        else:
            d = int(den or 1)
    except ValueError:  # a digit string past Python's int-to-str limit
        raise ParseError(f"bad rational {text!r}") from None
    if d == 0:
        raise ParseError(f"bad rational {text!r}")
    g = gcd(n, d)
    return (-n // g if sign == "-" else n // g), d // g


def parse_rational(text: str) -> Fraction:
    """The `Fraction` of `lex_rational(text)`."""
    return Fraction(*lex_rational(text))


def _lexed(m: re.Match) -> Lexed:
    """The ends of an interval matched by _INTERVAL_RE as integer pairs, not
    reduced, with its end kinds, checked to be a nonempty interval of [0,1]."""
    lb, ln, ld, hn, hd, rb = m.groups()
    ends = []
    for num, den in ((ln, ld), (hn, hd)):
        try:
            ends += (int(num), int(den or 1))
        except ValueError:  # a digit string past Python's int-to-str limit
            ends += (0, 0)
        if ends[-1] == 0:
            raise ParseError(f"bad rational {num if den is None else f'{num}/{den}'!r}")
    lo_closed, hi_closed = lb == "[", rb == "]"
    try:
        _check_ends(*ends, lo_closed, hi_closed)
    except (InvalidInterval, OutOfCake) as exc:
        raise ParseError(str(exc)) from exc
    return (*ends, lo_closed, hi_closed)


def lex_interval(text: str) -> Lexed:
    """Exactly one interval, such as "(1/4,1]", as `_lexed` returns it."""
    m = _INTERVAL_RE.fullmatch(text)
    if not m:
        raise ParseError(f"expected a single interval, got {text!r}")
    return _lexed(m)


def parse_interval(text: str) -> Interval:
    """Parse exactly one interval, such as "(1/4,1]"."""
    ln, ld, hn, hd, lo_closed, hi_closed = lex_interval(text)
    return Interval(Fraction(ln, ld), Fraction(hn, hd), lo_closed, hi_closed)


def encode_lexed(ivs: Sequence[Lexed]) -> tuple[int, list[int]]:
    """A common denominator of the ends of lexed intervals, the lcm of their
    denominators as written, and the start and end key of each interval
    over it, in turn."""
    den = lcm(*(d for iv in ivs for d in (iv[1], iv[3])))
    keys = []
    for ln, ld, hn, hd, lo_closed, hi_closed in ivs:
        keys += (2 * ln * (den // ld) + (not lo_closed), 2 * hn * (den // hd) + hi_closed)
    return den, keys


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
        ivs.append(_lexed(m))
        pos = m.end()
        if pos == len(text):
            return _merged(*encode_lexed(ivs))
        if text[pos] != ",":  # exactly one comma separates two intervals
            raise ParseError(f"expected a comma between intervals at {text[pos:]!r}")
        pos += 1
