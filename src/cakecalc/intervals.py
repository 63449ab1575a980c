"""Canonical finite unions of intervals of the unit cake [0,1], in exact
rationals.

A set's components are pairwise disjoint and sorted, and no two of them
can be merged into one interval.  Singletons [a,a] are intervals (they
carry atoms and come out of intersections); a degenerate interval with an
open end is rejected, not dropped.

Interval ends are *cuts*: (x, 0) lies just before the point x and (x, 1)
just after it.  An interval runs from its start cut, (lo, 0) closed or
(lo, 1) open, to its end cut, (hi, 1) closed or (hi, 0) open, so comparing
cuts answers every endpoint question (nonempty iff start < end).

A set is the integer keys of its cuts over one `den` (see `IntervalSet`),
and the set operations are integer sweeps that build no `Fraction`.
Every interval enters as integer pairs (`Lexed`), from text, an `Interval`
or a tuple spec, and `encode_lexed` alone writes their keys.  Outside this
module the encoding is known to the Cantor iterates of `foundations`, to
`valuation`, to the config loader and to the CLI's slice text.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm

from .errors import InvalidInterval, OutOfCake, ParseError, rational_text

Lexed = tuple[int, int, int, int, bool, bool]  # (ln, ld, hn, hd, lo_closed, hi_closed)


class FrozenInstanceError(AttributeError):
    """A field of a frozen value was assigned or deleted."""


class _Value:
    """Base of the value classes: `==` (only within one class), `hash`,
    `repr` and pickling go by the fields named in the subclass's `_fields`,
    in order, and no attribute can be assigned or deleted.  Each subclass
    sets its fields in its own `__init__`, which unpickling calls."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class Interval(_Value):
    """A nonempty interval <lo,hi> of [0,1] with per-end open/closed flags."""

    __slots__ = _fields = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo: Fraction, hi: Fraction, lo_closed: bool, hi_closed: bool):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_closed", lo_closed)
        object.__setattr__(self, "hi_closed", hi_closed)
        _check_ends(*_interval_ends(self))

    @property
    def start(self) -> tuple[Fraction, int]:
        return (self.lo, 0 if self.lo_closed else 1)

    @property
    def end(self) -> tuple[Fraction, int]:
        return (self.hi, 1 if self.hi_closed else 0)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self) -> str:
        return keys_text(*encode_lexed([_interval_ends(self)]))


def _interval_ends(iv: Interval) -> Lexed:
    """The fields of `iv` as its lexed ends: (ln, ld, hn, hd, lo_closed, hi_closed)."""
    lo, hi = iv.lo, iv.hi
    return lo.numerator, lo.denominator, hi.numerator, hi.denominator, iv.lo_closed, iv.hi_closed


def _check_ends(ln: int, ld: int, hn: int, hd: int, lo_closed: bool, hi_closed: bool) -> None:
    """Raise the error of the interval <ln/ld, hn/hd> (ld, hd > 0), with the
    given end kinds, unless it is a nonempty interval of [0,1]."""
    c = ln * hd - hn * ld  # the sign of lo - hi
    if ln >= 0 and hn <= hd and (c < 0 or c == 0 and lo_closed and hi_closed):
        return
    text = (f"{'[' if lo_closed else '('}{rational_text(ln, ld)},"
            f"{rational_text(hn, hd)}{']' if hi_closed else ')'}")
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
    `Interval` prints them: each point is written from its key by
    `rational_text`, and no `Fraction` or `Interval` is built."""
    return ", ".join(
        f"{'(' if s & 1 else '['}{rational_text(s >> 1, den)},"
        f"{rational_text(e >> 1, den)}{']' if e & 1 else ')'}"
        for s, e in zip(keys[::2], keys[1::2])
    )


class IntervalSet(_Value):
    """Canonical element of the algebra of finite unions of intervals.

    Held as `den` and `keys`: the strictly increasing keys 2*x*den + side of
    the cuts (s0, e0, s1, e1, ...) of its components, over the lcm `den` of
    their points' denominators, and nothing else.  Every constructor builds
    it from keys (`IntervalSet(...)` raises `TypeError`), and the
    `components` view is built from them on first access and cached.  x lies
    in the set iff an odd number of keys are <= the key of (x, 0).  Equality
    and hashing go by (den, keys) alone, also for subclasses."""

    __slots__ = ("den", "keys", "_components")
    _fields = ("den", "keys")

    def __init__(self, *args, **kwargs):
        raise TypeError("build an IntervalSet with normalize, interval_set or parse_interval_set")

    @property
    def components(self) -> tuple[Interval, ...]:
        if self._components is None:
            object.__setattr__(self, "_components", key_intervals(self.den, self.keys))
        return self._components

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.den == other.den and self.keys == other.keys

    __hash__ = _Value.__hash__  # which the __eq__ above would unset

    def __reduce__(self):
        return _from_keys, (self.den, self.keys)

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


def _from_keys(den: int, keys: tuple[int, ...]) -> IntervalSet:
    """The new set of canonical `keys` over its canonical `den`, unchecked.
    Its `components` are built on first access."""
    s = object.__new__(IntervalSet)
    init = object.__setattr__
    init(s, "den", den)
    init(s, "keys", keys)
    init(s, "_components", None)
    return s


def _reduced(den: int, keys: Iterable[int]) -> IntervalSet:
    """The set of canonical `keys` over `den`, with `den` divided by the gcd
    of its points, so that it is the lcm of their denominators."""
    keys = tuple(keys)
    g = _point_gcd(den, keys)
    return _from_keys(den // g, keys if g == 1 else tuple(_scaled(keys, 1, g)))


def _point_gcd(g: int, keys: Iterable[int]) -> int:
    """The gcd of g and the points of `keys`; the scan stops once it is 1."""
    for k in keys:
        g = gcd(g, k >> 1)
        if g == 1:
            break
    return g


def _scaled(keys: Iterable[int], f: int, g: int = 1) -> list[int]:
    """`keys` with each point x written as x // g * f, for g a divisor of
    every point: the keys over den * f / g of the cuts they have over den."""
    if g == 1:
        c = 2 * f - 2  # 2*x*f + side is k + 2*x*(f - 1)
        return [k + (k >> 1) * c for k in keys]
    f *= 2
    return [(k >> 1) // g * f + (k & 1) for k in keys]


def translate_keys(length: int, shifts: Iterable[int]) -> tuple[int, ...]:
    """The keys of the union of the closed intervals [t, t + length], in
    integer positions over the set's den, for t every sum of a subset of
    `shifts`.  Each shift must exceed the span of the union that the shifts
    before it make, so that each translated copy lies right of the last.
    Each shift doubles the ruler sequence of key differences; one `accumulate` sums it."""
    steps = [2 * length + 1]
    last = steps[0]  # the last key so far
    for shift in shifts:  # the gap before the copy is 2 * shift - last
        steps += [2 * shift - last, *steps]
        last += 2 * shift
    return tuple(accumulate(steps, initial=0))


EMPTY = _from_keys(1, ())
FULL = _from_keys(1, (0, 3))


def normalize(raw: Iterable[Interval]) -> IntervalSet:
    """Unique canonical IntervalSet with the same point set.  Idempotent."""
    return _merged(*encode_lexed([_interval_ends(iv) for iv in raw]))


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
    (0,0), the cuts of a, and (1,1).  Only an end gap can be empty, so this
    toggles the keys of (0,0) and (1,1), copying a's keys once: a slice
    drops those a has, and those it lacks are joined to it.  No other point
    comes or goes, so neither does a factor of `den`."""
    keys, top = a.keys, 2 * a.den + 1
    head = () if keys[:1] == (0,) else (0,)
    tail = () if keys[-1:] == (top,) else (top,)
    return _from_keys(a.den, head + keys[1 - len(head):len(keys) - 1 + len(tail)] + tail)


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Each component [s, e] of the operand a with fewer keys is bisected
    into the keys ys of the other operand b: its piece starts at s if s lies
    inside b, takes the keys of ys strictly between s and e, and ends at e
    if e lies inside.  So the work is O(k log m + output) for k and m
    components, and the keys rise strictly across pieces: canonical.  If b
    lies inside a, b is the result, and it is returned itself once the cuts
    are placed: after O(k log m) bisections, before `out` is built.  A
    result equal to a is returned as a.

    The sweep runs over b.den: a cut x/a.den of a lies on the point q, or
    strictly between q and q + 1, for (q, r) = divmod(x * b.den, a.den).
    The result's den is lcm(b.den / gb, a.den / ga), for gb and ga the gcds
    of each den with the points kept in its scale, and only if it is not
    b.den are the kept keys written over it, each once.  Where a has at
    least about half of b's keys, a division per cut costs more than
    rescaling b, so both are rescaled to the lcm of the dens instead."""
    if len(a.keys) > len(b.keys):
        a, b = b, a
    xs, ys = a.keys, b.keys
    if not xs:  # the empty operand is the intersection
        return a
    da, db = a.den, b.den
    at: list[int] = []  # the index in the result of each late cut, held by a 0
    late: list[int] = []  # the kept cuts of a without a key over db, over da
    r = db % da
    # the 16 keeps tiny operands, where two rescaling passes cost more than
    # a few divisions, on the division path
    if r and 2 * len(xs) < len(ys) + 16:
        cuts, places = [], []  # each cut's key over db (0 off that grid), and its place
        i = size = 0  # size: the keys of the pieces before the cut
        for n, k in enumerate(xs):
            # the point is q/db if r == 0, else it lies after every key at
            # q/db and before every key at (q + 1)/db
            q, r = divmod((k >> 1) * db, da)
            if n & 1:  # an end: the keys of b before it
                j = bisect_left(ys, 2 * q + (2 if r else k & 1), i)
                size += j - i
            else:  # a start: the keys of b at or before it
                i = j = bisect_right(ys, 2 * q + (1 if r else k & 1))
            places.append(j)
            cuts.append(0 if r else 2 * q + (k & 1))
            if j & 1 and r:  # a late cut inside b
                at.append(size)
                late.append(k)
            size += j & 1
        starts, ends = places[::2], places[1::2]
    else:  # sweep over the lcm of the dens, which is db if da divides it
        if r:
            f = lcm(da, db) // db
            ys, db = _scaled(ys, f), db * f
        cuts = _scaled(xs, db // da) if db != da else xs
        starts = list(map(bisect_right, repeat(ys), cuts[::2]))
        ends = list(map(bisect_left, repeat(ys), cuts[1::2], starts))
    # b lies inside a iff each cut of a inside b is a key of b and the result has len(ys) keys
    kept = sum(ends) - sum(starts)
    if (kept + len(xs) >= len(ys) and not late
            and all(s == ys[i - 1] for s, i in zip(cuts[::2], starts) if i & 1)
            and all(e == ys[j] for e, j in zip(cuts[1::2], ends) if j & 1)
            and kept + sum(i & 1 for i in starts + ends) == len(ys)):
        return a if a == b else b
    out: list[int] = []
    for s, e, i, j in zip(cuts[::2], cuts[1::2], starts, ends):
        if i & 1:  # s lies inside b
            out.append(s)
        out += ys[i:j]
        if j & 1:
            out.append(e)
    g = _point_gcd(db, out)
    den = db // g
    if late:
        ga = _point_gcd(da, late)
        den = lcm(den, da // ga)
    if den != db:
        out = _scaled(out, den * g // db, g)
    if late:
        for n, k in zip(at, _scaled(late, den * ga // da, ga)):
            out[n] = k
    result = _from_keys(den, tuple(out))
    # an operand that is the result may have its views built already
    return a if result == a else result


def difference(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return intersect(a, complement(b))


def _split(a: IntervalSet, cn: int, cd: int) -> tuple[IntervalSet, IntervalSet]:
    """(a ∩ [0,c], a ∩ (c,1]) for c = cn/cd in [0,1], cd > 0, from one
    bisection of the key K of the cut (c, 1) into a's keys: the keys below
    K go left and the rest right, and where K falls inside a component,
    both halves take it.  A key equal to K ends a component at c or starts
    one just after it, so it splits a cleanly.  Where c is off a's grid, no
    key equals it, and a half with K is written over lcm(a.den, cd).  A half
    that is all of a is a itself, as `intersect` returns it."""
    keys, den = a.keys, a.den
    q, r = divmod(cn * den, cd)
    K = 2 * q + 1
    # with r, c lies after every key at q/den and before every key at (q + 1)/den
    i = bisect_left(keys, K + 1 if r else K)
    if i & 1 and keys[i] == K:  # a component ends at c
        i += 1
    if not i:
        return EMPTY, a
    if i == len(keys):
        return a, EMPTY
    left, right = keys[:i], keys[i:]
    if i & 1:  # c lies inside a component: both halves end or start at K
        if r:  # both halves over lcm(den, cd)
            f = cd // gcd(den, cd)
            left, right, den = _scaled(left, f), _scaled(right, f), den * f
            K = 2 * cn * (den // cd) + 1
        left, right = (*left, K), (K, *right)
    return _reduced(den, left), _reduced(den, right)


def as_fraction(x) -> Fraction:
    """x as a `Fraction`; one is returned as it is, without `Fraction(x)`'s
    slow path for it."""
    return x if type(x) is Fraction else Fraction(x)


def contains(a: IntervalSet, x: Fraction) -> bool:
    x = as_fraction(x)
    if not 0 <= x.numerator <= x.denominator:
        raise OutOfCake(f"point {rational_text(x)} is outside [0,1]")
    return x in a


def total_length(a: IntervalSet) -> Fraction:
    """Lebesgue measure of the set; endpoint kinds do not matter."""
    return a.length


def interval_set(*specs) -> IntervalSet:
    """Convenience constructor from Intervals and (lo, hi[, lo_closed,
    hi_closed]) tuples, whose ends are closed unless a flag says otherwise."""
    ivs = [_interval_ends(s) if isinstance(s, Interval) else _spec_ends(*s) for s in specs]
    return _merged(*encode_lexed(ivs))


def _spec_ends(lo, hi, lo_closed=True, hi_closed=True) -> Lexed:
    """A tuple spec's ends as `Fraction`s' pairs, checked as `Interval` checks them."""
    lo, hi = as_fraction(lo), as_fraction(hi)
    ends = lo.numerator, lo.denominator, hi.numerator, hi.denominator, lo_closed, hi_closed
    _check_ends(*ends)
    return ends


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


def encode_lexed(ivs: Sequence[Lexed]) -> tuple[int, list[int]]:
    """A common denominator of the ends of lexed intervals, the lcm of their
    denominators as written, and the start and end key of each interval
    over it, in turn."""
    # a list: a tuple that `*` builds from a generator is resized and stays on the free list
    den = lcm(*[d for iv in ivs for d in (iv[1], iv[3])])
    keys = []
    for ln, ld, hn, hd, lo_closed, hi_closed in ivs:
        keys += (2 * ln * (den // ld) + (not lo_closed),
                 2 * hn * (den // hd) + (1 if hi_closed else 0))
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
