"""Valuations on the unit cake given by their Lebesgue decomposition:
atoms, a piecewise-constant density and rescaled Cantor measures.

All arithmetic is exact, and the Robertson–Webb queries stay in integers:
eval is `_value_ints` (`_value_matrix` for an allocation), cut is
`_prefix_end`, and `cut` answers both from one reading of F at a set's
keys.  Cut queries and slices find where F reaches a target by one
`_invert`.  Supports get their keys from `intervals.encode_lexed`.  Only
Cantor orbits that do not close within the tolerance force approximation:
certified brackets or points.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from . import cantor
from .errors import (
    AtomObstruction,
    BadParameter,
    BadPartition,
    BadTolerance,
    NotNormalized,
    NotSliceable,
    OutOfCake,
    ZeroMass,
    ZeroPiece,
)
from .foundations import CantorIterateSet
from .intervals import (
    EMPTY,
    FULL,
    Interval,
    IntervalSet,
    _Value,
    _from_keys,
    _interval_ends,
    _scaled,
    _split,
    as_fraction,
    contains,
    encode_lexed,
    key_intervals,
    keys_text,
    rational_text,
)

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_TOL = Fraction(1, 2**40)
_SIDES = {"left_limit": 0, "at": 1}  # cdf's side of x as the second entry of a cut


class CdfValue(_Value):
    """An exact rational (lo == hi) or a certified bracket [lo, hi]."""

    _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def is_exact(self) -> bool:
        # an exact value is built with one Fraction for both ends
        return self.lo is self.hi or self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.is_exact:
            raise ValueError(f"bracket {self} is not exact")
        return self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __str__(self) -> str:
        lo = rational_text(self.lo)
        return lo if self.is_exact else f"[{lo}, {rational_text(self.hi)}]"


class CantorComponent(_Value):
    """A rescaled Cantor measure: mass `weight` spread over C_p inside `support`."""

    _fields = ("support", "p", "weight")

    def __init__(self, support: Interval, p: Fraction, weight: Fraction):
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "weight", weight)


_Table = namedtuple("_Table", "D QD X GL GA R")
_Table.__doc__ = """G, which is F off the open Cantor supports, in integers: row i is the
    point X[i]/D, with G(x-) = GL[i]/QD and G(x) = GA[i]/QD there, and G
    rises with slope R[i]/Q from there to the next row.  Inside a support,
    and in the left limit at its end, G leaves out that part's mass.  D is
    the lcm of the denominators of the row points, Q that of the weights and
    densities, and QD is Q·D; X, GL, GA and R are lists of ints."""


class Valuation(_Value):
    """Built only by `integer_valuation`, from checked integer data: the
    public `atoms` ((location, weight) pairs), `density` ((support, density)
    pairs) and `cantor` (by support), and `_table`, G (F off the open Cantor
    supports), and `_parts`, the Cantor parts in integers: (E, S, T, pn, pd,
    wn, wd) for the support [S/E, T/E], over the lcm E of the ends'
    denominators, the ratio pn/pd and the weight wn/wd.  `==`, `hash` and
    `repr` go by the three public fields, and pickling keeps all five."""

    _fields = ("atoms", "density", "cantor")

    def __init__(self, atoms: tuple, density: tuple, cantor: tuple, _table: _Table, _parts: tuple):
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "cantor", cantor)
        object.__setattr__(self, "_table", _table)
        object.__setattr__(self, "_parts", _parts)

    def __reduce__(self):
        return Valuation, (*self._values(), self._table, self._parts)

    @property
    def has_atoms(self) -> bool:
        return bool(self.atoms)


def _integer_table(atoms, den: int, density, parts) -> _Table:
    """G as a `_Table`, with a row at 0, 1, every atom, every density
    endpoint and every Cantor support end, from atoms (an, ad, wn, wd),
    densities (s, e, dn, dd) and Cantor parts (s, e, pn, pd, wn, wd) on
    supports with keys s, e over `den`.  A part's weight is a jump at its
    support's end, where F_p reaches 1.  Density supports are disjoint, so
    G is linear between adjacent rows."""
    ends = [k >> 1 for s, e, *_ in density for k in (s, e)]
    tops = [e >> 1 for _, e, *_ in parts]
    g = gcd(den, *ends, *tops)  # den/g is the lcm of the row points' denominators
    D = lcm(den // g, *[ad for _, ad, _, _ in atoms])
    Q = lcm(*[wd for *_, wd in atoms], *[dd for *_, dd in density], *[wd for *_, wd in parts])
    QD = Q * D
    f = D // (den // g)
    ends, tops = [e // g * f for e in ends], [t // g * f for t in tops]  # over D
    jump = {an * (D // ad): wn * (QD // wd) for an, ad, wn, wd in atoms}
    for t, (*_, wn, wd) in zip(tops, parts):  # an atom may sit at t too
        jump[t] = jump.get(t, 0) + wn * (QD // wd)
    slope = dict.fromkeys((0, D, *jump, *ends), 0)  # change of Q·density at a point
    for (_, _, dn, dd), lo, hi in zip(density, ends[::2], ends[1::2]):
        r = dn * (Q // dd)
        slope[lo] += r
        slope[hi] -= r
    X = sorted(slope)
    g_left, g_at, rates = [], [], []
    g = rate = prev = 0
    for x in X:
        g += rate * (x - prev)
        g_left.append(g)
        g += jump.get(x, 0)
        g_at.append(g)
        rate += slope[x]
        rates.append(rate)
        prev = x
    return _Table(D, QD, X, g_left, g_at, rates)


def decomposition_masses(v: Valuation) -> tuple[Fraction, Fraction, Fraction]:
    """(ac, sc, d) masses of the Lebesgue decomposition; they sum to 1."""
    ac = sum((d * sup.length for sup, d in v.density), ZERO)
    sc = sum((c.weight for c in v.cantor), ZERO)
    d = sum((w for _, w in v.atoms), ZERO)
    return ac, sc, d


def make_valuation(
    atoms: Iterable[tuple[Fraction, Fraction]] = (),
    density: Iterable[tuple[Interval, Fraction]] = (),
    cantor_parts: Iterable[CantorComponent] = (),
) -> Valuation:
    """Validate the generator data and pin the total mass to exactly 1."""
    atom_list = [(as_fraction(a), as_fraction(w)) for a, w in atoms]
    dens_list = [(sup, as_fraction(d)) for sup, d in density]
    sc_list = [(c.support, as_fraction(c.p), as_fraction(c.weight)) for c in cantor_parts]
    den, keys = encode_lexed([_interval_ends(sup) for sup, *_ in dens_list + sc_list])
    ends = list(zip(keys[::2], keys[1::2]))
    return integer_valuation(
        [(a.numerator, a.denominator, w.numerator, w.denominator) for a, w in atom_list],
        den,
        [(s, e, d.numerator, d.denominator) for (_, d), (s, e) in zip(dens_list, ends)],
        [(s, e, p.numerator, p.denominator, w.numerator, w.denominator)
         for (_, p, w), (s, e) in zip(sc_list, ends[len(dens_list):])],
    )


def integer_valuation(atoms, den: int, density, cantor_parts=()) -> Valuation:
    """The checked valuation of atoms (an, ad, wn, wd), densities (s, e, dn,
    dd) and Cantor components (s, e, pn, pd, wn, wd), the supports given by
    their keys s, e over a common denominator `den`; every pair n/d is in
    lowest terms with d > 0.  Every `Valuation` is built here.  The Cantor
    ratio goes through `cantor.check_ratio`, and every other check compares
    integers; the public fields are built once, after the checks pass."""
    if len({(an, ad) for an, ad, _, _ in atoms}) != len(atoms):
        raise BadParameter("duplicate atom locations")
    for an, ad, wn, wd in atoms:
        if not 0 <= an <= ad:
            raise OutOfCake(f"atom at {rational_text(an, ad)} is outside [0,1]")
        if wn <= 0:
            raise BadParameter(f"atom weight {rational_text(wn, wd)} must be positive")

    for _, _, dn, dd in density:
        if dn < 0:
            raise BadParameter(f"negative density {rational_text(dn, dd)}")
    _check_pairwise_disjoint(den, density, "density supports")

    for s, e, pn, pd, wn, wd in cantor_parts:
        cantor.check_ratio(Fraction(pn, pd))
        if wn <= 0:
            raise BadParameter(
                f"Cantor component weight {rational_text(wn, wd)} must be positive"
            )
        if s >> 1 == e >> 1:
            raise BadParameter("Cantor component support must have positive length")
        if s & 1 or not e & 1:
            raise BadParameter("Cantor component support must be a closed interval")
    parts = _check_pairwise_disjoint(den, cantor_parts, "Cantor supports")

    table = _integer_table(atoms, den, density, parts)
    if table.GA[-1] != table.QD:
        raise NotNormalized(Fraction(table.GA[-1], table.QD))

    densities = key_intervals(den, [k for s, e, *_ in density for k in (s, e)])
    supports = key_intervals(den, [k for s, e, *_ in parts for k in (s, e)])
    integer_parts = []
    for s, e, pn, pd, wn, wd in parts:
        g = gcd(s >> 1, e >> 1, den)  # den/g is the lcm of the ends' denominators
        integer_parts.append((den // g, (s >> 1) // g, (e >> 1) // g, pn, pd, wn, wd))
    return Valuation(
        tuple((Fraction(an, ad), Fraction(wn, wd)) for an, ad, wn, wd in atoms),
        tuple((sup, Fraction(dn, dd)) for sup, (*_, dn, dd) in zip(densities, density)),
        tuple(CantorComponent(sup, Fraction(pn, pd), Fraction(wn, wd))
              for sup, (_, _, pn, pd, wn, wd) in zip(supports, parts)),
        table,
        tuple(integer_parts),
    )


def _check_pairwise_disjoint(den: int, supports: Sequence[tuple[int, ...]], what: str):
    """Sorted by start key, the supports, given as tuples that begin with
    their start and end key over `den`, are pairwise disjoint iff each one
    ends at or before the start of the next; returns them so sorted."""
    ordered = sorted(supports, key=itemgetter(0))
    for a, b in zip(ordered, ordered[1:]):
        if b[0] < a[1]:
            raise BadPartition(
                f"{what} overlap: {keys_text(den, a[:2])} and {keys_text(den, b[:2])}"
            )
    return ordered


def make_box_valuation(boxes: Iterable[tuple[Interval, int]]) -> Valuation:
    """Piecewise-constant valuation from (support, box count) pairs.

    The supports must partition [0,1]; piece i gets density
    count_i / (total * length_i), so the total mass is exactly 1.
    """
    box_list = [(sup, as_fraction(n)) for sup, n in boxes]
    for _, n in box_list:
        if n.denominator != 1:
            raise BadParameter(f"box count {rational_text(n)} is not a nonnegative integer")
    den, keys = encode_lexed([_interval_ends(sup) for sup, _ in box_list])
    return integer_box_valuation(
        den, [(s, e, n.numerator) for (_, n), s, e in zip(box_list, keys[::2], keys[1::2])]
    )


def integer_box_valuation(den: int, boxes) -> Valuation:
    """`make_box_valuation` of boxes (s, e, n): n boxes on the support with
    the keys s, e over a common denominator `den`.  The support from L/den to
    H/den gets density n·den/(total·(H - L))."""
    for s, e, n in boxes:
        if n < 0:
            raise BadParameter(f"box count {rational_text(n)} is not a nonnegative integer")
        if s >> 1 == e >> 1:
            raise BadPartition(f"singleton {keys_text(den, (s, e))} cannot carry boxes")
    ordered = _check_pairwise_disjoint(den, boxes, "box supports")
    # disjoint supports cover [0,1] iff each starts where the one before ends
    keys = [k for s, e, _ in ordered for k in (s, e)]
    if keys[:1] != [0] or keys[-1:] != [2 * den + 1] or keys[1:-1:2] != keys[2::2]:
        raise BadPartition("box supports do not cover [0,1]")
    total = sum(n for _, _, n in boxes)
    if total == 0:
        raise ZeroMass("all box counts are zero")
    density = []
    for s, e, n in boxes:
        if n:
            dn, dd = n * den, total * ((e >> 1) - (s >> 1))
            g = gcd(dn, dd)
            density.append((s, e, dn // g, dd // g))
    return integer_valuation((), den, density)


def uniform_valuation() -> Valuation:
    return make_box_valuation([(FULL.components[0], 1)])


def dirac_valuation(a) -> Valuation:
    return make_valuation(atoms=[(Fraction(a), ONE)])


def cantor_valuation(p=Fraction(1, 3)) -> Valuation:
    return make_valuation(
        cantor_parts=[CantorComponent(FULL.components[0], Fraction(p), ONE)]
    )


# --- distribution function -------------------------------------------------


def _check_tol(tol) -> Fraction:
    tol = as_fraction(tol)
    if tol.numerator <= 0:
        raise BadTolerance(f"tolerance {rational_text(tol)} must be positive")
    return tol


def cdf(v: Valuation, x, side: str = "at", tol=DEFAULT_TOL) -> CdfValue:
    """F(x) = v([0,x]) for side="at"; the left limit F(x-) for side="left_limit"."""
    x = as_fraction(x)
    if not 0 <= x.numerator <= x.denominator:
        raise OutOfCake(f"point {rational_text(x)} is outside [0,1]")
    tol = _check_tol(tol)
    if side not in _SIDES:
        raise BadParameter(f"unknown side {side!r}")
    (lo,), (hi,), d = _cdf_at_keys(v, x.denominator, (2 * x.numerator + _SIDES[side],), tol)
    return _cdf_value(lo, hi, d)


def _cdf_value(lo: int, hi: int, d: int) -> CdfValue:
    """[lo/d, hi/d] as a `CdfValue`, clamped by `_clamp`."""
    lo, hi = _clamp(lo, hi, d)
    f = Fraction(lo, d)
    return CdfValue(f, f if lo == hi else Fraction(hi, d))


def _clamp(lo: int, hi: int, d: int) -> tuple[int, int]:
    """[lo/d, hi/d] cut down to [0, 1]; an exact value must lie in it,
    since clamping it would hide an arithmetic error."""
    if lo == hi:
        assert 0 <= lo <= d, (lo, d)
        return lo, hi
    return max(lo, 0), min(hi, d)


def _cdf_at_keys(v: Valuation, den: int, keys: Sequence[int], tol: Fraction, split: int = 1):
    """F at increasing cuts, given as `IntervalSet` keys over `den`, as
    (lo, hi, d): F at cut i lies in [lo[i]/d, hi[i]/d], of width <= tol/split,
    and hi[i] <= d.  G, from `_table_at_keys`, is F but at the cuts strictly
    inside a Cantor support [s, t] and at (t, 0); there the part adds
    w·F_p((x - s)/(t - s)), by `cantor.walk` within tol/(split·len·w).  d is
    the lcm of q and the walks' denominators; with no cut to walk, G's g, g,
    q return."""
    g, q = _table_at_keys(v._table, den, keys)
    tn, td = tol.numerator, tol.denominator * split * len(v._parts)
    walks = []  # (i, lo, hi, b) at the cuts inside a support, and at its end's left limit
    for E, S, T, pn, pd, wn, wd in v._parts:
        # the smallest depth >= 1 with 2^-depth <= tol/(split·len·w); p = 1/3 always closes
        depth = None if (pn, pd) == (1, 3) else max(1, ((td * wn - 1) // (tn * wd)).bit_length())
        first = bisect_right(keys, 2 * (S * den // E) + 1)  # the first cut right of s
        top, off = divmod(T * den, E)
        last = bisect_right(keys, 2 * top + (off > 0), first)  # the first cut right of (t, 0)
        n = den * (T - S)
        for i, k in enumerate(keys[first:last], first):
            y = (k >> 1) * E - S * den  # y/n into the support; y = n walks to F_p(1) = 1
            a_lo, a_hi, b = cantor.walk(pn, pd, y, n, depth if y < n else None)
            walks.append((i, wn * a_lo, wn * a_hi, wd * b))
    if not walks:
        return g, g, q
    d = lcm(q, *[b for *_, b in walks])
    lo = [x * (d // q) for x in g]
    hi = lo.copy()
    for i, a_lo, a_hi, b in walks:
        lo[i] += a_lo * (d // b)
        hi[i] = min(hi[i] + a_hi * (d // b), d)  # a bracket may overshoot 1
    return lo, hi, d


def evaluate(v: Valuation, A: IntervalSet, tol=DEFAULT_TOL) -> CdfValue:
    """v(A), the sum of F(end) - F(start) over the components; exact when sc-free."""
    return _cdf_value(*_value_ints(v, A, tol))


def _value_ints(v: Valuation, A: IntervalSet, tol) -> tuple[int, int, int]:
    """`evaluate`'s v(A) as (lo, hi, d) for [lo/d, hi/d], clamped by `_clamp`,
    in lowest terms or not.  An iterate is read, without its keys, at the
    rows of a table that is F (no Cantor part) by one `_upto` each: over
    QD·den, a row in A adds its atom, and R times A's length to the next row."""
    tol = _check_tol(tol)
    if isinstance(A, CantorIterateSet) and not v._parts:
        D, QD, X, GL, GA, R = v._table
        total = last = rate = 0
        for x, gl, ga, r in zip(X, GL, GA, R):
            upto, inside = A._upto(x, D)  # |A ∩ [0, x/D]|·den·D
            total += rate * (upto - last) + (ga - gl) * A.den * inside
            last, rate = upto, r
        d = QD * A.den
        return (*_clamp(total, total, d), d)
    return _summed(*_cdf_at_keys(v, A.den, A.keys, tol, max(2, len(A.keys))))


def _summed(lo: list[int], hi: list[int], d: int) -> tuple[int, int, int]:
    """v(A) as (lo, hi, d), clamped by `_clamp`, from a reading of F at A's keys."""
    if lo is hi:  # F is exact at every cut
        lo = hi = sum(lo[1::2]) - sum(lo[::2])
    else:  # each component's bracket is cut down to [0, 1] before it is added
        lo, hi = map(sum, zip(*[_clamp(e_lo - s_hi, e_hi - s_lo, d) for s_lo, s_hi, e_lo, e_hi
                                in zip(lo[::2], hi[::2], lo[1::2], hi[1::2])]))
    return (*_clamp(lo, hi, d), d)


def _value_matrix(
    valuations: dict[int, Valuation], pieces: dict[int, IntervalSet], tol
) -> dict[tuple[int, int], tuple[int, int, int]]:
    """The value matrix {(i, j): v_i(X_j)} of triples (lo, hi, d), each equal
    in value to `_value_ints(v_i, X_j, tol)`.  The pieces' keys are merged
    into one sorted run over the lcm L of their dens, so a valuation without
    a Cantor part reads G by one `_table_at_keys` sweep, and each value is a
    signed sum over its piece's positions.  Other valuations, and Cantor
    iterate pieces, go through `_value_ints`: a bracket's walk depth depends
    on the piece's key count, and an iterate is read by descent."""
    tol = _check_tol(tol)
    swept = {j: s for j, s in pieces.items() if not isinstance(s, CantorIterateSet)}
    L = lcm(*[s.den for s in swept.values()])
    scaled = {j: _scaled(s.keys, L // s.den) for j, s in swept.items()}
    merged = sorted({k for keys in scaled.values() for k in keys})
    at = {k: n for n, k in enumerate(merged)}
    positions = {j: ([at[k] for k in keys[::2]], [at[k] for k in keys[1::2]])
                 for j, keys in scaled.items()}
    values = {}
    for i, v in valuations.items():
        if v._parts:
            values.update(((i, j), _value_ints(v, s, tol)) for j, s in pieces.items())
            continue
        g, q = _table_at_keys(v._table, L, merged)
        g_at = g.__getitem__
        for j, s in pieces.items():
            if j in positions:
                starts, ends = positions[j]
                total = sum(map(g_at, ends)) - sum(map(g_at, starts))
                assert 0 <= total <= q, (total, q)  # as `_clamp` checks an exact value
                values[i, j] = (total, total, q)
            else:
                values[i, j] = _value_ints(v, s, tol)
    return values


def _table_at_keys(table: _Table, den: int, keys: Sequence[int]) -> tuple[list[int], int]:
    """G at increasing cuts, given as `IntervalSet` keys over `den`, as
    integers over one denominator q, returned with them: one sweep over the
    keys and the rows, both rescaled to L = lcm(D, den), so q = QD·L/D.  A
    point P/L lies in the row of the last X[i] <= floor(P / (L/D))."""
    D, QD, X, GL, GA, R = table
    L = lcm(D, den)
    f, g = L // D, L // den
    values = []
    i = 0
    for k in keys:
        p = (k >> 1) * g
        i = bisect_right(X, p // f, i) - 1
        x = X[i] * f
        if x == p:
            values.append((GA[i] if k & 1 else GL[i]) * f)
        else:
            values.append(GA[i] * f + R[i] * (p - x))
    return values, QD * f


# --- CDF inversion -----------------------------------------------------------


def _invert_rows(table: _Table, a: int, b: int):
    """The table's row rule for G(x) >= a/(b·QD): the first row i with GA[i]
    >= ceil(a/b), or the last, and the minimal such x = xn/xd, as (xn, xd,
    G(x-), G(x)) with G over QD·b; left of row i, G rises linearly."""
    D, QD, X, GL, GA, R = table
    i = bisect_left(GA, -(-a // b), 0, len(X) - 1)
    if i == 0 or GL[i] * b <= a:
        return X[i], D, GL[i] * b, GA[i] * b
    return X[i - 1] * R[i - 1] * b + a - GA[i - 1] * b, D * R[i - 1] * b, a, a


def _invert(v: Valuation, t: int, B: int, tol: Fraction):
    """The minimal c with F(c) >= t/B, or 1, as (cn, cd, g) for c = cn/cd,
    in lowest terms or not; B is a multiple of QD, and the caller picks it.
    The one inversion that cut queries and slices share.  G <= F, with
    equality off the open supports, so the row rule's point c' is c unless
    c' lies in a part's (s, t]: there `_descend` finds c, or c within tol/4,
    and g is None.  Else g is (F(c-), F(c)) over B, also at c' = t when
    F(t-) = G(t-) + w <= t/B, which makes c = t."""
    table = v._table
    cn, cd, gl, ga = _invert_rows(table, t, B // table.QD)
    for part in v._parts:
        E, S, T, *_, wn, wd = part
        if S * cd < cn * E <= T * cd:
            w = wn * (B // wd)
            if cn * E < T * cd or gl + w > t:
                return *_descend(table, max(table.R), part, t, B, tol), None
            return cn, cd, (gl + w, ga)
    return cn, cd, (gl, ga)


def _descend(table: _Table, rate: int, part: tuple[int, ...], t: int, B: int, tol: Fraction):
    """`_invert` in the support of `part`, for a target t/B that F reaches
    there, as (cn, cd) for c = cn/cd: descent through cells [A, A + L]/M
    with r = the target less the part's mass left of the cell and m inside,
    G(a) < r <= G(b-) + m, where G is the table; once G(a) >= r, c is in the
    gap left of the cell.  Where G is flat, (r - G(a))/m follows the
    doubling orbit to an exact repeat; else stop once F rises by at most
    tol/4 across the cell, apart from atoms, which the callers keep out of
    the piece they cut.  `rate` is G's steepest slope, over Q.

    In integers: D | M and G is over Q·M; r and m are over W = B·2^k at
    level k.  A level scales M, A and G by 2·pd and L by pd - pn, which
    keeps both children integral.  Q·M and the row scale f = M/D are kept
    running, and G is read off the rows as `_table_at_keys` reads it until
    a cell where G is not flat lies in one row.  G is affine below it, and
    three integers over U = W·QM go on: u = r·QM - G(a)·W, the target's
    excess over G at the cell start, P, G's rise across the left child, and
    N, its mass; the tol/4 test depends on the level alone."""
    E, S, T, pn, pd, wn, wd = part
    D, QD, X, GL, GA, R = table
    M = lcm(D, E)
    f, QM = M // D, QD // D * M
    A, L = S * (M // E), (T - S) * (M // E)
    W, r, m = B, t, wn * (B // wd)
    qn, qd, s = tol.numerator, 4 * tol.denominator, 2 * pd

    def g_at(x, side):  # G(x/M-) or G(x/M) over Q·M, from the row of x
        i = bisect_right(X, x // f) - 1
        y = X[i] * f
        if x == y:
            return (GA[i] if side else GL[i]) * f
        return GA[i] * f + R[i] * (x - y)

    g_a, g_b, seen = g_at(A, 1), g_at(A + L, 0), {}
    while True:
        if g_a * W >= r * QM:
            return _invert_rows(table, r * QD, W)[:2]
        flat = g_a == g_b
        if flat:  # a repeat of the relative target closes the recursion
            num, den = r * QM - g_a * W, m * QM
            h = gcd(num, den)
            M0, A0, L0 = seen.setdefault((num // h, den // h), (M, A, L))
            if M0 != M:
                return L0 * A - A0 * L, L0 * M - L * M0
        if qd * (m * QM + rate * L * W) <= qn * W * QM:
            return A + L, M
        if not flat and A + L <= X[(i := bisect_right(X, A // f))] * f:
            break  # the cell lies in row i - 1
        M, A, g_a, g_b, W, r = M * s, A * s, g_a * s, g_b * s, 2 * W, 2 * r
        f, QM = f * s, QM * s
        right, L = A + L * (pd + pn), L * (pd - pn)
        g_l = g_a if flat else g_at(A + L, 0)
        if g_l * W >= (r - m) * QM:
            g_b = g_l
        else:
            g_a = g_b if flat else g_at(right, 1)
            A, r = right, r - m
    # the tol/4 test at level n is a·pd^n + b·(pd - pn)^n <= c·s^n; it needs a <= c·2^n
    a, b, c = qd * m * QM, qd * rate * L * W, qn * W * QM
    n = ((a - 1) // c).bit_length()
    while a * pd**n + b * (pd - pn)**n > c * s**n:
        n += 1
    # a level scales U by y, N by s, and P and Q, G's rise to the right child, by z
    R, u0, y, z, path = R[i - 1], r * QM - g_a * W, 2 * s, 2 * (pd - pn), 0
    u, N, P, Q = u0, m * QM, R * L * W, 2 * R * L * W * (pd + pn)
    for k in range(1, n + 1):
        u, N, P, path = u * y, N * s, P * z, 2 * path
        if u > P + N:
            u -= N + Q
            path += 1
            if u <= 0:  # the gap exit at level k's r and W
                return _invert_rows(table, ((r << k) - m * path) * QD, W << k)[:2]
        Q *= z
    k = s**n  # G(a)·W is r·QM - u, and G rose by R·(a - A·k) from A·k
    shift = (k * ((u0 << n) - m * QM * path) - u) // (R * W << n)
    return A * k + shift + L * (pd - pn)**n, M * k


# --- proportional cuts ------------------------------------------------------


def _check_no_atoms(v: Valuation, A: IntervalSet) -> None:
    if v.atoms:
        obstructing = [(loc, w) for loc, w in v.atoms if contains(A, loc)]
        if obstructing:
            raise AtomObstruction(obstructing)


def prefix_with_value(
    v: Valuation, A: IntervalSet, target: Fraction, tol=DEFAULT_TOL
) -> tuple[IntervalSet, Fraction]:
    """Smallest c such that v(A ∩ [0,c]) equals `target`; returns
    (A ∩ [0,c], c).  A target of 0 returns (EMPTY, 0), also when 0 ∈ A.
    With singular parts present, c is exact where the Cantor orbits close,
    else a point where the prefix value is certified within tol/2.

    Requires v to have no atom inside A; the distribution is then continuous
    on A and the prefix value sweeps [0, v(A)] exactly.
    """
    tol = _check_tol(tol)
    target = as_fraction(target)
    if target.numerator < 0:
        raise BadParameter(f"target {rational_text(target)} is negative")
    _check_no_atoms(v, A)
    cn, cd = _prefix_end(v, A, target.numerator, target.denominator, tol)
    # c is 0 only for a target of 0: without an atom in A, v(A ∩ [0,0]) = 0
    return (_split(A, cn, cd)[0] if cn else EMPTY), Fraction(cn, cd)


def _prefix_end(v: Valuation, A: IntervalSet, tn: int, td: int, tol: Fraction):
    """`prefix_with_value(v, A, tn/td, tol)`'s c as a reduced pair (cn, cd),
    without the piece: a Robertson–Webb cut query in integers.  The caller
    checks tol, tn >= 0 (td > 0) and that v has no atom in A."""
    if not tn:
        return 0, 1
    reading = _cdf_at_keys(v, A.den, A.keys, tol, 4 * max(2, len(A.keys)))
    return _prefix_end_from(v, A, reading, tn, td, tol)


def _prefix_end_from(v: Valuation, A: IntervalSet, reading, tn: int, td: int, tol: Fraction):
    """`_prefix_end` for tn > 0, given its reading of F at A's keys."""
    # the target is reached in the first component that takes the running
    # total to it, where v(A ∩ [0,c]) = below + F(c) - base; brackets compare
    # by midpoint, or by top in the last component, over 2·d with target = n/(2·d·m)
    keys = A.keys
    lo, hi, d = reading
    n, m = 2 * d * tn, td
    below_lo = below_hi = 0
    for i in range(0, len(keys), 2):
        base = lo[i] + hi[i]
        upto_lo, upto_hi = below_lo + lo[i + 1] - hi[i], below_hi + hi[i + 1] - lo[i]
        if (upto_lo + upto_hi) * m >= n or (i + 2 == len(keys) and n <= 2 * upto_hi * m):
            # over `_invert`'s B = 2·d·m, a multiple of QD since d is one
            cn, cd, _ = _invert(v, n - (below_lo + below_hi - base) * m, 2 * d * m, tol)
            # F(c)'s target comes from bracket midpoints, so c may miss the component
            # [s, e]/A.den: clamp it there
            den, s, e = A.den, keys[i] >> 1, keys[i + 1] >> 1
            if cn * den < s * cd:
                cn, cd = s, den
            elif cn * den > e * cd:
                cn, cd = e, den
            g = gcd(cn, cd)
            return cn // g, cd // g
        below_lo, below_hi = upto_lo, upto_hi
    raise BadParameter(f"target {rational_text(tn, td)} exceeds v(A)")


def cut(v: Valuation, A: IntervalSet, alpha, tol=DEFAULT_TOL) -> IntervalSet:
    """Prefix piece A_α = A ∩ [0,c] with v(A_α) = α·v(A) (exact when sc-free).
    F is read at A's keys once: v(A) and c both come from that reading."""
    tol = _check_tol(tol)
    alpha = as_fraction(alpha)
    an, ad = alpha.numerator, alpha.denominator
    if not 0 <= an <= ad:
        raise BadParameter(f"alpha {rational_text(alpha)} outside [0,1]")
    _check_no_atoms(v, A)
    reading = _cdf_at_keys(v, A.den, A.keys, tol, 4 * max(2, len(A.keys)))
    lo, hi, d = _summed(*reading)  # v(A) at the width of `_value_ints(v, A, tol/4)`
    if not hi:
        raise ZeroPiece(f"v(A) = 0 for A = {A}")
    if not an:
        return EMPTY
    if an == ad:
        return A
    # the target alpha·(lo + hi)/(2·d), the midpoint of v(A)'s bracket
    cn, cd = _prefix_end_from(v, A, reading, an * (lo + hi), ad * 2 * d, tol)
    return _split(A, cn, cd)[0]


# --- slicing -----------------------------------------------------------------


def slice_valuation(v: Valuation, epsilon, tol=DEFAULT_TOL) -> list[IntervalSet]:
    """Split [0,1] into finitely many disjoint pieces of value in (0, ε].

    Atoms of weight <= ε come out as singleton pieces; heavier atoms, and
    any atom beside a Cantor part, make the valuation non-sliceable.  Each
    piece but the last ends where F first reaches F at its start plus ε,
    found by the inversion that cut queries use, and `_slice` knows the
    value of every piece cut off the table.  A value that a Cantor orbit
    leaves open is certified within min(tol, ε)/2, and the bound degrades
    by that much."""
    return _slice(v, epsilon, tol)[0]


def _slice(v: Valuation, epsilon, tol) -> tuple[list[IntervalSet], list[tuple | None]]:
    """`slice_valuation`'s pieces and values: (n, n, B) for n/B where the
    table gave both ends of a piece, one triple for every piece worth ε, and
    None where `_descend` gave one.  Masses are integers over B, the lcm of
    QD and ε's denominator, and each piece's end comes from one `_invert` at
    its start plus ε; a hit advances `consumed` by exactly ε, so errors do
    not add up."""
    tol = _check_tol(tol)
    epsilon = as_fraction(epsilon)
    if epsilon <= ZERO:
        raise BadParameter(f"epsilon {rational_text(epsilon)} must be positive")
    heavy = [(loc, w) for loc, w in v.atoms if w > epsilon]
    if heavy:
        raise NotSliceable(heavy)
    if v.cantor and v.atoms:
        # `_descend` cannot see an atom at the cut it returns
        raise NotSliceable(v.atoms, "beside a Cantor part are not sliced")

    tol = min(tol, epsilon)  # a hit within tol/4 past t stops short of t + ε
    B = lcm(v._table.QD, epsilon.denominator)
    e = epsilon.numerator * (B // epsilon.denominator)
    pieces, values, hit = [], [], (e, e, B)
    sn, sd, sk, known = 0, 1, 0, True  # the start cut (sn/sd, side sk); F exact there?
    consumed = 0
    while B - consumed > e:
        t = consumed + e
        en, ed, g = _invert(v, t, B, tol)
        h = gcd(en, ed)
        en, ed, exact = en // h, ed // h, g is not None
        ek, f_end = 1, t  # where `_descend` placed the end: a hit within tol/4
        if exact:
            gl, ga = g
            # stop short of an atom at the end; else a hit, or a lone atom after no mass
            ek, f_end = (0, gl) if ga > t and gl > consumed else (1, ga)
        L = lcm(sd, ed)
        pieces.append(_from_keys(L, (2 * sn * (L // sd) + sk, 2 * en * (L // ed) + ek)))
        value = hit if f_end == t else (f_end - consumed, f_end - consumed, B)
        values.append(value if known and exact else None)
        sn, sd, sk, known, consumed = en, ed, ek, exact, f_end
    pieces.append(_from_keys(sd, (2 * sn + sk, 2 * sd + 1)))
    values.append((B - consumed, B - consumed, B) if known else None)
    return pieces, values
