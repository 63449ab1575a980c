"""Valuations on the unit cake given by explicit Lebesgue-decomposition data.

A Valuation is generator data: point masses (the discontinuous part), a
piecewise-constant density (the absolutely continuous part), and rescaled
Cantor measures (the singular-continuous part).  The induced measure is
computed on demand on any canonical IntervalSet; the total mass is pinned
to exactly 1 at construction time.

The atom + density part G of the distribution function F is compiled once
per valuation into one integer table (`_Table`), and each Cantor part into
integers.  `cdf`, `evaluate` and `prefix_with_value`, whatever the parts
of the valuation, read F through one reader, `_cdf_at_keys`: integer
bracket ends over one denominator at a set's cuts, from one sweep over its
keys plus the integer orbit walk `cantor.walk` inside Cantor supports.
`cut`, `prefix_with_value` and `slice_valuation` invert F through
`_invert`, which inverts the table with the Cantor mass to the left as an
integer offset and descends through the cells of a Cantor part in integers.

All arithmetic is exact.  Only Cantor orbits that do not close within the
tolerance force approximation: certified brackets (CdfValue) or points.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Sequence

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
    _encode,
    as_fraction,
    contains,
    intersect,
    key_intervals,
    keys_text,
)

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_TOL = Fraction(1, 2**40)
_SIDES = {"left_limit": 0, "at": 1}  # cdf's side of x as the second entry of a cut


@dataclass(frozen=True)
class CdfValue:
    """An exact rational (lo == hi) or a certified bracket [lo, hi]."""

    lo: Fraction
    hi: Fraction

    @classmethod
    def exact(cls, x) -> "CdfValue":
        x = as_fraction(x)
        return cls(x, x)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        if not self.is_exact:
            raise ValueError(f"bracket {self} is not exact")
        return self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "CdfValue") -> "CdfValue":
        return CdfValue(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "CdfValue") -> "CdfValue":
        return CdfValue(self.lo - other.hi, self.hi - other.lo)

    def clamp(self, lo=ZERO, hi=ONE) -> "CdfValue":
        """A bracket cut down to [lo, hi]; an exact value must lie in it,
        since clamping it would hide an arithmetic error."""
        if self.is_exact:
            assert lo <= self.lo <= hi, (self, lo, hi)
            return self
        return CdfValue(max(self.lo, lo), min(self.hi, hi))

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class CantorComponent:
    """A rescaled Cantor measure: mass `weight` spread over C_p inside `support`."""

    support: Interval
    p: Fraction
    weight: Fraction


class _Table(NamedTuple):
    """The atom + density part G of F in integers: row i is the point
    X[i]/D, with G(x-) = GL[i]/QD and G(x) = GA[i]/QD there, and G rises
    with slope R[i]/Q from there to the next row.  D is the lcm of the
    denominators of the row points, Q that of the atom weights and the
    densities, and QD is Q·D."""

    D: int
    QD: int
    X: list[int]
    GL: list[int]
    GA: list[int]
    R: list[int]


def _integer_part(comp: CantorComponent) -> tuple[int, ...]:
    """(E, S, T, pn, pd, wn, wd): support [S/E, T/E], ratio pn/pd, weight wn/wd."""
    s, t, p, w = comp.support.lo, comp.support.hi, as_fraction(comp.p), as_fraction(comp.weight)
    E = lcm(s.denominator, t.denominator)
    return (E, s.numerator * (E // s.denominator), t.numerator * (E // t.denominator),
            p.numerator, p.denominator, w.numerator, w.denominator)


@dataclass(frozen=True)
class Valuation:
    """Built only by `_valuation`, from checked integer data: the public
    fields, and `_table`, G (the atom + density part of F), and `_parts`,
    the Cantor parts, in integers."""

    atoms: tuple[tuple[Fraction, Fraction], ...]  # (location, weight)
    density: tuple[tuple[Interval, Fraction], ...]  # (support, constant density)
    cantor: tuple[CantorComponent, ...]  # sorted by support
    _table: _Table = field(repr=False, compare=False)
    _parts: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @property
    def has_atoms(self) -> bool:
        return bool(self.atoms)


def _integer_table(atoms, den: int, density) -> _Table:
    """The atom + density part G of the distribution function as a `_Table`,
    with a row at 0, 1, every atom and every density endpoint, from atoms
    (an, ad, wn, wd) and densities (s, e, dn, dd) on supports with keys s, e
    over `den`.  Density supports are disjoint, so G is linear between
    adjacent rows."""
    ends = [k >> 1 for s, e, _, _ in density for k in (s, e)]
    g = gcd(den, *ends)  # den/g is the lcm of the ends' denominators
    D = lcm(den // g, *(ad for _, ad, _, _ in atoms))
    Q = lcm(*(wd for *_, wd in atoms), *(dd for *_, dd in density))
    QD = Q * D
    f = D // (den // g)
    ends = [e // g * f for e in ends]  # over D
    jump = {an * (D // ad): wn * (QD // wd) for an, ad, wn, wd in atoms}
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


def atoms(v: Valuation) -> list[tuple[Fraction, Fraction]]:
    """The atomic part; empty iff the distribution function is continuous."""
    return list(v.atoms)


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
    den, keys = _encode([cut for sup, _ in dens_list for cut in (sup.start, sup.end)])
    return integer_valuation(
        [(a.numerator, a.denominator, w.numerator, w.denominator) for a, w in atom_list],
        den,
        [(s, e, d.numerator, d.denominator)
         for (_, d), s, e in zip(dens_list, keys[::2], keys[1::2])],
        cantor_parts,
    )


def integer_valuation(atoms, den: int, density, cantor_parts=()) -> Valuation:
    """The checked valuation of atoms (an, ad, wn, wd), densities (s, e, dn,
    dd) on the supports with the keys s, e over a common denominator `den`,
    and Cantor components; every pair n/d is in lowest terms with d > 0.
    `make_valuation` and the config loader build through it, and all checks
    but the Cantor ones compare integers."""
    if len({(an, ad) for an, ad, _, _ in atoms}) != len(atoms):
        raise BadParameter("duplicate atom locations")
    for an, ad, wn, wd in atoms:
        if not 0 <= an <= ad:
            raise OutOfCake(f"atom at {Fraction(an, ad)} is outside [0,1]")
        if wn <= 0:
            raise BadParameter(f"atom weight {Fraction(wn, wd)} must be positive")

    for _, _, dn, dd in density:
        if dn < 0:
            raise BadParameter(f"negative density {Fraction(dn, dd)}")
    _check_pairwise_disjoint(den, [(s, e) for s, e, _, _ in density], "density supports")

    sc_list = tuple(sorted(cantor_parts, key=attrgetter("support.lo")))
    for comp in sc_list:
        cantor.check_ratio(comp.p)
        if comp.weight <= ZERO:
            raise BadParameter(f"Cantor component weight {comp.weight} must be positive")
        if comp.support.is_singleton:
            raise BadParameter("Cantor component support must have positive length")
        if not (comp.support.lo_closed and comp.support.hi_closed):
            raise BadParameter("Cantor component support must be a closed interval")
    sc_den, sc_keys = _encode([cut for c in sc_list for cut in (c.support.start, c.support.end)])
    _check_pairwise_disjoint(sc_den, list(zip(sc_keys[::2], sc_keys[1::2])), "Cantor supports")

    v = _valuation(atoms, den, density, sc_list)
    total = Fraction(v._table.GA[-1], v._table.QD) + sum(c.weight for c in sc_list)
    if total != ONE:
        raise NotNormalized(total)
    return v


def _valuation(atoms, den: int, density, sc_list: tuple[CantorComponent, ...]) -> Valuation:
    """The valuation of checked data, as `integer_valuation` takes it; the
    public fields are built here, once, from the integers."""
    supports = key_intervals(den, [k for s, e, _, _ in density for k in (s, e)])
    return Valuation(
        tuple((Fraction(an, ad), Fraction(wn, wd)) for an, ad, wn, wd in atoms),
        tuple((sup, Fraction(dn, dd)) for sup, (_, _, dn, dd) in zip(supports, density)),
        sc_list,
        _integer_table(atoms, den, density),
        tuple(map(_integer_part, sc_list)),
    )


def _check_pairwise_disjoint(den: int, supports: Sequence[tuple[int, int]], what: str):
    """Sorted by start key, the supports, given as (start, end) key pairs over
    `den`, are pairwise disjoint iff each one ends at or before the start of
    the next; returns them so sorted."""
    ordered = sorted(supports, key=itemgetter(0))
    for a, b in zip(ordered, ordered[1:]):
        if b[0] < a[1]:
            raise BadPartition(f"{what} overlap: {keys_text(den, a)} and {keys_text(den, b)}")
    return ordered


def make_box_valuation(boxes: Iterable[tuple[Interval, int]]) -> Valuation:
    """Piecewise-constant valuation from (support, box count) pairs.

    The supports must partition [0,1]; piece i gets density
    count_i / (total * length_i), so the total mass is exactly 1.
    """
    box_list = [(sup, as_fraction(n)) for sup, n in boxes]
    for _, n in box_list:
        if n.denominator != 1:
            raise BadParameter(f"box count {n} is not a nonnegative integer")
    den, keys = _encode([cut for sup, _ in box_list for cut in (sup.start, sup.end)])
    return integer_box_valuation(
        den, [(s, e, n.numerator) for (_, n), s, e in zip(box_list, keys[::2], keys[1::2])]
    )


def integer_box_valuation(den: int, boxes) -> Valuation:
    """`make_box_valuation` of boxes (s, e, n): n boxes on the support with
    the keys s, e over a common denominator `den`.  The support from L/den to
    H/den gets density n·den/(total·(H - L))."""
    for s, e, n in boxes:
        if n < 0:
            raise BadParameter(f"box count {n} is not a nonnegative integer")
        if s >> 1 == e >> 1:
            raise BadPartition(f"singleton {keys_text(den, (s, e))} cannot carry boxes")
    ordered = _check_pairwise_disjoint(den, [(s, e) for s, e, _ in boxes], "box supports")
    # disjoint supports cover [0,1] iff each starts where the one before ends
    keys = [k for pair in ordered for k in pair]
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
    # all that integer_valuation would check holds: the supports are
    # disjoint, the densities nonnegative and the masses n/total sum to 1
    return _valuation((), den, density, ())


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
        raise BadTolerance(f"tolerance {tol} must be positive")
    return tol


def cdf(v: Valuation, x, side: str = "at", tol=DEFAULT_TOL) -> CdfValue:
    """F(x) = v([0,x]) for side="at"; the left limit F(x-) for side="left_limit"."""
    x = as_fraction(x)
    if not (ZERO <= x <= ONE):
        raise OutOfCake(f"point {x} is outside [0,1]")
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
    and hi[i] <= d.  G comes from `_table_at_keys`; a Cantor part adds its
    weight w right of its support [s, t] and w·F_p((x - s)/(t - s)) inside
    it, by `cantor.walk` within tol/(split·len·w).  d is the lcm of q and the
    walks' denominators; with no Cantor term at the cuts, G's g, g, q return."""
    g, q = _table_at_keys(v._table, den, keys)
    tn, td = tol.numerator, tol.denominator * split * len(v._parts)
    walks, weights = [], []  # (i, lo, hi, b) inside a support; (i, wn, wd) from key i on
    for E, S, T, pn, pd, wn, wd in v._parts:
        # the smallest depth >= 1 with 2^-depth <= tol/(split·len·w); p = 1/3 always closes
        depth = None if (pn, pd) == (1, 3) else max(1, ((td * wn - 1) // (tn * wd)).bit_length())
        first = bisect_right(keys, 2 * (S * den // E) + 1)  # the first cut right of s
        j = bisect_left(keys, -2 * (-T * den // E), first)  # the first cut at or right of t
        for i, k in enumerate(keys[first:j], first):
            a_lo, a_hi, b = cantor.walk(pn, pd, (k >> 1) * E - S * den, den * (T - S), depth)
            walks.append((i, wn * a_lo, wn * a_hi, wd * b))
        if j < len(keys):
            weights.append((j, wn, wd))
    if not (walks or weights):
        return g, g, q
    d = lcm(q, *(b for *_, b in walks), *(wd for *_, wd in weights))
    lo = [x * (d // q) for x in g]
    for j, wn, wd in weights:  # the supports are sorted: w at every cut from j on
        w = wn * (d // wd)
        lo[j:] = [x + w for x in lo[j:]]
    hi = lo.copy()
    for i, a_lo, a_hi, b in walks:
        lo[i] += a_lo * (d // b)
        hi[i] = min(hi[i] + a_hi * (d // b), d)  # a bracket may overshoot 1
    return lo, hi, d


def evaluate(v: Valuation, A: IntervalSet, tol=DEFAULT_TOL) -> CdfValue:
    """v(A), the sum of F(end) - F(start) over the components; exact when sc-free."""
    tol = _check_tol(tol)
    if isinstance(A, CantorIterateSet) and not v.cantor:
        # |A ∩ sup| and atom membership by descent, without building A's cuts
        mass = sum(d * (A.length_upto(s.hi) - A.length_upto(s.lo)) for s, d in v.density)
        mass += sum(w for loc, w in v.atoms if loc in A)
        assert mass <= ONE, mass
        return CdfValue.exact(mass)
    lo, hi, d = _cdf_at_keys(v, A.den, A.keys, tol, max(2, len(A.keys)))
    if lo is hi:  # F is exact at every cut
        total = sum(lo[1::2]) - sum(lo[::2])
        return _cdf_value(total, total, d)
    # each component's bracket is cut down to [0, 1] before it is added
    los, his = zip(*(_clamp(e_lo - s_hi, e_hi - s_lo, d)
                     for s_lo, s_hi, e_lo, e_hi in zip(lo[::2], hi[::2], lo[1::2], hi[1::2])))
    return _cdf_value(sum(los), sum(his), d)


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


def _invert_table(table: _Table, t: Fraction, n: int = 0, d: int = 1):
    """The minimal x with F(x) >= t, or 1, with (F(x-), F(x)), for F = G + n/d.
    With (t - n/d)·QD = a/b, the row is the first with GA[i] >= ceil(a/b)."""
    D, QD, X, GL, GA, R = table
    a, b = (t.numerator * d - n * t.denominator) * QD, t.denominator * d
    i = bisect_left(GA, -(-a // b), 0, len(X) - 1)
    if i == 0 or GL[i] * b <= a:
        n *= QD
        return Fraction(X[i], D), Fraction(GL[i] * d + n, QD * d), Fraction(GA[i] * d + n, QD * d)
    # G rises linearly from GA[i-1] at X[i-1] with slope R[i-1]/Q
    i -= 1
    return Fraction(X[i] * R[i] * b + a - GA[i] * b, D * R[i] * b), t, t


def _invert(v: Valuation, lo: Fraction, hi: Fraction, t: Fraction, tol: Fraction):
    """The minimal c with F(c) >= t, and (F(c-), F(c)), given F(x) < t for
    x < lo, t <= F(hi) and no atom in (lo, hi).  Off the Cantor supports F is
    G plus the Cantor mass to the left; on one, `_descend` finds c or a c
    within tol/4 of it, and F(c-) = F(c) = t is reported (slicing allows no
    atoms then).  c is clamped to [lo, hi], which bracket midpoints in the
    callers' t can miss."""
    table, n, d = v._table, 0, 1  # n/d: the Cantor mass left of the piece of the line
    tn, td = t.numerator, t.denominator
    for part in v._parts:
        E, _, T, _, _, wn, wd = part
        (g,), q = _table_at_keys(table, E, (2 * T,))  # G(T/E-) over q at the support end
        if ((g * wd + wn * q) * d + n * q * wd) * td >= tn * q * wd * d:  # F(T/E-) >= t
            c = _descend(table, max(table.R), part, t - Fraction(n, d), tol)
            return min(max(c, lo), hi), t, t
        n, d = n * wd + wn * d, d * wd
    c, g_left, g_at = _invert_table(table, t, n, d)
    return min(max(c, lo), hi), g_left, g_at


def _descend(table: _Table, rate: int, part: tuple[int, ...], t: Fraction, tol: Fraction):
    """`_invert` left of the end of the support of `part`, given t less the
    Cantor mass left of the support: descent through cells [A, A + L]/M with
    r = t less the Cantor mass left of the cell and m inside, G(a) < r <=
    G(b-) + m; once G(a) >= r, c is in the gap left of the cell.  Where G is
    flat, (r - G(a))/m follows the doubling orbit to an exact repeat; else
    stop once F rises by at most tol/4 across the cell, apart from atoms,
    which lie outside (lo, hi).  `rate` is G's steepest slope, over Q.

    In integers: D | M and G is over Q·M; r and m are over W = lcm(t, w)·2^k
    at level k.  A level scales M, A and G by 2·pd and L by pd - pn, which
    keeps both children integral; a `Fraction` is built only for c."""
    E, S, T, pn, pd, wn, wd = part
    Q, M = table.QD // table.D, lcm(table.D, E)
    A, L = S * (M // E), (T - S) * (M // E)
    W = lcm(t.denominator, wd)
    r, m = t.numerator * (W // t.denominator), wn * (W // wd)
    qn, qd = tol.numerator, 4 * tol.denominator

    def g_at(x, side):  # G(x/M-) or G(x/M) over Q·M
        return _table_at_keys(table, M, (2 * x + side,))[0][0]

    g_a, g_b, seen = g_at(A, 1), g_at(A + L, 0), {}
    while True:
        QM = Q * M
        if g_a * W >= r * QM:
            return _invert_table(table, Fraction(r, W))[0]
        flat = g_a == g_b
        if flat:  # a repeat of the relative target closes the recursion
            num, den = r * QM - g_a * W, m * QM
            h = gcd(num, den)
            M0, A0, L0 = seen.setdefault((num // h, den // h), (M, A, L))
            if M0 != M:
                return Fraction(L0 * A - A0 * L, L0 * M - L * M0)
        if qd * (m * QM + rate * L * W) <= qn * W * QM:
            return Fraction(A + L, M)
        M, A, g_a, g_b, W, r = M * 2 * pd, A * 2 * pd, g_a * 2 * pd, g_b * 2 * pd, 2 * W, 2 * r
        right, L = A + L * (pd + pn), L * (pd - pn)
        g_l = g_a if flat else g_at(A + L, 0)
        if g_l * W >= (r - m) * Q * M:
            g_b = g_l
        else:
            g_a = g_b if flat else g_at(right, 1)
            A, r = right, r - m


# --- proportional cuts ------------------------------------------------------


def _check_no_atoms(v: Valuation, A: IntervalSet) -> None:
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
    if target < ZERO:
        raise BadParameter(f"target {target} is negative")
    _check_no_atoms(v, A)
    if target == ZERO:
        return EMPTY, ZERO

    # the target is reached in the first component that takes the running
    # total to it, where v(A ∩ [0,c]) = below + F(c) - base; brackets compare
    # by midpoint, or by top in the last component, over 2·d with target = n/(2·d·m)
    keys = A.keys
    lo, hi, d = _cdf_at_keys(v, A.den, keys, tol, 4 * max(2, len(keys)))
    n, m = 2 * d * target.numerator, target.denominator
    below_lo = below_hi = 0
    for i in range(0, len(keys), 2):
        base = lo[i] + hi[i]
        upto_lo, upto_hi = below_lo + lo[i + 1] - hi[i], below_hi + hi[i + 1] - lo[i]
        if (upto_lo + upto_hi) * m >= n or (i + 2 == len(keys) and n <= 2 * upto_hi * m):
            t = Fraction(n - (below_lo + below_hi - base) * m, 2 * d * m)
            s, e = Fraction(keys[i] >> 1, A.den), Fraction(keys[i + 1] >> 1, A.den)
            c, _, _ = _invert(v, s, e, t, tol)
            return intersect(A, IntervalSet(((ZERO, 0), (c, 1)))), c
        below_lo, below_hi = upto_lo, upto_hi
    raise BadParameter(f"target {target} exceeds v(A)")


def cut(v: Valuation, A: IntervalSet, alpha, tol=DEFAULT_TOL) -> IntervalSet:
    """Prefix piece A_α = A ∩ [0,c] with v(A_α) = α·v(A) (exact when sc-free)."""
    tol = _check_tol(tol)
    alpha = as_fraction(alpha)
    if not (ZERO <= alpha <= ONE):
        raise BadParameter(f"alpha {alpha} outside [0,1]")
    _check_no_atoms(v, A)
    vA = evaluate(v, A, tol / 4)
    if vA.hi == ZERO:
        raise ZeroPiece(f"v(A) = 0 for A = {A}")
    if alpha == ZERO:
        return EMPTY
    if alpha == ONE:
        return A
    piece, _ = prefix_with_value(v, A, alpha * vA.midpoint, tol)
    return piece


# --- slicing -----------------------------------------------------------------


def slice_valuation(v: Valuation, epsilon, tol=DEFAULT_TOL) -> list[IntervalSet]:
    """Split [0,1] into finitely many disjoint pieces of value in (0, ε].

    Atoms of weight <= ε come out as singleton pieces; heavier atoms make the
    valuation non-sliceable.  A value that a Cantor orbit leaves open is
    certified within min(tol, ε)/2, and the bound degrades by that much.
    """
    tol = _check_tol(tol)
    epsilon = as_fraction(epsilon)
    if epsilon <= ZERO:
        raise BadParameter(f"epsilon {epsilon} must be positive")
    heavy = [(loc, w) for loc, w in v.atoms if w > epsilon]
    if heavy:
        raise NotSliceable(heavy)
    if v.cantor and v.atoms:
        # mixed atom+singular slicing is not needed anywhere; keep the exact
        # paths honest instead of guessing
        raise NotSliceable(list(v.atoms))

    # every piece but the last ends where F reaches `consumed + ε`; a hit
    # advances `consumed` by exactly ε, so bracket errors do not add up
    tol = min(tol, epsilon)  # a hit within tol/4 past t stops short of t + ε
    pieces: list[IntervalSet] = []
    start = (ZERO, 0)
    consumed = ZERO  # F at the start cut
    while ONE - consumed > epsilon:
        t = consumed + epsilon
        c, g_left, g_at = _invert(v, start[0], ONE, t, tol)
        if g_at > t and g_left > consumed:  # stop short of the atom at c
            end, f_end = (c, 0), g_left
        else:  # a hit, or a lone atom at c after a zero-mass run-up
            end, f_end = (c, 1), g_at
        pieces.append(IntervalSet((start, end)))
        start, consumed = end, f_end
    return pieces + [IntervalSet((start, (ONE, 1)))]
