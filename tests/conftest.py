"""Shared helpers: seeded random generators for canonical sets and
valuations, the van der Corput sequence, and an independent ternary
digit-map oracle for the p=1/3 staircase."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import lt

from hypothesis import strategies as st

from cakecalc import (
    CdfValue, Interval, IntervalSet, InvalidInterval, Valuation, make_valuation, normalize,
)
from cakecalc import valuation
from cakecalc.intervals import _from_keys, _merged, as_fraction, rational_text

ZERO = Fraction(0)
ONE = Fraction(1)


# --- the cut view of a set, and the checked cut constructor -----------------

def ref_encode(cuts) -> tuple[int, list[int]]:
    """The lcm of the denominators of the (Fraction, side) cut points, and
    the cuts' keys.  The library encoded cuts this way once; the tests keep
    it as a reference."""
    den = lcm(*{x.denominator for x, _ in cuts})
    return den, [2 * x.numerator * (den // x.denominator) + side for x, side in cuts]


def ref_encoded_normalize(ivs) -> IntervalSet:
    """`normalize` as the library once built it: each checked `Interval` taken
    apart into its start and end cuts, encoded by `ref_encode` and merged."""
    return _merged(*ref_encode([cut for iv in ivs for cut in (iv.start, iv.end)]))


def cuts_of(a: IntervalSet) -> tuple[tuple[Fraction, int], ...]:
    """The cuts of `a` as (Fraction, side) pairs, from its keys."""
    return tuple((Fraction(k >> 1, a.den), k & 1) for k in a.keys)


def ref_set_from_cuts(cuts) -> IntervalSet:
    """The set of a canonical sequence of (Fraction, side) cuts, checked:
    the keys must rise strictly from that of (0,0) to that of (1,1), and
    come in pairs.  The library built sets from cuts this way once; the
    tests keep it as a reference."""
    cuts = tuple(cuts)
    den, keys = ref_encode(cuts)
    keys = tuple(keys)
    if len(keys) % 2 or not {side for _, side in cuts} <= {0, 1} or not all(
        map(lt, (-1, *keys), (*keys, 2 * den + 2))
    ):
        text = ", ".join(f"({rational_text(x)}, {side})" for x, side in cuts)
        raise InvalidInterval(f"cuts ({text}) are not those of a canonical set")
    return _from_keys(den, keys)


def invert_at(v: Valuation, t: Fraction, tol: Fraction, k: int = 1):
    """`valuation._invert` at the target t, over k times the least
    denominator it accepts: the lcm of t's, Q·D and the Cantor weights'.
    Returns c as a `Fraction`, and (F(c-), F(c)) as `Fraction`s where the
    table gave c, or None."""
    B = k * lcm(t.denominator, v._table.QD, *[wd for *_, wd in v._parts])
    cn, cd, g = valuation._invert(v, t.numerator * (B // t.denominator), B, tol)
    return Fraction(cn, cd), g and (Fraction(g[0], B), Fraction(g[1], B))


def exact_value(x) -> CdfValue:
    """The exact `CdfValue` of the rational x, both ends one `Fraction`."""
    x = as_fraction(x)
    return CdfValue(x, x)


# --- seeded plain-random generators (fast enough for 10^4-scale suites) ----

def rand_fraction(rng: random.Random, max_den: int = 24) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def rand_interval(rng: random.Random, max_den: int = 24) -> Interval:
    a, b = sorted((rand_fraction(rng, max_den), rand_fraction(rng, max_den)))
    if a == b:
        return Interval(a, b, True, True)
    return Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)


def rand_set(rng: random.Random, max_parts: int = 4, max_den: int = 24) -> IntervalSet:
    return normalize(rand_interval(rng, max_den) for _ in range(rng.randint(0, max_parts)))


def rand_breakpoints(rng: random.Random, parts: int) -> list[Fraction]:
    """0 = c_0 < c_1 < ... < c_parts = 1 with small denominators."""
    den = rng.randint(parts, 4 * parts)
    cuts = sorted(rng.sample(range(1, den), parts - 1)) if parts > 1 else []
    return [ZERO] + [Fraction(c, den) for c in cuts] + [ONE]


def rand_box_valuation(rng: random.Random, max_parts: int = 5) -> Valuation:
    from cakecalc import make_box_valuation

    parts = rng.randint(1, max_parts)
    bp = rand_breakpoints(rng, parts)
    counts = [rng.randint(0, 6) for _ in range(parts)]
    if not any(counts):
        counts[rng.randrange(parts)] = 1
    boxes = [
        (Interval(bp[i], bp[i + 1], i == 0, True), counts[i])
        for i in range(parts)
    ]
    return make_box_valuation(boxes)


def rand_scfree_valuation(rng: random.Random, allow_atoms: bool = True) -> Valuation:
    """Random atoms + piecewise-constant density, total mass exactly 1."""
    n_atoms = rng.randint(1, 3) if (allow_atoms and rng.random() < 0.5) else 0
    locs: set[Fraction] = set()
    while len(locs) < n_atoms:
        locs.add(rand_fraction(rng))
    raw_w = [Fraction(rng.randint(1, 5)) for _ in locs]
    atom_mass = Fraction(rng.randint(0, 3), 6) if n_atoms else ZERO
    if n_atoms and atom_mass == ZERO:
        atom_mass = Fraction(1, 6)
    scale = atom_mass / sum(raw_w) if n_atoms else ZERO
    atoms = sorted((loc, w * scale) for loc, w in zip(sorted(locs), raw_w))

    parts = rng.randint(1, 4)
    bp = rand_breakpoints(rng, parts)
    raw_d = [Fraction(rng.randint(0, 5)) for _ in range(parts)]
    if not any(raw_d):
        raw_d[rng.randrange(parts)] = ONE
    raw_mass = sum(d * (bp[i + 1] - bp[i]) for i, d in enumerate(raw_d))
    dscale = (ONE - atom_mass) / raw_mass
    density = [
        (Interval(bp[i], bp[i + 1], i == 0, True), raw_d[i] * dscale)
        for i in range(parts)
    ]
    return make_valuation(atoms=atoms, density=density)


def van_der_corput(count: int) -> list[Fraction]:
    """First `count` points of the base-2 van der Corput sequence."""
    out = []
    for k in range(1, count + 1):
        num, den, x = k, 1, Fraction(0)
        while num:
            num, bit = divmod(num, 2)
            den *= 2
            if bit:
                x += Fraction(1, den)
        out.append(x)
    return out


def staircase_digit_oracle(y: Fraction) -> Fraction:
    """Exact Cantor (p=1/3) CDF via the ternary digit map, computed
    independently of the library: write y in base 3; at the first digit 1
    the value is prefix + 2^-k; otherwise halve every digit 2 and read the
    (eventually periodic) digits in base 2."""
    if y <= 0:
        return ZERO
    if y >= 1:
        return ONE
    total = ZERO
    weight = Fraction(1, 2)
    r = y
    seen: dict[Fraction, tuple[Fraction, Fraction]] = {}
    while True:
        if r in seen:
            t0, w0 = seen[r]
            # the stretch from (t0, w0) to (total, weight) repeats forever
            ratio = weight / w0
            return t0 + (total - t0) / (1 - ratio)
        seen[r] = (total, weight)
        digit, r = divmod(3 * r, 1)
        if digit == 1:
            return total + weight
        total += weight * digit / 2
        weight /= 2
        if r == 0:
            return total


# --- hypothesis strategies -------------------------------------------------

small_fractions = st.fractions(min_value=0, max_value=1, max_denominator=16)


@st.composite
def intervals(draw):
    a = draw(small_fractions)
    b = draw(small_fractions)
    a, b = min(a, b), max(a, b)
    if a == b:
        return Interval(a, b, True, True)
    return Interval(a, b, draw(st.booleans()), draw(st.booleans()))


@st.composite
def interval_sets(draw):
    return normalize(draw(st.lists(intervals(), max_size=4)))
