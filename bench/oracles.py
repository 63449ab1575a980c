"""Reference answers computed without calling cakecalc.

An interval is a tuple (lo, hi, lo_closed, hi_closed); a set is a sorted
list of pairwise disjoint, non-mergeable intervals.  Endpoints are either
Fractions or integers over a stated common denominator; the algorithms
only compare and subtract them, so both work.

Valuations are described by the benchmark itself:
  - a density is a list of (lo, hi, rate) covering [0,1];
  - a Cantor part is (s, t, p, weight): mass `weight` spread over C_p
    rescaled to [s,t].
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)
THIRD = Fraction(1, 3)


# --- interval sets ---------------------------------------------------------

_ITEM = re.compile(r"([\[(])([0-9/]+),([0-9/]+)([\])])")


def parse_set(text: str) -> list[tuple]:
    """Read the library's rendering "[0,1/3], (1/2,1]" (or "∅")."""
    text = text.strip()
    if text == "∅":
        return []
    out = []
    for part in text.split(", "):
        m = _ITEM.fullmatch(part)
        if m is None:
            raise ValueError(f"unreadable interval {part!r}")
        lb, lo, hi, rb = m.groups()
        out.append((Fraction(lo), Fraction(hi), lb == "[", rb == "]"))
    return out


def components(ivset) -> list[tuple]:
    """Tuples from a library IntervalSet, read field by field."""
    return [(c.lo, c.hi, c.lo_closed, c.hi_closed) for c in ivset.components]


def intersect(a: list[tuple], b: list[tuple]) -> list[tuple]:
    """Two-pointer intersection of two canonical sets (canonical result)."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        alo, ahi, alc, ahc = a[i]
        blo, bhi, blc, bhc = b[j]
        if alo != blo:
            lo, lc = (alo, alc) if alo > blo else (blo, blc)
        else:
            lo, lc = alo, alc and blc
        if ahi != bhi:
            hi, hc = (ahi, ahc) if ahi < bhi else (bhi, bhc)
        else:
            hi, hc = ahi, ahc and bhc
        if lo < hi or (lo == hi and lc and hc):
            out.append((lo, hi, lc, hc))
        # advance whichever ends first; an open end precedes a closed one
        if ahi < bhi or (ahi == bhi and bhc and not ahc):
            i += 1
        elif bhi < ahi or (ahi == bhi and ahc and not bhc):
            j += 1
        else:
            i += 1
            j += 1
    return out


def complement(a: list[tuple], zero=ZERO, one=ONE) -> list[tuple]:
    """[0,1] minus a canonical set; `zero`/`one` in the endpoints' units."""
    out = []
    lo, lc = zero, True
    for clo, chi, clc, chc in a:
        hi, hc = clo, not clc
        if lo < hi or (lo == hi and lc and hc):
            out.append((lo, hi, lc, hc))
        lo, lc = chi, not chc
    if lo < one or (lo == one and lc):
        out.append((lo, one, lc, True))
    return out


def disjoint_cover(pieces: list[list[tuple]]) -> bool:
    """Are the pieces pairwise disjoint with union exactly [0,1]?"""
    flat = sorted((iv for p in pieces for iv in p), key=lambda iv: (iv[0], not iv[2]))
    pos, pos_covered = ZERO, False  # everything < pos is covered, plus pos itself if flagged
    for lo, hi, lc, hc in flat:
        if lo < pos or (lo == pos and pos_covered and lc):
            return False  # overlap
        if lo > pos or (not pos_covered and not lc):
            return False  # hole
        pos, pos_covered = hi, hc
    return pos == ONE and pos_covered


# --- valuations --------------------------------------------------------------


def density_value(density: list[tuple], comps: list[tuple]) -> Fraction:
    """Exact mass of a set under a piecewise-constant density."""
    total = ZERO
    for dlo, dhi, rate in density:
        if rate == 0:
            continue
        for lo, hi, _, _ in comps:
            overlap = min(hi, dhi) - max(lo, dlo)
            if overlap > 0:
                total += rate * overlap
    return total


def staircase_third(y: Fraction) -> Fraction:
    """Exact F_{1/3}(y) from the ternary digits of y: read digits 0/2 as
    binary 0/1 until the first digit 1, which ends the expansion with an
    extra binary 1; periodic remainders close the sum as a geometric series."""
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
            return t0 + (total - t0) / (1 - weight / w0)
        seen[r] = (total, weight)
        digit, r = divmod(3 * r, 1)
        if digit == 1:
            return total + weight
        total += weight * digit / 2
        weight /= 2
        if r == 0:
            return total


def staircase_bracket(p: Fraction, y: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """[lo,hi] ∋ F_p(y) with hi-lo <= width, by walking down the nested
    components of C_p: at level k the component holding y carries mass
    2^-k, everything left of it is already counted."""
    if y <= 0:
        return ZERO, ZERO
    if y >= 1:
        return ONE, ONE
    shrink = (1 - p) / 2
    left, length = ZERO, ONE  # current component [left, left+length]
    below, mass = ZERO, ONE  # mass left of it, mass inside it
    while mass > width:
        child = length * shrink
        if y <= left + child:  # left child (or its right end)
            length = child
        elif y < left + length - child:  # inside the removed gap
            v = below + mass / 2
            return v, v
        else:
            below += mass / 2
            left += length - child
            length = child
        mass /= 2
        if y == left:
            return below, below
        if y == left + length:
            return below + mass, below + mass
    return below, below + mass


def staircase(p: Fraction, y: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    if p == THIRD:
        v = staircase_third(y)
        return v, v
    return staircase_bracket(p, y, width)


def cdf_bracket(density, cantor_parts, x: Fraction, width: Fraction):
    """Bracket for v([0,x]) of an atom-free valuation."""
    lo = hi = density_value(density, [(ZERO, x, True, True)])
    for s, t, p, w in cantor_parts:
        if x <= s:
            continue
        if x >= t:
            lo += w
            hi += w
            continue
        flo, fhi = staircase(p, (x - s) / (t - s), width / w)
        lo += w * flo
        hi += w * fhi
    return lo, hi


def value_bracket(density, cantor_parts, comps: list[tuple], width: Fraction):
    """Bracket for v(A) of an atom-free valuation (endpoint kinds carry no mass)."""
    k = 2 * max(1, len(comps)) * max(1, len(cantor_parts))
    lo = hi = ZERO
    for a, b, _, _ in comps:
        ulo, uhi = cdf_bracket(density, cantor_parts, b, width / k)
        llo, lhi = cdf_bracket(density, cantor_parts, a, width / k)
        lo += ulo - lhi
        hi += uhi - llo
    return lo, hi


# --- Cantor iterates ---------------------------------------------------------


def iterate_scale(p: Fraction, n: int) -> int:
    """Common denominator (2b)^n of the endpoints of A_n for p = a/b."""
    return (2 * p.denominator) ** n


def iterate_ints(p: Fraction, n: int) -> list[tuple]:
    """A_n as closed integer intervals over iterate_scale(p, n).

    Every level-i component has length L_i = (L_{i-1} - p^i) / 2, so the
    component with binary address d_1..d_n starts at
    sum_i d_i (L_{i-1} - L_i).  Built digit by digit, left to right."""
    den = iterate_scale(p, n)
    lengths = [den]
    for i in range(1, n + 1):
        gap = p**i * den
        lengths.append((lengths[-1] - int(gap)) // 2)
    starts = [0]
    for i in range(1, n + 1):
        step = lengths[i - 1] - lengths[i]
        starts = [s + d for s in starts for d in (0, step)]
    ln = lengths[n]
    return [(s, s + ln, True, True) for s in starts]


def iterate_length(p: Fraction, n: int) -> Fraction:
    """|A_n| = 1 - p (1 - (2p)^n) / (1 - 2p), the closed form of the
    geometric sum of removed middle intervals."""
    return ONE - removed_length(p, n)


def removed_length(p: Fraction, n: int) -> Fraction:
    return p * (1 - (2 * p) ** n) / (1 - 2 * p)


def rescale(a: list[tuple], factor: int) -> list[tuple]:
    return [(lo * factor, hi * factor, lc, hc) for lo, hi, lc, hc in a]


def matches_scaled(lib_comps, oracle: list[tuple], den: int) -> bool:
    """Does a library IntervalSet equal an integer set over `den`?"""
    if len(lib_comps) != len(oracle):
        return False
    for iv, (lo, hi, lc, hc) in zip(lib_comps, oracle):
        if iv.lo_closed != lc or iv.hi_closed != hc:
            return False
        a, b = iv.lo, iv.hi
        if a.numerator * den != lo * a.denominator or b.numerator * den != hi * b.denominator:
            return False
    return True


def member_scaled(oracle: list[tuple], den: int, x: Fraction) -> bool:
    """Is x in the integer set over `den`?"""
    xs = x * den
    k = bisect_right(oracle, xs, key=lambda iv: iv[0]) - 1
    if k < 0:
        return False
    lo, hi, lc, hc = oracle[k]
    if xs == lo:
        return lc
    if xs < hi:
        return True
    return xs == hi and hc


def density_value_scaled(density: list[tuple], oracle: list[tuple], den: int) -> Fraction:
    """Exact mass of an integer set over `den` under a piecewise density."""
    scale = lcm(*(f.denominator for lo, hi, _ in density for f in (lo, hi)))
    comps = rescale(oracle, scale)
    total = ZERO
    k = 0
    for dlo, dhi, rate in density:
        lo_i = dlo.numerator * (scale // dlo.denominator) * den
        hi_i = dhi.numerator * (scale // dhi.denominator) * den
        covered = 0
        while k < len(comps) and comps[k][1] <= lo_i:
            k += 1
        j = k
        while j < len(comps) and comps[j][0] < hi_i:
            covered += max(0, min(comps[j][1], hi_i) - max(comps[j][0], lo_i))
            j += 1
        total += rate * Fraction(covered, scale * den)
    return total
