"""Devil's-staircase distribution functions.

The unit staircase F_p is the CDF of the singular-continuous measure that
spreads mass uniformly (in the self-similar sense) over the Cantor set C_p:
with l = (1-p)/2,

    F_p(y) = 1/2 * F_p(y/l)            for y in [0, l],
    F_p(y) = 1/2                       for y in [l, l+p],
    F_p(y) = 1/2 + 1/2 * F_p((y-l-p)/l) for y in [l+p, 1].

One walk, `walk`, follows the orbit of y under these maps in integers:
y = n/d and p = pn/pd, each step a cross-multiplied plateau test, an
integer update of (n, d) and one gcd, so that (n, d) keys the repeats, and
the value so far a dyadic A/2^k.  A plateau makes the value exact, and so
does a repeat (0 and 1 repeat at once): F_p is affine along the orbit, so
a cycle closes to the fixed point of that recursion, for every rational p.
Otherwise truncating at depth d leaves a certified bracket of width 2^-d.
For p = 1/3 the denominator of y never grows, so every rational orbit
cycles and the walk needs no depth bound (this is the ternary-digit
evaluation).  The inverse descent of `valuation` produces points with
periodic orbits, so F is exact at its cuts for every p.
`staircase_bracket` is the walk on `Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import BadParameter, rational_text

ZERO = Fraction(0)
ONE = Fraction(1)
THIRD = Fraction(1, 3)


def check_ratio(p: Fraction) -> Fraction:
    p = Fraction(p)
    if not (ZERO < p <= THIRD):
        raise BadParameter(f"Cantor ratio p={rational_text(p)} outside (0, 1/3]")
    return p


def walk(pn: int, pd: int, n: int, d: int, depth) -> tuple[int, int, int]:
    """F_p(y) for p = pn/pd and y = n/d in [0,1] as (lo, hi, den): F_p(y)
    lies in [lo/den, hi/den], hi - lo <= 2^-depth·den, and lo == hi on
    plateaus and cycles; depth None walks until one of those, which ends
    for every rational y only when p = 1/3.  After k steps F_p(y) =
    A/2^k + F_p(y_k)/2^k, and y_k = n/d is reduced to key the repeats."""
    sub, add, two = pd - pn, pd + pn, 2 * pd  # 2·pd times l and 1 - l
    A = k = 0
    seen: dict[tuple[int, int], tuple[int, int]] = {}
    while depth is None or k < depth:
        g = gcd(n, d)
        n, d = n // g, d // g
        y2 = two * n  # 2·pd·y·d
        if sub * d <= y2 <= add * d:  # the middle gap [l, 1 - l]
            return 2 * A + 1, 2 * A + 1, 2 << k
        k0, A0 = seen.setdefault((n, d), (k, A))
        if k0 != k:  # a repeat: the fixed point of the affine orbit
            return A - A0, A - A0, ((1 << (k - k0)) - 1) << k0
        if y2 < sub * d:
            n, A = y2, 2 * A
        else:
            n, A = y2 - add * d, 2 * A + 1
        d *= sub
        k += 1
    return A, A + 1, 1 << k


def staircase_bracket(p: Fraction, y: Fraction, depth) -> tuple[Fraction, Fraction]:
    """`walk` on Fractions: a bracket [lo,hi] ∋ F_p(y) with hi-lo <= 2^-depth;
    depth None, which ends for every y when p = 1/3, gives lo == hi."""
    p = check_ratio(p)
    y = min(max(Fraction(y), ZERO), ONE)  # F_p is 0 left of 0 and 1 right of 1
    lo, hi, den = walk(p.numerator, p.denominator, y.numerator, y.denominator, depth)
    return Fraction(lo, den), Fraction(hi, den)

