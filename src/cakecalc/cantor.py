"""Devil's-staircase distribution functions.

The unit staircase F_p is the CDF of the singular-continuous measure that
spreads mass uniformly (in the self-similar sense) over the Cantor set C_p:
with l = (1-p)/2,

    F_p(y) = 1/2 * F_p(y/l)            for y in [0, l],
    F_p(y) = 1/2                       for y in [l, l+p],
    F_p(y) = 1/2 + 1/2 * F_p((y-l-p)/l) for y in [l+p, 1].

One walk follows the orbit of y under these maps.  A plateau makes the
value exact, and so does a repeat (0 and 1 repeat at once): F_p is affine
along the orbit, so a cycle closes to the fixed point of that recursion,
for every rational p.  Otherwise truncating at depth d leaves a certified
bracket of width 2^-d.  For p = 1/3 the denominator of y never grows, so
every rational orbit cycles and the walk needs no depth bound (this is the
ternary-digit evaluation).  The inverse descent of `valuation` produces
points with periodic orbits, so F is exact at its cuts for every p.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParameter

ZERO = Fraction(0)
ONE = Fraction(1)
THIRD = Fraction(1, 3)


def check_ratio(p: Fraction) -> Fraction:
    p = Fraction(p)
    if not (ZERO < p <= THIRD):
        raise BadParameter(f"Cantor ratio p={p} outside (0, 1/3]")
    return p


def staircase_bracket(p: Fraction, y: Fraction, depth) -> tuple[Fraction, Fraction]:
    """Bracket [lo,hi] ∋ F_p(y) with hi-lo <= 2^-depth, exact
    (lo == hi) on plateaus and cycles; depth None walks until one of those,
    which ends for every rational y only when p = 1/3."""
    p = check_ratio(p)
    y = min(max(Fraction(y), ZERO), ONE)  # F_p is 0 left of 0 and 1 right of 1
    left, right = (1 - p) / 2, (1 + p) / 2
    a, scale = ZERO, ONE  # F_p(y) = a + scale * F_p(current y)
    seen: dict[Fraction, tuple[Fraction, Fraction]] = {}
    while depth is None or len(seen) < depth:
        if left <= y <= right:
            v = a + scale / 2
            return v, v
        a0, s0 = seen.setdefault(y, (a, scale))
        if s0 != scale:  # a repeat: the fixed point of the affine orbit
            v = a0 + s0 * (a - a0) / (s0 - scale)
            return v, v
        if y < left:
            y = y / left
        else:
            a += scale / 2
            y = (y - right) / left
        scale /= 2
    return a, a + scale


def staircase_exact_third(y: Fraction) -> Fraction:
    """Exact F_{1/3}(y) for rational y in [0,1]."""
    return staircase_bracket(THIRD, y, None)[0]


def staircase(p: Fraction, y: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    """F_p(y) as an exact pair (lo == hi) whenever the walk closes, else a
    bracket of width <= tol."""
    p = check_ratio(p)
    tol = Fraction(tol)
    # the smallest depth >= 1 with 2^-depth <= tol
    depth = max(1, ((tol.denominator - 1) // tol.numerator).bit_length())
    return staircase_bracket(p, y, None if p == THIRD else depth)
