"""Finite-scale witnesses: Cantor iterates, the countable-union witness,
and relative frequencies along a point sequence."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Sequence

from .cantor import check_ratio
from .errors import BadIndex, BadParameter
from .intervals import Interval, IntervalSet, normalize, translate_keys


class CantorIterateSet(IntervalSet):
    """A_n for ratio p = a/b, held as its stage table.

    At stage i every one of the 2^i components of A_i has the same length
    L_i = (L_(i-1) - p^i) / 2, and the open middle gap of length p^i is cut
    out of each component of A_(i-1).  Every endpoint is a sum of stage
    shifts L_(i-1) - L_i, plus L_n at a right end, so over (2b)^n the gcd of
    (2b)^n, L_n and the shifts reduces the table to the set's own `den`, and
    the table keeps L_0 .. L_n as integers over it.  The keys are built from
    the table on first access and cached in `_keys`; from them the base
    class builds `cuts` and `components`.  `length_upto` and membership walk
    down the table in O(n) steps without building any of these, and `len`,
    `is_empty` and `length` read it directly.  Equality, hashing, iteration
    and the set operations see the same keys as a plain IntervalSet.
    """

    __slots__ = ("p", "n", "_lengths", "_keys")

    def __init__(self, p: Fraction, n: int):
        a, b = p.numerator, p.denominator
        scale = (2 * b) ** n
        lengths = [scale]
        for i in range(1, n + 1):
            gap = a**i * 2**n * b ** (n - i)  # p^i in units of 1/scale
            lengths.append((lengths[-1] - gap) // 2)
        g = gcd(scale, lengths[-1], *(x - y for x, y in zip(lengths, lengths[1:])))
        init = object.__setattr__
        init(self, "p", p)
        init(self, "n", n)
        init(self, "den", scale // g)
        init(self, "_lengths", tuple(x // g for x in lengths))
        for cache in ("_keys", "_cuts", "_components"):
            init(self, cache, None)

    @property
    def keys(self) -> tuple[int, ...]:
        if self._keys is None:
            # the right child of a stage-i component starts L_(i-1) - L_i
            # after the left child
            lengths = self._lengths
            shifts = (lengths[i - 1] - lengths[i] for i in range(self.n, 0, -1))
            object.__setattr__(self, "_keys", translate_keys(lengths[-1], shifts))
        return self._keys

    def __len__(self):
        if 2**self.n > sys.maxsize:  # len() itself would raise OverflowError
            raise BadParameter(f"len() overflows at 2**{self.n} components; use 2**n")
        return 2**self.n

    @property
    def is_empty(self) -> bool:
        return False

    @property
    def length(self) -> Fraction:
        # 2^n components of length L_n each
        return Fraction(self._lengths[-1] << self.n, self.den)

    def __reduce__(self):
        return CantorIterateSet, (self.p, self.n)

    def _descend(self, x: Fraction) -> tuple[Fraction, bool]:
        """(|A_n ∩ [0,x]|, x ∈ A_n) for any rational x.

        Outside [0,1] x lies left or right of all of A_n.  Inside, every
        stage either keeps x in the left child, skips the left child's mass
        2^(n-i) * L_n and moves to the right child, or ends in the gap between
        them.  The arithmetic is on integers in units of 1/(den*q), q the
        denominator of x."""
        num, q = x.numerator, x.denominator
        if not 0 <= num <= q:
            return (Fraction(0) if num < 0 else self.length), False
        target = num * self.den
        lengths = self._lengths
        n, leaf = self.n, lengths[-1]
        below = 0  # mass of the components left of the current one
        start = 0  # left end of the current component
        for i in range(1, n + 1):
            if target <= (start + lengths[i]) * q:
                continue
            below += leaf << (n - i)
            start += lengths[i - 1] - lengths[i]
            if target < start * q:
                return Fraction(below, self.den), False
        return Fraction(below * q + target - start * q, self.den * q), True

    def length_upto(self, c: Fraction) -> Fraction:
        """|A_n ∩ [0,c]|."""
        return self._descend(c)[0]

    def __contains__(self, x: Fraction) -> bool:
        return self._descend(x)[1]


@dataclass(frozen=True)
class CantorIterate:
    p: Fraction
    n: int
    set: CantorIterateSet


def cantor_iterate(p, n: int) -> CantorIterate:
    """A_n: from each of the 2^(i-1) components of A_(i-1) remove the open
    middle interval of length p^i.  A_0 = [0,1]."""
    p = check_ratio(p)
    if n < 0:
        raise BadParameter(f"iteration count {n} must be >= 0")
    return CantorIterate(p, n, CantorIterateSet(p, n))


def removed_mass(p, n: int) -> Fraction:
    """Total length of the middle intervals removed up to stage n:
    sum over i of 2^(i-1) * p^i = p * (1 - (2p)^n) / (1 - 2p)."""
    p = check_ratio(p)
    if n < 0:
        raise BadParameter(f"iteration count {n} must be >= 0")
    # with p = a/b: a * (b^n - (2a)^n) / (b^n * (b - 2a)); b > 2a as p <= 1/3
    a, b = p.numerator, p.denominator
    bn = b**n
    return Fraction(a * (bn - (2 * a) ** n), bn * (b - 2 * a))


def disjoint_union_witness(n: int) -> IntervalSet:
    """Union of [3/2^(i+2), 1/2^i] for i = 0..n-1; the components never merge,
    so the n-th stage has exactly n components."""
    if n < 1:
        raise BadParameter(f"witness size {n} must be >= 1")
    ivs = [
        Interval(Fraction(3, 2 ** (i + 2)), Fraction(1, 2**i), True, True)
        for i in range(n)
    ]
    return normalize(ivs)


def relative_frequency(
    member: Callable[[Fraction], bool], sequence: Sequence[Fraction], n: int
) -> Fraction:
    """Fraction of the first n sequence points satisfying the predicate."""
    if not (1 <= n <= len(sequence)):
        raise BadIndex(f"n={n} outside 1..{len(sequence)}")
    hits = sum(1 for x in sequence[:n] if member(x))
    return Fraction(hits, n)
