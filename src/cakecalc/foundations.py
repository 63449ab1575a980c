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
    it on first access and cached in `_keys`.  `_upto` walks down the table
    in O(n) integer steps without building them, for `length_upto`,
    membership and `valuation.evaluate`, and `len`, `is_empty` and `length`
    read it directly.  Equality, hashing, iteration and the set operations
    see the same keys as a plain IntervalSet.
    """

    __slots__ = ("p", "n", "_lengths", "_keys")

    def __init__(self, p: Fraction, n: int):
        a, b = p.numerator, p.denominator
        scale = (2 * b) ** n
        lengths = [scale]
        for i in range(1, n + 1):
            gap = a**i * 2**n * b ** (n - i)  # p^i in units of 1/scale
            lengths.append((lengths[-1] - gap) // 2)
        g = gcd(scale, lengths[-1], *[x - y for x, y in zip(lengths, lengths[1:])])
        init = object.__setattr__
        init(self, "p", p)
        init(self, "n", n)
        init(self, "den", scale // g)
        init(self, "_lengths", tuple(x // g for x in lengths))
        init(self, "_keys", None)
        init(self, "_components", None)

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

    def _upto(self, num: int, q: int) -> tuple[int, bool]:
        """(|A_n ∩ [0,x]|·den·q, x ∈ A_n) for x = num/q, q > 0, in integers.

        A_n holds 0 and 1, and lies between them.  Strictly inside, every
        stage either keeps x in the left child, skips the left child's mass
        2^(n-i) * L_n and moves to the right child, or ends in the gap between
        them."""
        lengths = self._lengths
        n, leaf = self.n, lengths[-1]
        if not 0 < num < q:
            return (0 if num <= 0 else (leaf << n) * q), num == 0 or num == q
        target = num * self.den
        lo, hi = target // q, -(-target // q)  # x·den's floor and ceiling
        below = start = 0  # the mass left of the current component, and its left end
        for i in range(1, n + 1):
            if hi <= start + lengths[i]:
                continue
            below += leaf << (n - i)
            start += lengths[i - 1] - lengths[i]
            if lo < start:
                return below * q, False
        return (below - start) * q + target, True

    def length_upto(self, c: Fraction) -> Fraction:
        """|A_n ∩ [0,c]|."""
        return Fraction(self._upto(c.numerator, c.denominator)[0], self.den * c.denominator)

    def __contains__(self, x: Fraction) -> bool:
        return self._upto(x.numerator, x.denominator)[1]


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
