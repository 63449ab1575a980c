"""Finite-scale witnesses: Cantor iterates, the countable-union witness,
and relative frequencies along a point sequence."""

from __future__ import annotations

import sys
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .cantor import check_ratio
from .errors import BadIndex, BadParameter
from .intervals import Cut, Interval, IntervalSet, normalize


class CantorIterateSet(IntervalSet):
    """A_n for ratio p = a/b, held as its stage table.

    At stage i every one of the 2^i components of A_i has the same length
    L_i = (L_(i-1) - p^i) / 2, and the open middle gap of length p^i is cut
    out of each component of A_(i-1).  The table keeps L_0 .. L_n as integer
    numerators over the common denominator (2b)^n.  The cut sequence is
    built from the table on first access and cached in `_cuts`; from it the
    base class builds `components`.  `length_upto` and membership walk down
    the table in O(n) steps without building either, and `len`, `is_empty`
    and `length` read it directly.  Equality, hashing, iteration and the set
    operations see the same cuts as a plain IntervalSet.
    """

    __slots__ = ("p", "n", "_den", "_lengths", "_cuts")

    def __init__(self, p: Fraction, n: int):
        a, b = p.numerator, p.denominator
        den = (2 * b) ** n
        lengths = [den]
        for i in range(1, n + 1):
            gap = a**i * 2**n * b ** (n - i)  # p^i in units of 1/den
            lengths.append((lengths[-1] - gap) // 2)
        init = object.__setattr__
        init(self, "p", p)
        init(self, "n", n)
        init(self, "_den", den)
        init(self, "_lengths", tuple(lengths))
        init(self, "_cuts", None)
        init(self, "_components", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def cuts(self) -> tuple[Cut, ...]:
        if self._cuts is None:
            # the right child of a stage-i component starts L_(i-1) - L_i
            # after the left child
            lengths = self._lengths
            los = [0]
            for i in range(1, self.n + 1):
                shift = lengths[i - 1] - lengths[i]
                los = [x for lo in los for x in (lo, lo + shift)]
            den, leaf = self._den, lengths[-1]
            object.__setattr__(self, "_cuts", tuple(
                (Fraction(x, den), k) for lo in los for x, k in ((lo, 0), (lo + leaf, 1))
            ))
        return self._cuts

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
        return Fraction(self._lengths[-1] << self.n, self._den)

    def __reduce__(self):
        return CantorIterateSet, (self.p, self.n)

    def _descend(self, x: Fraction) -> tuple[Fraction, bool]:
        """(|A_n ∩ [0,x]|, x ∈ A_n) for x in [0,1].

        Every stage either keeps x in the left child, skips the left child's
        mass 2^(n-i) * L_n and moves to the right child, or ends in the gap
        between them.  The arithmetic is on integers in units of 1/(den*q),
        q the denominator of x."""
        q = x.denominator
        target = x.numerator * self._den
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
                return Fraction(below, self._den), False
        return Fraction(below * q + target - start * q, self._den * q), True

    def length_upto(self, c: Fraction) -> Fraction:
        """|A_n ∩ [0,c]| for c in [0,1]."""
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
