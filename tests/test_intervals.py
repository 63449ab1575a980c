"""Canonical interval algebra: golden examples and algebraic laws."""

import sys
import time
from bisect import bisect_right
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cakecalc import (
    EMPTY,
    FULL,
    Interval,
    CantorComponent,
    IntervalSet,
    InvalidInterval,
    cantor_iterate,
    make_valuation,
    prefix_with_value,
    OutOfCake,
    ParseError,
    TooManyDigits,
    complement,
    contains,
    difference,
    intersect,
    interval_set,
    normalize,
    parse_interval_set,
    total_length,
    union,
)
from cakecalc.intervals import lex_rational, parse_rational
from conftest import interval_sets, intervals, small_fractions

F = Fraction


def iv(lo, hi, lo_c=True, hi_c=True):
    return Interval(F(lo), F(hi), lo_c, hi_c)


class TestInvariants:
    def test_open_degenerate_rejected(self):
        with pytest.raises(InvalidInterval):
            Interval(F(1, 2), F(1, 2), True, False)

    def test_reversed_rejected(self):
        with pytest.raises(InvalidInterval):
            Interval(F(2, 3), F(1, 3), True, True)

    def test_outside_cake_rejected(self):
        with pytest.raises(OutOfCake):
            Interval(F(1, 2), F(3, 2), True, True)

    def test_singleton_allowed(self):
        s = iv("1/2", "1/2")
        assert s.is_singleton and s.length == 0

    @pytest.mark.parametrize("cuts", [
        [(F(1, 2), 1), (F(1, 2), 1)],  # (1/2,1/2]
        [(F(1, 2), 0), (F(1, 3), 1)],  # out of order
        [(F(0), 0), (F(1, 3), 1), (F(1, 3), 1), (F(1), 1)],  # [0,1/3] touches (1/3,1]
        [(F(0), 0)],  # no end
        [(F(0), 0), (F(1, 2), 2)],  # no side
        [(F(0), 0), (F(3, 2), 1)],  # off the cake
    ])
    def test_cut_constructor_rejects_non_canonical_cuts(self, cuts):
        with pytest.raises(InvalidInterval):
            IntervalSet(cuts)


class TestNormalize:
    def test_touching_closed_merge(self):
        assert normalize([iv(0, "1/3"), iv("1/3", "2/3")]) == interval_set((0, "2/3"))

    def test_closed_open_adjacency_merges(self):
        got = normalize([iv(0, "1/3"), iv("1/3", 1, False, True)])
        assert got == FULL

    def test_open_open_adjacency_does_not_merge(self):
        got = normalize([iv(0, "1/3", True, False), iv("1/3", 1, False, True)])
        assert len(got) == 2

    def test_sorts_components(self):
        got = normalize([iv("3/4", 1), iv("3/8", "1/2")])
        assert [str(c) for c in got] == ["[3/8,1/2]", "[3/4,1]"]

    def test_idempotent(self):
        s = normalize([iv(0, "1/3", True, False), iv("1/3", 1, False, True)])
        assert normalize(s.components) == s


class TestOperations:
    def test_complement_half_open(self):
        assert complement(interval_set((0, "1/2", True, False))) == interval_set(
            ("1/2", 1)
        )

    def test_intersect_shared_endpoint_singleton(self):
        got = intersect(
            interval_set(("1/4", "1/2", False, True)),
            interval_set(("1/2", "3/4", True, False)),
        )
        assert got == interval_set(("1/2", "1/2"))

    def test_difference_middle_third(self):
        got = difference(FULL, interval_set(("1/3", "2/3", False, False)))
        assert got == interval_set((0, "1/3"), ("2/3", 1))

    def test_contains_endpoint_kinds(self):
        assert not contains(interval_set((0, "1/2", True, False)), F(1, 2))
        assert contains(interval_set((0, "1/2")), F(1, 2))

    def test_iterate_with_itself(self):
        a = cantor_iterate(F(1, 3), 12).set
        assert intersect(a, a) == a
        assert difference(a, a) == EMPTY

    def test_contains_outside_cake(self):
        with pytest.raises(OutOfCake):
            contains(FULL, F(3, 2))

    def test_total_length(self):
        assert total_length(FULL) == 1
        a2 = interval_set((0, "1/9"), ("2/9", "1/3"), ("2/3", "7/9"), ("8/9", 1))
        assert total_length(a2) == F(4, 9)
        assert contains(a2, F(7, 9))


class TestParsing:
    def test_round_trip(self):
        text = "[0,1/3], (1/2,3/4), [7/8,7/8]"
        s = parse_interval_set(text)
        assert parse_interval_set(str(s)) == s

    def test_empty(self):
        assert parse_interval_set("∅") == EMPTY
        assert str(EMPTY) == "∅"

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_interval_set("[0,1/3] nonsense")

    def test_open_degenerate_rejected(self):
        with pytest.raises(ParseError):
            parse_interval_set("(1/2,1/2]")

    def test_rational_forms(self):
        assert parse_rational(" 3/4 ") == F(3, 4)
        assert parse_rational("-2") == -2
        assert parse_rational("+0.25") == F(1, 4)
        assert parse_rational(".5") == F(1, 2)

    @pytest.mark.parametrize("text", ["1e-10000000", "1E9", "2.5e3"])
    def test_exponent_rejected_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_rational(text)
        assert time.perf_counter() - start < 0.1

    # Fraction(str) reads underscores from Python 3.11 on, spaces around "/"
    # from 3.12 on, and non-ASCII digits everywhere; the grammar reads none
    @pytest.mark.parametrize("text", ["1_000", "1_0/3", "0.2_5", "1 / 3", "١/٢", "１/２", "٣"])
    def test_rational_grammar_is_ascii_without_underscores(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["[0,١/٢]", "[0,1_0/20]", "[0,1 / 2]"])
    def test_interval_grammar_is_ascii_without_underscores(self, text):
        with pytest.raises(ParseError):
            parse_interval_set(text)

    @pytest.mark.parametrize(
        "form", ["{}", "-{}", "1/{}", "{}/3", "0.{}", "{}.5", "[0,1/{}]", "[0,{}/{}]"]
    )
    def test_digits_past_the_int_to_str_limit_are_a_parse_error(self, form):
        limit = getattr(sys, "get_int_max_str_digits", int)() or 4300  # none before 3.10.7
        text = form.format(*["1" * (limit + 1)] * form.count("{}"))
        with pytest.raises(ParseError):
            parse_interval_set(text) if text.startswith("[") else parse_rational(text)

    @given(
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 10**30),
        st.one_of(st.none(), st.integers(1, 10**12), st.integers(0, 10**9).map(str)),
        st.sampled_from(["", " ", "\t "]),
    )
    def test_lexer_agrees_with_fraction_on_ascii_forms(self, sign, num, rest, pad):
        if rest is None:
            text = f"{sign}{num}"
        elif isinstance(rest, int):
            text = f"{sign}{num}/{rest}"
        else:  # a decimal; an empty integer part reads as 0
            text = f"{sign}{num or ''}.{rest}"
        n, d = lex_rational(pad + text + pad)
        assert F(n, d) == F(text) and (n, d) == (F(text).numerator, F(text).denominator)
        assert parse_rational(text) == F(text)


def interval_text(a: IntervalSet) -> str:
    """The text of a set as the parent renderer wrote it: each component as
    a checked `Interval` of `Fraction` ends."""
    den, keys = a.den, a.keys
    return ", ".join(
        str(Interval(F(s >> 1, den), F(e >> 1, den), not s & 1, e & 1 == 1))
        for s, e in zip(keys[::2], keys[1::2])
    ) or "∅"


class TestKeyText:
    @given(interval_sets())
    def test_text_from_keys_matches_the_interval_text(self, a):
        assert str(a) == interval_text(a)
        assert parse_interval_set(str(a)) == a

    @pytest.mark.parametrize("p, n", [(F(1, 3), 4), (F(1, 4), 6), (F(2, 7), 5)])
    def test_text_of_cantor_iterates_matches_the_interval_text(self, p, n):
        a = cantor_iterate(p, n).set
        assert str(a) == interval_text(a) == str(complement(complement(a)))

    def test_a_point_past_the_int_to_str_limit_is_too_many_digits(self):
        limit = getattr(sys, "get_int_max_str_digits", int)()  # none before 3.10.7
        if not limit:
            pytest.skip("this interpreter prints ints of any length")
        a = interval_set((0, F(1, 10**limit)), (F(1, 2), 1, False))
        assert a.den == 10**limit  # limit + 1 digits
        with pytest.raises(TooManyDigits):
            str(a)
        assert str(interval_set((0, F(1, 10 ** (limit - 2))))).endswith("0]")


class TestLaws:
    @given(interval_sets())
    def test_involution(self, a):
        assert complement(complement(a)) == a

    @given(interval_sets(), interval_sets())
    def test_de_morgan(self, a, b):
        assert complement(union(a, b)) == intersect(complement(a), complement(b))

    @given(interval_sets(), interval_sets())
    def test_union_idempotent_commutative(self, a, b):
        assert union(a, a) == a
        assert union(a, b) == union(b, a)

    @given(interval_sets(), interval_sets())
    def test_length_additive(self, a, b):
        assert total_length(union(a, b)) == total_length(a) + total_length(
            b
        ) - total_length(intersect(a, b))

    @given(interval_sets(), interval_sets(), small_fractions)
    def test_membership_oracle(self, a, b, x):
        assert contains(union(a, b), x) == (contains(a, x) or contains(b, x))
        assert contains(intersect(a, b), x) == (contains(a, x) and contains(b, x))
        assert contains(complement(a), x) == (not contains(a, x))

    @given(interval_sets(), interval_sets())
    def test_membership_at_endpoints(self, a, b):
        """Random points rarely land on an endpoint, where the endpoint kinds
        decide membership: probe every endpoint of both operands, 0, 1 and
        the midpoint between each pair of neighbours."""
        comps = a.components + b.components
        ends = sorted({F(0), F(1)} | {x for c in comps for x in (c.lo, c.hi)})
        mids = [(x + y) / 2 for x, y in zip(ends, ends[1:])]
        for x in ends + mids:
            in_a, in_b = contains(a, x), contains(b, x)
            assert contains(normalize(b.components + a.components), x) == (in_a or in_b)
            assert contains(union(a, b), x) == (in_a or in_b)
            assert contains(intersect(a, b), x) == (in_a and in_b)
            assert contains(complement(a), x) == (not in_a)
            assert contains(difference(a, b), x) == (in_a and not in_b)

    @given(interval_sets())
    def test_contains_own_ends(self, a):
        for c in a:
            assert c.contains(c.lo) == c.lo_closed
            assert c.contains(c.hi) == c.hi_closed

    @given(interval_sets(), interval_sets())
    def test_results_canonical(self, a, b):
        for s in (union(a, b), intersect(a, b), complement(a), difference(a, b)):
            assert normalize(s.components) == s


def present_lcm(a: IntervalSet) -> int:
    """The lcm of the denominators of the cut points of `a`."""
    return lcm(*(x.denominator for x, _ in a.cuts))


# The plain `Fraction`-cut algorithms the integer keys replace, as references.

def ref_normalize(ivs) -> tuple:
    cuts = []
    for s, e in sorted((i.start, i.end) for i in ivs):
        if cuts and s <= cuts[-1]:
            cuts[-1] = max(cuts[-1], e)
        else:
            cuts += (s, e)
    return tuple(cuts)


def ref_complement(xs) -> tuple:
    c = [(F(0), 0), *xs, (F(1), 1)]
    return tuple(cut for s, e in zip(c[::2], c[1::2]) if s < e for cut in (s, e))


def ref_intersect(xs, ys) -> tuple:
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        s, e = max(xs[i], ys[j]), min(xs[i + 1], ys[j + 1])
        if s < e:
            out += (s, e)
        if xs[i + 1] <= ys[j + 1]:
            i += 2
        else:
            j += 2
    return tuple(out)


# A cut with a 47-digit denominator, as prefix_with_value returns where a
# density overlaps a Cantor support and no orbit closes.
_, LONG_CUT = prefix_with_value(
    make_valuation(
        density=[(iv(0, 1), F(1, 2))],
        cantor_parts=[CantorComponent(iv(0, 1), F(1, 4), F(1, 2))],
    ),
    FULL, F(1, 17), F(1, 2**50),
)
# pairwise coprime apart from LONG_CUT's, which shares the factor 2
LARGE_DENS = [2**133, 3**84, 5**57, 2**127 - 1, LONG_CUT.denominator]


@st.composite
def large_points(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from([F(0), F(1), LONG_CUT]))
    d = draw(st.sampled_from(LARGE_DENS))
    return F(draw(st.integers(0, d)), d)


@st.composite
def large_intervals(draw):
    a, b = sorted((draw(large_points()), draw(large_points())))
    if a == b:
        return Interval(a, b, True, True)
    return Interval(a, b, draw(st.booleans()), draw(st.booleans()))


large_interval_lists = st.lists(st.one_of(large_intervals(), intervals()), max_size=5)


class TestIntegerKeys:
    """The integer-key algebra against the plain `Fraction`-cut algorithms,
    on cut points with large coprime denominators."""

    LONG = [Interval(F(0), LONG_CUT, True, True), Interval(LONG_CUT, F(1), False, True)]

    @given(large_interval_lists, large_interval_lists, large_points())
    @example(LONG[:1], LONG[1:], LONG_CUT)
    def test_matches_fraction_reference(self, ivs_a, ivs_b, x):
        a, b = normalize(ivs_a), normalize(ivs_b)
        xs, ys = ref_normalize(ivs_a), ref_normalize(ivs_b)
        assert a.cuts == xs and b.cuts == ys
        assert IntervalSet(xs) == a and hash(IntervalSet(xs)) == hash(a)
        expected = {
            "complement": ref_complement(xs),
            "intersect": ref_intersect(xs, ys),
            "difference": ref_intersect(xs, ref_complement(ys)),
            "union": ref_complement(ref_intersect(ref_complement(xs), ref_complement(ys))),
        }
        for name, op in TestCutsOnly.OPS.items():
            got = op(a, b)
            assert got.cuts == expected[name], name
            assert got.den == present_lcm(got), name
        assert (x in a) == (bisect_right(xs, (x, 0)) % 2 == 1)
        assert a.length == sum(e[0] - s[0] for s, e in zip(xs[::2], xs[1::2]))

    def test_chained_differences_keep_den_canonical(self):
        """Twelve pieces taken off the left of the cake one after another,
        as last_diminisher does: each cut point leaves with its piece, and so
        does its factor of `den`."""
        cake = FULL
        for k in range(1, 13):
            c = F(k, k + 12)
            cake = difference(cake, interval_set((0, c)))
            assert cake == interval_set((c, 1, False, True))
            assert cake.den == present_lcm(cake) == c.denominator


class TestCutsOnly:
    """Set algebra works on the cut sequences alone: no `Interval` is built
    for an operand or a result until its `components` are read."""

    OPS = {
        "complement": lambda a, b: complement(a),
        "intersect": intersect,
        "difference": difference,
        "union": union,
    }

    def check(self, a, b):
        for name, op in self.OPS.items():
            assert op(a, b)._components is None, name
        assert a._components is None and b._components is None
        assert IntervalSet(a.cuts) == a
        result = normalize(a.components)
        assert result._components is None and result == a

    @given(interval_sets(), interval_sets())
    def test_small_sets(self, a, b):
        self.check(a, b)

    def test_cantor_iterate_operands_build_no_cuts(self):
        a, b = cantor_iterate(F(1, 4), 12).set, cantor_iterate(F(1, 3), 9).set
        for name, op in self.OPS.items():
            result = op(a, b)
            assert result._cuts is None and result._components is None, name
        assert a._cuts is None and b._cuts is None

    def test_cantor_iterate(self):
        a12 = lambda p: cantor_iterate(p, 12).set
        self.check(a12(F(1, 3)), interval_set((0, "1/2"), ("3/4", 1, False, True)))
        self.check(a12(F(1, 4)), a12(F(1, 3)))

    @given(interval_sets(), small_fractions)
    def test_membership_reads_cuts_like_components(self, a, x):
        ends = [e for c in a.components for e in (c.lo, c.hi)]
        for y in ends + [x]:
            assert (y in a) == any(c.contains(y) for c in a.components)
