"""Canonical interval algebra: golden examples and algebraic laws."""

import copy
import pickle
import sys
import time
from unittest import mock
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cakecalc import (
    CakeError,
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
    cdf,
    contains,
    difference,
    intersect,
    interval_set,
    make_box_valuation,
    normalize,
    parse_interval_set,
    total_length,
    uniform_valuation,
    union,
)
from cakecalc.intervals import _from_keys, _scaled, _split, keys_text, lex_rational, parse_rational
from cakecalc.valuation import integer_box_valuation, integer_valuation
from conftest import (
    cuts_of,
    interval_sets,
    intervals,
    ref_encode,
    ref_encoded_normalize,
    ref_set_from_cuts,
    small_fractions,
)

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
        assert s.lo == s.hi and s.length == 0

    @pytest.mark.parametrize("cuts", [
        [(F(1, 2), 1), (F(1, 2), 1)],  # (1/2,1/2]
        [(F(1, 2), 0), (F(1, 3), 1)],  # out of order
        [(F(0), 0), (F(1, 3), 1), (F(1, 3), 1), (F(1), 1)],  # [0,1/3] touches (1/3,1]
        [(F(0), 0)],  # no end
        [(F(0), 0), (F(1, 2), 2)],  # no side
        [(F(0), 0), (F(3, 2), 1)],  # off the cake
    ])
    def test_cut_constructor_rejects_non_canonical_cuts(self, cuts):
        """`TestIntegerKeys` takes a set equal to `ref_set_from_cuts` of the
        reference cuts as proof that they are canonical, so the reference
        constructor must reject every other cut sequence."""
        with pytest.raises(InvalidInterval):
            ref_set_from_cuts(cuts)

    def test_sets_are_built_only_by_the_constructors(self):
        message = "normalize, interval_set or parse_interval_set"
        for args in ((), ([(F(0), 0), (F(1), 1)],)):
            with pytest.raises(TypeError, match=message):
                IntervalSet(*args)
        plain = interval_set((0, "1/3"), ("1/2", 1, False))
        staged = cantor_iterate(F(1, 3), 5).set
        for a in (plain, staged, EMPTY, FULL):
            for back in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
                assert type(back) is type(a) and back == a and hash(back) == hash(a)
                assert str(back) == str(a)


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
    """The text of a set as an earlier renderer wrote it: each component's
    `Fraction` ends formatted by `str`, as `Interval.__str__` once did."""
    den, keys = a.den, a.keys
    return ", ".join(
        f"{'(' if s & 1 else '['}{F(s >> 1, den)},{F(e >> 1, den)}{']' if e & 1 else ')'}"
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

    def test_an_interval_point_past_the_int_to_str_limit_is_too_many_digits(self):
        limit = getattr(sys, "get_int_max_str_digits", int)()  # none before 3.10.7
        if not limit:
            pytest.skip("this interpreter prints ints of any length")
        x = F(1, 10**limit)  # limit + 1 digits
        with pytest.raises(TooManyDigits):
            str(Interval(F(0), x, True, True))

    @pytest.mark.parametrize("lo, hi", [(F(0), F(1)), (F(1, 6), F(3, 4)), (F(2, 7), F(1))])
    @pytest.mark.parametrize("lo_closed", [True, False])
    @pytest.mark.parametrize("hi_closed", [True, False])
    def test_an_interval_prints_as_its_set(self, lo, hi, lo_closed, hi_closed):
        iv = Interval(lo, hi, lo_closed, hi_closed)
        one = normalize([iv])
        assert str(iv) == str(one) == interval_text(one)
        assert str(iv) == f"{'[' if lo_closed else '('}{lo},{hi}{']' if hi_closed else ')'}"


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
            assert (c.lo in a) == c.lo_closed
            assert (c.hi in a) == c.hi_closed

    @given(interval_sets(), interval_sets())
    def test_results_canonical(self, a, b):
        for s in (union(a, b), intersect(a, b), complement(a), difference(a, b)):
            assert normalize(s.components) == s


def present_lcm(a: IntervalSet) -> int:
    """The lcm of the denominators of the cut points of `a`."""
    return lcm(*(x.denominator for x, _ in cuts_of(a)))


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
        assert cuts_of(a) == xs and cuts_of(b) == ys
        assert ref_set_from_cuts(xs) == a and hash(ref_set_from_cuts(xs)) == hash(a)
        expected = {
            "complement": ref_complement(xs),
            "intersect": ref_intersect(xs, ys),
            "difference": ref_intersect(xs, ref_complement(ys)),
            "union": ref_complement(ref_intersect(ref_complement(xs), ref_complement(ys))),
        }
        for name, op in TestCutsOnly.OPS.items():
            got = op(a, b)
            assert cuts_of(got) == expected[name], name
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
        assert ref_set_from_cuts(cuts_of(a)) == a
        result = normalize(a.components)
        assert result._components is None and result == a

    @given(interval_sets(), interval_sets())
    def test_small_sets(self, a, b):
        self.check(a, b)

    def test_cantor_iterate_operands_build_no_cuts(self):
        a, b = cantor_iterate(F(1, 4), 12).set, cantor_iterate(F(1, 3), 9).set
        for name, op in self.OPS.items():
            result = op(a, b)
            assert result._components is None, name
        assert a._components is None and b._components is None

    def test_cantor_iterate(self):
        a12 = lambda p: cantor_iterate(p, 12).set
        self.check(a12(F(1, 3)), interval_set((0, "1/2"), ("3/4", 1, False, True)))
        self.check(a12(F(1, 4)), a12(F(1, 3)))

    @given(interval_sets(), small_fractions)
    def test_membership_reads_cuts_like_components(self, a, x):
        ends = [e for c in a.components for e in (c.lo, c.hi)]
        for y in ends + [x]:
            assert (y in a) == any(y in normalize([c]) for c in a.components)


def ref_keys_intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """`intersect` as a rescale-and-reduce sweep: the keys of both operands
    over the lcm of their dens, the sweep of the operand with fewer keys
    into the other's, then the result's den divided by the gcd of its
    points.  An operand equal to the result is returned itself."""
    if len(a.keys) > len(b.keys):
        a, b = b, a
    if a.is_empty:
        return a
    den = lcm(a.den, b.den)
    xs, ys = ([(k >> 1) * 2 * (den // s.den) + (k & 1) for k in s.keys] for s in (a, b))
    out = []
    for s, e in zip(xs[::2], xs[1::2]):
        i = bisect_right(ys, s)
        j = bisect_left(ys, e, i)
        out += [s] * (i & 1) + ys[i:j] + [e] * (j & 1)
    g = gcd(den, *(k >> 1 for k in out))
    result = _from_keys(den // g, tuple((k >> 1) // g * 2 + (k & 1) for k in out))
    return a if result == a else b if result == b else result


RATIOS = [F(1, 3), F(1, 4), F(1, 5), F(1, 6)]
PREFIX = interval_set((0, LONG_CUT))  # a prefix piece [0, c]


def iterate_set(p, n) -> IntervalSet:
    return cantor_iterate(p, n).set


@st.composite
def operands(draw, n: int):
    """A_n(p) (A_0 is FULL), its complement, a set of large-denominator
    intervals or the prefix [0, LONG_CUT]."""
    kind = draw(st.sampled_from(["iterate", "complement", "large", "prefix"]))
    if kind == "large":
        return normalize(draw(large_interval_lists))
    if kind == "prefix":
        return PREFIX
    a = iterate_set(draw(st.sampled_from(RATIOS)), n)
    return complement(a) if kind == "complement" else a


@st.composite
def operand_pairs(draw):
    n = draw(st.integers(0, 10))
    return draw(operands(n)), draw(operands(draw(st.integers(0, 10 - n))))


class TestLargerOperandScale:
    """`intersect` sweeps in the scale of the operand with more keys; its
    results, and those of `difference` and `union`, are the keys and den
    of the rescale-and-reduce sweep, operand for operand."""

    @settings(deadline=None)
    @given(operand_pairs())
    # results whose den is a proper divisor of the lcm of the operands' dens
    @example((iterate_set(F(1, 3), 1), iterate_set(F(1, 4), 2)))
    @example((iterate_set(F(1, 3), 4), iterate_set(F(1, 4), 3)))
    # the one cut kept from [1/12, 1/3] shares the factor 4 with its den:
    # the result [1/5, 1/3] has den 15, not lcm(5, 12)
    @example((interval_set(("1/12", "1/3")), interval_set(("1/5", "1/2"))))
    # nested iterates, in both orders: the operand with more keys lies inside
    # the other and is the result itself
    @example((iterate_set(F(1, 3), 10), iterate_set(F(1, 4), 2)))
    @example((iterate_set(F(1, 4), 2), iterate_set(F(1, 3), 10)))
    @example((iterate_set(F(1, 5), 11), iterate_set(F(1, 6), 1)))
    @example((iterate_set(F(1, 6), 1), iterate_set(F(1, 5), 11)))
    @example((iterate_set(F(1, 4), 12), FULL))
    @example((FULL, iterate_set(F(1, 4), 12)))
    # a cut of [1/3, 1] off FULL's grid lies inside FULL, so FULL is not the result
    @example((interval_set(("1/3", 1)), FULL))
    def test_matches_the_rescale_and_reduce_reference(self, pair):
        a, b = pair
        ca, cb = complement(a), complement(b)
        for x, y in ((a, b), (b, a), (a, cb), (ca, cb), (a, FULL), (FULL, a)):
            got, want = intersect(x, y), ref_keys_intersect(x, y)
            assert (got.den, got.keys) == (want.den, want.keys)
            assert (got is x, got is y) == (want is x, want is y)
            assert got.den == present_lcm(got)
        results = {
            difference: ref_keys_intersect(a, cb),
            union: complement(ref_keys_intersect(ca, cb)),
        }
        for op, want in results.items():
            got = op(a, b)
            assert (got.den, got.keys) == (want.den, want.keys), op.__name__
            assert got.den == present_lcm(got), op.__name__
        assert intersect(a, b) == intersect(b, a)
        assert intersect(a, FULL) is a

    @pytest.mark.parametrize("n, m, dens, den", [
        (1, 2, (3, 32), 32),
        (4, 3, (81, 128), 3456),  # the lcm of the dens is 10,368
    ])
    def test_a_difference_keeps_only_the_den_of_its_points(self, n, m, dens, den):
        a, b = iterate_set(F(1, 3), n), iterate_set(F(1, 4), m)
        got = difference(a, b)
        assert (a.den, b.den) == dens and lcm(*dens) > got.den == den == present_lcm(got)


class TestContainedOperand:
    """An operand of `intersect` with more keys than the other, that lies
    inside it, is the result: returned itself before any set is built or
    any of its keys rescaled."""

    @pytest.mark.parametrize("pair", [
        (iterate_set(F(1, 3), 10), iterate_set(F(1, 4), 2)),  # division path
        (iterate_set(F(1, 5), 11), iterate_set(F(1, 6), 1)),
        (iterate_set(F(1, 4), 12), FULL),  # lcm path: FULL's den divides A_12's
        (iterate_set(F(1, 3), 8), iterate_set(F(1, 3), 5)),
        # cuts of the outer set on keys of the inner one
        (interval_set(("1/5", "1/5"), ("1/2", "3/4", True, False)), interval_set(("1/5", "3/4"))),
    ])
    def test_is_returned_without_a_copy(self, pair):
        inner, outer = pair
        with mock.patch("cakecalc.intervals._from_keys", wraps=_from_keys) as built, \
                mock.patch("cakecalc.intervals._scaled", wraps=_scaled) as scaled:
            assert intersect(inner, outer) is inner
            assert intersect(outer, inner) is inner
        built.assert_not_called()
        assert all(call.args[0] is not inner.keys and len(call.args[0]) < len(inner.keys)
                   for call in scaled.call_args_list)

    def test_an_equal_operand_is_the_first(self):
        a, b = iterate_set(F(1, 3), 6), iterate_set(F(1, 3), 6)
        assert a is not b and intersect(a, b) is a and intersect(b, a) is b


def ref_toggle_complement(a: IntervalSet) -> IntervalSet:
    """`complement` as a two-step toggle, each step a copy: the key of
    (0,0) comes or goes, then that of (1,1)."""
    keys, top = a.keys, 2 * a.den + 1
    c = keys[1:] if keys[:1] == (0,) else (0, *keys)
    return _from_keys(a.den, c[:-1] if c[-1:] == (top,) else (*c, top))


TOGGLE_SETS = [
    EMPTY, FULL, interval_set((0, 0)), interval_set((1, 1)),
    interval_set((0, 1, True, False)), interval_set((0, 1, False, True)),
]


@st.composite
def toggle_sets(draw):
    """One of TOGGLE_SETS, A_n(p) or its complement, or any small set."""
    kind = draw(st.sampled_from(["fixed", "iterate", "complement", "any"]))
    if kind == "fixed":
        return draw(st.sampled_from(TOGGLE_SETS))
    if kind == "any":
        return draw(interval_sets())
    a = iterate_set(draw(st.sampled_from(RATIOS)), draw(st.integers(0, 8)))
    return complement(a) if kind == "complement" else a


class TestComplementToggle:
    @settings(deadline=None)
    @given(toggle_sets())
    def test_matches_the_two_step_toggle(self, a):
        got, want = complement(a), ref_toggle_complement(a)
        assert type(got.keys) is tuple
        assert (got.den, got.keys) == (want.den, want.keys)
        assert complement(got) == a


@st.composite
def split_points(draw, a):
    """A point c of [0,1] for `_split(a, c)`: 0 or 1, an end of a component
    of a (a closed end, an open start, or one of a singleton), a point
    between two keys of a (inside a component or in a gap), or any point
    with a denominator up to 16, which need not divide a.den."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.sampled_from([F(0), F(1)]))
    if kind == 1 and a.keys:
        return F(draw(st.sampled_from(a.keys)) >> 1, a.den)
    if kind == 2 and a.keys:
        i = draw(st.integers(0, len(a.keys) - 1))
        lo, hi = F(a.keys[i] >> 1, a.den), F(a.keys[min(i + 1, len(a.keys) - 1)] >> 1, a.den)
        return lo + (hi - lo) * F(draw(st.integers(0, 7)), 7)
    return draw(small_fractions)


THIRDS = interval_set((0, F(1, 3)), (F(1, 2), F(3, 4), False, True), (F(5, 6), F(5, 6)))


class TestSplit:
    """`_split(a, c)` is (a ∩ [0,c], a ∩ (c,1]) from one bisection: the
    keys and den of the `intersect` and `difference` it replaces, and a
    half that is all of a is a itself, as `intersect` returns it."""

    @settings(deadline=None, max_examples=300)
    @given(st.data(), interval_sets())
    @example(None, THIRDS)
    def test_matches_intersect_and_difference(self, data, a):
        if data is None:
            # [0,1/3] ∪ (1/2,3/4] ∪ {5/6}: c at a closed end, at an open
            # start, at a singleton, in a gap, inside a component, on
            # neither grid, and at both ends of the cake
            points = [F(1, 3), F(1, 2), F(5, 6), F(2, 5), F(5, 8), F(1, 7), F(0), F(1)]
        else:
            points = [data.draw(split_points(a)) for _ in range(4)]
        for c in points:
            want_left = intersect(a, interval_set((0, c)))
            want_right = difference(a, want_left)
            left, right = _split(a, c.numerator, c.denominator)
            for got, want in ((left, want_left), (right, want_right)):
                assert (got.den, got.keys) == (want.den, want.keys), c
                if got:
                    assert (got is a) == (want is a), c

    def test_a_cantor_iterate_half_is_the_iterate(self):
        a = cantor_iterate(F(1, 4), 3).set
        assert _split(a, 1, 1) == (a, EMPTY) and _split(a, 1, 1)[0] is a
        for c in (F(0), F(1, 2), F(19, 256)):
            left, right = _split(a, c.numerator, c.denominator)
            assert type(left) is type(right) is IntervalSet and union(left, right) == a


# --- the integer door: Fraction-built sets and valuations --------------------

def ref_make_valuation(atoms=(), density=(), cantor_parts=()):
    """`make_valuation` as it was when it encoded the supports' cuts with
    `ref_encode`."""
    atom_list = [(F(a), F(w)) for a, w in atoms]
    dens_list = [(sup, F(d)) for sup, d in density]
    sc_list = [(c.support, F(c.p), F(c.weight)) for c in cantor_parts]
    den, keys = ref_encode([cut for sup, *_ in dens_list + sc_list for cut in (sup.start, sup.end)])
    ends = list(zip(keys[::2], keys[1::2]))
    return integer_valuation(
        [(a.numerator, a.denominator, w.numerator, w.denominator) for a, w in atom_list],
        den,
        [(s, e, d.numerator, d.denominator) for (_, d), (s, e) in zip(dens_list, ends)],
        [(s, e, p.numerator, p.denominator, w.numerator, w.denominator)
         for (_, p, w), (s, e) in zip(sc_list, ends[len(dens_list):])],
    )


def ref_make_box_valuation(boxes):
    """`make_box_valuation` as it was when it encoded the supports' cuts with
    `ref_encode`."""
    box_list = [(sup, F(n)) for sup, n in boxes]
    den, keys = ref_encode([cut for sup, _ in box_list for cut in (sup.start, sup.end)])
    return integer_box_valuation(
        den, [(s, e, n.numerator) for (_, n), s, e in zip(box_list, keys[::2], keys[1::2])]
    )


@st.composite
def end_forms(draw, x: Fraction):
    """x as a `Fraction`, as text ("n/d", unreduced "2n/2d", or a decimal
    where x is dyadic), as an int where x is whole and as a float where x is
    dyadic."""
    n, d = x.numerator, x.denominator
    forms = [x, f"{n}/{d}", f"{2 * n}/{2 * d}"]
    if d == 1:
        forms.append(n)
    if d & (d - 1) == 0:
        forms += [float(x), str(float(x))]
    return draw(st.sampled_from(forms))


FLAGS = [True, False, 1, 0, 2]  # read by their truth value


def whole_as_int(draw, x: Fraction):
    """x, or int(x) where x is whole and a coin says so."""
    return int(x) if x.denominator == 1 and draw(st.booleans()) else x


@st.composite
def specs(draw):
    """(spec, the checked `Interval` the parent built from it): an
    `Interval`, a whole end sometimes an int, or a tuple of 2, 3 or 4
    entries with ends in any of `end_forms` and flags from FLAGS."""
    a, b = sorted((draw(small_fractions), draw(small_fractions)))
    flag = st.sampled_from(FLAGS)
    flags = (True, True) if a == b else (draw(flag), draw(flag))
    size = draw(st.integers(1, 4))
    if size == 1:
        iv = Interval(whole_as_int(draw, a), whole_as_int(draw, b), *flags)
        return iv, iv
    lo, hi = draw(end_forms(a)), draw(end_forms(b))
    given_flags = flags[:size - 2]
    return (lo, hi, *given_flags), Interval(F(lo), F(hi), *given_flags, *(True, True)[size - 2:])


@st.composite
def partitions(draw):
    """0 = c_0 < ... < c_k = 1 from small fractions."""
    return sorted({F(0), F(1), *draw(st.lists(small_fractions, max_size=4))})


class TestIntegerDoor:
    """`interval_set`, `normalize`, `str(Interval)` and the valuation makers
    read ends as integer pairs and build keys through `encode_lexed`; they
    build what the parent's cut encoding built."""

    @settings(deadline=None, max_examples=300)
    @given(st.lists(specs(), max_size=5))
    def test_interval_set_matches_the_cut_encoding(self, drawn):
        got = interval_set(*(spec for spec, _ in drawn))
        want = ref_encoded_normalize([iv for _, iv in drawn])
        assert type(got) is IntervalSet
        assert (got.den, got.keys) == (want.den, want.keys)
        got = normalize([iv for _, iv in drawn])
        assert (got.den, got.keys) == (want.den, want.keys)

    def test_the_empty_call_is_the_empty_set(self):
        for got in (interval_set(), normalize([])):
            assert (got.den, got.keys) == (EMPTY.den, EMPTY.keys) == (1, ())

    @given(intervals())
    @example(Interval(0, F(1, 2), True, False))
    @example(Interval(F(1, 3), 1, 0, 2))
    def test_interval_text_is_unchanged(self, iv):
        assert str(iv) == keys_text(*ref_encode((iv.start, iv.end)))

    @settings(deadline=None, max_examples=150)
    @given(st.data(), partitions())
    def test_valuation_makers_match_the_cut_encoding(self, data, points):
        draw = data.draw
        pieces = [(whole_as_int(draw, a), whole_as_int(draw, b))
                  for a, b in zip(points, points[1:])]
        counts = draw(st.lists(st.integers(0, 4), min_size=len(pieces), max_size=len(pieces)))
        counts[0] += 1
        # boxes on (a, b], or [0, b] first, counted as ints or Fractions
        boxes = [(Interval(a, b, a == 0, True), draw(st.sampled_from([n, F(n)])))
                 for (a, b), n in zip(pieces, counts)]
        got, want = make_box_valuation(boxes), ref_make_box_valuation(boxes)
        assert got == want and got._table == want._table and got._parts == want._parts
        # densities on some pieces, (a, b> or [0, b>, a Cantor part and atoms
        density = [(Interval(a, b, a == 0, draw(st.sampled_from(FLAGS))),
                    F(draw(st.integers(1, 3))))
                   for a, b in pieces if draw(st.booleans())]
        s, t = sorted(draw(st.lists(small_fractions, min_size=2, max_size=2, unique=True)))
        cantor = [(Interval(s, t, True, 1), draw(st.sampled_from([F(1, 3), F(1, 4)])), F(1))]
        atoms = [(x, F(1)) for x in draw(st.lists(small_fractions, unique=True, max_size=2))]
        total = (sum(d * sup.length for sup, d in density) + sum(w for *_, w in cantor)
                 + sum(w for _, w in atoms))
        data = dict(
            atoms=[(x, w / total) for x, w in atoms],
            density=[(sup, d / total) for sup, d in density],
            cantor_parts=[CantorComponent(sup, p, w / total) for sup, p, w in cantor],
        )
        got, want = make_valuation(**data), ref_make_valuation(**data)
        assert got == want and got._table == want._table and got._parts == want._parts

    @pytest.mark.parametrize(
        "spec, error, text",
        [
            ((F(2, 3), F(1, 3)), InvalidInterval, "lo > hi in [2/3,1/3]"),
            (("2/3", "1/3", False, True), InvalidInterval, "lo > hi in (2/3,1/3]"),
            ((F(1, 2), F(1, 2), True, False), InvalidInterval,
             "degenerate interval [1/2,1/2) with an open end is empty"),
            (("2/4", 0.5, 0, 1), InvalidInterval,
             "degenerate interval (1/2,1/2] with an open end is empty"),
            ((F(1, 2), F(3, 2)), OutOfCake, "interval [1/2,3/2] leaves [0,1]"),
            ((-0.5, 1), OutOfCake, "interval [-1/2,1] leaves [0,1]"),
            ((0, 2, False), OutOfCake, "interval (0,2] leaves [0,1]"),
        ],
        ids=["reversed", "reversed_text", "degenerate_open", "degenerate_mixed",
             "past_one", "below_zero", "past_one_int"],
    )
    def test_malformed_specs_keep_their_error(self, spec, error, text):
        for specs_ in ([spec], [(0, F(1, 8)), spec]):
            with pytest.raises(CakeError) as exc:
                interval_set(*specs_)
            assert type(exc.value) is error and not isinstance(exc.value, ParseError)
            assert str(exc.value) == text
        with pytest.raises(error) as exc:  # the checked Interval says the same
            Interval(F(spec[0]), F(spec[1]), *(spec[2:] + (True, True)[len(spec) - 2:]))
        assert str(exc.value) == text

    @pytest.mark.parametrize("x, text", [(F(-1, 2), "point -1/2 is outside [0,1]"),
                                         (F(3, 2), "point 3/2 is outside [0,1]")])
    def test_contains_outside_cake_text(self, x, text):
        with pytest.raises(OutOfCake) as exc:
            contains(FULL, x)
        assert str(exc.value) == text
        with pytest.raises(OutOfCake) as exc:
            cdf(uniform_valuation(), x)
        assert str(exc.value) == text
