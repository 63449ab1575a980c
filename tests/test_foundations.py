"""Cantor iterates, the disjoint-union witness, and relative frequencies."""

import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cakecalc import (
    BadIndex,
    BadParameter,
    CantorComponent,
    Interval,
    cantor_iterate,
    contains,
    difference,
    disjoint_union_witness,
    evaluate,
    intersect,
    interval_set,
    make_box_valuation,
    make_valuation,
    normalize,
    relative_frequency,
    removed_mass,
    total_length,
    uniform_valuation,
)
from cakecalc.foundations import CantorIterateSet
from cakecalc.valuation import (
    DEFAULT_TOL,
    _cdf_at_keys,
    _cdf_value,
    _summed,
    _value_ints,
    _value_matrix,
)
from conftest import small_fractions, van_der_corput

F = Fraction
RATIOS = [F(1, 3), F(1, 4), F(1, 5), F(2, 7)]


class TestCantorIterate:
    def test_stage_zero(self):
        assert cantor_iterate(F(1, 4), 0).set == interval_set((0, 1))

    def test_stage_one_third(self):
        assert cantor_iterate(F(1, 3), 1).set == interval_set((0, "1/3"), ("2/3", 1))

    def test_stage_two_third(self):
        got = cantor_iterate(F(1, 3), 2).set
        assert got == interval_set(
            (0, "1/9"), ("2/9", "1/3"), ("2/3", "7/9"), ("8/9", 1)
        )

    @pytest.mark.parametrize("p", [F(1, 3), F(1, 4), F(1, 5)])
    def test_component_count_and_nesting(self, p):
        prev = None
        for n in range(8):
            cur = cantor_iterate(p, n).set
            assert len(cur) == 2**n
            assert all(c.lo_closed and c.hi_closed for c in cur)
            if prev is not None:
                assert intersect(cur, prev) == cur
                assert difference(cur, prev).is_empty
            prev = cur

    def test_len_past_the_word_size_is_a_named_error(self):
        assert len(cantor_iterate(F(1, 3), 62).set) == 2**62
        for n in (63, 64):
            huge = cantor_iterate(F(1, 3), n).set
            assert huge  # truth reads is_empty, not len()
            with pytest.raises(BadParameter, match=rf"2\*\*{n}"):
                len(huge)

    @pytest.mark.parametrize("p", [F(1, 3), F(1, 4), F(2, 7)])
    def test_length_plus_removed_is_one(self, p):
        for n in range(8):
            assert total_length(cantor_iterate(p, n).set) + removed_mass(p, n) == 1

    def test_bad_ratio(self):
        with pytest.raises(BadParameter):
            cantor_iterate(F(1, 2), 3)
        with pytest.raises(BadParameter):
            cantor_iterate(F(1, 3), -1)


@st.composite
def iterate_point(draw, comps):
    """A point on an endpoint of, inside, or in the gap after a component."""
    j = draw(st.integers(0, len(comps) - 1))
    iv = comps[j]
    t = draw(small_fractions)
    gap_end = comps[j + 1].lo if j + 1 < len(comps) else iv.hi
    return draw(st.sampled_from([
        iv.lo,
        iv.hi,
        iv.lo + t * iv.length,
        iv.hi + t * (gap_end - iv.hi),
        t,
    ]))


@st.composite
def scfree_valuation(draw, comps):
    """Atoms and a piecewise-constant density, both placed by iterate_point."""
    locs = sorted(set(draw(st.lists(iterate_point(comps), max_size=3))))
    cuts = draw(st.lists(iterate_point(comps), max_size=3))
    bps = sorted({F(0), F(1)} | set(cuts))
    raw_w = [F(draw(st.integers(1, 5))) for _ in locs]
    raw_d = [F(draw(st.integers(0, 5))) for _ in bps[1:]]
    raw_d[draw(st.integers(0, len(raw_d) - 1))] += 1
    atom_mass = F(draw(st.integers(1, 3)), 6) if locs else F(0)
    atom_scale = atom_mass / sum(raw_w) if locs else F(0)
    ac = sum(d * (hi - lo) for d, lo, hi in zip(raw_d, bps, bps[1:]))
    density = [
        (Interval(lo, hi, lo == 0, True), d * (1 - atom_mass) / ac)
        for d, lo, hi in zip(raw_d, bps, bps[1:])
    ]
    return make_valuation(
        atoms=[(loc, w * atom_scale) for loc, w in zip(locs, raw_w)], density=density
    )


@st.composite
def box_valuation(draw, comps):
    """Boxes, some of them empty, on pieces whose ends iterate_point places."""
    bps = sorted({F(0), F(1)} | set(draw(st.lists(iterate_point(comps), max_size=4))))
    counts = [draw(st.integers(0, 9)) for _ in bps[1:]]
    counts[draw(st.integers(0, len(counts) - 1))] += 1
    return make_box_valuation(
        [(Interval(lo, hi, lo == 0, True), c) for lo, hi, c in zip(bps, bps[1:], counts)]
    )


class TestIterateDescent:
    """The stage-table descent against the materialized components."""

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_descent_matches_components(self, data):
        p = data.draw(st.sampled_from(RATIOS))
        n = data.draw(st.integers(0, 12))
        staged = cantor_iterate(p, n).set
        plain = normalize(list(staged))
        v = data.draw(scfree_valuation(plain.components))
        assert evaluate(v, staged) == evaluate(v, plain)
        probes = data.draw(st.lists(iterate_point(plain.components), max_size=6))
        for x in probes + [loc for loc, _ in v.atoms]:
            assert contains(staged, x) == contains(plain, x)
            prefix = intersect(plain, interval_set((0, x)))
            assert staged.length_upto(x) == total_length(prefix)
        # `in` and `length_upto` take any point, unlike `contains`
        for x in (F(-1, 2), F(-1, 3**n), 1 + F(1, 3**n), F(2)):
            assert (x in staged) == (x in plain)
            assert staged.length_upto(x) == (0 if x < 0 else plain.length)

    @pytest.mark.parametrize("p", RATIOS)
    def test_descent_builds_no_components(self, p):
        """`evaluate` and `contains` descend by `_upto` alone: they neither
        call `length_upto` nor build the keys."""
        v = make_valuation(
            atoms=[(F(1, 2), F(1, 2))],
            density=[(Interval(F(0), F(1), True, True), F(1, 2))],
        )
        staged = cantor_iterate(p, 12).set
        with mock.patch.object(CantorIterateSet, "length_upto") as length_upto:
            evaluate(v, staged)
            contains(staged, F(1, 3))
        assert not length_upto.called
        assert staged._components is None
        assert staged._keys is None

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_row_reading_matches_the_key_reading(self, data):
        """`_value_ints` reads an iterate off the table's rows; in value it
        equals the reading of F at the iterate's keys, for atoms and density
        ends at iterate ends, inside components and in gaps."""
        p = data.draw(st.sampled_from(RATIOS + [F(1, 6)]))
        n = data.draw(st.integers(0, 10))
        staged = cantor_iterate(p, n).set
        comps = normalize(list(staged)).components
        v = data.draw(st.one_of(scfree_valuation(comps), box_valuation(comps)))
        lo, hi, d = _value_ints(v, staged, DEFAULT_TOL)
        split = max(2, len(staged.keys))
        k_lo, k_hi, k_d = _summed(*_cdf_at_keys(v, staged.den, staged.keys, DEFAULT_TOL, split))
        assert lo == hi and k_lo == k_hi
        assert F(lo, d) == F(k_lo, k_d)

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_value_matrix_with_iterate_pieces_is_per_pair(self, data):
        """`_value_matrix` over iterate pieces beside a plain set equals
        `evaluate` of every (valuation, piece) pair, an iterate's read at the
        keys of a plain copy."""
        p, q = data.draw(st.sampled_from(RATIOS)), data.draw(st.sampled_from(RATIOS))
        n = data.draw(st.integers(0, 8))
        pieces = {0: cantor_iterate(p, n).set, 1: interval_set((F(1, 3), F(3, 4))),
                  2: cantor_iterate(q, 8 - n).set}
        comps = normalize(list(pieces[0])).components
        valuations = {0: uniform_valuation(), 1: data.draw(scfree_valuation(comps)),
                      2: data.draw(box_valuation(comps))}
        matrix = _value_matrix(valuations, pieces, DEFAULT_TOL)
        assert sorted(matrix) == [(i, j) for i in valuations for j in pieces]
        for (i, j), value in matrix.items():
            plain = normalize(list(pieces[j]))
            assert _cdf_value(*value) == evaluate(valuations[i], plain, DEFAULT_TOL)

    @pytest.mark.parametrize("p", RATIOS)
    def test_length_matches_components(self, p):
        for n in range(9):
            staged = cantor_iterate(p, n).set
            assert staged.length == normalize(list(staged)).length

    def test_length_builds_no_components(self):
        staged = cantor_iterate(F(1, 3), 40).set
        assert total_length(staged) == 1 - removed_mass(F(1, 3), 40)
        assert staged._components is None
        assert staged._keys is None

    @pytest.mark.parametrize("p", RATIOS)
    def test_cantor_part_matches_components(self, p):
        v = make_valuation(
            atoms=[(F(1, 3), F(1, 4))],
            density=[(Interval(F(0), F(1, 2), True, False), F(1, 2))],
            cantor_parts=[
                CantorComponent(Interval(F(1, 2), F(1), True, True), F(1, 3), F(1, 4)),
                CantorComponent(Interval(F(0), F(2, 5), True, True), F(1, 4), F(1, 4)),
            ],
        )
        for n in range(5):
            staged = cantor_iterate(p, n).set
            assert evaluate(v, staged) == evaluate(v, normalize(list(staged)))

    @pytest.mark.parametrize("p", RATIOS)
    def test_equal_and_same_hash_as_plain_set(self, p):
        for n in range(9):
            plain = normalize(list(cantor_iterate(p, n).set))
            assert cantor_iterate(p, n).set == plain
            assert plain == cantor_iterate(p, n).set
            assert hash(cantor_iterate(p, n).set) == hash(plain)
            assert not cantor_iterate(p, n).set != plain
            assert not plain != cantor_iterate(p, n).set
            assert pickle.loads(pickle.dumps(cantor_iterate(p, n).set)) == plain
            assert pickle.loads(pickle.dumps(plain)) == cantor_iterate(p, n).set

    def test_den_is_reduced_from_the_stage_table(self):
        """For p = 1/3 the endpoints of A_n are ternary: den is 3^n, not the
        table's (2b)^n = 6^n, and a plain set of the same points agrees."""
        for n in range(9):
            staged = cantor_iterate(F(1, 3), n).set
            plain = normalize(list(staged))
            assert staged.den == plain.den == 3**n
            assert staged.keys == plain.keys


class TestRemovedMass:
    def test_zero_stage(self):
        assert removed_mass(F(1, 4), 0) == 0
        with pytest.raises(BadParameter):
            removed_mass(F(1, 4), -1)

    def test_third_geometric(self):
        assert removed_mass(F(1, 3), 10) == 1 - F(2, 3) ** 10

    def test_quarter_limit_half(self):
        for n in range(20):
            assert removed_mass(F(1, 4), n) == F(1, 2) * (1 - F(1, 2**n))
        assert abs(removed_mass(F(1, 4), 30) - F(1, 2)) < F(1, 2**30)


class TestWitness:
    def test_first_component(self):
        assert disjoint_union_witness(1) == interval_set(("3/4", 1))

    def test_two_components(self):
        got = disjoint_union_witness(2)
        assert got == interval_set(("3/8", "1/2"), ("3/4", 1))

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_never_merges(self, n):
        assert len(disjoint_union_witness(n)) == n

    def test_bad_size(self):
        with pytest.raises(BadParameter):
            disjoint_union_witness(0)


class TestRelativeFrequency:
    def test_constant_predicates(self):
        seq = van_der_corput(16)
        assert relative_frequency(lambda x: True, seq, 7) == 1
        assert relative_frequency(lambda x: False, seq, 7) == 0

    def test_van_der_corput_balance(self):
        seq = van_der_corput(64)
        assert relative_frequency(lambda x: x < F(1, 2), seq, 64) == F(1, 2)

    def test_additive_in_disjoint_predicates(self):
        seq = van_der_corput(32)
        left = lambda x: x < F(1, 4)
        right = lambda x: F(1, 4) <= x < F(1, 2)
        both = lambda x: x < F(1, 2)
        for n in (1, 7, 32):
            assert relative_frequency(both, seq, n) == relative_frequency(
                left, seq, n
            ) + relative_frequency(right, seq, n)

    def test_bad_index(self):
        seq = van_der_corput(8)
        with pytest.raises(BadIndex):
            relative_frequency(lambda x: True, seq, 0)
        with pytest.raises(BadIndex):
            relative_frequency(lambda x: True, seq, 9)
