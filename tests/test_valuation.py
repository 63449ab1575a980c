"""Valuations: construction, CDF, evaluation, cuts, slicing, decomposition."""

import random
from bisect import bisect_left
from fractions import Fraction
from math import ceil, gcd, lcm
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cakecalc import (
    DEFAULT_TOL,
    EMPTY,
    FULL,
    AtomObstruction,
    BadParameter,
    BadPartition,
    CakeError,
    CantorComponent,
    CdfValue,
    Interval,
    NotNormalized,
    NotSliceable,
    OutOfCake,
    ZeroMass,
    ZeroPiece,
    bundled_config_path,
    cantor_valuation,
    cdf,
    contains,
    cut,
    decomposition_masses,
    difference,
    dirac_valuation,
    evaluate,
    intersect,
    interval_set,
    load_valuation,
    make_box_valuation,
    make_valuation,
    normalize,
    parse_interval_set,
    prefix_with_value,
    slice_valuation,
    total_length,
    uniform_valuation,
    union,
)
from cakecalc.errors import BadTolerance
from cakecalc.foundations import cantor_iterate
from cakecalc.intervals import _from_keys, _interval_ends, _split, encode_lexed
from cakecalc import valuation
from cakecalc.valuation import (
    _cdf_value,
    _check_pairwise_disjoint,
    _clamp,
    _Table,
    _descend,
    _invert_rows,
    _slice,
    _table_at_keys,
)
from conftest import (
    cuts_of,
    exact_value,
    interval_sets,
    intervals,
    invert_at,
    rand_scfree_valuation,
    ref_encode,
    ref_set_from_cuts,
    small_fractions,
)

F = Fraction


def civ(lo, hi, lo_c=True, hi_c=True):
    return Interval(F(lo), F(hi), lo_c, hi_c)


def fig2_valuation():
    """Six pieces of width 1/6 holding 2, 1, 5, 2, 4, 3 boxes."""
    counts = [2, 1, 5, 2, 4, 3]
    boxes = [
        (civ(F(i, 6), F(i + 1, 6), i == 0, True), counts[i]) for i in range(6)
    ]
    return make_box_valuation(boxes)


class TestConstruction:
    def test_box_density_formula(self):
        v = fig2_valuation()
        # first piece: 2 boxes of 17 on a width-1/6 support
        assert v.density[0][1] == F(2, 17) / F(1, 6) == F(12, 17)

    def test_box_partition_required(self):
        with pytest.raises(BadPartition):
            make_box_valuation([(civ(0, "1/2"), 1)])
        with pytest.raises(BadPartition):
            make_box_valuation([(civ("1/2", "1/2"), 1), (civ(0, 1), 1)])

    @pytest.mark.parametrize("first, second", [
        (civ(0, "1/3"), civ("2/3", 1)),  # a gap of positive length
        (civ(0, "1/2", True, False), civ("1/2", 1, False)),  # the point 1/2 left out
    ])
    def test_box_supports_with_a_gap_rejected(self, first, second):
        with pytest.raises(BadPartition, match="do not cover"):
            make_box_valuation([(first, 1), (second, 1)])

    def test_box_overlap_rejected(self):
        with pytest.raises(BadPartition):
            make_box_valuation([(civ(0, "2/3"), 1), (civ("1/3", 1), 1)])

    def test_fractional_box_count_rejected(self):
        # int() would read 3/2 as 1 and value [0,1/2) at 1/2 instead of 3/5
        with pytest.raises(BadParameter):
            make_box_valuation([(civ(0, "1/2", True, False), F(3, 2)), (civ("1/2", 1), 1)])

    def test_all_zero_counts_rejected(self):
        with pytest.raises(ZeroMass):
            make_box_valuation([(civ(0, 1), 0)])

    @pytest.mark.parametrize(
        "data, error",
        [
            ({"atoms": [(F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))]}, BadParameter),
            ({"atoms": [(F(3, 2), F(1))]}, OutOfCake),
            ({"atoms": [(F(1, 2), F(0))], "density": [(civ(0, 1), F(1))]}, BadParameter),
            (
                {"density": [(civ(0, "1/2", True, False), F(-1)), (civ("1/2", 1), F(3))]},
                BadParameter,
            ),
            (
                {
                    "density": [(civ(0, 1), F(1))],
                    "cantor_parts": [CantorComponent(civ(0, 1), F(1, 3), F(0))],
                },
                BadParameter,
            ),
            (
                {"cantor_parts": [CantorComponent(civ("1/2", "1/2"), F(1, 3), F(1))]},
                BadParameter,
            ),
            (
                {"cantor_parts": [CantorComponent(civ(0, 1, False), F(1, 3), F(1))]},
                BadParameter,
            ),
        ],
        ids=[
            "duplicate_atom",
            "atom_outside",
            "atom_weight_zero",
            "negative_density",
            "cantor_weight_zero",
            "singleton_cantor_support",
            "open_cantor_support",
        ],
    )
    def test_bad_generator_data_rejected(self, data, error):
        with pytest.raises(error):
            make_valuation(**data)

    @given(st.lists(intervals(), max_size=6))
    def test_disjointness_check_matches_pairwise_definition(self, ivs):
        overlap = any(
            not intersect(normalize([a]), normalize([b])).is_empty
            for i, a in enumerate(ivs)
            for b in ivs[i + 1 :]
        )
        den, keys = ref_encode([cut for iv in ivs for cut in (iv.start, iv.end)])
        try:
            _check_pairwise_disjoint(den, list(zip(keys[::2], keys[1::2])), "supports")
        except BadPartition as exc:
            assert overlap
            a, b = (parse_interval_set(t) for t in str(exc).split(": ")[1].split(" and "))
            assert not intersect(a, b).is_empty  # the named pair overlaps
        else:
            assert not overlap

    def test_two_piece_densities(self):
        v = make_box_valuation(
            [(civ(0, "1/2", True, False), 1), (civ("1/2", 1), 3)]
        )
        assert [d for _, d in v.density] == [F(1, 2), F(3, 2)]

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            make_valuation(atoms=[(F(1, 2), F(1, 3))])

    def test_mixture_masses(self):
        v = make_valuation(
            atoms=[(F(1, 3), F(1, 2))],
            density=[(civ(0, 1), F(1, 4))],
            cantor_parts=[CantorComponent(civ(0, 1), F(1, 3), F(1, 4))],
        )
        assert decomposition_masses(v) == (F(1, 4), F(1, 4), F(1, 2))

    def test_trivial_masses(self):
        assert decomposition_masses(uniform_valuation()) == (1, 0, 0)
        assert decomposition_masses(dirac_valuation(F(1, 2))) == (0, 0, 1)

    def test_atoms_accessor(self):
        assert list(dirac_valuation(F(1, 2)).atoms) == [(F(1, 2), F(1))]
        assert list(fig2_valuation().atoms) == []
        v = make_valuation(
            atoms=[(F(1, 3), F(1, 2))], density=[(civ(0, 1), F(1, 2))]
        )
        assert list(v.atoms) == [(F(1, 3), F(1, 2))]


class TestCdf:
    def test_fig2_third(self):
        assert cdf(fig2_valuation(), F(2, 6)).value == F(3, 17)

    def test_dirac_jump(self):
        d = dirac_valuation(F(1, 2))
        assert cdf(d, F(1, 2), "left_limit").value == 0
        assert cdf(d, F(1, 2), "at").value == 1

    def test_cantor_exact_quarter(self):
        assert cdf(cantor_valuation(), F(1, 4)).value == F(1, 3)

    def test_atom_at_zero_counts(self):
        v = make_valuation(
            atoms=[(F(0), F(1, 2))], density=[(civ(0, 1), F(1, 2))]
        )
        assert cdf(v, F(0), "at").value == F(1, 2)
        assert cdf(v, F(0), "left_limit").value == 0

    def test_f1_is_one(self):
        for v in (fig2_valuation(), cantor_valuation(), dirac_valuation(F(1, 2))):
            assert cdf(v, F(1)).value == 1

    def test_out_of_cake(self):
        with pytest.raises(OutOfCake):
            cdf(uniform_valuation(), F(3, 2))

    def test_bad_tolerance(self):
        with pytest.raises(BadTolerance):
            cdf(uniform_valuation(), F(1, 2), "at", F(0))

    def test_unknown_side(self):
        with pytest.raises(BadParameter):
            cdf(uniform_valuation(), F(1, 2), "right_limit")

    def test_clamp_cuts_brackets_and_checks_exact_values(self):
        # [lo/d, hi/d] cut down to [0, 1]: [-1/8, 1/2] and [1/4, 9/8] over 8
        assert _clamp(-1, 4, 8) == (0, 4)
        assert _clamp(2, 9, 8) == (2, 8)
        assert _clamp(1, 1, 3) == (1, 1)
        with pytest.raises(AssertionError):
            _clamp(9, 9, 8)

    def test_value_of_a_bracket_is_an_error(self):
        assert exact_value(F(1, 3)).value == F(1, 3)
        with pytest.raises(ValueError, match="not exact"):
            CdfValue(F(1, 4), F(1, 3)).value
        val = cdf(cantor_valuation(F(1, 4)), F(1, 10), tol=F(1, 16))
        assert val == CdfValue(F(1, 8), F(3, 16))
        with pytest.raises(ValueError):
            val.value

    def test_bracket_width_respected(self):
        val = cdf(cantor_valuation(F(1, 4)), F(1, 7), tol=F(1, 2**20))
        assert val.lo <= val.hi
        assert val.hi - val.lo <= F(1, 2**20)


class TestEvaluate:
    def test_fig2_piece(self):
        assert evaluate(fig2_valuation(), interval_set((0, "2/6"))).value == F(3, 17)

    def test_empty_is_zero(self):
        for v in (fig2_valuation(), cantor_valuation()):
            assert evaluate(v, EMPTY).value == 0

    def test_uniform_on_cantor_iterate(self):
        a2 = cantor_iterate(F(1, 3), 2).set
        assert evaluate(uniform_valuation(), a2).value == F(4, 9)

    def test_endpoint_kinds_matter_with_atoms(self):
        d = dirac_valuation(F(1, 2))
        assert evaluate(d, interval_set((0, "1/2", True, False))).value == 0
        assert evaluate(d, interval_set((0, "1/2"))).value == 1
        assert evaluate(d, interval_set(("1/2", "1/2"))).value == 1

    def test_cantor_mass_on_iterates(self):
        cv = cantor_valuation()
        for n in range(6):
            got = evaluate(cv, cantor_iterate(F(1, 3), n).set)
            assert got.value == 1

    @settings(deadline=None, max_examples=60)
    @given(interval_sets(), interval_sets())
    def test_strong_additivity_random_scfree(self, a, b):
        rng = random.Random(str((a, b)))
        v = rand_scfree_valuation(rng)
        lhs = evaluate(v, union(a, b)).value
        rhs = (
            evaluate(v, a).value
            + evaluate(v, b).value
            - evaluate(v, intersect(a, b)).value
        )
        assert lhs == rhs

    @settings(deadline=None, max_examples=60)
    @given(interval_sets(), interval_sets())
    def test_monotone(self, a, b):
        rng = random.Random(str((b, a)))
        v = rand_scfree_valuation(rng)
        assert evaluate(v, intersect(a, b)).value <= evaluate(v, a).value

    def test_continuity_from_above_quarter(self):
        u = uniform_valuation()
        for n in range(12):
            got = evaluate(u, cantor_iterate(F(1, 4), n).set).value
            assert got == 1 - F(1, 2) * (1 - F(1, 2**n))

    def test_bracket_soundness_refinement(self):
        v = cantor_valuation(F(1, 4))
        a = interval_set((0, "1/5"), ("1/2", "9/10", False, True))
        coarse = evaluate(v, a, tol=F(1, 2**12))
        fine = evaluate(v, a, tol=F(1, 2**22))
        assert coarse.lo <= fine.lo <= fine.hi <= coarse.hi


# The `Fraction` breakpoint table the integer table replaces, as references:
# rows (x, G(x-), G(x)) of the atom + density part G of F.

def ref_breakpoint_table(atoms, density):
    jump = dict(atoms)
    slope = {}
    for sup, d in density:
        slope[sup.lo] = slope.get(sup.lo, F(0)) + d
        slope[sup.hi] = slope.get(sup.hi, F(0)) - d
    rows = []
    g = rate = prev = F(0)
    for x in sorted({F(0), F(1)} | jump.keys() | slope.keys()):
        g += rate * (x - prev)
        g_at = g + jump.get(x, F(0))
        rows.append((x, g, g_at))
        g, prev = g_at, x
        rate += slope.get(x, F(0))
    return tuple(rows)


def ref_table_value(table, cut):
    x, after = cut
    i = bisect_left(table, x, key=itemgetter(0))
    bx, g_left, g_at = table[i]
    if bx == x:
        return g_at if after else g_left
    px, _, p_at = table[i - 1]
    return p_at + (g_left - p_at) * (x - px) / (bx - px)


def invert_table(table, t):
    """The minimal x with G(x) >= t, or 1, with (G(x-), G(x)), by the row
    rule of `_invert`, which cut queries and the slicer share."""
    a, b = t.numerator * table.QD, t.denominator
    xn, xd, g_left, g_at = _invert_rows(table, a, b)
    return F(xn, xd), F(g_left, table.QD * b), F(g_at, table.QD * b)


def ref_invert_table(table, t):
    i = bisect_left(table, t, hi=len(table) - 1, key=itemgetter(2))
    x, g_left, g_at = table[i]
    if i == 0 or g_left <= t:
        return x, g_left, g_at
    px, _, p_at = table[i - 1]
    return px + (t - p_at) * (x - px) / (g_left - p_at), t, t


# A cut with a 35+-digit denominator, as prefix_with_value returns where a
# density overlaps a Cantor support and no orbit closes.
_, LONG_CUT = prefix_with_value(
    make_valuation(
        density=[(civ(0, 1), F(1, 2))],
        cantor_parts=[CantorComponent(civ(0, 1), F(1, 4), F(1, 2))],
    ),
    FULL, F(1, 17), F(1, 2**50),
)
BIG_DENS = [2**133, 2**127 - 1, LONG_CUT.denominator, 7, 12]


@st.composite
def big_points(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from([F(0), F(1), LONG_CUT]))
    d = draw(st.sampled_from(BIG_DENS))
    return F(draw(st.integers(0, d)), d)


@st.composite
def big_intervals(draw):
    a, b = sorted((draw(big_points()), draw(big_points())))
    if a == b:
        return civ(a, b)
    return civ(a, b, draw(st.booleans()), draw(st.booleans()))


@st.composite
def table_valuations(draw):
    """Atom + density valuations, atoms at 0 and 1 among them, on touching
    density supports and zero-density gaps between row points with large
    denominators, scaled to mass 1."""
    points = sorted(set(draw(st.lists(big_points(), min_size=2, max_size=6))))
    pieces = [
        (civ(a, b, False), F(draw(st.integers(0, 5))))
        for a, b in zip(points, points[1:])
        if draw(st.booleans())
    ]
    locs = draw(st.lists(st.sampled_from([F(0), F(1), *points]), unique=True, max_size=4))
    atoms = [(a, F(draw(st.integers(1, 5)))) for a in locs]
    total = sum(w for _, w in atoms) + sum(d * sup.length for sup, d in pieces)
    assume(total > 0)
    return make_valuation(
        atoms=[(a, w / total) for a, w in atoms],
        density=[(sup, d / total) for sup, d in pieces],
    )


class TestIntegerTable:
    """The integer table against the `Fraction` breakpoint table it
    replaces, on row points and cuts with large coprime denominators."""

    @settings(deadline=None, max_examples=150)
    @given(table_valuations(), st.lists(big_points(), max_size=6))
    @example(
        make_valuation(
            atoms=[(F(0), F(1, 4)), (F(1), F(1, 4)), (LONG_CUT, F(1, 4))],
            density=[(civ(0, F(1, 2**133), False), F(2**131)),
                     (civ(F(3, 2**127 - 1), F(1, 2), False), F(0))],
        ),
        [LONG_CUT + F(1, 2**133), F(1, 2**133) - F(1, 2**127 - 1)],
    )
    def test_cdf_matches_fraction_reference(self, v, xs):
        ref = ref_breakpoint_table(v.atoms, v.density)
        # every row point, its neighbours 2^-140 away, and the drawn points
        near = [y for x, _, _ in ref for y in (x - F(1, 2**140), x, x + F(1, 2**140))]
        for x in near + xs:
            if 0 <= x <= 1:
                for side, after in (("left_limit", 0), ("at", 1)):
                    assert cdf(v, x, side).value == ref_table_value(ref, (x, after))

    @settings(deadline=None, max_examples=150)
    @given(table_valuations(), st.lists(big_intervals(), max_size=5))
    def test_evaluate_matches_fraction_reference(self, v, ivs):
        ref = ref_breakpoint_table(v.atoms, v.density)
        a = normalize(ivs)
        expected = sum(
            ref_table_value(ref, e) - ref_table_value(ref, s)
            for s, e in zip(cuts_of(a)[::2], cuts_of(a)[1::2])
        )
        assert evaluate(v, a).value == expected

    @settings(deadline=None, max_examples=150)
    @given(table_valuations(), st.lists(big_points(), max_size=6))
    def test_inversion_matches_reference_and_is_minimal(self, v, ts):
        ref = ref_breakpoint_table(v.atoms, v.density)
        targets = [g for _, gl, ga in ref for g in (gl, ga)] + ts
        for t in targets:
            x, g_left, g_at = got = invert_table(v._table, t)
            assert got == ref_invert_table(ref, t)
            assert ref_table_value(ref, (x, 1)) == g_at >= t
            assert ref_table_value(ref, (x, 0)) == g_left <= t
            # G < t on [0, x): G(x-) <= t and G is linear up to x from a
            # row point p, with G(p) < t
            rows_left = [r for r in ref if r[0] < x]
            if rows_left:
                assert rows_left[-1][2] < t


# The `Fraction` Cantor readers that the integer orbit walk, the key sweep
# and the integer descent replace, as references over the `Fraction`
# breakpoint table above.

def ref_staircase_bracket(p, y, depth):
    y = min(max(y, F(0)), F(1))
    left, right = (1 - p) / 2, (1 + p) / 2
    a, scale = F(0), F(1)
    seen = {}
    while depth is None or len(seen) < depth:
        if left <= y <= right:
            v = a + scale / 2
            return v, v
        a0, s0 = seen.setdefault(y, (a, scale))
        if s0 != scale:
            v = a0 + s0 * (a - a0) / (s0 - scale)
            return v, v
        if y < left:
            y = y / left
        else:
            a += scale / 2
            y = (y - right) / left
        scale /= 2
    return a, a + scale


def ref_cdf(v, table, cut, tol):
    x = cut[0]
    lo = hi = ref_table_value(table, cut)
    for comp in v.cantor:
        s, t = comp.support.lo, comp.support.hi
        if x >= t:
            lo, hi = lo + comp.weight, hi + comp.weight
        elif x > s:
            w_tol = tol / len(v.cantor) / comp.weight
            depth = max(1, ((w_tol.denominator - 1) // w_tol.numerator).bit_length())
            a, b = ref_staircase_bracket(
                comp.p, (x - s) / (t - s), None if comp.p == F(1, 3) else depth
            )
            lo, hi = lo + comp.weight * a, hi + comp.weight * b
    return CdfValue(max(lo, F(0)), min(hi, F(1)))


def ref_evaluate(v, table, a, tol):
    cuts = cuts_of(a)
    per_call = tol / max(2, len(cuts))
    lo = hi = F(0)
    for s, e in zip(cuts[::2], cuts[1::2]):
        f_s, f_e = ref_cdf(v, table, s, per_call), ref_cdf(v, table, e, per_call)
        # each component's bracket [F(e).lo - F(s).hi, F(e).hi - F(s).lo]
        # is cut down to [0, 1] before it is added
        lo, hi = lo + max(f_e.lo - f_s.hi, F(0)), hi + min(f_e.hi - f_s.lo, F(1))
    return CdfValue(max(lo, F(0)), min(hi, F(1)))


def ref_descend(table, rate, comp, offset, t, tol):
    shrink, quarter, seen = (1 - comp.p) / 2, tol / 4, {}
    a, length, m = comp.support.lo, comp.support.length, comp.weight
    g_a, g_b = ref_table_value(table, (a, 1)), ref_table_value(table, (a + length, 0))
    while True:
        if g_a + offset >= t:
            return ref_invert_table(table, t - offset)[0]
        flat = g_a == g_b
        if flat:
            a0, length0 = seen.setdefault((t - g_a - offset) / m, (a, length))
            if length0 != length:
                return a0 + length0 * (a - a0) / (length0 - length)
        if m + rate * length <= quarter:
            return a + length
        child = length * shrink
        m /= 2
        g_l = g_a if flat else ref_table_value(table, (a + child, 0))
        if g_l + offset + m >= t:
            length, g_b = child, g_l
        else:
            g_r = g_b if flat else ref_table_value(table, (a + length - child, 1))
            a, length, g_a, offset = a + length - child, child, g_r, offset + m


def ref_invert_sides(v, table, t, tol):
    """The minimal c with F(c) >= t, with (F(c-), F(c)), reported as (t, t)
    where the descent finds c."""
    offset = F(0)
    rate = max((d for _, d in v.density), default=F(0))
    for comp in v.cantor:
        if ref_table_value(table, (comp.support.hi, 0)) + offset + comp.weight >= t:
            return ref_descend(table, rate, comp, offset, t, tol), t, t
        offset += comp.weight
    x, g_left, g_at = ref_invert_table(table, t - offset)
    return x, g_left + offset, g_at + offset


def ref_invert(v, table, lo, hi, t, tol):
    return min(max(ref_invert_sides(v, table, t, tol)[0], lo), hi)


GRID = sorted({F(k, d) for d in range(1, 13) for k in range(d + 1)})
RATIOS = [F(1, 3), F(1, 4), F(1, 5), F(2, 7)]  # 2/7: a ratio with numerator 2
TOLS = [F(1, 2**12), F(1, 2**20), F(3, 2**31), F(1, 2**40)]
ORBIT_DENS = [7, 11, 97, 3**5 * 7, 2**7 * 5]


@st.composite
def cantor_mixes(draw, with_atoms=True):
    """One or two Cantor components on supports drawn from a grid, over
    half-open density pieces on a grid partition that may or may not
    overlap them, and atoms anywhere, scaled to mass 1."""
    n = draw(st.integers(1, 2))
    ends = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2 * n, max_size=2 * n,
                                unique=True)))
    parts = [
        (civ(a, b), draw(st.sampled_from(RATIOS)), F(draw(st.integers(1, 4))))
        for a, b in zip(ends[::2], ends[1::2])
    ]
    points = sorted({F(0), F(1), *draw(st.lists(st.sampled_from(GRID), max_size=4))})
    pieces = [
        (civ(a, b, a == 0), F(draw(st.integers(0, 3))))
        for a, b in zip(points, points[1:])
        if draw(st.booleans())
    ]
    locs = draw(st.lists(st.sampled_from(GRID), unique=True, max_size=2)) if with_atoms else []
    atoms = [(a, F(draw(st.integers(1, 3)))) for a in locs]
    total = sum(w for _, _, w in parts) + sum(w for _, w in atoms)
    total += sum(d * sup.length for sup, d in pieces)
    return make_valuation(
        atoms=[(a, w / total) for a, w in atoms],
        density=[(sup, d / total) for sup, d in pieces],
        cantor_parts=[CantorComponent(sup, p, w / total) for sup, p, w in parts],
    )


@st.composite
def cantor_points(draw, v):
    """Points of [0,1]: on the grid, at a support end, or inside a support
    at k/d of the way into a random level-n cell of the Cantor set, so that
    the orbit stays on the set for n steps and then follows that of k/d;
    n up to 60 reaches past the walk's depth, where F is a bracket."""
    comp = draw(st.sampled_from(v.cantor))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.sampled_from(GRID))
    if kind == 1:
        return draw(st.sampled_from([comp.support.lo, comp.support.hi]))
    n, d = draw(st.integers(0, 60)), draw(st.sampled_from(ORBIT_DENS))
    bits = draw(st.integers(0, 2**n - 1))
    l = (1 - comp.p) / 2
    y = sum((1 - l) * l**i for i in range(n) if bits >> i & 1) + l**n * F(draw(st.integers(0, d)), d)
    return comp.support.lo + comp.support.length * y


TWO_PARTS_OVER_A_DENSITY = make_valuation(
    density=[(civ(0, 1), F(1, 4))],
    cantor_parts=[
        CantorComponent(civ(F(1, 6), F(1, 3)), F(2, 7), F(1, 4)),
        CantorComponent(civ(F(1, 2), F(5, 6)), F(1, 4), F(1, 2)),
    ],
)

# An atom at a Cantor support's end t = 1/2: F(1/2-) = 1/4 + 1/4 = 1/2 and
# F(1/2) = 3/4, so every target in (1/2, 3/4] inverts to 1/2, with
# (F(1/2-), F(1/2)) read off the table and the part's weight.
ATOM_AT_A_SUPPORT_END = make_valuation(
    atoms=[(F(1, 2), F(1, 4))],
    density=[(civ(0, 1), F(1, 2))],
    cantor_parts=[CantorComponent(civ(0, F(1, 2)), F(1, 3), F(1, 4))],
)


class TestIntegerCantorReaders:
    """`cdf`, `evaluate` and `_invert` against the `Fraction` walk, sweep and
    descent they replace: the same lo and hi, and the same points."""

    @settings(deadline=None, max_examples=100)
    @given(st.data(), cantor_mixes(), st.sampled_from(TOLS))
    @example(None, cantor_valuation(F(1, 4)), F(1, 2**40)).via("3/11 is periodic for p = 1/4")
    @example(None, TWO_PARTS_OVER_A_DENSITY, F(1, 2**12))
    @example(None, ATOM_AT_A_SUPPORT_END, F(1, 2**40))
    @example(None, TWO_PARTS_OVER_A_DENSITY, F(1)).via("walks of depth 1: exact at (t, 0) still")
    def test_cdf_and_evaluate_match_the_fraction_reference(self, data, v, tol):
        table = ref_breakpoint_table(v.atoms, v.density)
        if data is None:
            xs = [F(3, 11), F(8, 11), F(1, 6), F(1, 3), F(1, 2), F(5, 6), F(2, 5)]
        else:
            xs = data.draw(st.lists(cantor_points(v), min_size=1, max_size=6))
        for x in xs:
            for side, after in (("left_limit", 0), ("at", 1)):
                assert cdf(v, x, side, tol) == ref_cdf(v, table, (x, after), tol)
        a = normalize(civ(*sorted(pair)) for pair in zip(xs[::2], xs[1::2]))
        assert evaluate(v, a, tol) == ref_evaluate(v, table, a, tol)

    @settings(deadline=None, max_examples=100)
    @given(cantor_mixes(with_atoms=False), st.lists(small_fractions, max_size=4),
           st.sampled_from(TOLS))
    @example(TWO_PARTS_OVER_A_DENSITY, [F(1, 3), F(1, 2), F(7, 9)], F(1, 2**40))
    @example(
        make_valuation(density=[(civ(0, F(1, 2), True, False), F(1))],
                       cantor_parts=[CantorComponent(civ(F(1, 2), 1), F(1, 4), F(1, 2))]),
        [F(2, 3), F(5, 7)], F(1, 2**30),
    ).via("G is flat and positive on the support")
    @example(ATOM_AT_A_SUPPORT_END, [F(3, 5), F(3, 4)], F(1, 2**40))
    def test_invert_matches_the_fraction_reference(self, v, ts, tol):
        table = ref_breakpoint_table(v.atoms, v.density)
        # targets drawn, and F at every support end, where the answer is a
        # support end or a gap end
        ends = [c.support.lo for c in v.cantor] + [c.support.hi for c in v.cantor]
        targets = [t for t in ts if t > 0] + [ref_cdf(v, table, (x, 1), tol).hi for x in ends]
        for t in targets:
            if 0 < t <= 1:
                c, g = invert_at(v, t, tol)
                assert c == ref_invert(v, table, F(0), F(1), t, tol)
                # the descent runs, and g is None, where c lies in a part's
                # (s, t_p] and t < F(t_p-); at t = F(t_p-) the table gives c = t_p
                assert (g is None) == any(
                    p.support.lo < c <= p.support.hi
                    and t < ref_cdf(v, table, (p.support.hi, 0), tol).lo for p in v.cantor)
                if g is not None:  # the table gave c: F(c-) and F(c) as the reference's
                    assert (c, *g) == ref_invert_sides(v, table, t, tol)

    @settings(deadline=None, max_examples=100)
    @given(cantor_mixes())
    @example(ATOM_AT_A_SUPPORT_END)
    def test_the_table_is_f_off_the_open_supports(self, v):
        """Each Cantor weight is a jump at its support's end: the table is F,
        exactly, at every grid cut but those inside a support and the left
        limit at its end, and its total is 1."""
        table = v._table
        assert table.GA[-1] == table.QD
        assert all(table.QD % c.weight.denominator == 0 for c in v.cantor)
        for x in GRID:
            for side, after in (("left_limit", 0), ("at", 1)):
                if any(c.support.lo < x < c.support.hi or (x, after) == (c.support.hi, 0)
                       for c in v.cantor):
                    continue
                (g,), q = _table_at_keys(table, x.denominator, (2 * x.numerator + after,))
                assert F(g, q) == cdf(v, x, side).value


# The parent's table, the atom + density part of F alone: F off the Cantor
# supports was that plus the Cantor mass to the left, which each reader
# added by hand.  A copy of the parent's `_integer_table`, from the atoms
# and densities of v.

def parent_table(v):
    den, keys = encode_lexed([_interval_ends(sup) for sup, _ in v.density])
    atoms = [(*a.as_integer_ratio(), *w.as_integer_ratio()) for a, w in v.atoms]
    density = [(s, e, *d.as_integer_ratio())
               for (_, d), s, e in zip(v.density, keys[::2], keys[1::2])]
    ends = [k >> 1 for s, e, _, _ in density for k in (s, e)]
    g = gcd(den, *ends)
    D = lcm(den // g, *[ad for _, ad, _, _ in atoms])
    Q = lcm(*[wd for *_, wd in atoms], *[dd for *_, dd in density])
    QD = Q * D
    f = D // (den // g)
    ends = [e // g * f for e in ends]
    jump = {an * (D // ad): wn * (QD // wd) for an, ad, wn, wd in atoms}
    slope = dict.fromkeys((0, D, *jump, *ends), 0)
    for (_, _, dn, dd), lo, hi in zip(density, ends[::2], ends[1::2]):
        r = dn * (Q // dd)
        slope[lo] += r
        slope[hi] -= r
    X = sorted(slope)
    g_left, g_at, rates = [], [], []
    g = rate = prev = 0
    for x in X:
        g += rate * (x - prev)
        g_left.append(g)
        g += jump.get(x, 0)
        g_at.append(g)
        rate += slope[x]
        rates.append(rate)
        prev = x
    return _Table(D, QD, X, g_left, g_at, rates)


def parent_descend(table, part, t, tol):
    """`_descend` over the parent's table, for t less the Cantor mass left
    of the support, as the parent took it: a `Fraction`, over the lcm of
    its denominator and the weight's."""
    B = lcm(t.denominator, part[-1])
    return F(*_descend(table, max(table.R), part, t.numerator * (B // t.denominator), B, tol))


# The parent's `_invert`, which took its target t as a `Fraction`, kept as
# the reference for the integer target t over B: the same table rule and
# descent over the parent's table, and the same test of F at each support
# end.

def ref_invert_fraction_target(v, t, tol):
    table, n, d = parent_table(v), 0, 1
    tn, td = t.numerator, t.denominator
    for part in v._parts:
        E, _, T, _, _, wn, wd = part
        (g,), q = _table_at_keys(table, E, (2 * T,))
        if ((g * wd + wn * q) * d + n * q * wd) * td >= tn * q * wd * d:
            return parent_descend(table, part, t - F(n, d), tol)
        n, d = n * wd + wn * d, d * wd
    return F(*_invert_rows(table, (tn * d - n * td) * table.QD, td * d)[:2])


def one_part(p, weight, atoms=()):
    """C_p on [1/5, 7/10] beside a density on [0,1] and atoms off the
    support, scaled to mass 1."""
    total = weight + 1 + sum(w for _, w in atoms)
    return make_valuation(atoms=[(a, w / total) for a, w in atoms],
                          density=[(civ(0, 1), 1 / total)],
                          cantor_parts=[CantorComponent(civ(F(1, 5), F(7, 10)), p, weight / total)])


class TestIntegerInvertTarget:
    """`_invert` takes its target as an integer over a denominator B that
    the caller picks, any multiple of the least one it accepts, and returns
    the point the `Fraction`-target `_invert` returned."""

    @settings(deadline=None, max_examples=150)
    @given(st.one_of(cantor_mixes(), table_valuations(),
                     st.randoms(use_true_random=False).map(rand_scfree_valuation)),
           st.lists(small_fractions, min_size=1, max_size=4),
           st.sampled_from([1, 2, 6, 2**20 + 1]), st.sampled_from(TOLS))
    @example(cantor_valuation(F(1, 3)), [F(1, 3), F(5, 7)], 6, F(1, 2**40))
    @example(cantor_valuation(F(1, 4)), [F(3, 11), F(1, 2)], 2, F(1, 2**40))
    @example(cantor_valuation(F(1, 5)), [F(1, 7), F(2, 3)], 1, F(1, 2**20))
    @example(one_part(F(1, 4), F(2), [(F(1, 10), F(1, 2)), (F(9, 10), F(1))]), [F(1, 2)], 2,
             F(1, 2**12))
    @example(one_part(F(1, 5), F(1), [(F(0), F(1, 3))]), [F(1, 3), F(7, 9)], 6, F(3, 2**31))
    @example(one_part(F(1, 3), F(3), [(F(1), F(1))]), [F(1, 4), F(5, 6)], 2**20 + 1,
             F(1, 2**40))
    @example(ATOM_AT_A_SUPPORT_END, [F(3, 5), F(3, 4)], 1, F(1, 2**40))
    def test_integer_target_matches_the_fraction_target(self, v, shares, k, tol):
        # drawn targets, F at every support end, and targets strictly inside
        # F's rise across each support, which go through `_descend`
        targets = [t for t in shares if t > 0]
        inside = []
        for c in v.cantor:
            a = cdf(v, c.support.lo, "at", tol).hi
            b = cdf(v, c.support.hi, "left_limit", tol).lo
            targets += [a, b] if a > 0 else [b]
            if a < b:
                inside += [a + (b - a) * s for s in shares if 0 < s < 1]
        descents = []

        def counted(*args):
            descents.append(args)
            return descend(*args)

        descend = valuation._descend
        for t in targets + inside:
            with mock.patch.object(valuation, "_descend", counted):
                got, _ = invert_at(v, t, tol, k)
            assert got == ref_invert_fraction_target(v, t, tol), t
        assert len(descents) >= len(inside)
        if not v.cantor:
            assert not descents


# The parent's two readers of F in `evaluate` and `prefix_with_value`, as
# references for the one path that replaces them: the integer scans of G
# alone without a Cantor part, and the `CdfValue` loop of
# `prefix_with_value` with one (over the `Fraction` references above).

def ref_evaluate_scfree(v, a):
    g, q = _table_at_keys(v._table, a.den, a.keys)
    return exact_value(F(sum(g[1::2]) - sum(g[::2]), q))


def ref_prefix_scfree(v, a, target):
    g, q = _table_at_keys(v._table, a.den, a.keys)
    n, d = target.numerator * q, target.denominator
    upto = 0
    for base, top in zip(g[::2], g[1::2]):
        upto += top - base
        if upto * d >= n:
            c = invert_table(v._table, F(n - (upto - top) * d, q * d))[0]
            return intersect(a, interval_set((0, c))), c
    raise BadParameter(f"target {target} exceeds v(A)")


def ref_prefix_cantor(v, table, a, target, tol):
    cuts = cuts_of(a)
    values = [ref_cdf(v, table, cut, tol / (4 * max(2, len(cuts)))) for cut in cuts]
    lo = hi = F(0)  # the bracket of v(A) left of the component
    for i, (base, top) in enumerate(zip(values[::2], values[1::2])):
        upto_lo, upto_hi = lo + top.lo - base.hi, hi + top.hi - base.lo
        if (upto_lo + upto_hi) / 2 >= target or (2 * i + 2 == len(cuts) and target <= upto_hi):
            t = target - (lo + hi) / 2 + base.midpoint
            c = ref_invert(v, table, cuts[2 * i][0], cuts[2 * i + 1][0], t, tol)
            return intersect(a, interval_set((0, c))), c
        lo, hi = upto_lo, upto_hi
    raise BadParameter(f"target {target} exceeds v(A)")


def outcome(f, *args):
    """f(*args), or the type of the error it raised; pieces as (den, keys)."""
    try:
        piece, c = f(*args)
    except BadParameter as exc:
        return type(exc)
    return (piece.den, piece.keys), c


class TestOnePathReferences:
    """`evaluate` and `prefix_with_value` read F one way for every
    valuation; against the parent's two ways they give the same values, the
    same pieces and the same c."""

    @settings(deadline=None, max_examples=150)
    @given(
        st.one_of(table_valuations(), st.randoms(use_true_random=False).map(rand_scfree_valuation)),
        st.one_of(interval_sets(), st.lists(big_intervals(), max_size=5).map(normalize)),
        small_fractions,
    )
    def test_scfree_matches_the_integer_scans(self, v, a, share):
        va = evaluate(v, a)
        assert va == ref_evaluate_scfree(v, a)
        if any(contains(a, loc) for loc, _ in v.atoms):
            return
        for target in (share * va.value, va.value + F(1, 7)):
            if target > 0:
                assert outcome(prefix_with_value, v, a, target) == outcome(
                    ref_prefix_scfree, v, a, target)

    @settings(deadline=None, max_examples=100)
    @given(st.data(), cantor_mixes(with_atoms=False), st.sampled_from(TOLS))
    @example(None, cantor_valuation(F(1, 4)), F(1, 2**12)).via("brackets on every component")
    def test_cantor_matches_the_cdfvalue_loop(self, data, v, tol):
        table = ref_breakpoint_table(v.atoms, v.density)
        if data is None:
            # k/97 of the way into level-8 cells of C_1/4, where F is a bracket
            l = F(3, 8)
            xs = [(1 - l) * l**2 + l**8 * F(k, 97) for k in (5, 41, 77)]
            xs += [l**8 * F(k, 97) for k in (3, 60)] + [F(1, 2)]
            shares = [F(1, 3)]
        else:
            xs = data.draw(st.lists(cantor_points(v), min_size=2, max_size=8))
            shares = data.draw(st.lists(small_fractions.filter(bool), max_size=3))
        # intervals between pairs of points, and singletons at the rest,
        # whose brackets make negative component values to cut down
        a = normalize([civ(*sorted(pair)) for pair in zip(xs[:4:2], xs[1:4:2])]
                      + [civ(x, x) for x in xs[4:]])
        assert evaluate(v, a, tol) == ref_evaluate(v, table, a, tol)
        va = ref_evaluate(v, table, a, tol / 4)
        for target in [s * va.midpoint for s in shares] + [va.lo, va.hi, va.hi + F(1, 7)]:
            if target > 0:
                assert outcome(prefix_with_value, v, a, target, tol) == outcome(
                    ref_prefix_cantor, v, table, a, target, tol)


class TestCut:
    def test_uniform_half(self):
        assert cut(uniform_valuation(), FULL, F(1, 2)) == interval_set((0, "1/2"))

    def test_fig2_inverse(self):
        assert cut(fig2_valuation(), FULL, F(3, 17)) == interval_set((0, "1/3"))

    def test_alpha_extremes(self):
        v = fig2_valuation()
        a = interval_set(("1/4", "3/4"))
        assert cut(v, a, F(0)) == EMPTY
        assert cut(v, a, F(1)) == a

    def test_atom_obstruction(self):
        with pytest.raises(AtomObstruction):
            cut(dirac_valuation(F(1, 2)), FULL, F(1, 2))

    def test_atom_outside_piece_is_fine(self):
        v = make_valuation(
            atoms=[(F(9, 10), F(1, 2))], density=[(civ(0, "1/2"), F(1))]
        )
        piece = cut(v, interval_set((0, "1/2")), F(1, 2))
        # v([0,1/2]) = 1/2, so the half-cut lands at 1/4 with value 1/4
        assert piece == interval_set((0, "1/4"))
        assert evaluate(v, piece).value == F(1, 4)

    def test_zero_piece(self):
        v = make_box_valuation(
            [(civ(0, "1/2", True, False), 1), (civ("1/2", 1), 0)]
        )
        with pytest.raises(ZeroPiece):
            cut(v, interval_set(("3/4", 1)), F(1, 2))

    def test_cut_on_restricted_piece(self):
        v = fig2_valuation()
        a = interval_set((0, "1/6"), ("1/2", 1, False, True))
        for alpha in (F(1, 3), F(2, 5), F(7, 9)):
            piece = cut(v, a, alpha)
            assert difference(piece, a).is_empty
            assert evaluate(v, piece).value == alpha * evaluate(v, a).value

    def test_minimal_prefix_on_plateau(self):
        # no mass on (1/4,3/4): the cut must stop at the left edge of the gap
        v = make_box_valuation(
            [
                (civ(0, "1/4", True, False), 1),
                (civ("1/4", "3/4", True, False), 0),
                (civ("3/4", 1), 1),
            ]
        )
        assert cut(v, FULL, F(1, 2)) == interval_set((0, "1/4"))

    @pytest.mark.parametrize("target", [F(-1, 2), F(3, 4)])
    def test_prefix_target_outside_zero_to_value_of_a(self, target):
        # v(A) = 1/2 for A = [0,1/2]
        with pytest.raises(BadParameter):
            prefix_with_value(uniform_valuation(), interval_set((0, "1/2")), target)

    def test_table_inversion_right_of_the_cantor_supports(self):
        # F = 1/2 at 1/2, so targets above 1/2 are met on the density alone
        v = make_valuation(
            density=[(civ("1/2", 1, False, True), F(1))],
            cantor_parts=[CantorComponent(civ(0, "1/2"), F(1, 3), F(1, 2))],
        )
        assert cut(v, FULL, F(3, 4)) == interval_set((0, "3/4"))
        pieces = slice_valuation(v, F(1, 5))
        assert len(pieces) == 5
        assert all(evaluate(v, p).value == F(1, 5) for p in pieces)

    def test_cut_with_sc_within_tol(self):
        v = cantor_valuation()
        tol = F(1, 2**30)
        piece = cut(v, FULL, F(1, 3), tol)
        got = evaluate(v, piece, tol)
        assert abs(got.midpoint - F(1, 3)) <= 2 * tol

    @pytest.mark.parametrize(
        "v",
        [
            cantor_valuation(F(1, 3)),
            cantor_valuation(F(1, 4)),
            cantor_valuation(F(1, 5)),
            load_valuation(bundled_config_path("cantor_mix")),  # atom at 1/3
        ],
        ids=["C_1/3", "C_1/4", "C_1/5", "cantor_mix"],
    )
    @pytest.mark.parametrize(
        "a",
        [
            interval_set((0, "1/4"), ("1/2", 1)),
            interval_set(
                ("1/10", "1/5", False, True), ("1/3", "1/2", False, False), ("3/4", 1)
            ),
        ],
        ids=["two_parts", "three_parts"],
    )
    def test_sc_cut_within_tol_on_sets(self, v, a):
        tol = F(1, 2**30)
        fine = tol / 2**10
        va = evaluate(v, a, fine)
        for alpha in (F(1, 3), F(1, 2), F(5, 6)):
            piece = cut(v, a, alpha, tol)
            assert piece == intersect(a, interval_set((0, piece.components[-1].hi)))
            got = evaluate(v, piece, fine)
            assert max(got.hi - alpha * va.lo, alpha * va.hi - got.lo) <= tol

    @settings(deadline=None, max_examples=100)
    @given(interval_sets(), small_fractions)
    def test_prefix_inversion_exact_and_minimal(self, a, share):
        # atoms outside A, at open ends of A and zero-density plateaus included
        v = rand_scfree_valuation(random.Random(str((a, share))))
        assume(not any(contains(a, loc) for loc, _ in v.atoms))
        va = evaluate(v, a).value
        target = share * va
        piece, c = prefix_with_value(v, a, target)
        assert evaluate(v, piece).value == target
        if target == 0:
            assert (piece, c) == (EMPTY, 0)
            return
        assert piece == intersect(a, interval_set((0, c)))
        if c > 0:
            earlier = intersect(a, interval_set((0, max(F(0), c - F(1, 10**9)))))
            assert evaluate(v, earlier).value < target
        if 0 < target < va:
            assert cut(v, a, share) == piece

    def test_prefix_stops_in_the_component_that_reaches_the_target(self):
        a = interval_set((0, "1/6"), ("1/2", 1))
        piece, c = prefix_with_value(fig2_valuation(), a, F(2, 17))
        assert (piece, c) == (interval_set((0, "1/6")), F(1, 6))

    def test_inversion_exact_or_certified(self):
        tol = F(1, 2**300)
        # the relative target 1/3 -> 2/3 -> 1/3 closes the descent exactly
        c4 = cantor_valuation(F(1, 4))
        piece, c = prefix_with_value(c4, FULL, F(1, 3), tol)
        assert (piece, c) == (interval_set((0, "3/11")), F(3, 11))
        assert cdf(c4, c).value == F(1, 3)
        # a density overlapping the Cantor support: no cycle, a certified point
        mix = load_valuation(bundled_config_path("cantor_mix"))
        a = interval_set(("1/2", 1))
        base = cdf(mix, F(1, 2), "left_limit").value
        target = F(1, 10)
        _, c = prefix_with_value(mix, a, target, tol)
        f = cdf(mix, c, tol=tol / 2**10)
        assert f.hi - f.lo <= tol / 2**10
        assert base + target - tol / 2 <= f.lo and f.hi <= base + target + tol / 2
        # a density far heavier than the Cantor part, and a target reached at
        # 1/4, a point of C_1/3: no gap ends the descent, the density bounds it
        w = F(1, 2**20)
        heavy = make_valuation(density=[(civ(0, 1), 1 - w)],
                               cantor_parts=[CantorComponent(civ(0, 1), F(1, 3), w)])
        t = (1 - w) / 4 + w / 3  # F(1/4)
        _, c = prefix_with_value(heavy, FULL, t)
        f = cdf(heavy, c, tol=DEFAULT_TOL / 2**10)
        assert t - DEFAULT_TOL / 2 <= f.lo and f.hi <= t + DEFAULT_TOL / 2

    def test_sc_target_next_to_an_atom_at_a_cell_end(self):
        # cantor_mix has its atom at 1/3, the right end of a level-1 cell of
        # C_1/3; all of [0,1/3) is reached at 1/3, left of the atom
        mix = load_valuation(bundled_config_path("cantor_mix"))
        a = interval_set((0, "1/3", True, False))
        assert prefix_with_value(mix, a, evaluate(mix, a).value) == (a, F(1, 3))

    @pytest.mark.parametrize("p", [F(1, 4), F(1, 5)])
    def test_sc_target_at_the_bracket_top_stays_in_a(self, p):
        # the top of v(A)'s bracket can exceed the true v(A); the cut must
        # still end inside A, not past its end
        v = cantor_valuation(p)
        tol = F(1, 2**10)
        l = (1 - p) / 2
        rng = random.Random(5)
        brackets = 0
        for _ in range(20):
            # k/97 of the way into a level-8 cell, so F(e) is a bracket
            start = sum(rng.randint(0, 1) * (1 - l) * l**i for i in range(8))
            e = start + l**8 * F(rng.randint(1, 96), 97)
            a = interval_set((0, e))
            va = evaluate(v, a, tol / 4)  # the brackets prefix_with_value reads
            brackets += not va.is_exact
            piece, c = prefix_with_value(v, a, va.hi, tol)
            assert c <= e and piece == intersect(a, interval_set((0, c)))
        assert brackets

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from([F(1, 3), F(1, 4), F(1, 5), F(2, 7)]),
        st.fractions(min_value=0, max_value=1, max_denominator=16).filter(bool),
        st.sampled_from([F(1), F(1, 2), F(1, 2**20)]),
    )
    def test_cantor_inversion_certified_minimal_and_exact(self, p, t, weight):
        # C_p of the given weight under a uniform density of the rest
        unit = civ(0, 1)
        density = [(unit, 1 - weight)] if weight < 1 else []
        v = make_valuation(density=density, cantor_parts=[CantorComponent(unit, p, weight)])
        tol = DEFAULT_TOL
        _, c = prefix_with_value(v, FULL, t, tol)
        f = cdf(v, c, tol=tol / 2**10)
        assert t - tol / 2 <= f.lo and f.hi <= t + tol / 2
        if c > F(1, 2**40):
            assert cdf(v, c - F(1, 2**40), tol=tol / 2**10).hi < t
        if weight == 1:
            assert f.value == t


def ref_two_reading_cut(v, A, alpha, tol=DEFAULT_TOL):
    """`cut` as it was when it read F at A's keys twice at the same width:
    v(A) by `_value_ints` at tol/4, then c by `_prefix_end`."""
    tol = valuation._check_tol(tol)
    alpha = F(alpha)
    if not (0 <= alpha <= 1):
        raise BadParameter(f"alpha {alpha} outside [0,1]")
    valuation._check_no_atoms(v, A)
    lo, hi, d = valuation._value_ints(v, A, tol / 4)
    if not hi:
        raise ZeroPiece(f"v(A) = 0 for A = {A}")
    if alpha == 0:
        return EMPTY
    if alpha == 1:
        return A
    tn, td = alpha.numerator * (lo + hi), alpha.denominator * 2 * d
    cn, cd = valuation._prefix_end(v, A, tn, td, tol)
    return _split(A, cn, cd)[0]


def cut_outcome(f, *args):
    """f(*args) as (type, den, keys), or the type and text of its error."""
    try:
        piece = f(*args)
    except CakeError as exc:
        return type(exc), str(exc)
    return type(piece), piece.den, piece.keys


CUT_RATIOS = [F(1, 3), F(1, 4), F(1, 5)]


@st.composite
def cut_valuations(draw):
    """Atom-free valuations: boxes on a grid partition, a density on some
    grid pieces, or such a density (maybe none) beside one C_p, p in
    CUT_RATIOS, on a grid support; scaled to mass 1."""
    kind = draw(st.sampled_from(["box", "density", "cantor", "cantor"]))
    points = sorted({F(0), F(1), *draw(st.lists(st.sampled_from(GRID), max_size=4))})
    if kind == "box":
        counts = draw(st.lists(st.integers(0, 5), min_size=len(points) - 1,
                               max_size=len(points) - 1).filter(any))
        return make_box_valuation(
            [(civ(a, b, a == 0), n) for a, b, n in zip(points, points[1:], counts)])
    pieces = [(civ(a, b, a == 0), F(draw(st.integers(1, 3))))
              for a, b in zip(points, points[1:]) if draw(st.booleans())]
    parts = []
    if kind == "cantor":
        a, b = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2, unique=True)))
        parts = [(civ(a, b), draw(st.sampled_from(CUT_RATIOS)), F(draw(st.integers(1, 4))))]
    elif not pieces:
        pieces = [(civ(0, 1), F(1))]
    total = sum(w for *_, w in parts) + sum(d * sup.length for sup, d in pieces)
    return make_valuation(
        density=[(sup, d / total) for sup, d in pieces],
        cantor_parts=[CantorComponent(sup, p, w / total) for sup, p, w in parts],
    )


@st.composite
def bracket_points(draw, v):
    """Points k/97 of the way into a level-n cell of v's Cantor part, for n
    from 50 to 64: past the walk's depth at every tol drawn here, so unless
    p = 1/3, F there is a bracket."""
    comp = v.cantor[0]
    n = draw(st.integers(50, 64))
    bits = draw(st.integers(0, 2**n - 1))
    l = (1 - comp.p) / 2
    y = sum((1 - l) * l**i for i in range(n) if bits >> i & 1)
    y += l**n * F(draw(st.integers(1, 96)), 97)
    return comp.support.lo + comp.support.length * y


@st.composite
def cut_cases(draw):
    """(v, A, alpha, tol): A a small set, a set on large denominators, a
    Cantor iterate, or, beside a Cantor part, a set between points of its
    support where F is a bracket; tol from 2^-12 to 2^-40."""
    v = draw(cut_valuations())
    if v.cantor and draw(st.booleans()):
        xs = draw(st.lists(st.one_of(cantor_points(v), bracket_points(v)), min_size=2, max_size=6))
        A = normalize([civ(*sorted(pair)) for pair in zip(xs[::2], xs[1::2])])
    else:
        A = draw(st.one_of(
            interval_sets().filter(bool),
            st.lists(big_intervals(), min_size=1, max_size=4).map(normalize),
            st.builds(lambda p, n: cantor_iterate(p, n).set,
                      st.sampled_from(CUT_RATIOS), st.integers(0, 5))))
    k = draw(st.integers(12, 40))
    tol = F(draw(st.sampled_from([1, 3])), 2**k) if k > 12 else F(1, 2**k)
    alpha = draw(st.one_of(small_fractions, st.sampled_from([F(0), F(1), F(1, 2)])))
    return v, A, alpha, tol


class TestOneReadingCut:
    """`cut` reads F at A's keys once and takes both v(A) and c from that
    reading; it cuts what the parent's two readings cut."""

    @settings(deadline=None, max_examples=200)
    @given(cut_cases())
    @example((cantor_valuation(F(1, 4)), interval_set((0, F(1, 3)), (F(1, 2), 1)), F(1, 3),
              F(1, 2**12))).via("brackets at both components")
    @example((uniform_valuation(), EMPTY, F(1, 2), DEFAULT_TOL)).via("the empty set")
    def test_matches_the_two_reading_cut(self, case):
        v, A, alpha, tol = case
        want = cut_outcome(ref_two_reading_cut, v, A, alpha, tol)
        assert cut_outcome(cut, v, A, alpha, tol) == want

    @pytest.mark.parametrize("alpha", [F(0), F(1, 3), F(1, 2), F(1)])
    @pytest.mark.parametrize(
        "v, A",
        [
            (uniform_valuation(), FULL),
            (cantor_valuation(F(1, 4)), interval_set((0, "1/4"), ("1/2", 1))),
            (load_valuation(bundled_config_path("cantor_mix")), interval_set(("1/2", 1))),
            (cantor_valuation(F(1, 3)), cantor_iterate(F(1, 3), 3).set),
            (uniform_valuation(), cantor_iterate(F(1, 4), 2).set),
        ],
        ids=["uniform", "C_1/4", "cantor_mix", "C_1/3_on_A_3", "uniform_on_A_2"],
    )
    def test_reads_f_once(self, v, A, alpha):
        calls = []
        read = valuation._cdf_at_keys

        def counted(*args):
            calls.append(args[2])
            return read(*args)

        with mock.patch.object(valuation, "_cdf_at_keys", counted):
            cut(v, A, alpha)
        assert calls == [A.keys]

    def test_a_zero_piece_is_read_once(self):
        v = make_box_valuation([(civ(0, "1/2", True, False), 1), (civ("1/2", 1), 0)])
        with mock.patch.object(valuation, "_cdf_at_keys", wraps=valuation._cdf_at_keys) as read:
            with pytest.raises(ZeroPiece, match=r"^v\(A\) = 0 for A = \[3/4,1\]$"):
                cut(v, interval_set(("3/4", 1)), F(1, 2))
        assert read.call_count == 1

    @pytest.mark.parametrize(
        "alpha, text",
        [(F(-1, 2), "alpha -1/2 outside [0,1]"), (F(3, 2), "alpha 3/2 outside [0,1]"),
         (2, "alpha 2 outside [0,1]")],
    )
    def test_alpha_outside_zero_one(self, alpha, text):
        with pytest.raises(BadParameter) as exc:
            cut(uniform_valuation(), FULL, alpha)
        assert str(exc.value) == text

    def test_atom_obstruction_text(self):
        with pytest.raises(AtomObstruction) as exc:
            cut(dirac_valuation(F(1, 2)), FULL, F(1, 2))
        assert str(exc.value) == "atoms obstruct the cut: {1/2} (weight 1)"


class TestSlice:
    def test_uniform_quarters(self):
        pieces = slice_valuation(uniform_valuation(), F(1, 4))
        assert len(pieces) == 4
        assert [total_length(p) for p in pieces] == [F(1, 4)] * 4

    def test_fig2_seventeenths(self):
        v = fig2_valuation()
        pieces = slice_valuation(v, F(1, 17))
        assert len(pieces) == 17
        assert all(evaluate(v, p).value == F(1, 17) for p in pieces)

    def test_not_sliceable(self):
        with pytest.raises(NotSliceable, match=r"^atoms too heavy to slice: \{1/2\} \(weight 1\)$"):
            slice_valuation(dirac_valuation(F(1, 2)), F(1, 2))
        mixed = make_valuation(
            atoms=[(F(1, 2), F(1, 4))],
            cantor_parts=[CantorComponent(civ(0, 1), F(1, 3), F(3, 4))],
        )
        beside = r"^atoms beside a Cantor part are not sliced: "
        with pytest.raises(NotSliceable, match=beside + r"\{1/2\} \(weight 1/4\)$"):
            slice_valuation(mixed, F(1, 2))
        # an atom lighter than ε is refused beside a Cantor part, not as too heavy
        light = make_valuation(
            atoms=[(F(1, 10), F(1, 8))],
            cantor_parts=[CantorComponent(civ(0, 1), F(1, 3), F(7, 8))],
        )
        with pytest.raises(NotSliceable, match=beside + r"\{1/10\} \(weight 1/8\)$"):
            slice_valuation(light, F(1, 3))

    @pytest.mark.parametrize("epsilon", [F(0), F(-1, 4)])
    def test_nonpositive_epsilon(self, epsilon):
        with pytest.raises(BadParameter):
            slice_valuation(uniform_valuation(), epsilon)

    def test_small_atoms_become_singletons(self):
        v = make_valuation(
            atoms=[(F(1, 2), F(1, 4))], density=[(civ(0, 1), F(3, 4))]
        )
        pieces = slice_valuation(v, F(1, 4))
        whole = EMPTY
        for p in pieces:
            val = evaluate(v, p).value
            assert 0 < val <= F(1, 4)
            assert intersect(whole, p).is_empty
            whole = union(whole, p)
        assert whole == FULL
        assert any(p == interval_set(("1/2", "1/2")) for p in pieces)

    def test_slicer_contract_random(self):
        rng = random.Random(42)
        for _ in range(40):
            v = rand_scfree_valuation(rng, allow_atoms=False)
            for eps in (F(1, 3), F(1, 5)):
                pieces = slice_valuation(v, eps)
                whole = EMPTY
                for p in pieces:
                    val = evaluate(v, p).value
                    assert 0 < val <= eps
                    assert intersect(whole, p).is_empty
                    whole = union(whole, p)
                assert whole == FULL

    def test_sc_slicing_within_tol(self):
        v = cantor_valuation()
        tol = F(1, 2**25)
        pieces = slice_valuation(v, F(1, 4), tol)
        whole = EMPTY
        for p in pieces:
            val = evaluate(v, p, tol)
            assert val.lo <= F(1, 4) + tol
            assert intersect(whole, p).is_empty
            whole = union(whole, p)
        assert whole == FULL
        # every certified hit advances by exactly ε: ⌈1/ε⌉ pieces, no sliver
        half = make_valuation(cantor_parts=[CantorComponent(civ(0, "1/2"), F(1, 3), F(1))])
        for v, eps, tol in (
            (cantor_valuation(), F(1, 17), F(1, 2**40)),
            (half, F(1, 5), F(1, 2**16)),
        ):
            pieces = slice_valuation(v, eps, tol)
            assert len(pieces) == ceil(1 / eps)
            for p in pieces:
                val = evaluate(v, p, tol)
                assert 0 < val.lo and val.hi <= eps + tol

    def test_two_cantor_supports_slice_exactly(self):
        # supports given right to left, a density between them: G is flat
        # on each support, so every cut closes an orbit and is exact
        v = make_valuation(
            density=[(civ("1/4", "3/4"), F(1, 2))],
            cantor_parts=[
                CantorComponent(civ("3/4", 1), F(1, 4), F(3, 8)),
                CantorComponent(civ(0, "1/4"), F(1, 3), F(3, 8)),
            ],
        )
        pieces = slice_valuation(v, F(1, 8))
        assert len(pieces) == 8
        assert pieces[0] == interval_set((0, "1/16"))  # F_1/3(1/4) = 1/3
        assert all(evaluate(v, p).value == F(1, 8) for p in pieces)
        assert intersect(pieces[3], interval_set(("1/4", "3/4"))) == pieces[3]

    def test_sc_slicing_with_tol_coarser_than_epsilon(self):
        # a stop within tol/4 past a target could reach the next target and
        # leave an empty piece; the descent stops within epsilon/4 instead
        v = cantor_valuation(F(1, 4))
        eps = F(1, 17)
        pieces = slice_valuation(v, eps, F(1, 2))
        assert len(pieces) == 17
        whole = EMPTY
        for p in pieces:
            val = evaluate(v, p, F(1, 2**30))
            assert eps * 3 / 4 <= val.lo and val.hi <= eps * 5 / 4
            whole = union(whole, p)
        assert whole == FULL

    def test_slicer_contract_random_with_atoms(self):
        rng = random.Random(5)
        for _ in range(150):
            v = rand_scfree_valuation(rng)
            for eps in (F(1, 3), F(1, 5), F(1, 6), F(1, 8)):
                if any(w > eps for _, w in v.atoms):
                    continue
                pieces = slice_valuation(v, eps)
                whole = EMPTY
                for p in pieces:
                    val = evaluate(v, p).value
                    assert 0 < val <= eps
                    assert intersect(whole, p).is_empty
                    whole = union(whole, p)
                assert whole == FULL


# The slicer that the one integer pass replaces, as its reference: one
# `Fraction` inversion per piece, here over the `Fraction` references above,
# and each piece built from its cuts through `ref_set_from_cuts`.

def ref_slice(v, epsilon, tol=DEFAULT_TOL):
    table = ref_breakpoint_table(v.atoms, v.density)
    tol = min(tol, epsilon)
    pieces = []
    start = (F(0), 0)
    consumed = F(0)  # F at the start cut
    while 1 - consumed > epsilon:
        t = consumed + epsilon
        c, g_left, g_at = ref_invert_sides(v, table, t, tol)
        if g_at > t and g_left > consumed:  # stop short of the atom at c
            end, f_end = (c, 0), g_left
        else:  # a hit, or a lone atom at c after a zero-mass run-up
            end, f_end = (c, 1), g_at
        pieces.append(ref_set_from_cuts((start, end)))
        start, consumed = end, f_end
    return pieces + [ref_set_from_cuts((start, (F(1), 1)))]


LIGHT_ATOM_OVER_A_DENSITY = make_valuation(
    atoms=[(F(1, 2), F(1, 8))], density=[(civ(0, 1), F(7, 8))]
)
HALF_CANTOR_UNDER_A_DENSITY = make_valuation(
    density=[(civ(0, 1), F(1, 2))],
    cantor_parts=[CantorComponent(civ(0, F(1, 2)), F(1, 4), F(1, 2))],
)


@st.composite
def slicing_cases(draw):
    """A sliceable valuation, ε and tol: light atoms at 0, at 1, at density
    ends and inside zero-density gaps or pieces; boxes, some of them empty;
    the large-denominator tables above; or C_p parts beside a density.  ε
    is raised to the weight of the heaviest atom, if lower."""
    kind = draw(st.integers(0, 3))
    tol = draw(st.sampled_from(TOLS))
    if kind == 0:
        return draw(cantor_mixes(with_atoms=False)), F(1, draw(st.integers(1, 12))), tol
    if kind == 1:
        v = draw(table_valuations())
    else:
        inner = draw(st.lists(st.sampled_from(GRID[1:-1]), max_size=5))
        points = sorted({F(0), F(1), *inner})
        counts = [draw(st.integers(0, 3)) for _ in points[1:]]
        assume(any(counts))
        supports = [civ(a, b, a == 0) for a, b in zip(points, points[1:])]
        v = make_box_valuation(zip(supports, counts))
        if kind == 3:  # some pieces dropped, so gaps; atoms at ends and inside
            middles = [(a + b) / 2 for a, b in zip(points, points[1:])]
            locs = draw(st.lists(st.sampled_from(points + middles), unique=True, max_size=4))
            atoms = [(a, F(draw(st.integers(1, 3)))) for a in locs]
            density = [(sup, d) for sup, d in v.density if draw(st.booleans())]
            total = sum(w for _, w in atoms) + sum(d * sup.length for sup, d in density)
            assume(total > 0)
            v = make_valuation(atoms=[(a, w / total) for a, w in atoms],
                               density=[(sup, d / total) for sup, d in density])
    eps = draw(st.sampled_from([F(1, n) for n in range(1, 41)] + [F(3, 7), F(2, 9)]))
    return v, max([eps, *(w for _, w in v.atoms)]), tol


class TestSlicePass:
    """The one integer pass of `_slice` against the `Fraction` loop it
    replaces: the same pieces, and every value it reports is `evaluate`'s."""

    @settings(deadline=None, max_examples=200)
    @given(slicing_cases())
    @example((LIGHT_ATOM_OVER_A_DENSITY, F(1, 8), DEFAULT_TOL))
    @example((LIGHT_ATOM_OVER_A_DENSITY, F(3, 16), DEFAULT_TOL))
    @example((TWO_PARTS_OVER_A_DENSITY, F(1, 7), F(1, 2**20)))
    @example((cantor_valuation(F(1, 4)), F(1, 17), F(1, 2)))
    @example((HALF_CANTOR_UNDER_A_DENSITY, F(1, 5), F(1, 2**20))).via(
        "a piece from a descended cut to a table cut has no known value")
    def test_pieces_match_the_fraction_loop(self, case):
        v, eps, tol = case
        pieces, values = _slice(v, eps, tol)
        expected = ref_slice(v, eps, tol)
        assert [(p.den, p.keys) for p in pieces] == [(p.den, p.keys) for p in expected]
        assert slice_valuation(v, eps, tol) == pieces
        assert len(values) == len(pieces)
        for piece, value in zip(pieces, values):
            if value is not None:
                assert _cdf_value(*value) == evaluate(v, piece, tol)
        if not v.cantor:  # every end is read off the table
            assert None not in values


# The parent's `_slice` pass, kept as the reference for the slicer that
# calls the shared `_invert`: its own scan of the Cantor parts, with a table
# of their ends and pointers to the part and the row that only move right.

def parent_invert_rows(table, a, b, lo):
    D, QD, X, GL, GA, R = table
    i = bisect_left(GA, -(-a // b), lo, len(X) - 1)
    if i == 0 or GL[i] * b <= a:
        return i, X[i], D, GL[i] * b, GA[i] * b
    return i, X[i - 1] * R[i - 1] * b + a - GA[i - 1] * b, D * R[i - 1] * b, a, a


def parent_slice(v, epsilon, tol):
    tol = min(tol, epsilon)
    table, parts = parent_table(v), v._parts
    # the B of `_slice`, so that the values compare as triples: a multiple of
    # the parent's, since v's QD is a multiple of the parent table's QD and
    # of every weight's denominator
    B = lcm(v._table.QD, epsilon.denominator)
    e, s = epsilon.numerator * (B // epsilon.denominator), B // table.QD
    ends = [(*_table_at_keys(table, E, (2 * T,)), w * (B // d)) for E, _, T, _, _, w, d in parts]
    pieces, values, hit = [], [], (e, e, B)
    sn, sd, sk, known = 0, 1, 0, True
    consumed = left = row = j = 0
    while B - consumed > e:
        t = consumed + e
        while j < len(parts) and ends[j][0][0] * B < (t - left - ends[j][2]) * ends[j][1]:
            left, j = left + ends[j][2], j + 1
        if j < len(parts):
            c = parent_descend(table, parts[j], F(t - left, B), tol)
            en, ed, ek, f_end, exact = c.numerator, c.denominator, 1, t, False
        else:
            row, en, ed, gl, ga = parent_invert_rows(table, t - left, s, row)
            gl, ga, g, exact = gl + left, ga + left, gcd(en, ed), True
            en, ed = en // g, ed // g
            ek, f_end = (0, gl) if ga > t and gl > consumed else (1, ga)
        L = lcm(sd, ed)
        pieces.append(_from_keys(L, (2 * sn * (L // sd) + sk, 2 * en * (L // ed) + ek)))
        value = hit if f_end == t else (f_end - consumed, f_end - consumed, B)
        values.append(value if known and exact else None)
        sn, sd, sk, known, consumed = en, ed, ek, exact, f_end
    pieces.append(_from_keys(sd, (2 * sn + sk, 2 * sd + 1)))
    values.append((B - consumed, B - consumed, B) if known else None)
    return pieces, values


@st.composite
def parent_slice_cases(draw):
    """ε from 1/2 to 1/40 and tol from 2^-12 to 2^-40, with a box
    valuation, a density on grid pieces with atoms of weight <= ε at their
    ends and inside them, or a density beside one or two C_p parts, p in
    {1/3, 1/4, 1/5}."""
    eps, tol = F(1, draw(st.integers(2, 40))), F(1, 2 ** draw(st.integers(12, 40)))
    points = sorted({F(0), F(1), *draw(st.lists(st.sampled_from(GRID[1:-1]), max_size=5))})
    counts = [draw(st.integers(0, 3)) for _ in points[1:]]
    supports = [civ(a, b, a == 0) for a, b in zip(points, points[1:])]
    kind = draw(st.integers(0, 2))
    if kind == 0:
        assume(any(counts))
        return make_box_valuation(zip(supports, counts)), eps, tol
    if kind == 1:
        middles = [(a + b) / 2 for a, b in zip(points, points[1:])]
        locs = draw(st.lists(st.sampled_from(points + middles), unique=True, max_size=4))
        atoms = [(a, eps * draw(st.integers(1, 4)) / 4) for a in locs]
        rest = 1 - sum(w for _, w in atoms)
        total = sum(n * sup.length for sup, n in zip(supports, counts))
        assume(rest >= 0 and (rest == 0) == (total == 0))
        density = [(sup, n * rest / total) for sup, n in zip(supports, counts) if n]
        return make_valuation(atoms=atoms, density=density), eps, tol
    n = draw(st.integers(1, 2))
    ends = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2 * n, max_size=2 * n,
                                unique=True)))
    parts = [(civ(a, b), draw(st.sampled_from([F(1, 3), F(1, 4), F(1, 5)])),
              F(draw(st.integers(1, 4)))) for a, b in zip(ends[::2], ends[1::2])]
    total = sum(w for *_, w in parts) + sum(n * sup.length for sup, n in zip(supports, counts))
    return make_valuation(
        density=[(sup, n / total) for sup, n in zip(supports, counts) if n],
        cantor_parts=[CantorComponent(sup, p, w / total) for sup, p, w in parts],
    ), eps, tol


class TestSharedInversion:
    """`_slice` and the cut queries find every end by the one `_invert`."""

    @settings(deadline=None, max_examples=200)
    @given(parent_slice_cases())
    @example((LIGHT_ATOM_OVER_A_DENSITY, F(1, 8), DEFAULT_TOL))
    @example((HALF_CANTOR_UNDER_A_DENSITY, F(1, 5), F(1, 2**20)))
    @example((cantor_valuation(F(1, 4)), F(1, 17), F(1, 2**12)))
    @example((make_valuation(density=[(civ(0, 1), F(3, 4))], cantor_parts=[
        CantorComponent(civ(F(1, 12), F(1, 11)), F(1, 3), F(1, 4))]), F(1, 16), F(1, 2**12))
    ).via("F reaches ε at the support's start")
    def test_slice_matches_the_parent_pass(self, case):
        v, eps, tol = case
        pieces, values = _slice(v, eps, tol)
        ref_pieces, ref_values = parent_slice(v, eps, tol)
        assert [(type(p), p.den, p.keys) for p in pieces] == [
            (type(p), p.den, p.keys) for p in ref_pieces]
        assert len(values) == len(ref_values)
        for piece, value, ref in zip(pieces, values, ref_values):
            if ref is not None:
                assert value == ref
            elif value is not None:
                # an end at a support's start comes off the table, where the
                # parent descended and reported no value
                assert _cdf_value(*value) == evaluate(v, piece, tol)

    def test_a_target_at_f_of_a_support_end_comes_off_the_table(self):
        """F(t-) = 3/4 at the end t = 1/2 of the Cantor support, and ε = 1/4
        has a target there: c = t comes off the table, with F(c-) = F(c) =
        3/4, so the piece after it has a known value.  The parent descended
        to the same end and knew no value."""
        v = HALF_CANTOR_UNDER_A_DENSITY
        assert valuation._invert(v, 3, 4, DEFAULT_TOL) == (1, 2, (3, 3))
        pieces, values = _slice(v, F(1, 4), DEFAULT_TOL)
        ref_pieces, ref_values = parent_slice(v, F(1, 4), DEFAULT_TOL)
        assert [(p.den, p.keys) for p in pieces] == [(p.den, p.keys) for p in ref_pieces]
        assert ref_values == [None] * 4
        assert values == [None, None, None, (1, 1, 4)]
        assert _cdf_value(*values[-1]) == evaluate(v, pieces[-1])

    @pytest.mark.parametrize("v, eps", [
        (fig2_valuation(), F(1, 17)),
        (LIGHT_ATOM_OVER_A_DENSITY, F(1, 8)),
        (HALF_CANTOR_UNDER_A_DENSITY, F(1, 5)),
        (TWO_PARTS_OVER_A_DENSITY, F(1, 7)),
    ])
    def test_slice_inverts_once_per_piece_but_the_last(self, v, eps):
        with mock.patch.object(valuation, "_invert", wraps=valuation._invert) as invert:
            pieces, _ = _slice(v, eps, DEFAULT_TOL)
        assert invert.call_count == len(pieces) - 1

    @pytest.mark.parametrize("v, A", [
        (fig2_valuation(), interval_set((0, "1/4"), ("1/3", "5/6"))),
        (cantor_valuation(F(1, 4)), interval_set(("1/8", "1/2"), ("2/3", 1))),
        (TWO_PARTS_OVER_A_DENSITY, FULL),
        (uniform_valuation(), cantor_iterate(F(1, 3), 3).set),
    ])
    @pytest.mark.parametrize("share", [F(1, 3), F(1, 2), F(1)])
    def test_a_cut_query_inverts_once(self, v, A, share):
        target = share * evaluate(v, A, F(1, 2**50)).lo
        with mock.patch.object(valuation, "_invert", wraps=valuation._invert) as invert:
            valuation._prefix_end(v, A, target.numerator, target.denominator, DEFAULT_TOL)
        assert invert.call_count == 1
