"""Fair-division protocols: golden runs, partition exactness, fairness checks."""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cakecalc import (
    EMPTY,
    FULL,
    AtomObstruction,
    Allocation,
    BadParameter,
    CakeError,
    CantorComponent,
    Interval,
    Player,
    check_envy_free,
    check_proportional,
    cut,
    cut_and_choose,
    cantor_iterate,
    cantor_valuation,
    difference,
    dirac_valuation,
    evaluate,
    intersect,
    interval_set,
    last_diminisher,
    make_box_valuation,
    make_valuation,
    moving_knife,
    normalize,
    prefix_with_value,
    uniform_valuation,
    union,
)
from cakecalc import intervals, protocols, valuation
from cakecalc.intervals import rational_text
from cakecalc.valuation import _cdf_at_keys, _cdf_value, _check_no_atoms, _check_tol
from cakecalc.valuation import _prefix_end
from conftest import invert_at, rand_box_valuation, rand_scfree_valuation, ref_set_from_cuts

F = Fraction


def civ(lo, hi, lo_c=True, hi_c=True):
    return Interval(F(lo), F(hi), lo_c, hi_c)


def fig2_valuation():
    counts = [2, 1, 5, 2, 4, 3]
    return make_box_valuation(
        [(civ(F(i, 6), F(i + 1, 6), i == 0, True), counts[i]) for i in range(6)]
    )


def right_heavy_valuation():
    return make_box_valuation(
        [(civ(0, "1/2", True, False), 0), (civ("1/2", 1), 1)]
    )


def assert_partitions_cake(alloc: Allocation, n: int):
    assert sorted(alloc.pieces) == list(range(n))
    whole = EMPTY
    for piece in alloc.pieces.values():
        assert intersect(whole, piece).is_empty
        whole = union(whole, piece)
    assert whole == FULL


class TestCutAndChoose:
    def test_both_uniform(self):
        a = cut_and_choose(Player(0, uniform_valuation()), Player(1, uniform_valuation()))
        assert_partitions_cake(a, 2)
        for pid in (0, 1):
            own = evaluate(uniform_valuation(), a.pieces[pid]).value
            assert own == F(1, 2)
        # tie-break: the chooser prefers the left piece
        assert a.pieces[1] == interval_set((0, "1/2"))

    def test_right_heavy_chooser(self):
        p1 = Player(0, uniform_valuation())
        p2 = Player(1, right_heavy_valuation())
        a = cut_and_choose(p1, p2)
        assert evaluate(p2.valuation, a.pieces[1]).value == 1
        assert evaluate(p1.valuation, a.pieces[0]).value == F(1, 2)

    def test_fig2_cutter_halves_by_boxes(self):
        p1 = Player(0, fig2_valuation())
        p2 = Player(1, uniform_valuation())
        a = cut_and_choose(p1, p2)
        left = min(a.pieces.values(), key=lambda s: s.components[0].lo)
        assert evaluate(p1.valuation, left).value == F(1, 2)

    def test_atoms_rejected(self):
        with pytest.raises(AtomObstruction):
            cut_and_choose(Player(0, dirac_valuation(F(1, 2))), Player(1, uniform_valuation()))

    def test_bad_ids(self):
        with pytest.raises(BadParameter):
            cut_and_choose(Player(0, uniform_valuation()), Player(0, uniform_valuation()))


class TestLastDiminisher:
    def test_three_uniform(self):
        players = [Player(i, uniform_valuation()) for i in range(3)]
        a = last_diminisher(players)
        assert_partitions_cake(a, 3)
        assert a.pieces[0] == interval_set((0, "1/3"))
        # final round: player 1 halves the remainder, player 2 ties and
        # therefore takes the left piece
        assert a.pieces[2] == interval_set(("1/3", "2/3", False, True))
        assert a.pieces[1] == interval_set(("2/3", 1, False, True))
        assert check_proportional(a, players)["proportional"]
        assert check_envy_free(a, players)["envy_free"]

    def test_two_players_reduces_to_cut_and_choose(self):
        players = [Player(0, fig2_valuation()), Player(1, uniform_valuation())]
        a = last_diminisher(players)
        b = cut_and_choose(players[0], players[1])
        assert a.pieces == b.pieces

    def test_mixed_valuations_proportional(self):
        mix = make_valuation(
            density=[(civ(0, 1), F(1, 2))],
            cantor_parts=[CantorComponent(civ(0, 1), F(1, 3), F(1, 2))],
        )
        players = [
            Player(0, uniform_valuation()),
            Player(1, fig2_valuation()),
            Player(2, mix),
        ]
        a = last_diminisher(players)
        assert_partitions_cake(a, 3)
        assert check_proportional(a, players)["proportional"]

    def test_deterministic(self):
        rng = random.Random(9)
        vals = [rand_box_valuation(rng) for _ in range(4)]
        players = [Player(i, v) for i, v in enumerate(vals)]
        a1 = last_diminisher(players)
        a2 = last_diminisher([Player(i, v) for i, v in enumerate(vals)])
        assert a1.pieces == a2.pieces and a1.trace == a2.trace


class TestMovingKnife:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_uniform_equal_split(self, n):
        players = [Player(i, uniform_valuation()) for i in range(n)]
        a = moving_knife(players)
        assert_partitions_cake(a, n)
        for pid, piece in a.pieces.items():
            assert evaluate(uniform_valuation(), piece).value == F(1, n)

    def test_uniform_vs_right_heavy(self):
        players = [Player(0, uniform_valuation()), Player(1, right_heavy_valuation())]
        a = moving_knife(players)
        # the uniform player's mark at 1/2 precedes the other's at 3/4
        assert a.pieces[0] == interval_set((0, "1/2"))
        assert evaluate(players[1].valuation, a.pieces[1]).value == 1

    def test_deterministic(self):
        rng = random.Random(21)
        vals = [rand_box_valuation(rng) for _ in range(5)]
        players = [Player(i, v) for i, v in enumerate(vals)]
        a1 = moving_knife(players)
        a2 = moving_knife([Player(i, v) for i, v in enumerate(vals)])
        assert a1.pieces == a2.pieces and a1.trace == a2.trace


@pytest.mark.parametrize("protocol", [last_diminisher, moving_knife])
def test_one_player_rejected(protocol):
    with pytest.raises(BadParameter):
        protocol([Player(0, uniform_valuation())])


class TestFairnessChecks:
    def test_random_box_proportionality(self):
        rng = random.Random(100)
        for _ in range(25):
            n = rng.randint(2, 6)
            players = [Player(i, rand_box_valuation(rng)) for i in range(n)]
            for proto in (last_diminisher, moving_knife):
                a = proto(players)
                assert_partitions_cake(a, n)
                rep = check_proportional(a, players)
                assert rep["proportional"], (proto.__name__, rep)
                for pid, verdict in rep["players"].items():
                    assert verdict["value"].value >= F(1, n)

    def test_cut_and_choose_halves_random(self):
        rng = random.Random(200)
        for _ in range(50):
            players = [Player(i, rand_box_valuation(rng)) for i in range(2)]
            a = cut_and_choose(players[0], players[1])
            for pid in (0, 1):
                own = evaluate(players[pid].valuation, a.pieces[pid]).value
                assert own >= F(1, 2)

    def test_skewed_allocation_fails(self):
        players = [Player(0, uniform_valuation()), Player(1, uniform_valuation())]
        skew = Allocation(
            "manual",
            {
                0: interval_set((0, "9/10")),
                1: interval_set(("9/10", 1, False, True)),
            },
        )
        prop = check_proportional(skew, players)
        assert not prop["proportional"]
        assert not prop["players"][1]["ok"]
        envy = check_envy_free(skew, players)
        assert envy["envy"] == [(1, 0)]

    def test_envy_needs_more_than_tol(self):
        # player 0 values the other piece at exactly their own value plus tol
        players = [Player(0, uniform_valuation()), Player(1, uniform_valuation())]
        split = Allocation(
            "manual", {0: interval_set((0, "3/8")), 1: interval_set(("3/8", 1, False, True))}
        )
        report = check_envy_free(split, players, F(1, 4))
        assert report == ref_check_envy_free(split, players, F(1, 4))
        assert report["envy"] == [] and report["envy_free"]


# The parent's cut query and protocols, kept as references for the integer
# versions: `prefix_with_value` clamped its cut with `Fraction` min/max and
# built [0,c] from its cuts (`ref_set_from_cuts`), `moving_knife` built
# every player's piece, and values were compared by their midpoints.

def ref_prefix_with_value(v, A, target, tol):
    tol = _check_tol(tol)
    target = F(target)
    if target < 0:
        raise BadParameter(f"target {target} is negative")
    _check_no_atoms(v, A)
    if target == 0:
        return EMPTY, F(0)
    keys = A.keys
    lo, hi, d = _cdf_at_keys(v, A.den, keys, tol, 4 * max(2, len(keys)))
    n, m = 2 * d * target.numerator, target.denominator
    below_lo = below_hi = 0
    for i in range(0, len(keys), 2):
        base = lo[i] + hi[i]
        upto_lo, upto_hi = below_lo + lo[i + 1] - hi[i], below_hi + hi[i + 1] - lo[i]
        if (upto_lo + upto_hi) * m >= n or (i + 2 == len(keys) and n <= 2 * upto_hi * m):
            c, _ = invert_at(v, F(n - (below_lo + below_hi - base) * m, 2 * d * m), tol)
            c = min(max(c, F(keys[i] >> 1, A.den)), F(keys[i + 1] >> 1, A.den))
            return intersect(A, ref_set_from_cuts(((F(0), 0), (c, 1)))), c
        below_lo, below_hi = upto_lo, upto_hi
    raise BadParameter(f"target {target} exceeds v(A)")


def ref_value(player, piece, tol):
    return evaluate(player.valuation, piece, tol).midpoint


def ref_choose_and_cut(cutter, chooser, cake, tol, trace):
    left = cut(cutter.valuation, cake, F(1, 2), tol)
    right = difference(cake, left)
    trace.append({"event": "cut", "player": cutter.id, "piece": str(left)})
    takes_right = ref_value(chooser, right, tol) > ref_value(chooser, left, tol)
    chosen, rest = (right, left) if takes_right else (left, right)
    trace.append({"event": "choose", "player": chooser.id, "piece": str(chosen)})
    return {chooser.id: chosen, cutter.id: rest}


def ref_cut_and_choose(p1, p2, tol):
    trace = []
    return Allocation("cut_and_choose", ref_choose_and_cut(p1, p2, FULL, tol, trace), trace)


def ref_last_diminisher(players, tol):
    share = F(1, len(players))
    trace, pieces, remaining, active = [], {}, FULL, sorted(players, key=lambda p: p.id)
    while len(active) > 2:
        cutter = active[0]
        piece, pos = ref_prefix_with_value(cutter.valuation, remaining, share, tol)
        trace.append({"event": "cut", "player": cutter.id, "position": rational_text(pos)})
        holder = cutter
        for pl in active[1:]:
            if ref_value(pl, piece, tol) > share:
                piece, pos = ref_prefix_with_value(pl.valuation, piece, share, tol)
                trace.append(
                    {"event": "diminish", "player": pl.id, "position": rational_text(pos)}
                )
                holder = pl
        pieces[holder.id] = piece
        trace.append({"event": "take", "player": holder.id, "piece": str(piece)})
        remaining = difference(remaining, piece)
        active = [p for p in active if p.id != holder.id]
    pieces.update(ref_choose_and_cut(active[0], active[1], remaining, tol, trace))
    return Allocation("last_diminisher", pieces, trace)


def ref_moving_knife(players, tol):
    share = F(1, len(players))
    trace, pieces, remaining, active = [], {}, FULL, sorted(players, key=lambda p: p.id)
    while len(active) > 1:
        marks = []
        for pl in active:
            piece, pos = ref_prefix_with_value(pl.valuation, remaining, share, tol)
            marks.append((pos, pl.id, piece))
        pos, winner_id, piece = min(marks, key=lambda m: (m[0], m[1]))
        trace.append({"event": "claim", "player": winner_id, "position": rational_text(pos)})
        pieces[winner_id] = piece
        remaining = difference(remaining, piece)
        active = [p for p in active if p.id != winner_id]
    pieces[active[0].id] = remaining
    trace.append({"event": "take_rest", "player": active[0].id, "piece": str(remaining)})
    return Allocation("moving_knife", pieces, trace)


def ref_check_proportional(alloc, players, tol):
    share = F(1, len(players))
    verdicts = {}
    for pl in players:
        val = evaluate(pl.valuation, alloc.pieces[pl.id], tol)
        verdicts[pl.id] = {"value": val, "ok": val.lo >= share - tol}
    return {
        "threshold": share,
        "players": verdicts,
        "proportional": all(v["ok"] for v in verdicts.values()),
    }


def ref_check_envy_free(alloc, players, tol):
    values = {
        (i.id, j): evaluate(i.valuation, alloc.pieces[j], tol)
        for i in players
        for j in alloc.pieces
    }
    envy = [
        (i.id, j)
        for i in players
        for j in alloc.pieces
        if j != i.id and values[(i.id, j)].lo > values[(i.id, i.id)].hi + tol
    ]
    return {"values": values, "envy": envy, "envy_free": not envy}


def ref_verdicts(values, players, pieces, tol):
    """The parent's `Fraction` rule on the triples of a value matrix:
    proportional iff lo >= 1/n - tol, envy iff lo_ij > hi_ii + tol."""
    share = F(1, len(players))
    ok, envy = {}, []
    for i in players:
        own = _cdf_value(*values[i.id, i.id])
        ok[i.id] = own.lo >= share - tol
        envy += [(i.id, j) for j in pieces
                 if j != i.id and _cdf_value(*values[i.id, j]).lo > own.hi + tol]
    return ok, envy


CHECKS = (check_proportional, check_envy_free)
REF_CHECKS = (ref_check_proportional, ref_check_envy_free)


def run_and_check(protocol, checks, players, tol):
    """The allocation's pieces, as (den, keys), its trace and both fairness
    reports by `checks`, or the error the run raised."""
    try:
        alloc = protocol(players, tol)
    except CakeError as exc:
        return type(exc), str(exc)
    pieces = {i: (s.den, s.keys) for i, s in alloc.pieces.items()}
    return (alloc.protocol, pieces, alloc.trace, *(check(alloc, players, tol) for check in checks))


def prefix_outcome(f, v, a, target, tol):
    try:
        piece, c = f(v, a, target, tol)
    except CakeError as exc:
        return type(exc), str(exc)
    return (piece.den, piece.keys), c


GRID = sorted({F(k, d) for d in range(1, 13) for k in range(d + 1)})


@st.composite
def cantor_mixes(draw):
    """Density pieces on a grid partition under one C_1/3 or C_1/4 on a
    grid support, scaled to mass 1; no atoms."""
    a, b = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2, unique=True)))
    weight = F(draw(st.integers(1, 4)))
    points = sorted({F(0), F(1), *draw(st.lists(st.sampled_from(GRID), max_size=3))})
    pieces = [(civ(lo, hi, lo == 0), F(draw(st.integers(0, 3))))
              for lo, hi in zip(points, points[1:])]
    total = weight + sum(d * sup.length for sup, d in pieces)
    return make_valuation(
        density=[(sup, d / total) for sup, d in pieces],
        cantor_parts=[CantorComponent(civ(a, b), draw(st.sampled_from([F(1, 3), F(1, 4)])),
                                      weight / total)],
    )


randoms = st.randoms(use_true_random=False)
atomless_valuations = st.one_of(
    randoms.map(rand_box_valuation),
    randoms.map(lambda rng: rand_scfree_valuation(rng, allow_atoms=False)),
    cantor_mixes(),
)
# large tolerances widen the brackets, so that midpoint targets miss their
# component and the cut is clamped to it
TOLS = [F(1, 2**40), F(1, 2**12), F(1, 64), F(1, 4), F(1, 2)]


class TestAgainstTheParentProtocols:
    """The cut query without `Fraction` clamps, marks that build no piece
    and comparisons without midpoints give the parent's pieces, positions,
    traces, values and verdicts."""

    @settings(deadline=None, max_examples=60)
    @given(st.lists(atomless_valuations, min_size=2, max_size=4), st.sampled_from(TOLS))
    def test_protocols_match_the_parent(self, vals, tol):
        players = [Player(i, v) for i, v in enumerate(vals)]
        for new, ref in ((moving_knife, ref_moving_knife), (last_diminisher, ref_last_diminisher)):
            assert run_and_check(new, CHECKS, players, tol) == run_and_check(
                ref, REF_CHECKS, players, tol)
        two = players[:2]
        assert run_and_check(lambda ps, t: cut_and_choose(*ps, t), CHECKS, two, tol) == (
            run_and_check(lambda ps, t: ref_cut_and_choose(*ps, t), REF_CHECKS, two, tol))

    @settings(deadline=None, max_examples=100)
    @given(atomless_valuations, st.lists(st.sampled_from(GRID), min_size=2, max_size=6),
           st.lists(st.sampled_from(GRID[1:]), min_size=1, max_size=3), st.sampled_from(TOLS))
    # midpoint targets that the cut reaches left of the component's start
    # and right of its end, so that it is clamped on both sides
    @example(cantor_valuation(F(1, 4)), [F(30011, 110000), F(1)], [F(1, 192)], F(1, 4))
    @example(cantor_valuation(F(1, 4)), [F(0), F(13, 40), F(3, 5), F(17, 20)], [F(21, 32)],
             F(1, 2))
    def test_cut_query_matches_the_parent(self, v, points, shares, tol):
        a = normalize(civ(*sorted(pair)) for pair in zip(points[::2], points[1::2]))
        va = evaluate(v, a, tol / 4)
        for target in [s * va.midpoint for s in shares] + [va.lo, va.hi, va.hi + F(1, 7)]:
            assert prefix_outcome(prefix_with_value, v, a, target, tol) == prefix_outcome(
                ref_prefix_with_value, v, a, target, tol)

    @settings(deadline=None, max_examples=100)
    @given(atomless_valuations, st.lists(st.sampled_from(GRID), min_size=2, max_size=6),
           st.lists(st.sampled_from(GRID), min_size=1, max_size=3), st.sampled_from(TOLS))
    @example(cantor_valuation(F(1, 4)), [F(30011, 110000), F(1)], [F(1, 192)], F(1, 4))
    @example(cantor_valuation(F(1, 4)), [F(0), F(13, 40), F(3, 5), F(17, 20)], [F(21, 32)],
             F(1, 2))
    def test_cut_query_returns_the_reduced_point(self, v, points, shares, tol):
        # the parent's c as a pair in lowest terms, clamped cuts included
        a = normalize(civ(*sorted(pair)) for pair in zip(points[::2], points[1::2]))
        va = evaluate(v, a, tol / 4)
        for target in [s * va.midpoint for s in shares]:
            try:
                _, c = ref_prefix_with_value(v, a, target, tol)
            except BadParameter:
                continue
            cn, cd = _prefix_end(v, a, target.numerator, target.denominator, _check_tol(tol))
            assert cd > 0 and gcd(cn, cd) == 1
            assert (cn, cd) == (c.numerator, c.denominator)

    @pytest.mark.parametrize("points, target, tol, side", [
        ([F(30011, 110000), F(1)], F(1, 192), F(1, 4), 0),
        ([F(0), F(13, 40), F(3, 5), F(17, 20)], F(21, 32), F(1, 2), 3),
    ])
    def test_clamped_cuts(self, points, target, tol, side):
        # the cut lands on a component end: the start of [30011/110000, 1],
        # where F is a bracket around 1/3 and the target's cut is 3/11, and
        # the end of [3/5, 17/20]
        v = cantor_valuation(F(1, 4))
        a = normalize(civ(*pair) for pair in zip(points[::2], points[1::2]))
        piece, c = prefix_with_value(v, a, target, tol)
        assert c == points[side]
        assert (piece, c) == ref_prefix_with_value(v, a, target, tol)


ROUND_PLAYERS = [uniform_valuation(), fig2_valuation(), right_heavy_valuation(),
                 cantor_valuation(F(1, 4)), uniform_valuation()]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_rounds_split_the_cake_without_intersect(n):
    """A moving-knife or last-diminisher round takes its piece and the cake
    left after it from one `_split`, with no `intersect` call; only the
    final cut-and-choose of the last diminisher intersects.  With n
    players the moving knife makes n(n+1)/2 - 1 cut queries."""
    players = [Player(i, v) for i, v in enumerate(ROUND_PLAYERS[:n])]
    knife, rounds = moving_knife(players), last_diminisher(players)
    queries = []

    def counted(*args):
        queries.append(args)
        return prefix_end(*args)

    prefix_end = protocols._prefix_end
    with mock.patch.object(intervals, "intersect", side_effect=AssertionError("intersect")):
        with mock.patch.object(protocols, "_prefix_end", counted):
            assert moving_knife(players) == knife
        with mock.patch.object(protocols, "_choose_and_cut", return_value={}) as last_two:
            got = last_diminisher(players)
    assert len(queries) == n * (n + 1) // 2 - 1
    assert got.pieces == {i: s for i, s in rounds.pieces.items() if i in got.pieces}
    assert got.trace == rounds.trace[:len(got.trace)] and len(got.pieces) == n - 2
    (*_, cake, _, _), _ = last_two.call_args
    assert union(cake, normalize(c for s in got.pieces.values() for c in s)) == FULL


def assert_matrix_is_per_pair(alloc, players, tol):
    """`_value_matrix` equals `evaluate` of every (player, piece) pair, brackets
    included, and makes one `_table_at_keys` sweep per player without a
    Cantor part (`_cdf_at_keys` sweeps too, for a player with one); both
    checks equal their per-pair references."""
    sweeps = []

    def counted(*args):
        sweeps.append(args)
        return table_at_keys(*args)

    table_at_keys = valuation._table_at_keys
    with mock.patch.object(valuation, "_table_at_keys", counted):
        values = valuation._value_matrix({pl.id: pl.valuation for pl in players}, alloc.pieces,
                                         tol)
    tables = [pl.valuation._table for pl in players if not pl.valuation.cantor]
    ref = {(i.id, j): evaluate(i.valuation, s, tol)
           for i in players for j, s in alloc.pieces.items()}
    assert list(values) == list(ref)
    for pair, value in ref.items():  # CdfValue's == compares (lo, hi)
        got = _cdf_value(*values[pair])
        assert (got.lo, got.hi) == (value.lo, value.hi), pair
    assert sum(any(table is t for t in tables) for table, *_ in sweeps) == len(tables)
    assert check_proportional(alloc, players, tol) == ref_check_proportional(alloc, players, tol)
    assert check_envy_free(alloc, players, tol) == ref_check_envy_free(alloc, players, tol)


def matrix(n, own, other):
    """The value matrix of n players who all value their own piece at the
    triple `own` and every other piece at `other`."""
    return {(i, j): own if i == j else other for i in range(n) for j in range(n)}


def players_of(n):
    return [Player(i, uniform_valuation()) for i in range(n)]


def assert_verdicts(values, players, tol):
    got = protocols._verdicts(values, players, range(len(players)), tol)
    assert got == ref_verdicts(values, players, range(len(players)), tol)
    return got


VERDICT_TOLS = [F(1, 2**40), F(3, 64), F(1, 24)]  # all below 1/12, so 1/n - tol > 0


class TestIntegerVerdicts:
    """`_verdicts` decides both verdicts by one integer rule; at and one
    unit of the denominator either side of each threshold, on exact values
    and on brackets, it agrees with the `Fraction` rule."""

    @pytest.mark.parametrize("n", [2, 3, 5, 12])
    @pytest.mark.parametrize("tol", VERDICT_TOLS)
    @pytest.mark.parametrize("k", [1, 3])  # triples in lowest terms or not
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_exact_own_values_at_one_over_n_less_tol(self, n, tol, k, delta):
        tn, td = tol.numerator, tol.denominator
        d = n * td * k
        lo = (td - n * tn) * k + delta  # 1/n - tol over d, moved by delta
        ok, _ = assert_verdicts(matrix(n, (lo, lo, d), (0, 0, 1)), players_of(n), tol)
        assert ok == {i: delta >= 0 for i in range(n)}

    @pytest.mark.parametrize("tol", VERDICT_TOLS)
    @pytest.mark.parametrize("own, scale", [((1, 1, 3), 1), ((2, 2, 7), 5), ((4, 4, 9), 2)])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_exact_values_at_the_own_value_plus_tol(self, tol, own, scale, delta):
        tn, td = tol.numerator, tol.denominator
        hi, d = own[1], own[2]
        d_j = d * td * scale  # another denominator than the own value's
        lo_j = (hi * td + tn * d) * scale + delta  # hi/d + tol over d_j, moved by delta
        _, envy = assert_verdicts(matrix(3, own, (lo_j, lo_j, d_j)), players_of(3), tol)
        assert envy == ([(i, j) for i in range(3) for j in range(3) if i != j] if delta > 0
                        else [])

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_brackets(self, delta):
        # proportionality reads the own value's lo, envy its hi and the
        # other value's lo, whatever the other ends are
        tol, n = F(1, 64), 4
        d = n * 64 * 3
        lo = (64 - n) * 3 + delta
        own = (lo, lo + 40, d)
        d_j = d * 64 * 7
        lo_j = ((lo + 40) * 64 + d) * 7 + delta
        ok, envy = assert_verdicts(matrix(n, own, (lo_j, lo_j + 11, d_j)), players_of(n), tol)
        assert ok == {i: delta >= 0 for i in range(n)}
        assert bool(envy) is (delta > 0)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(2, 5), st.sampled_from(VERDICT_TOLS), st.data())
    def test_triples_near_both_thresholds(self, n, tol, data):
        tn, td = tol.numerator, tol.denominator
        near = st.integers(-2, 2)
        values = {}
        for i in range(n):
            k = data.draw(st.sampled_from([1, 2, 3, 2**40]))
            d = n * td * k
            lo = (td - n * tn) * k + data.draw(near)
            hi = min(lo + data.draw(st.sampled_from([0, 0, 1, 5, d])), d)
            values[i, i] = (lo, hi, d)
            for j in range(n):
                if j != i:
                    k2 = data.draw(st.sampled_from([1, 2, 7]))
                    d_j = d * td * k2
                    lo_j = max(0, min((hi * td + tn * d) * k2 + data.draw(near), d_j))
                    hi_j = min(lo_j + data.draw(st.sampled_from([0, 1, 3])), d_j)
                    values[i, j] = (lo_j, hi_j, d_j)
        assert_verdicts(values, players_of(n), tol)

    @pytest.mark.parametrize("c", [F(3, 8) - F(1, 64), F(3, 8), F(3, 8) + F(1, 64),
                                   F(7, 16) - F(1, 64), F(7, 16), F(7, 16) + F(1, 64)])
    def test_checks_at_the_thresholds(self, c):
        # two uniform players, [0,c] and (c,1], tol 1/8: player 0 is
        # proportional iff c >= 1/2 - 1/8, and envies player 1 iff
        # 1 - c > c + 1/8, that is, iff c < 7/16
        players, tol = players_of(2), F(1, 8)
        split = Allocation("manual", {0: interval_set((0, c)), 1: interval_set((c, 1, False))})
        prop, envy = check_proportional(split, players, tol), check_envy_free(split, players, tol)
        assert prop == ref_check_proportional(split, players, tol)
        assert envy == ref_check_envy_free(split, players, tol)
        assert prop["players"][0]["ok"] is (c >= F(3, 8))
        assert ((0, 1) in envy["envy"]) is (c < F(7, 16))

    def test_a_cantor_player_with_a_d_for_each_piece(self):
        # C_1/4 at tol 1/1024 walks each piece to a depth set by its own key
        # count, so its brackets come over different denominators
        players = [Player(0, cantor_valuation(F(1, 4))), Player(1, uniform_valuation()),
                   Player(2, cantor_valuation(F(1, 3)))]
        pieces = {0: interval_set((0, "4/45")),
                  1: normalize([civ(F(4, 45), F(1, 2), False), civ(F(3, 5), F(7, 10))]),
                  2: normalize([civ(F(1, 2), F(3, 5), False), civ(F(7, 10), 1, False)])}
        alloc, tol = Allocation("manual", pieces), F(1, 1024)
        values = valuation._value_matrix({pl.id: pl.valuation for pl in players}, alloc.pieces,
                                         tol)
        assert len({values[0, j][2] for j in pieces}) == 3
        assert any(values[0, j][0] < values[0, j][1] for j in pieces)
        assert protocols._verdicts(values, players, pieces, tol) == ref_verdicts(
            values, players, pieces, tol)
        assert check_proportional(alloc, players, tol) == ref_check_proportional(
            alloc, players, tol)
        assert check_envy_free(alloc, players, tol) == ref_check_envy_free(alloc, players, tol)


c_p_players = st.one_of(st.sampled_from([F(1, 3), F(1, 4)]).map(cantor_valuation), cantor_mixes())
matrix_players = st.one_of(atomless_valuations, c_p_players)
hand_pieces = st.one_of(
    st.lists(st.sampled_from(GRID), max_size=6).map(
        lambda points: normalize(civ(*sorted(pair)) for pair in zip(points[::2], points[1::2]))),
    st.just(EMPTY),
    st.builds(lambda p, n: cantor_iterate(p, n).set,
              st.sampled_from([F(1, 3), F(1, 4)]), st.integers(0, 4)),
)


class TestValueMatrix:
    """The value matrix of the envy check and the CLI: one sweep of the
    merged cuts per player without a Cantor part, and `evaluate` for the
    others, equal to `evaluate` of every pair."""

    @settings(deadline=None, max_examples=40)
    @given(st.lists(matrix_players, min_size=2, max_size=4), st.sampled_from(TOLS))
    def test_protocol_allocations(self, vals, tol):
        players = [Player(i, v) for i, v in enumerate(vals)]
        runs = [lambda: moving_knife(players, tol), lambda: last_diminisher(players, tol),
                lambda: cut_and_choose(players[0], players[1], tol)]
        for run in runs:
            try:
                alloc = run()
            except CakeError:
                continue
            two = players if alloc.protocol != "cut_and_choose" else players[:2]
            assert_matrix_is_per_pair(alloc, two, tol)

    @settings(deadline=None, max_examples=80)
    @given(st.lists(st.one_of(matrix_players, randoms.map(rand_scfree_valuation)),
                    min_size=1, max_size=4),
           st.data(), st.sampled_from(TOLS))
    def test_hand_made_allocations(self, vals, data, tol):
        # overlapping pieces, EMPTY and Cantor iterates: no partition needed
        players = [Player(i, v) for i, v in enumerate(vals)]
        pieces = {i: data.draw(hand_pieces) for i in range(len(vals))}
        assert_matrix_is_per_pair(Allocation("manual", pieces), players, tol)

    def test_brackets(self):
        # C_1/4 at 4/45 does not close within 1/1024: its values are brackets
        players = [Player(0, cantor_valuation(F(1, 4))), Player(1, uniform_valuation())]
        pieces = {0: interval_set((0, "4/45")), 1: interval_set(("4/45", 1, False, True))}
        alloc = Allocation("manual", pieces)
        assert_matrix_is_per_pair(alloc, players, F(1, 1024))
        lo, hi, _ = valuation._value_matrix({pl.id: pl.valuation for pl in players},
                                            alloc.pieces, F(1, 1024))[0, 0]
        assert lo < hi

    def test_a_tolerance_of_zero_is_refused(self):
        players = [Player(0, uniform_valuation()), Player(1, uniform_valuation())]
        alloc = moving_knife(players)
        for check in (check_proportional, check_envy_free):
            with pytest.raises(CakeError, match="tolerance 0 must be positive"):
                check(alloc, players, 0)
        with pytest.raises(CakeError, match="tolerance 0 must be positive"):
            valuation._value_matrix({pl.id: pl.valuation for pl in players}, alloc.pieces, 0)
