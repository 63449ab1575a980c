"""Fair-division protocols: golden runs, partition exactness, fairness checks."""

import random
from fractions import Fraction

import pytest

from cakecalc import (
    EMPTY,
    FULL,
    AtomObstruction,
    Allocation,
    BadParameter,
    CantorComponent,
    Interval,
    Player,
    check_envy_free,
    check_proportional,
    cut_and_choose,
    dirac_valuation,
    evaluate,
    intersect,
    interval_set,
    last_diminisher,
    make_box_valuation,
    make_valuation,
    moving_knife,
    uniform_valuation,
    union,
)
from conftest import rand_box_valuation

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
