"""Devil's staircase evaluation: exact p=1/3 path, orbit cycles for every p,
brackets, digit-map and cell oracles."""

import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from cakecalc.cantor import check_ratio, staircase_bracket
from cakecalc.errors import BadParameter
from conftest import staircase_digit_oracle

F = Fraction
THIRD = F(1, 3)  # the one ratio whose walk needs no depth bound


class TestExactThird:
    @pytest.mark.parametrize(
        "y,expected",
        [
            (F(0), F(0)),
            (F(1), F(1)),
            (F(1, 3), F(1, 2)),
            (F(2, 3), F(1, 2)),
            (F(1, 2), F(1, 2)),
            (F(1, 4), F(1, 3)),
            (F(3, 4), F(2, 3)),
            (F(1, 9), F(1, 4)),
            (F(8, 9), F(3, 4)),
        ],
    )
    def test_known_values(self, y, expected):
        assert staircase_bracket(THIRD, y, None) == (expected, expected)

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(200):
            y = F(rng.randint(0, 1000), 1000)
            lo, hi = staircase_bracket(THIRD, y, None)
            assert lo == hi and lo + staircase_bracket(THIRD, 1 - y, None)[0] == 1

    def test_monotone(self):
        vals = [staircase_bracket(THIRD, F(k, 500), None)[0] for k in range(501)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_agrees_with_digit_map_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            den = rng.randint(1, 10**4)
            y = F(rng.randint(0, den), den)
            expected = staircase_digit_oracle(y)
            assert staircase_bracket(THIRD, y, None) == (expected, expected)


class TestBrackets:
    def test_bracket_width(self):
        lo, hi = staircase_bracket(F(1, 4), F(1, 5), 20)
        assert hi - lo <= F(1, 2**20)

    def test_nesting(self):
        rng = random.Random(3)
        for p in (F(1, 3), F(1, 4), F(1, 5)):
            for _ in range(50):
                y = F(rng.randint(0, 720), 720)
                lo1, hi1 = staircase_bracket(p, y, 12)
                lo2, hi2 = staircase_bracket(p, y, 17)
                assert lo1 <= lo2 <= hi2 <= hi1

    def test_bracket_contains_exact_third(self):
        rng = random.Random(5)
        for _ in range(100):
            y = F(rng.randint(0, 997), 997)
            lo, hi = staircase_bracket(THIRD, y, 40)
            assert lo <= staircase_bracket(THIRD, y, None)[0] <= hi

    def test_staircase_dispatch(self):
        # p = 1/3 walks without a depth bound; another p to the depth 20
        # that a tolerance of 2^-20 implies
        lo, hi = staircase_bracket(THIRD, F(1, 4), None)
        assert lo == hi == F(1, 3)
        lo, hi = staircase_bracket(F(1, 4), F(1, 7), 20)
        assert hi - lo <= F(1, 2**20)

    def test_plateau_exact_for_any_p(self):
        # the removed middle (l, l+p) maps to the constant 1/2
        p = F(1, 4)
        l = (1 - p) / 2
        lo, hi = staircase_bracket(p, l + p / 2, 10)
        assert lo == hi == F(1, 2)


def cell_oracle(p, n):
    """y -> [lo,hi] ∋ F_p(y), read off the 2^n level-n cells of C_p: the
    cell with binary address d_1..d_n starts at the sum of d_i (1-l) l^(i-1)
    and has length l^n, F_p rises across it from the sum of d_i 2^-i by
    2^-n, and F_p is flat between cells."""
    l = (1 - p) / 2
    starts = [F(0)]
    for i in range(n):
        starts = [s + d * (1 - l) * l**i for s in starts for d in (0, 1)]
    step = F(1, 2**n)

    def bracket(y):
        k = bisect_right(starts, y)  # cell k-1 is the last one starting at or before y
        if k and y <= starts[k - 1] + l**n:
            return (k - 1) * step, k * step
        return k * step, k * step

    return bracket


class TestOrbitCycles:
    def test_periodic_point_is_exact_for_quarter(self):
        # 3/11 -> 8/11 -> 3/11 under the two branches of C_1/4
        assert staircase_bracket(F(1, 4), F(3, 11), 10) == (F(1, 3), F(1, 3))
        assert staircase_bracket(F(1, 4), F(8, 11), 10) == (F(2, 3), F(2, 3))

    def test_outside_the_unit_interval(self):
        # the distribution function is 0 left of 0 and 1 right of 1; the
        # unbounded p = 1/3 walk must not follow an orbit that runs away
        assert staircase_bracket(THIRD, F(-1, 2), None) == (0, 0)
        assert staircase_bracket(THIRD, F(3, 2), None) == (1, 1)
        assert staircase_bracket(F(1, 4), F(5, 4), 10) == (1, 1)

    @pytest.mark.parametrize("p", [F(1, 4), F(1, 5), F(2, 7)])
    def test_brackets_nest_and_hold_the_oracle_value(self, p):
        # points k/97 of the way into a random level-12 cell: their orbits
        # reach k/97 after 12 steps, so most are still open at depth 14
        rng = random.Random(13)
        l = (1 - p) / 2
        oracle = cell_oracle(p, 10)
        brackets = 0
        for _ in range(40):
            start = sum(rng.randint(0, 1) * (1 - l) * l**i for i in range(12))
            y = start + l**12 * F(rng.randint(0, 97), 97)
            olo, ohi = oracle(y)
            lo1, hi1 = staircase_bracket(p, y, 12)
            lo2, hi2 = staircase_bracket(p, y, 14)
            assert olo <= lo1 <= lo2 <= hi2 <= hi1 <= ohi
            assert hi2 - lo2 <= F(1, 2**14)
            brackets += lo2 != hi2
        assert brackets  # the sample reaches points whose orbit does not close


class TestValidation:
    @pytest.mark.parametrize("p", [F(0), F(-1, 3), F(1, 2), F(2, 5)])
    def test_ratio_out_of_range(self, p):
        with pytest.raises(BadParameter):
            staircase_bracket(p, F(1, 2), 10)

    @pytest.mark.parametrize("p, text", [(F(1, 2), "1/2"), (F(0), "0"), (F(-1, 3), "-1/3")])
    def test_ratio_message(self, p, text):
        with pytest.raises(BadParameter) as err:
            check_ratio(p)
        assert str(err.value) == f"Cantor ratio p={text} outside (0, 1/3]"

    def test_ratio_accepted_as_given(self):
        assert check_ratio("1/3") == THIRD
        assert check_ratio(THIRD) is THIRD  # a Fraction comes back as it is
