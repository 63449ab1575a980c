"""Golden output of every CLI command, in human and --json mode.

Each case is one argv (config names in braces stand for config paths) and
the exact text the command writes.  `c4` is a Cantor valuation with ratio
1/4.  Its staircase is exact on plateaus and where the orbit of a point
closes, as at the slice cuts 3/11 and 8/11; at points like 2/15, whose
orbit does not close within the tolerance used here, it prints a bracket.
"""

import io
import json
import shlex

import pytest

from cakecalc import bundled_config_path
from cakecalc.cli import run

GOLDEN = [
    ('--approx 4 evaluate {fig2} "[0,2/6]"',
     '3/17 ≈ 0.1765\n'),
    ('--json --approx 4 evaluate {fig2} "[0,2/6]"',
     '{"command": "evaluate", "set": "[0,1/3]", "value": "3/17"}\n'),
    ('evaluate {fig2} "[0,1/6), (1/2,1]"',
     '11/17\n'),
    ('--json evaluate {fig2} "[0,1/6), (1/2,1]"',
     '{"command": "evaluate", "set": "[0,1/6), (1/2,1]", "value": "11/17"}\n'),
    ('cdf {dirac} 1/2 --side left_limit',
     '0\n'),
    ('--json cdf {dirac} 1/2 --side left_limit',
     '{"command": "cdf", "x": "1/2", "side": "left_limit", "value": "0"}\n'),
    ('--approx 2 cdf {cantor_mix} 1/4',
     '7/48 ≈ 0.15\n'),
    ('--json --approx 2 cdf {cantor_mix} 1/4',
     '{"command": "cdf", "x": "1/4", "side": "at", "value": "7/48"}\n'),
    ('--tol 1/1024 --approx 5 evaluate {c4} "[0,8937/32768]"',
     '683/2048 ≈ 0.33350\n'),
    ('--json --tol 1/1024 --approx 5 evaluate {c4} "[0,8937/32768]"',
     '{"command": "evaluate", "set": "[0,8937/32768]", "value": "683/2048"}\n'),
    ('--tol 1/1024 --approx 4 cdf {c4} 190651/262144',
     '[341/512, 683/1024] ≈ 0.6665\n'),
    ('--json --tol 1/1024 --approx 4 cdf {c4} 190651/262144',
     '{"command": "cdf", "x": "190651/262144", "side": "at", "value": {"lo": "341/512", "hi": "683/1024"}}\n'),
    ('cut {uniform} "[0,1]" 1/2',
     '[0,1/2]\n'),
    ('--json cut {uniform} "[0,1]" 1/2',
     '{"command": "cut", "piece": "[0,1/2]"}\n'),
    ('cut {fig2} "[0,1/6], [1/2,1]" 1/2',
     '[0,1/6], [1/2,35/48]\n'),
    ('--json cut {fig2} "[0,1/6], [1/2,1]" 1/2',
     '{"command": "cut", "piece": "[0,1/6], [1/2,35/48]"}\n'),
    ('--approx 3 slice {fig2} 1/5',
     '[0,26/75]  value 1/5 ≈ 0.200\n(26/75,23/50]  value 1/5 ≈ 0.200\n(23/50,27/40]  value 1/5 ≈ 0.200\n(27/40,49/60]  value 1/5 ≈ 0.200\n(49/60,1]  value 1/5 ≈ 0.200\n'),
    ('--json --approx 3 slice {fig2} 1/5',
     '{"command": "slice", "pieces": ["[0,26/75]", "(26/75,23/50]", "(23/50,27/40]", "(27/40,49/60]", "(49/60,1]"], "values": ["1/5", "1/5", "1/5", "1/5", "1/5"]}\n'),
    ('--tol 1/1024 cdf {c4} 2/15',
     '[225/1024, 113/512]\n'),
    ('--json --tol 1/1024 cdf {c4} 2/15',
     '{"command": "cdf", "x": "2/15", "side": "at", "value": {"lo": "225/1024", "hi": "113/512"}}\n'),
    ('--tol 1/1024 slice {c4} 1/3',
     '[0,3/11]  value 1/3\n(3/11,8/11]  value 1/3\n(8/11,1]  value 1/3\n'),
    ('--json --tol 1/1024 slice {c4} 1/3',
     '{"command": "slice", "pieces": ["[0,3/11]", "(3/11,8/11]", "(8/11,1]"], "values": ["1/3", "1/3", "1/3"]}\n'),
    ('--approx 3 protocol cut_and_choose {fig2} {uniform}',
     'protocol: cut_and_choose\nplayer 0: (13/24,1]  value 1/2 ≈ 0.500\nplayer 1: [0,13/24]  value 13/24 ≈ 0.542\nproportional: True\nenvy_free: True\n'),
    ('--json --approx 3 protocol cut_and_choose {fig2} {uniform}',
     '{"protocol": "cut_and_choose", "pieces": {"1": "[0,13/24]", "0": "(13/24,1]"}, "values": {"1": {"1": "13/24", "0": "11/24"}, "0": {"1": "1/2", "0": "1/2"}}, "proportional": true, "envy_free": true, "trace": [{"event": "cut", "player": 0, "piece": "[0,13/24]"}, {"event": "choose", "player": 1, "piece": "[0,13/24]"}]}\n'),
    ('protocol last_diminisher {uniform} {fig2} {uniform}',
     'protocol: last_diminisher\nplayer 0: [0,1/3]  value 1/3\nplayer 1: (2/3,1]  value 7/17\nplayer 2: (1/3,2/3]  value 1/3\nproportional: True\nenvy_free: True\n'),
    ('--json protocol last_diminisher {uniform} {fig2} {uniform}',
     '{"protocol": "last_diminisher", "pieces": {"0": "[0,1/3]", "2": "(1/3,2/3]", "1": "(2/3,1]"}, "values": {"0": {"0": "1/3", "2": "1/3", "1": "1/3"}, "2": {"0": "1/3", "2": "1/3", "1": "1/3"}, "1": {"0": "3/17", "2": "7/17", "1": "7/17"}}, "proportional": true, "envy_free": true, "trace": [{"event": "cut", "player": 0, "position": "1/3"}, {"event": "take", "player": 0, "piece": "[0,1/3]"}, {"event": "cut", "player": 1, "piece": "(1/3,2/3]"}, {"event": "choose", "player": 2, "piece": "(1/3,2/3]"}]}\n'),
    ('--approx 2 protocol moving_knife {fig2} {uniform} {fig2}',
     'protocol: moving_knife\nplayer 0: (1/3,5/9]  value 1/3 ≈ 0.33\nplayer 1: [0,1/3]  value 1/3 ≈ 0.33\nplayer 2: (5/9,1]  value 25/51 ≈ 0.49\nproportional: True\nenvy_free: False\n'),
    ('--json --approx 2 protocol moving_knife {fig2} {uniform} {fig2}',
     '{"protocol": "moving_knife", "pieces": {"1": "[0,1/3]", "0": "(1/3,5/9]", "2": "(5/9,1]"}, "values": {"1": {"1": "1/3", "0": "2/9", "2": "4/9"}, "0": {"1": "3/17", "0": "1/3", "2": "25/51"}, "2": {"1": "3/17", "0": "1/3", "2": "25/51"}}, "proportional": true, "envy_free": false, "trace": [{"event": "claim", "player": 1, "position": "1/3"}, {"event": "claim", "player": 0, "position": "5/9"}, {"event": "take_rest", "player": 2, "piece": "(5/9,1]"}]}\n'),
    ('--tol 1/1024 --approx 3 protocol moving_knife {c4} {uniform}',
     'protocol: moving_knife\nplayer 0: [0,3/8]  value 1/2 ≈ 0.500\nplayer 1: (3/8,1]  value 5/8 ≈ 0.625\nproportional: True\nenvy_free: True\n'),
    ('--json --tol 1/1024 --approx 3 protocol moving_knife {c4} {uniform}',
     '{"protocol": "moving_knife", "pieces": {"0": "[0,3/8]", "1": "(3/8,1]"}, "values": {"0": {"0": "1/2", "1": "1/2"}, "1": {"0": "3/8", "1": "5/8"}}, "proportional": true, "envy_free": true, "trace": [{"event": "claim", "player": 0, "position": "3/8"}, {"event": "take_rest", "player": 1, "piece": "(3/8,1]"}]}\n'),
    ('cantor 1/3 3',
     '   n   components        remaining          removed\n   0            1                1                0\n   1            2              2/3              1/3\n   2            4              4/9              5/9\n   3            8             8/27            19/27\n'),
    ('--json cantor 1/3 3',
     '{"command": "cantor", "p": "1/3", "rows": [{"n": 0, "components": 1, "remaining": "1", "removed": "0"}, {"n": 1, "components": 2, "remaining": "2/3", "removed": "1/3"}, {"n": 2, "components": 4, "remaining": "4/9", "removed": "5/9"}, {"n": 3, "components": 8, "remaining": "8/27", "removed": "19/27"}]}\n'),
    ('--approx 2 cantor 1/4 2',
     '   n   components        remaining          removed\n   0            1                1                0\n   1            2              3/4              1/4\n   2            4              5/8              3/8\n'),
    ('--json --approx 2 cantor 1/4 2',
     '{"command": "cantor", "p": "1/4", "rows": [{"n": 0, "components": 1, "remaining": "1", "removed": "0"}, {"n": 1, "components": 2, "remaining": "3/4", "removed": "1/4"}, {"n": 2, "components": 4, "remaining": "5/8", "removed": "3/8"}]}\n'),
    ('witness 4',
     '[3/32,1/8], [3/16,1/4], [3/8,1/2], [3/4,1]\ncomponents: 4\n'),
    ('--json witness 4',
     '{"command": "witness", "n": 4, "set": "[3/32,1/8], [3/16,1/4], [3/8,1/2], [3/4,1]", "components": 4}\n'),
]


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory):
    c4 = tmp_path_factory.mktemp("golden") / "c4.json"
    c4.write_text(json.dumps(
        {"cantor": [{"support": "[0,1]", "p": "1/4", "weight": "1"}]}
    ))
    paths = {n: str(bundled_config_path(n)) for n in ("fig2", "uniform", "dirac", "cantor_mix")}
    paths["c4"] = str(c4)
    return paths


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_golden_output(argv, expected, config_paths):
    out = io.StringIO()
    assert run(shlex.split(argv.format(**config_paths)), out=out) == 0
    assert out.getvalue() == expected
