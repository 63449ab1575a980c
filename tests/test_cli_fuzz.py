"""Fuzzing `cakecalc.cli.main` with random configs and command lines.

Whatever the input, `main` must return 0, 1 or 2; the only other way out is
argparse's own SystemExit(2) for a malformed command line.  Configs are
well-formed valuations, the same with one part replaced by arbitrary JSON,
or text that is not JSON at all.

Sizes stay small on purpose: ε >= 1/64, `cantor` n_max <= 12 and `witness`
n <= 64.  Work is not bounded yet, so a tiny ε or a large n makes a request
run as long as it likes; that is a known open defect, not one this test
looks for.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from cakecalc.cli import main
from conftest import interval_sets



def mostly(good, bad):
    """Draws from `good` three times in four and from `bad` otherwise."""
    return st.integers(0, 3).flatmap(lambda k: bad if k == 0 else good)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
points = st.integers(0, 24).map(lambda k: Fraction(k, 24))
rationals = mostly(
    st.builds("{}/{}".format, st.integers(0, 12), st.integers(1, 12)),
    st.sampled_from(["", "x", "1/0", "-1/2", "3/2", "0.25", "2", " 1/3 "]),
)
# digit counts around Python's int-to-str limit, past which --approx is a
# parse error (4300 is the default limit, for interpreters with none; Pythons
# before 3.10.7 have neither the limit nor its getter)
_LIMIT = getattr(sys, "get_int_max_str_digits", int)() or 4300
approx_past_the_limit = st.integers(_LIMIT - 1, _LIMIT + 2)

set_exprs = mostly(
    interval_sets().map(str), st.text(alphabet="[](),/0123456789 x", max_size=10)
)


@st.composite
def configs(draw):
    """A well-formed config: box form, or atoms + density + Cantor parts whose
    masses sum to 1."""
    n = draw(st.integers(1, 4))
    inner = st.integers(1, 23).map(lambda k: Fraction(k, 24))
    bp = [Fraction(0), *sorted(draw(st.sets(inner, min_size=n - 1, max_size=n - 1))), Fraction(1)]
    supports = [f"[{bp[i]},{bp[i + 1]}{']' if i == n - 1 else ')'}" for i in range(n)]
    if draw(st.booleans()):
        return {"density_pieces": [{"support": s, "boxes": draw(st.integers(0, 5))} for s in supports]}
    w_atoms, w_cantor = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    w_dens = draw(st.integers(0 if w_atoms or w_cantor else 1, 3))
    total = w_atoms + w_dens + w_cantor
    data = {}
    if w_atoms:
        locs = draw(st.sets(points, min_size=1, max_size=3))
        data["atoms"] = [
            {"at": str(x), "weight": str(Fraction(w_atoms, total * len(locs)))} for x in locs
        ]
    if w_dens:
        raw = [draw(st.integers(1, 3)) for _ in supports]
        mass = sum(r * (bp[i + 1] - bp[i]) for i, r in enumerate(raw))
        data["density_pieces"] = [
            {"support": s, "density": str(r * Fraction(w_dens, total) / mass)}
            for s, r in zip(supports, raw)
        ]
    if w_cantor:
        lo, hi = sorted(draw(st.sets(st.sampled_from(bp), min_size=2, max_size=2)))
        data["cantor"] = [{
            "support": f"[{lo},{hi}]",
            "p": draw(st.sampled_from(["1/3", "1/4", "1/5"])),
            "weight": str(Fraction(w_cantor, total)),
        }]
    return data


@st.composite
def malformed_configs(draw):
    """A well-formed config with the root, a section, an entry or a field
    replaced by arbitrary JSON, or with a field dropped."""
    data = draw(configs())
    junk = draw(json_values)
    how = draw(st.sampled_from(("root", "section", "entry", "field", "drop")))
    if how == "root":
        return junk
    name = draw(st.sampled_from(sorted(data)))
    entries = data.get(name)
    if how == "section" or not entries:
        data[name] = junk
        return data
    i = draw(st.integers(0, len(entries) - 1))
    if how == "entry":
        entries[i] = junk
    elif how == "field":
        entries[i][draw(st.sampled_from(sorted(entries[i])))] = junk
    else:
        del entries[i][draw(st.sampled_from(sorted(entries[i])))]
    return data


config_texts = (
    configs().map(json.dumps) | malformed_configs().map(json.dumps) | st.text(max_size=8)
)


@st.composite
def command_lines(draw, paths):
    argv = []
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.booleans()):
        argv += ["--approx", str(draw(st.integers(-1, 6) | approx_past_the_limit))]
    if draw(st.booleans()):
        tol = mostly(st.sampled_from(["1/1024", "1/1099511627776"]), st.sampled_from(["0", "-1/8", "x"]))
        argv += ["--tol", draw(tol)]
    config = st.sampled_from(paths)
    command = draw(st.sampled_from(
        ("evaluate", "cdf", "cut", "slice", "protocol", "cantor", "witness", "bogus")
    ))
    argv.append(command)
    if command == "evaluate":
        argv += [draw(config), draw(set_exprs)]
    elif command == "cdf":
        argv += [draw(config), draw(rationals)]
        if draw(st.booleans()):
            argv += ["--side", draw(st.sampled_from(("at", "left_limit", "middle")))]
    elif command == "cut":
        argv += [draw(config), draw(set_exprs), draw(rationals)]
    elif command == "slice":
        epsilon = st.sampled_from(("1/2", "1/3", "2/5", "1/17", "1/64", "0", "-1/4", "x"))
        argv += [draw(config), draw(epsilon)]
    elif command == "protocol":
        argv.append(draw(st.sampled_from(
            ("cut_and_choose", "last_diminisher", "moving_knife", "bogus")
        )))
        argv += draw(st.lists(config, min_size=1, max_size=4))
    elif command == "cantor":
        argv += [draw(rationals), draw(st.integers(-2, 12).map(str) | st.just("x"))]
    elif command == "witness":
        argv.append(draw(st.integers(-2, 64).map(str) | st.just("x")))
    return argv


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_main_exits_0_1_or_2(data, config_dir):
    paths = []
    for k in range(3):
        path = config_dir / f"config{k}.json"
        path.write_text(data.draw(config_texts))
        paths.append(str(path))
    argv = data.draw(command_lines(paths))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejecting the command line
            assert exc.code == 2
            event("argparse exit")
            return
    event(f"exit {code}")
    assert code in (0, 1, 2)
