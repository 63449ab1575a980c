"""Config ingestion and the command-line front end."""

import ast
import io
import json
import os
import pickle
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cakecalc import (
    FULL,
    BadParameter,
    BadPartition,
    CantorComponent,
    CdfValue,
    Interval,
    NotNormalized,
    ParseError,
    TooManyDigits,
    ZeroMass,
    bundled_config_path,
    decomposition_masses,
    evaluate,
    load_valuation,
    make_box_valuation,
    make_valuation,
    parse_interval_set,
    valuation_from_dict,
)
from cakecalc.cli import COMMANDS, _cell, build_parser, main, run
from cakecalc.config import _parsed
from cakecalc.foundations import CantorIterateSet, cantor_iterate
from cakecalc.intervals import IntervalSet, parse_rational, rational_text, total_length
from cakecalc.valuation import _cdf_value, _slice
from conftest import exact_value

F = Fraction


def modules_after(module: str) -> set[str]:
    """The names in sys.modules after a fresh `python -S` imports `module`
    from src; -S keeps site-packages off sys.path, as on a bare interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True,
    ).stdout
    return set(out.split())


class TestConfig:
    def test_bundled_fig2(self):
        v = load_valuation(bundled_config_path("fig2"))
        got = evaluate(v, parse_interval_set("[0,2/6]"))
        assert got.value == F(3, 17)

    def test_bundled_uniform_dirac(self):
        assert decomposition_masses(load_valuation(bundled_config_path("uniform"))) == (1, 0, 0)
        assert decomposition_masses(load_valuation(bundled_config_path("dirac"))) == (0, 0, 1)

    def test_bundled_cantor_mix(self):
        v = load_valuation(bundled_config_path("cantor_mix"))
        assert decomposition_masses(v) == (F(1, 4), F(1, 4), F(1, 2))

    def test_unknown_bundled_name(self):
        with pytest.raises(ParseError):
            bundled_config_path("nope")

    def test_bundled_names_are_files_beside_the_module(self):
        import cakecalc.config

        beside = Path(cakecalc.config.__file__).parent / "configs"
        for name in ("fig2", "uniform", "dirac", "cantor_mix"):
            path = bundled_config_path(name)
            assert isinstance(path, Path) and path == beside / f"{name}.json" and path.is_file()

    def test_density_form(self):
        v = valuation_from_dict(
            {
                "atoms": [{"at": "1/2", "weight": "1/2"}],
                "density_pieces": [{"support": "[0,1]", "density": "1/2"}],
            }
        )
        assert decomposition_masses(v) == (F(1, 2), 0, F(1, 2))

    def test_mixed_forms_rejected(self):
        with pytest.raises(ParseError):
            valuation_from_dict(
                {
                    "density_pieces": [
                        {"support": "[0,1/2)", "boxes": 1},
                        {"support": "[1/2,1]", "density": "1"},
                    ]
                }
            )

    def test_box_form_excludes_atoms(self):
        with pytest.raises(ParseError):
            valuation_from_dict(
                {
                    "atoms": [{"at": "0", "weight": "1/2"}],
                    "density_pieces": [{"support": "[0,1]", "boxes": 1}],
                }
            )

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_valuation("/no/such/config.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_valuation(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "missing.json"
        p.write_text(json.dumps({"atoms": [{"at": "1/2"}]}))
        with pytest.raises(ParseError):
            load_valuation(p)

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_loader_builds_what_the_fraction_constructors_build(self, data):
        config, built = data.draw(configs_and_constructions())
        v, w = valuation_from_dict(config), built()
        assert v == w
        assert v._table == w._table and v._parts == w._parts
        assert v._parts == tuple(map(ref_integer_part, v.cantor))

    @pytest.mark.parametrize("cantor, error", [
        ([{"support": "(0,1]", "p": "1/3", "weight": "1"}], BadParameter),
        ([{"support": "[1/2,1/2]", "p": "1/3", "weight": "1"}], BadParameter),
        ([{"support": "[0,1]", "p": "1/3", "weight": "0"}], BadParameter),
        ([{"support": "[0,1]", "p": "1/2", "weight": "1"}], BadParameter),
        ([{"support": "[0,1/2]", "p": "1/3", "weight": "1/2"},
          {"support": "[1/4,1]", "p": "1/4", "weight": "1/2"}], BadPartition),
    ], ids=["open_support", "one_point_support", "zero_weight", "ratio_above_a_third",
            "overlapping_supports"])
    def test_bad_cantor_components_are_1(self, cantor, error, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"cantor": cantor}))
        with pytest.raises(error):
            load_valuation(path)
        assert main(["evaluate", str(path), "[0,1]"]) == 1
        assert f"error: {error.__name__}: " in capsys.readouterr().err

    def test_overlapping_cantor_supports_are_named(self):
        message = "Cantor supports overlap: [0,1/2] and [1/4,1]"
        config = {"cantor": [{"support": "[1/4,1]", "p": "1/4", "weight": "1/2"},
                             {"support": "[0,1/2]", "p": "1/3", "weight": "1/2"}]}
        with pytest.raises(BadPartition) as loaded:
            valuation_from_dict(config)
        with pytest.raises(BadPartition) as made:
            make_valuation(cantor_parts=[
                CantorComponent(Interval(F(1, 4), F(1), True, True), F(1, 4), F(1, 2)),
                CantorComponent(Interval(F(0), F(1, 2), True, True), F(1, 3), F(1, 2)),
            ])
        assert str(loaded.value) == str(made.value) == message


FIG2_REPR = (
    "Valuation(atoms=(), density=("
    + ", ".join(
        f"(Interval(lo=Fraction({a}, {b}), hi=Fraction({c}, {d}), lo_closed=True, "
        f"hi_closed={closed}), Fraction({n}, 17))"
        for (a, b, c, d, closed), n in zip(
            [(0, 1, 1, 6, False), (1, 6, 1, 3, False), (1, 3, 1, 2, False),
             (1, 2, 2, 3, False), (2, 3, 5, 6, False), (5, 6, 1, 1, True)],
            [12, 6, 30, 12, 24, 18],
        )
    )
    + "), cantor=())"
)
MIX_REPR = (
    "Valuation(atoms=((Fraction(1, 2), Fraction(1, 4)),), density=("
    "(Interval(lo=Fraction(0, 1), hi=Fraction(1, 2), lo_closed=True, hi_closed=False), "
    "Fraction(1, 2)), "
    "(Interval(lo=Fraction(1, 2), hi=Fraction(1, 1), lo_closed=True, hi_closed=True), "
    "Fraction(3, 4))), "
    "cantor=(CantorComponent(support=Interval(lo=Fraction(1, 4), hi=Fraction(1, 2), "
    "lo_closed=True, hi_closed=True), p=Fraction(1, 4), weight=Fraction(1, 8)),))"
)


def civ(lo, hi, lo_closed=True, hi_closed=True):
    return Interval(F(lo), F(hi), lo_closed, hi_closed)


def mix_valuation():
    return make_valuation(
        atoms=[(F(1, 2), F(1, 4))],
        density=[(civ(0, F(1, 2), True, False), F(1, 2)), (civ(F(1, 2), 1), F(3, 4))],
        cantor_parts=[CantorComponent(civ(F(1, 4), F(1, 2)), F(1, 4), F(1, 8))],
    )


class TestLazyDensity:
    """A `Valuation` compares, hashes, prints and pickles as the dataclass
    of its three public fields, (atoms, density, cantor)."""

    @pytest.mark.parametrize("make, text", [
        (lambda: load_valuation(bundled_config_path("fig2")), FIG2_REPR),
        (mix_valuation, MIX_REPR),
    ], ids=["fig2", "mix"])
    def test_eq_hash_repr_and_pickle_as_before(self, make, text):
        v, w = make(), make()
        assert repr(v) == text
        fields = eval(text.replace("Valuation(", "dict("), {
            "Fraction": F, "Interval": Interval, "CantorComponent": CantorComponent})
        # a frozen dataclass hashes the tuple of its compared fields
        assert hash(v) == hash((fields["atoms"], fields["density"], fields["cantor"]))
        assert v == w and hash(v) == hash(w) and v != make_box_valuation([(FULL.components[0], 1)])
        back = pickle.loads(pickle.dumps(v))
        assert back == v and hash(back) == hash(v) and repr(back) == text
        assert back._table == v._table and back._parts == v._parts


def ref_integer_part(comp):
    """The integers of a public Cantor component, from its `Fraction`s:
    (E, S, T, pn, pd, wn, wd) for the support [S/E, T/E] over the lcm E of
    the ends' denominators, the ratio pn/pd and the weight wn/wd."""
    s, t, p, w = comp.support.lo, comp.support.hi, comp.p, comp.weight
    E = lcm(s.denominator, t.denominator)
    return (E, s.numerator * (E // s.denominator), t.numerator * (E // t.denominator),
            p.numerator, p.denominator, w.numerator, w.denominator)


RATIOS = [F(1, 3), F(1, 4), F(1, 5), F(2, 7)]


@st.composite
def configs_and_constructions(draw):
    """A box or density config on a random partition of [0,1], its ends
    written over a multiple of their denominators, and a thunk that builds
    the same valuation from `Fraction`s through `make_box_valuation` or
    `make_valuation`.  A density config may have atoms and Cantor
    components on disjoint closed supports, given in either order."""
    n = draw(st.integers(1, 5))
    den = draw(st.integers(n + 1, 30))
    inner = sorted(draw(st.sets(st.integers(1, den - 1), min_size=n - 1, max_size=n - 1)))
    bp = [F(0), *(F(k, den) for k in inner), F(1)]
    scale = draw(st.integers(1, 3))

    def text(x):
        return f"{x.numerator * scale}/{x.denominator * scale}"

    # each inner point goes to the piece on its left or on its right
    right = [True, *(draw(st.booleans()) for _ in inner), False]
    supports = [Interval(bp[i], bp[i + 1], right[i], not right[i + 1]) for i in range(n)]
    texts = [f"{'[' if s.lo_closed else '('}{text(s.lo)},{text(s.hi)}{']' if s.hi_closed else ')'}"
             for s in supports]
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any))
        config = {"density_pieces": [{"support": t, "boxes": c} for t, c in zip(texts, counts)]}
        return config, lambda: make_box_valuation(list(zip(supports, counts)))
    kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    raw = [F(draw(st.integers(0, 5))) if keep else None for keep in kept]
    locs = sorted(draw(st.sets(st.integers(0, 24).map(lambda k: F(k, 24)), max_size=3)))
    weights = [F(draw(st.integers(1, 4))) for _ in locs]
    cden = draw(st.integers(2, 12))
    ends = sorted(draw(st.sets(st.integers(0, cden).map(lambda k: F(k, cden)), max_size=4)))
    parts = [
        (Interval(a, b, True, True), draw(st.sampled_from(RATIOS)), F(draw(st.integers(1, 4))))
        for a, b in zip(ends[::2], ends[1::2])
    ]
    if draw(st.booleans()):
        parts.reverse()
    mass = sum(w for w in weights) + sum(r * s.length for r, s in zip(raw, supports) if r)
    mass += sum(w for *_, w in parts)
    assume(mass > 0)
    atoms = [(x, w / mass) for x, w in zip(locs, weights)]
    density = [(s, r / mass) for r, s in zip(raw, supports) if r is not None]
    cantor = [CantorComponent(s, p, w / mass) for s, p, w in parts]
    config = {
        "atoms": [{"at": str(x), "weight": text(w)} for x, w in atoms],
        "density_pieces": [
            {"support": t, "density": text(r / mass)}
            for t, r in zip(texts, raw) if r is not None
        ],
        "cantor": [
            {"support": f"[{text(c.support.lo)},{text(c.support.hi)}]", "p": str(c.p),
             "weight": text(c.weight)}
            for c in cantor
        ],
    }
    return config, lambda: make_valuation(atoms=atoms, density=density, cantor_parts=cantor)


def readme_block(start: str) -> str:
    """The text of the first README code block that the regex `start`
    finds, up to its closing fence."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return re.search(start + r"(.*?)^```$", readme, re.M | re.S).group(1)


def cli(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


class TestCli:
    def test_evaluate_fig2(self):
        code, out = cli("evaluate", str(bundled_config_path("fig2")), "[0,2/6]")
        assert code == 0
        assert out.strip() == "3/17"

    def test_evaluate_json(self):
        code, out = cli("--json", "evaluate", str(bundled_config_path("fig2")), "[0,2/6]")
        report = json.loads(out)
        assert report == {"command": "evaluate", "set": "[0,1/3]", "value": "3/17"}

    def test_cdf_sides(self):
        cfg = str(bundled_config_path("dirac"))
        assert cli("cdf", cfg, "1/2")[1].strip() == "1"
        assert cli("cdf", cfg, "1/2", "--side", "left_limit")[1].strip() == "0"

    def test_cut_uniform(self):
        code, out = cli("cut", str(bundled_config_path("uniform")), "[0,1]", "1/2")
        assert code == 0
        assert out.strip() == "[0,1/2]"

    def test_slice_json(self):
        code, out = cli("--json", "slice", str(bundled_config_path("uniform")), "1/4")
        report = json.loads(out)
        assert len(report["pieces"]) == 4
        assert report["values"] == ["1/4"] * 4

    @pytest.mark.parametrize("epsilon, pieces, values", [
        ("1/8",
         ["[0,1/7]", "(1/7,2/7]", "(2/7,3/7]", "(3/7,1/2)", "[1/2,1/2]", "(1/2,9/14]",
          "(9/14,11/14]", "(11/14,13/14]", "(13/14,1]"],
         ["1/8", "1/8", "1/8", "1/16", "1/8", "1/8", "1/8", "1/8", "1/16"]),
        ("3/16",
         ["[0,3/14]", "(3/14,3/7]", "(3/7,1/2]", "(1/2,5/7]", "(5/7,13/14]", "(13/14,1]"],
         ["3/16"] * 5 + ["1/16"]),
    ])
    def test_slice_values_from_the_slicer(self, epsilon, pieces, values, tmp_path):
        # the piece that stops short of the atom, and at ε = 1/8 the atom's
        # lone piece: values the slicer reports without `evaluate`
        path = tmp_path / "atom.json"
        path.write_text(json.dumps({
            "atoms": [{"at": "1/2", "weight": "1/8"}],
            "density_pieces": [{"support": "[0,1]", "density": "7/8"}],
        }))
        code, out = cli("--json", "slice", str(path), epsilon)
        assert code == 0
        assert json.loads(out) == {"command": "slice", "pieces": pieces, "values": values}

    def test_approx_column(self):
        code, out = cli("--approx", "4", "evaluate", str(bundled_config_path("fig2")), "[0,2/6]")
        assert out.strip() == "3/17 ≈ 0.1765"

    def test_cantor_table(self):
        code, out = cli("cantor", "1/3", "4")
        remaining = [line.split()[2] for line in out.strip().splitlines()[1:]]
        assert remaining == ["1", "2/3", "4/9", "8/27", "16/81"]

    @pytest.mark.parametrize("p", [F(1, 3), F(1, 4), F(1, 5), F(1, 7)])
    def test_cantor_table_builds_no_iterate(self, p):
        # each row's remaining length is 1 - removed_mass(p, n), read off
        # without A_n; the iterates' own lengths are the reference
        ref = [rational_text(total_length(cantor_iterate(p, n).set)) for n in range(41)]

        def refuse(*args):
            raise AssertionError("the cantor command built an iterate")

        with mock.patch.object(CantorIterateSet, "__init__", refuse):
            code, out = cli("--json", "cantor", rational_text(p), "40")
        assert code == 0
        assert [row["remaining"] for row in json.loads(out)["rows"]] == ref

    def test_one_parser_serves_every_run(self, capsys):
        fresh = build_parser.__wrapped__()
        cli("--json", "cdf", str(bundled_config_path("dirac")), "1/2", "--side", "left_limit")
        with pytest.raises(SystemExit):
            run(["cut", "--approx"])
        assert build_parser() is build_parser()
        assert build_parser().format_help() == fresh.format_help()
        assert cli("cdf", str(bundled_config_path("dirac")), "1/2")[1].strip() == "1"

    def test_cli_imports_only_the_standard_library(self):
        loaded = {m.partition(".")[0] for m in modules_after("cakecalc.cli")}
        assert "cakecalc" in loaded
        assert loaded - set(sys.stdlib_module_names) <= {"cakecalc", "__main__"}

    def test_import_loads_only_what_it_uses(self):
        # no json until a config is read, no argparse without the CLI, and
        # the value classes need none of dataclasses, inspect or typing
        unused = {"dataclasses", "inspect", "typing", "importlib.resources"}
        assert modules_after("cakecalc") & (unused | {"json", "argparse", "pathlib"}) == set()
        assert modules_after("cakecalc.cli") & unused == set()

    def test_readme_examples(self):
        # every command of README's Examples block exits 0, and where a
        # "# -> X" comment follows it, X is the last line of its output
        root = Path(__file__).resolve().parent.parent
        block = readme_block(r"^## Examples$.*?^```sh$")
        lines = [line for line in block.splitlines() if line.strip()]
        assert lines
        for line in lines:
            command, _, comment = line.partition("#")
            prog, *argv = shlex.split(command)
            assert prog == "cakecalc", line
            done = subprocess.run(
                [sys.executable, "-m", "cakecalc.cli", *argv],
                capture_output=True, text=True, cwd=root,
                env={**os.environ, "PYTHONPATH": str(root / "src")},
            )
            assert done.returncode == 0, (line, done.stderr)
            comment = comment.strip()
            if comment.startswith("->"):
                assert done.stdout.strip().splitlines()[-1].strip() == comment[2:].strip(), line

    def test_readme_library_example(self):
        # README's Python block runs, and each expression statement gives
        # what the comment after it says, as its repr or its text
        block = readme_block(r"^```python$")
        lines, scope, checked = block.splitlines(), {}, 0
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                value = eval(compile(ast.Expression(stmt.value), "README", "eval"), scope)
                comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
                assert comment in (repr(value), str(value)), (comment, value)
                checked += 1
            else:
                exec(compile(ast.Module([stmt], []), "README", "exec"), scope)
        assert checked == 2

    def test_readme_config_example(self):
        v = valuation_from_dict(json.loads(readme_block(r"^```json$")))
        assert decomposition_masses(v) == (F(1, 4), F(1, 4), F(1, 2))

    def test_witness(self):
        code, out = cli("--json", "witness", "6")
        report = json.loads(out)
        assert report["components"] == 6
        assert parse_interval_set(report["set"]) is not None

    def test_protocol_json_schema(self):
        cfg = str(bundled_config_path("uniform"))
        code, out = cli("--json", "protocol", "last_diminisher", cfg, cfg, cfg)
        report = json.loads(out)
        assert set(report) == {
            "protocol", "pieces", "values", "proportional", "envy_free", "trace",
        }
        assert report["proportional"] and report["envy_free"]
        assert sorted(report["pieces"]) == ["0", "1", "2"]
        assert report["values"]["0"]["0"] == "1/3"

    def test_round_trip_pieces(self):
        cfg = str(bundled_config_path("fig2"))
        code, out = cli("--json", "protocol", "moving_knife", cfg, cfg)
        report = json.loads(out)
        for text in report["pieces"].values():
            assert str(parse_interval_set(text)) == text


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        assert main(["evaluate", str(bundled_config_path("fig2")), "oops"]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[0,1/3],", "[0,1/3] , "])
    def test_trailing_comma_in_a_set_is_2(self, capsys, text):
        assert main(["evaluate", str(bundled_config_path("fig2")), text]) == 2
        assert "trailing comma" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[0,1/3] [1/2,1]", "[0,1/3][1/2,1]"])
    def test_intervals_without_a_comma_between_are_2(self, capsys, text):
        assert main(["evaluate", str(bundled_config_path("fig2")), text]) == 2
        assert "expected a comma" in capsys.readouterr().err

    # Fraction(str) would read these as 1/2 on some Python versions or all
    @pytest.mark.parametrize("x", ["١/٢", "１/２", "1_0/20", "0.5_0"])
    def test_non_ascii_or_underscored_rationals_are_2(self, capsys, x):
        assert main(["cdf", str(bundled_config_path("uniform")), x]) == 2
        assert "bad rational" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_a_set_past_the_int_to_str_limit_is_1(self, capsys, flags):
        if not hasattr(sys, "set_int_max_str_digits"):  # none before 3.10.7
            pytest.skip("this interpreter prints ints of any length")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the least limit Python allows
        try:
            # the witness of n intervals has the point 3/2^(n + 1), of 663 digits for n = 2200
            assert main([*flags, "witness", "2200"]) == 1
        finally:
            sys.set_int_max_str_digits(limit)
        assert "TooManyDigits" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_a_number_past_the_int_to_str_limit_is_1(self, capsys, flags):
        if not hasattr(sys, "set_int_max_str_digits"):  # none before 3.10.7
            pytest.skip("this interpreter prints ints of any length")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            # p = 1/10^400 has 401 digits, the remaining length (1 - p)^2 of A_2 801
            assert main([*flags, "cantor", f"1/1{'0' * 400}", "2"]) == 1
            for value in (exact_value(F(1, 10**700)), CdfValue(F(0), F(1, 10**700))):
                with pytest.raises(TooManyDigits):
                    str(value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert "TooManyDigits" in capsys.readouterr().err

    def test_an_error_message_past_the_int_to_str_limit_is_1(self, tmp_path):
        if not hasattr(sys, "set_int_max_str_digits"):  # none before 3.10.7
            pytest.skip("this interpreter prints ints of any length")
        # the total mass of the two atoms has 801 digits, past a 640-digit limit
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"atoms": [{"at": "1/3", "weight": f"1/{10**400 + 1}"},
                                              {"at": "2/3", "weight": f"1/{10**400 + 3}"}]}))
        code = ("import sys; sys.set_int_max_str_digits(640); from cakecalc.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        root = Path(__file__).resolve().parents[1]
        for flags in ([], ["--json"]):
            done = subprocess.run(
                [sys.executable, "-c", code, *flags, "evaluate", str(path), "[0,1]"],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(root / "src")},
            )
            assert done.returncode == 1, done.stderr
            assert done.stderr.startswith("error: TooManyDigits: ")
            assert "Traceback" not in done.stderr

    def test_domain_error_is_1(self, capsys):
        assert main(["cut", str(bundled_config_path("dirac")), "[0,1]", "1/2"]) == 1
        assert "AtomObstruction" in capsys.readouterr().err

    def test_negative_cantor_stage_is_1(self, capsys):
        assert main(["cantor", "1/3", "-1"]) == 1
        assert "BadParameter" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", [63, 64])
    def test_cantor_past_the_word_size_is_0(self, capsys, n_max):
        # len() cannot return 2^63 or more, so the count must not come from len()
        assert main(["--json", "cantor", "1/3", str(n_max)]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == n_max + 1 and rows[-1]["components"] == 2**n_max
        assert main(["cantor", "1/3", str(n_max)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split()[1] == str(2**n_max)

    def test_exponent_tolerance_is_2(self, capsys):
        argv = ["--tol", "1e-10000000", "cdf", str(bundled_config_path("uniform")), "1/2"]
        assert main(argv) == 2
        assert "exponent" in capsys.readouterr().err

    def test_cut_and_choose_with_three_configs_is_2(self, capsys):
        uniform = str(bundled_config_path("uniform"))
        assert main(["protocol", "cut_and_choose", uniform, uniform, uniform]) == 2
        assert "exactly 2 players" in capsys.readouterr().err

    def test_missing_config_is_2(self):
        assert main(["evaluate", "/no/such.json", "[0,1]"]) == 2

    def test_success_is_0(self, capsys):
        assert main(["cdf", str(bundled_config_path("uniform")), "1/2"]) == 0
        assert capsys.readouterr().out.strip() == "1/2"


def _halves(first_boxes):
    """Box config with `first_boxes` on [0,1/2) and 1 box on [1/2,1]."""
    return {"density_pieces": [
        {"support": "[0,1/2)", "boxes": first_boxes},
        {"support": "[1/2,1]", "boxes": 1},
    ]}


MALFORMED_CONFIGS = {
    "boxes_string": _halves("x"),
    "boxes_float": _halves(1.5),  # int() would read 1 and evaluate [0,1/2) to 1/2
    "boxes_bool": _halves(True),
    "atoms_of_strings": {"atoms": ["1/2"]},
    "atoms_object": {"atoms": {"at": "1/2"}},
    "density_pieces_string": {"density_pieces": "[0,1]"},
    "at_number": {"atoms": [{"at": 0.5, "weight": "1"}]},
    "weight_number": {"atoms": [{"at": "1/2", "weight": 1}]},
    "support_number": {"density_pieces": [{"support": 7, "density": "1"}]},
    "support_two_intervals": {
        "density_pieces": [{"support": "[0,1/4], [1/2,1]", "density": "4/3"}]
    },
    # both read as [0,1] if parsed as a set
    "support_two_touching_intervals": {
        "density_pieces": [{"support": "[0,1/4],[1/4,1]", "density": "1"}]
    },
    "support_trailing_comma": {"density_pieces": [{"support": "[0,1],", "density": "1"}]},
    "cantor_p_number": {"cantor": [{"support": "[0,1]", "p": 0.25, "weight": "1"}]},
    "unknown_section": {"atom": [{"at": "1/2", "weight": "1"}]},
    "root_list": [{"at": "1/2", "weight": "1"}],
}


class TestSchema:
    @pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_is_parse_error(self, name, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(MALFORMED_CONFIGS[name]))
        with pytest.raises(ParseError):
            load_valuation(path)
        assert main(["evaluate", str(path), "[0,1/2)"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_an_integer_past_the_int_to_str_limit_is_a_parse_error(self, tmp_path, capsys):
        limit = getattr(sys, "get_int_max_str_digits", int)()  # none before 3.10.7
        if not limit:
            pytest.skip("this interpreter reads ints of any length")
        # json.dumps cannot write a box count of limit + 1 digits, so write the text
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_halves(1)).replace(": 1}", f": 1{'0' * limit}}}", 1))
        with pytest.raises(ParseError, match="bad JSON"):
            load_valuation(path)
        for flags in ([], ["--json"]):
            assert main([*flags, "evaluate", str(path), "[0,1/2]"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("parse error: bad JSON") and "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        (b"\xff\xfe{\x00}\x00", "cannot read config {path}: 'utf-8' codec can't decode byte "
                                 "0xff in position 0: invalid start byte"),
        (b"[" * 200_000 + b"]" * 200_000, "bad JSON in {path}: maximum recursion depth exceeded"),
    ], ids=["utf16", "deep"])
    def test_unreadable_text_is_a_parse_error(self, text, message, tmp_path, capsys):
        # a file that is not UTF-8, and JSON nested past the parser's recursion
        path = tmp_path / "config.json"
        path.write_bytes(text)
        message = message.format(path=path)
        kept = _parsed.cache_info().currsize
        for _ in range(2):  # the error is raised afresh, not kept
            with pytest.raises(ParseError) as caught:
                load_valuation(path)
            assert str(caught.value).startswith(message)
            for flags in ([], ["--json"]):
                assert main([*flags, "evaluate", str(path), "[0,1]"]) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"parse error: {message}") and "Traceback" not in err
        assert _parsed.cache_info().currsize == kept
        path.write_text(json.dumps(_halves(2)), encoding="utf-8")
        assert load_valuation(path) == valuation_from_dict(_halves(2))

    @pytest.mark.parametrize("newline, line, char", [
        (b"\r\n", 3, 18), (b"\r", 3, 18), (b"\r\r\n", 5, 20),  # CR then CRLF: two line ends
    ], ids=["crlf", "cr", "cr_crlf"])
    def test_line_ends_are_read_as_in_text_mode(self, newline, line, char, tmp_path):
        # CRLF and lone CR read as LF
        lf, other = tmp_path / "lf.json", tmp_path / "other.json"
        lf.write_bytes(json.dumps(_halves(2), indent=2).encode() + b"\n")
        other.write_bytes(lf.read_bytes().replace(b"\n", newline))
        v = load_valuation(other)
        assert v == load_valuation(lf)
        if line == 3:  # the very text of the LF file, so the memo's valuation
            assert v is load_valuation(lf)
        # a malformed config's error counts lines and chars as text mode does
        other.write_bytes(newline.join([b"{", b'  "atoms": [', b"  {not json", b"}"]))
        with pytest.raises(ParseError) as caught:
            load_valuation(other)
        assert str(caught.value) == (
            f"bad JSON in {other}: Expecting property name enclosed in double quotes: "
            f"line {line} column 4 (char {char})")

    def test_configs_are_read_as_utf8_under_any_locale(self, tmp_path):
        # under an ASCII locale a read in the locale's encoding fails on the
        # first non-ASCII byte; UTF-8 text reads, and breaks only the schema
        path = tmp_path / "config.json"
        path.write_bytes('{"größe": []}'.encode("utf-8"))
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
               "PYTHONUTF8": "0"}
        argv = [sys.executable, "-m", "cakecalc.cli", "evaluate", str(path), "[0,1]"]
        done = subprocess.run(argv, capture_output=True, env=env)
        assert done.returncode == 2
        assert done.stderr.startswith(b"parse error: unknown config sections")

    def test_negative_approx_is_2(self, capsys):
        argv = ["--approx", "-1", "evaluate", str(bundled_config_path("fig2")), "[0,2/6]"]
        assert main(argv) == 2
        assert main(["--json"] + argv) == 2
        assert "--approx" in capsys.readouterr().err

    def test_approx_past_the_int_to_str_limit_is_2(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", int)()  # none before 3.10.7
        if not limit:
            pytest.skip("this interpreter prints ints of any length")
        argv = ["cdf", str(bundled_config_path("uniform")), "1/3"]
        assert main(["--approx", str(limit)] + argv) == 0
        assert capsys.readouterr().out.strip().endswith("3" * limit)
        assert main(["--approx", str(limit + 1)] + argv) == 2
        assert f"{limit}-digit" in capsys.readouterr().err


class TestLoadMemo:
    """`load_valuation` reads the file on every call and parses equal text
    once per int-to-str limit; an error is never kept and always names the
    path of its own call."""

    def test_equal_text_gives_the_same_valuation(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            path.write_text(json.dumps(_halves(2)))
        v = load_valuation(a)
        assert load_valuation(a) is v and load_valuation(b) is v
        assert v == valuation_from_dict(_halves(2))

    def test_a_rewritten_file_is_parsed_again(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_halves(2)))
        before = load_valuation(path)
        path.write_text(json.dumps(_halves(3)))
        after = load_valuation(path)
        assert after == valuation_from_dict(_halves(3)) and after != before

    def test_a_removed_file_is_an_error_after_a_load(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_halves(2)))
        load_valuation(path)
        path.unlink()
        with pytest.raises(ParseError, match="cannot read config"):
            load_valuation(path)

    @pytest.mark.parametrize("broken, error", [
        ("{not json", ParseError),
        (json.dumps({"atoms": [{"at": "1/2"}]}), ParseError),
        (json.dumps({"density_pieces": [{"support": "[0,1]", "boxes": 0}]}), ZeroMass),
    ], ids=["bad_json", "schema", "zero_mass"])
    def test_a_fixed_config_loads(self, broken, error, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(broken)
        for _ in range(2):  # the error is raised afresh, not kept
            with pytest.raises(error):
                load_valuation(path)
        path.write_text(json.dumps(_halves(2)))
        assert load_valuation(path) == valuation_from_dict(_halves(2))

    @pytest.mark.parametrize("broken", ["{not json", json.dumps({"atoms": [{"at": "1/2"}]})],
                             ids=["bad_json", "schema"])
    def test_equal_bad_text_names_each_path(self, broken, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        messages = []
        for path in (a, b, a):
            path.write_text(broken)
            with pytest.raises(ParseError) as caught:
                load_valuation(path)
            messages.append(str(caught.value))
        assert messages[0] == messages[2] and str(a) in messages[0]
        assert messages[1] == messages[0].replace(str(a), str(b))

    @pytest.mark.parametrize("text, error, message", [
        (None, ParseError, "cannot read config {path}: [Errno 2] No such file or directory: "
                           "'{path}'"),
        ("{not json", ParseError, "bad JSON in {path}: Expecting property name enclosed in "
                                  "double quotes: line 1 column 2 (char 1)"),
        (json.dumps({"atoms": [{"at": "1/2"}]}), ParseError, "missing field 'weight' in {path}"),
        (json.dumps({"atoms": [{"at": "1/2", "weight": "1/2"}]}), NotNormalized,
         "total mass is 1/2, expected 1 (deficit 1/2)"),
    ], ids=["missing_file", "bad_json", "schema", "not_normalized"])
    def test_error_text(self, text, error, message, tmp_path, capsys):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        message = message.format(path=path)
        code, line = ((2, f"parse error: {message}\n") if error is ParseError
                      else (1, f"error: {error.__name__}: {message}\n"))
        for _ in range(2):
            with pytest.raises(error) as caught:
                load_valuation(path)
            assert type(caught.value) is error and str(caught.value) == message
            for flags in ([], ["--json"]):
                assert main([*flags, "evaluate", str(path), "[0,1]"]) == code
                assert capsys.readouterr().err == line

    def test_the_int_to_str_limit_is_part_of_the_key(self, tmp_path):
        if not hasattr(sys, "set_int_max_str_digits"):  # none before 3.10.7
            pytest.skip("this interpreter reads ints of any length")
        one = f"{10**699}/{10**699}"  # 700 digits over 700: past a 640-digit limit
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"density_pieces": [{"support": "[0,1]", "density": one}]}))
        v = load_valuation(path)
        assert v == load_valuation(bundled_config_path("uniform"))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the least limit Python allows
        try:
            with pytest.raises(ParseError, match="bad rational") as caught:
                load_valuation(path)
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(caught.value) == f"bad rational {one!r} in {path}"
        assert load_valuation(path) is v

    @pytest.mark.parametrize("protocol, players", [
        ("cut_and_choose", "uu"), ("last_diminisher", "ufu"), ("moving_knife", "ufu"),
    ])
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_a_repeated_config_plays_as_two_copies(self, protocol, players, flags, tmp_path):
        """Two players named by one path share one `Valuation`; they play as
        two players with a file each, with a cold memo and with a warm one."""
        uniform, fig2 = bundled_config_path("uniform"), str(bundled_config_path("fig2"))
        copy = tmp_path / "uniform.json"
        copy.write_text(uniform.read_text() + "\n")  # other text: a valuation of its own
        repeated = [str(uniform) if c == "u" else fig2 for c in players]
        copies = [str(copy) if c == "u" and i else path
                  for i, (c, path) in enumerate(zip(players, repeated))]
        argv = ["--approx", "3", *flags, "protocol", protocol]
        _parsed.cache_clear()
        cold = cli(*argv, *repeated)
        warm = cli(*argv, *repeated)
        assert load_valuation(copy) is not load_valuation(uniform)
        assert cold == warm == cli(*argv, *copies) and cold[0] == 0


# The parent's renderer, kept as a reference for json.dumps with a default:
# it walked the report and turned every library value into JSON first.

def ref_jsonable(x):
    if isinstance(x, (str, int)):
        return x
    if isinstance(x, dict):
        return {k: ref_jsonable(v) for k, v in x.items()}
    if isinstance(x, list):
        return [ref_jsonable(v) for v in x]
    if isinstance(x, CdfValue):
        return str(x) if x.is_exact else {"lo": rational_text(x.lo), "hi": rational_text(x.hi)}
    if isinstance(x, IntervalSet):
        return str(x)
    if isinstance(x, Fraction):
        return rational_text(x)
    return x


def ref_slice_report(config, epsilon, tol):
    """The parent's slice report, with the pieces as sets."""
    v = load_valuation(config)
    pieces, values = _slice(v, parse_rational(epsilon), tol)
    values = [evaluate(v, s, tol) if val is None else _cdf_value(*val)
              for s, val in zip(pieces, values)]
    return {"command": "slice", "pieces": pieces, "values": values}


@pytest.fixture(scope="module")
def render_configs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("render")
    configs = {
        # atom-free C_1/4, and the same beside a density: bracketed values
        "c4": {"cantor": [{"support": "[0,1]", "p": "1/4", "weight": "1"}]},
        "c4_mix": {"density_pieces": [{"support": "[0,1]", "density": "1/2"}],
                   "cantor": [{"support": "[0,1]", "p": "1/4", "weight": "1/2"}]},
        # its cuts give the C_1/4 player bracketed values at tol 1/1024
        "early": {"density_pieces": [{"support": "[0,4/15]", "density": "15/4"}]},
        # densities whose slice cuts have different dens side by side
        "steps": {"density_pieces": [{"support": "[0,1/3)", "density": "1/2"},
                                     {"support": "[1/3,5/7)", "density": "29/16"},
                                     {"support": "[5/7,1]", "density": "1/2"}]},
    }
    paths = {n: str(bundled_config_path(n)) for n in ("fig2", "uniform", "dirac", "cantor_mix")}
    for name, data in configs.items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


RENDERED = [
    'evaluate {fig2} "[0,1/6), (1/2,1]"',
    '--tol 1/1024 evaluate {c4} "[0,1/7], [1/5,2/3)"',
    "cdf {cantor_mix} 1/3 --side left_limit",
    "--tol 1/1024 cdf {c4} 2/15",
    'cut {fig2} "[0,1/6], [1/2,1]" 1/2',
    "slice {fig2} 1/5",
    "slice {steps} 1/9",
    "--tol 1/1024 slice {c4_mix} 1/17",
    "protocol cut_and_choose {fig2} {uniform}",
    "protocol last_diminisher {uniform} {fig2} {uniform}",
    "--tol 1/1024 protocol moving_knife {early} {c4} {uniform}",
    "--tol 1/1024 protocol last_diminisher {early} {c4} {uniform}",
    "--tol 1/1024 protocol last_diminisher {c4} {c4_mix} {steps}",
    "cantor 1/4 3",
    "witness 5",
]


class TestRender:
    """--json output is json.dumps of the parent's rendering of the report,
    and slice writes the text it wrote with sets for pieces."""

    @pytest.mark.parametrize("argv", RENDERED)
    def test_json_equals_the_parent_rendering(self, argv, render_configs):
        argv = shlex.split(argv.format(**render_configs))
        args = build_parser().parse_args(argv)
        report, _ = COMMANDS[args.command](args, parse_rational(args.tol))
        code, out = cli("--json", *argv)
        assert code == 0
        assert out == json.dumps(ref_jsonable(report), ensure_ascii=False) + "\n"

    @pytest.mark.parametrize("argv", [
        "--tol 1/1024 protocol moving_knife {early} {c4} {uniform}",
        "--tol 1/1024 protocol last_diminisher {early} {c4} {uniform}",
        "--tol 1/1024 slice {c4_mix} 1/17",
    ])
    def test_brackets_are_rendered(self, argv, render_configs):
        report = json.loads(cli("--json", *shlex.split(argv.format(**render_configs)))[1])
        values = report["values"]
        flat = values if isinstance(values, list) else [x for row in values.values()
                                                        for x in row.values()]
        assert any(isinstance(x, dict) and set(x) == {"lo", "hi"} for x in flat)

    @pytest.mark.parametrize("config, epsilon, tol", [
        ("fig2", "1/5", "1/1099511627776"), ("steps", "1/9", "1/1099511627776"),
        ("c4_mix", "1/17", "1/1024"), ("uniform", "1/40", "1/1099511627776"),
    ])
    @pytest.mark.parametrize("approx", ["0", "3"])
    def test_slice_text_and_json(self, config, epsilon, tol, approx, render_configs):
        path = render_configs[config]
        ref = ref_slice_report(path, epsilon, parse_rational(tol))
        if config == "steps":  # adjacent pieces over different dens
            assert any(a.den != b.den for a, b in zip(ref["pieces"], ref["pieces"][1:]))
        text = "".join(
            "".join(_cell(c, int(approx)) for c in (s, "  value ", val)) + "\n"
            for s, val in zip(ref["pieces"], ref["values"])
        )
        argv = ["--tol", tol, "--approx", approx, "slice", path, epsilon]
        assert cli(*argv) == (0, text)
        assert cli("--json", *argv) == (
            0, json.dumps(ref_jsonable(ref), ensure_ascii=False) + "\n")


def ref_line_by_line(argv):
    """The parent's text output: one `print` for each line of cells."""
    args = build_parser().parse_args(argv)
    _, lines = COMMANDS[args.command](args, parse_rational(args.tol))
    out = io.StringIO()
    for cells in lines:
        print("".join(_cell(c, args.approx) for c in cells), file=out)
    return out.getvalue()


class TestOneWrite:
    """`run` renders the whole text and then writes it at once."""

    @pytest.mark.parametrize("argv", [a for a in RENDERED
                                      if {"slice", "protocol", "cantor"} & set(a.split())])
    @pytest.mark.parametrize("approx", ["0", "3"])
    def test_text_equals_the_line_by_line_reference(self, argv, approx, render_configs):
        argv = ["--approx", approx, *shlex.split(argv.format(**render_configs))]
        out = mock.Mock(wraps=io.StringIO())
        assert run(argv, out=out) == 0
        assert out.write.call_count == 1
        assert out.write.call_args.args[0] == ref_line_by_line(argv)

    def test_an_error_while_rendering_leaves_no_partial_text(self, capsys, render_configs):
        cells = []

        def tenth_fails(c, approx):  # in the third of the four lines
            cells.append(c)
            if len(cells) == 10:
                raise TooManyDigits("a number past the limit")
            return _cell(c, approx)

        with mock.patch("cakecalc.cli._cell", tenth_fails):
            assert main(["slice", render_configs["uniform"], "1/4"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: TooManyDigits: ")
