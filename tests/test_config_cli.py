"""Config ingestion and the command-line front end."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cakecalc import (
    FULL,
    Interval,
    ParseError,
    bundled_config_path,
    decomposition_masses,
    evaluate,
    load_valuation,
    make_box_valuation,
    make_valuation,
    parse_interval_set,
    valuation_from_dict,
)
from cakecalc.cli import build_parser, main, run

F = Fraction


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


@st.composite
def configs_and_constructions(draw):
    """A box or density config on a random partition of [0,1], its ends
    written over a multiple of their denominators, and a thunk that builds
    the same valuation from `Fraction`s through `make_box_valuation` or
    `make_valuation`."""
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
    mass = sum(w for w in weights) + sum(r * s.length for r, s in zip(raw, supports) if r)
    assume(mass > 0)
    atoms = [(x, w / mass) for x, w in zip(locs, weights)]
    density = [(s, r / mass) for r, s in zip(raw, supports) if r is not None]
    config = {
        "atoms": [{"at": str(x), "weight": text(w)} for x, w in atoms],
        "density_pieces": [
            {"support": t, "density": text(r / mass)}
            for t, r in zip(texts, raw) if r is not None
        ],
    }
    return config, lambda: make_valuation(atoms=atoms, density=density)


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

    def test_approx_column(self):
        code, out = cli("--approx", "4", "evaluate", str(bundled_config_path("fig2")), "[0,2/6]")
        assert out.strip() == "3/17 ≈ 0.1765"

    def test_cantor_table(self):
        code, out = cli("cantor", "1/3", "4")
        remaining = [line.split()[2] for line in out.strip().splitlines()[1:]]
        assert remaining == ["1", "2/3", "4/9", "8/27", "16/81"]

    def test_one_parser_serves_every_run(self, capsys):
        fresh = build_parser.__wrapped__()
        cli("--json", "cdf", str(bundled_config_path("dirac")), "1/2", "--side", "left_limit")
        with pytest.raises(SystemExit):
            run(["cut", "--approx"])
        assert build_parser() is build_parser()
        assert build_parser().format_help() == fresh.format_help()
        assert cli("cdf", str(bundled_config_path("dirac")), "1/2")[1].strip() == "1"

    def test_cli_imports_only_the_standard_library(self):
        # -S keeps site-packages off sys.path, as on a bare interpreter
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import cakecalc.cli; "
            "print(*{m.partition('.')[0] for m in sys.modules})"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", code, str(src)],
            capture_output=True, text=True, check=True,
        ).stdout
        loaded = set(out.split())
        assert "cakecalc" in loaded
        assert loaded - set(sys.stdlib_module_names) <= {"cakecalc", "__main__"}

    def test_readme_examples(self):
        # every command of README's Examples block exits 0, and where a
        # "# -> X" comment follows it, X is the last line of its output
        root = Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_text(encoding="utf-8")
        block = re.search(r"^## Examples$.*?^```sh$(.*?)^```$", readme, re.M | re.S).group(1)
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
