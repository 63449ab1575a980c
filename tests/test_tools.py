"""tools/src_lines.py: the line kinds of a source file, and totals that
equal `wc -l`; tools/output_hash.py: one stable digest per workload and
seed; tools/ab.py: one stream timed on two trees with their outputs
compared; tools/traffic.py: the statements that the traffic does not reach."""

import ast
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

from cakecalc import cli, protocols, valuation

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SAMPLE = '''"""A module docstring

over three lines."""

# a comment
x = 1  # code with a comment
s = """a string that is

not a docstring"""


def f():
    """One line."""
    return x'''  # no newline at the end: `wc -l` does not count the last line


def test_each_line_gets_its_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert src_lines.line_kinds(path) == {"code": 4, "docstring": 3, "comment": 1, "blank": 5}


def test_the_totals_are_the_newline_counts_of_src():
    for path in (ROOT / "src").rglob("*.py"):
        assert sum(src_lines.line_kinds(path).values()) == path.read_bytes().count(b"\n")


def test_output_hash_is_the_same_in_two_runs():
    """tools/output_hash.py prints one digest per workload and seed, and two
    runs on the same checkout agree."""
    cmd = [sys.executable, str(ROOT / "tools" / "output_hash.py"), "--requests", "3", "--seeds", "1,2"]
    runs = [subprocess.run(cmd, capture_output=True, text=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = [line.split() for line in runs[0].splitlines()]
    for seed in ("1", "2"):
        assert sorted(name for name, s, _ in lines if s == seed) == [
            "fair_division", "iterates", "singular"]
    assert all(len(digest) == 64 for _, _, digest in lines)


def test_ab_reports_equal_outputs_for_one_tree_on_both_sides():
    """tools/ab.py with this checkout as its own base times both sides in
    every round and finds their outputs equal."""
    cmd = [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), "--requests", "20",
           "--rounds", "2"]
    report = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    lines = report.splitlines()
    assert lines[0] == "iterates seed 11: 20 requests, 2 rounds"
    assert [line.split()[0] for line in lines[1:3]] == ["base", "this"]
    assert lines[-1] == "outputs equal: yes"


def body_lines(f):
    """The first line of each statement of the module-level function f's
    body, its docstring left out."""
    lines, first = inspect.getsourcelines(f)
    (node,) = ast.parse("".join(lines)).body
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return [first - 1 + stmt.lineno for stmt in body]


def test_traffic_lists_check_proportional_and_not_cli_run():
    """Neither a workload nor a CLI command calls `check_proportional`, so
    every statement of its body is listed; `cli.run` runs for each of them,
    and the `singular` workload's set-up calls `cantor_valuation`, so no
    statement of their bodies is.  The script exits 0: every golden case
    passed under the trace."""
    cmd = [sys.executable, str(ROOT / "tools" / "traffic.py")]
    report = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    listed, path = {}, None
    for line in report.splitlines():
        if not line.startswith(" "):
            path = line.split(":")[0]
        else:
            listed.setdefault(path, set()).add(int(re.match(r" *(\d+)", line).group(1)))
    assert set(body_lines(protocols.check_proportional)) <= listed["src/cakecalc/protocols.py"]
    assert not set(body_lines(cli.run)) & listed.get("src/cakecalc/cli.py", set())
    assert not set(body_lines(valuation.cantor_valuation)) & listed.get(
        "src/cakecalc/valuation.py", set())
