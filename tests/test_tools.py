"""tools/src_lines.py: the line kinds of a source file, and totals that
equal `wc -l`."""

import importlib.util
from pathlib import Path

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
