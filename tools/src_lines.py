"""Count the lines of the package source by kind: code, docstring, comment
and blank.

    python tools/src_lines.py [DIR]    (DIR defaults to src/ of this repo)

Each line of every .py file under DIR gets one kind, read off the stdlib
tokenizer: a line that holds only white space is blank, also inside a
string; another line of a string that is a statement of its own (a
docstring) is a docstring line; a line that holds a comment and no code
is a comment line; and every other line is code.  The total equals
`wc -l` of the same files.  The script only reports; it exits 0 whatever
the counts are.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
# tokens after which a statement begins, and all tokens that carry no text
STARTS = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
LAYOUT = STARTS | {tokenize.NL, tokenize.ENDMARKER}


def line_kinds(path: Path) -> dict[str, int]:
    """The number of lines of each kind in one file."""
    text = path.read_bytes().decode("utf-8")
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    kind: dict[int, str] = {}
    start = True  # the next token begins a statement
    for i, tok in enumerate(tokens):
        rows = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and start and tokens[i + 1].type == tokenize.NEWLINE:
            kind.update(dict.fromkeys(rows, "docstring"))
        elif tok.type == tokenize.COMMENT:
            kind.setdefault(tok.start[0], "comment")
        elif tok.type not in LAYOUT:
            kind.update(dict.fromkeys(rows, "code"))
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            start = tok.type in STARTS
    # `wc -l` counts newlines, so a last line without one is not counted
    counts = dict.fromkeys(KINDS, 0)
    for row, line in enumerate(text.split("\n")[:-1], 1):
        counts[kind.get(row, "blank") if line.strip() else "blank"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<40}{'total':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(root.rglob("*.py")):
        counts = line_kinds(path)
        for k in KINDS:
            total[k] += counts[k]
        name = str(path.relative_to(root))
        print(f"{name:<40}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<40}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
