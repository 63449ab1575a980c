"""List the statements of the package that the program's own traffic never
reaches.

    python tools/traffic.py

The script traces the lines of src/cakecalc with `sys.settrace` while it
does two things: it sets up each workload of bench/workloads.py at seed 1,
whose constructor builds its valuations, and sends requests 0..99 through
the workload's `run`, built by its `make` as tools/output_hash.py builds
them (`make` is not traced, and the workload's oracle `check` is not run),
and it runs tests/test_cli_golden.py
in-process under pytest, so each case gets its configs from that module's
own fixture.  Then it prints, per file, the statement lines inside
functions that nothing reached, with their text, and on stderr how many
requests of each workload raised, and pytest's report.  Module and class
bodies run on import and are left out, and so are docstrings.  A function
listed whole is one that no workload and no CLI golden case calls.  The
script exits 1 if a golden case fails, since its lines would then be
missing from the trace.  bench/ is imported as it is; the script changes
nothing there.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import inspect
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cakecalc"
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
REQUESTS, SEED = 100, 1


def statement_lines(path: Path) -> set[int]:
    """The lines of `path` where a function's bytecode starts a line,
    docstrings left out."""
    text = path.read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and (
                ast.get_docstring(node) is not None):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines, todo = set(), [(compile(text, str(path), "exec"), False)]
    while todo:
        code, inside = todo.pop()
        # a function, not a module or class body, nor a comprehension that
        # one of those runs on import
        inside = bool(code.co_flags & inspect.CO_OPTIMIZED) and (
            inside or code.co_name not in COMPREHENSIONS)
        if inside:
            lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        todo += [(c, inside) for c in code.co_consts if inspect.iscode(c)]
    return lines - docs


def reached_lines() -> tuple[dict[str, set[int]], int]:
    """({file: lines} that the traced traffic reached in src/cakecalc, and
    pytest's exit code for the golden cases)."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import cakecalc
    import cakecalc.cli  # noqa: F401  (the fair_division workload calls cli.run)
    import pytest
    from workloads import WORKLOADS

    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = {}

    def line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set()).add(frame.f_lineno)  # the first line of the code
        return line

    def traced(f, *args):
        sys.settrace(call)
        try:
            return f(*args)
        finally:
            sys.settrace(None)

    with tempfile.TemporaryDirectory() as workdir:
        for name, workload in WORKLOADS.items():
            wl = traced(workload, cakecalc, SEED, Path(workdir))
            raised = 0
            try:
                for i in range(REQUESTS):
                    try:
                        traced(wl.run, wl.make(i))
                    except Exception:  # a failing request is traffic too
                        raised += 1
            finally:
                wl.close()
            print(f"{name}: {raised} of {REQUESTS} requests raised", file=sys.stderr)
    with contextlib.redirect_stdout(sys.stderr):
        golden = traced(pytest.main, [
            str(ROOT / "tests" / "test_cli_golden.py"), "-q", "-p", "no:cacheprovider"])
    return reached, golden


def main() -> int:
    reached, golden = reached_lines()
    for path in sorted(PACKAGE.rglob("*.py")):
        missed = sorted(statement_lines(path) - reached.get(str(path), set()))
        if missed:
            text = path.read_text(encoding="utf-8").splitlines()
            print(f"{path.relative_to(ROOT)}: {len(missed)} statement lines not reached")
            for n in missed:
                print(f"  {n:4}  {text[n - 1].strip()}")
    return 1 if golden else 0


if __name__ == "__main__":
    sys.exit(main())
