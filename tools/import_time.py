"""Time `import cakecalc` and `import cakecalc.cli` in fresh processes, so
that the import every CLI process pays is measured on its own.

    python tools/import_time.py [ROOT ...] [--runs N]

Each ROOT is the root of a checkout (default: this one), such as one
unpacked by `git archive`.  In each of N rounds (default 21) the script
starts one Python process per root and statement, with bytecode writing
off (`PYTHONDONTWRITEBYTECODE=1`), so that every process compiles the
package from source as the benchmark's workers do; which root goes first
alternates between rounds.  Each process times the one import statement of
cakecalc from ROOT/src with `perf_counter` and lists the modules it added
to those the interpreter already had.  The script prints, per root and
statement, the median and interquartile range in ms and those added
modules, the package's own left out.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATEMENTS = ("import cakecalc", "import cakecalc.cli")
CHILD = """import sys, time
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
start = time.perf_counter()
{statement}
elapsed = time.perf_counter() - start
print(elapsed, *sorted(set(sys.modules) - before))
"""


def one_import(src: Path, statement: str) -> tuple[float, list[str]]:
    """(seconds, added modules) of `statement` in a fresh process."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, "-c", CHILD.format(statement=statement), str(src)],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    return float(out[0]), [m for m in out[1:] if m.partition(".")[0] != "cakecalc"]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="*", type=Path, default=[ROOT], metavar="ROOT",
                    help="root of a checkout (default: this one)")
    ap.add_argument("--runs", type=int, default=21)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2, for a median and quartiles")
    roots = [root.resolve() for root in args.roots]
    for root in roots:
        if not (root / "src" / "cakecalc").is_dir():
            ap.error(f"{root} has no src/cakecalc")

    times = {(root, s): [] for root in roots for s in STATEMENTS}
    added = {}
    for k in range(args.runs):
        for root in roots[::-1] if k % 2 else roots:
            for s in STATEMENTS:
                seconds, modules = one_import(root / "src", s)
                times[root, s].append(seconds * 1000)
                added.setdefault((root, s), modules)

    print(f"Python {sys.version.split()[0]}, {args.runs} fresh processes per root and statement")
    for root in roots:
        print(root)
        for s in STATEMENTS:
            q1, median, q3 = statistics.quantiles(times[root, s], n=4, method="inclusive")
            modules = added[root, s]
            print(f"  {s:<20}  median {median:.1f} ms  IQR {q1:.1f}-{q3:.1f} ms")
            print(f"    adds {len(modules)} modules: {' '.join(modules)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
