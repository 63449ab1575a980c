"""Time one workload's request stream on two source trees in one process,
so that a change and its base are compared on the same machine state.

    python tools/ab.py BASE [--workload iterates] [--seed 11] [--requests 300] [--rounds 5]

BASE is the root of another checkout, such as one unpacked by `git archive`.
The script imports cakecalc from BASE/src and from this checkout's src/,
each as its own set of modules, and swaps each set into `sys.modules` while
that side runs.  In every round each side builds the workload and its
seeded requests 0..N-1 with the workload's own `make`, untimed, then runs
them, timed; which side goes first alternates between rounds.  The script
prints each side's minimum and median in ms, the ratio of the medians, and
whether the `repr`s of the two sides' outputs are equal (a request that
raises gives the `repr` of its exception).  bench/ is imported as it is;
the script changes nothing there.  Exits 1 if the outputs differ.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def is_cakecalc(name: str) -> bool:
    return name == "cakecalc" or name.startswith("cakecalc.")


def load(src: Path) -> dict:
    """The cakecalc modules imported from `src`, taken out of sys.modules."""
    assert not any(map(is_cakecalc, sys.modules)), "cakecalc is already imported"
    sys.path.insert(0, str(src))
    try:
        import cakecalc.cli  # noqa: F401  (the fair_division workload calls cli.run)
    finally:
        sys.path.remove(str(src))
    return {name: sys.modules.pop(name) for name in list(sys.modules) if is_cakecalc(name)}


def run_side(modules: dict, workload, seed: int, requests: int, workdir: Path):
    """(seconds, outputs) of one timed pass over the request stream."""
    sys.modules.update(modules)
    try:
        wl = workload(modules["cakecalc"], seed, workdir)
        try:
            reqs = [wl.make(i) for i in range(requests)]
            outs = []
            start = perf_counter()
            for req in reqs:
                try:
                    outs.append(wl.run(req))
                except Exception as exc:  # a failing request is an output too
                    outs.append(exc)
            elapsed = perf_counter() - start
        finally:
            wl.close()
    finally:
        for name in modules:
            del sys.modules[name]
    return elapsed, outs


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="root of the base checkout")
    ap.add_argument("--workload", default="iterates")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--requests", type=int, default=300)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    if not (args.base / "src" / "cakecalc").is_dir():
        ap.error(f"{args.base} has no src/cakecalc")

    sys.dont_write_bytecode = True  # leave no __pycache__ in either tree
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    sides = {"base": load(args.base.resolve() / "src"), "this": load(ROOT / "src")}
    times = {side: [] for side in sides}
    shown = {}
    with tempfile.TemporaryDirectory() as workdir:
        for k in range(args.rounds):
            for side in sorted(sides, reverse=k % 2 == 1):
                elapsed, outs = run_side(sides[side], WORKLOADS[args.workload],
                                         args.seed, args.requests, Path(workdir))
                times[side].append(elapsed * 1000)
                shown.setdefault(side, repr(outs))

    print(f"{args.workload} seed {args.seed}: {args.requests} requests, {args.rounds} rounds")
    for side, ms in times.items():
        print(f"{side}  min {min(ms):.1f} ms  median {statistics.median(ms):.1f} ms")
    ratio = statistics.median(times["this"]) / statistics.median(times["base"])
    print(f"median ratio this/base {ratio:.3f}")
    equal = shown["base"] == shown["this"]
    print(f"outputs equal: {'yes' if equal else 'no'}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
