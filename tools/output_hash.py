"""Hash the outputs of the benchmark workloads, to check that a change
leaves every answer as it was.

    python tools/output_hash.py [--requests N] [--seeds 1,2,3]

For each seed and each workload of bench/workloads.py, the script builds
requests 0..N-1 (N defaults to 400) with the workload's own `make`, sends
them through its `run` against the cakecalc in src/ of this checkout, and
prints one line: the workload, the seed and the SHA-256 of the `repr` of
the outputs, one per line.  A request that raises hashes as the `repr` of
its exception.  Files a workload writes go to a temporary directory.  Run
the script in two checkouts and compare the lines: equal digests mean
equal outputs, also equal set types and dens.  bench/ is imported as it
is; the script changes nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digests(requests: int, seeds: list[int]) -> list[tuple[str, int, str]]:
    """(workload, seed, hex digest) for every seed and workload."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import cakecalc
    import cakecalc.cli  # noqa: F401  (the fair_division workload calls cli.run)
    from workloads import WORKLOADS

    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            for name, workload in WORKLOADS.items():
                wl = workload(cakecalc, seed, Path(workdir))
                h = hashlib.sha256()
                try:
                    for i in range(requests):
                        try:
                            out = wl.run(wl.make(i))
                        except Exception as exc:  # a failing request is an output too
                            out = exc
                        h.update(repr(out).encode() + b"\n")
                finally:
                    wl.close()
                lines.append((name, seed, h.hexdigest()))
    return lines


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--requests", type=int, default=400)
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    for name, seed, digest in digests(args.requests, seeds):
        print(f"{name} {seed} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
