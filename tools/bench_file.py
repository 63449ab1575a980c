"""Write a trajectory file: the benchmark's end-to-end metrics for this
checkout, and for a base checkout run in alternation with it, beside work
counts that do not drift with the machine.

    python tools/bench_file.py [--base ROOT] [--seeds 1,2,3] [--seconds 10]
                               [--workloads W,...] --out BENCH_<pr>.json

For each workload (default: all three) and each seed, the script runs the
unchanged `bench/run.py --workload W --seed S --seconds N --trace 0` once
in this checkout and, with --base, once in the base, the root of another
checkout such as one unpacked by `git archive`; which tree goes first
alternates between seeds.  The file holds, per workload and tree, every
run's metrics and speed-probe scale (raw over scaled `ops_per_s`, the
factor that the benchmark applied to the run's latencies), and the median
and quartiles of each end-to-end metric; with a base, also in how many
pairs this checkout was better, by the metric's direction in
BENCHMARK.json.  It records the Python version, `nproc` and each tree's
commit as `bench/run.py` reports it, marked "+uncommitted" where git finds
changes to tracked files.

Work counts: for each workload and tree, the cProfile call count of every
cakecalc function, keyed by module and qualified name (the name alone
before Python 3.11) and summed over code objects of one key, over
requests 0..99 of the seed-1 stream, built by the workload's own
`make` in a fresh process, as tools/traffic.py builds them.  They repeat
exactly for one tree, so they show a change in work where timings drift.
bench/ is run as it is; the script changes nothing there.  Exits 1 if a
benchmark run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("fair_division", "singular", "iterates")
CHILD = """import cProfile, json, sys, tempfile
from pathlib import Path
root, names = Path(sys.argv[1]), sys.argv[2].split(",")
sys.dont_write_bytecode = True
sys.path[:0] = [str(root / "src"), str(root / "bench")]
import cakecalc, cakecalc.cli
from workloads import WORKLOADS
package = str(root / "src" / "cakecalc")
counts = {}
with tempfile.TemporaryDirectory() as workdir:
    for name in names:
        wl = WORKLOADS[name](cakecalc, 1, Path(workdir))
        profile = cProfile.Profile()
        try:
            for req in [wl.make(i) for i in range(100)]:
                profile.enable()
                try:
                    wl.run(req)
                except Exception:  # a failing request is work too
                    pass
                profile.disable()
        finally:
            wl.close()
        calls = {}
        for entry in profile.getstats():  # one entry per code object
            code = entry.code
            if not isinstance(code, str) and code.co_filename.startswith(package):
                key = Path(code.co_filename).stem + "." + getattr(code, "co_qualname", code.co_name)
                calls[key] = calls.get(key, 0) + entry.callcount
        counts[name] = dict(sorted(calls.items()))
print(json.dumps(counts))
"""


def clean_env() -> dict:
    """The environment without PYTHONPATH, so each tree imports its own src/."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py --trace 0` run in `root`, as a record."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=clean_env())
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} in {root} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("meta: "))[6:])
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    raw_ops = next(float(line.split()[1]) for line in lines
                   if line.startswith("raw_ops_per_s ") and line.endswith("(unscaled)"))
    return {"seed": seed, "commit": meta["commit"], "python": meta["python"],
            "nproc": meta["nproc"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics,
            "probe_scale": raw_ops / metrics["ops_per_s"] if metrics["ops_per_s"] else None}


def dirty(root: Path) -> bool:
    """Whether git finds changes to tracked files in the checkout at `root`."""
    done = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
                          capture_output=True, text=True)
    return done.returncode == 0 and bool(done.stdout.strip())


def work_counts(root: Path, workloads: list[str]) -> dict:
    """{workload: {module.function: calls}} for the tree at `root`."""
    out = subprocess.run([sys.executable, "-c", CHILD, str(root), ",".join(workloads)],
                         capture_output=True, text=True, check=True, env=clean_env()).stdout
    return json.loads(out)


def summary(runs: list[dict], names: list[str]) -> dict:
    """Median and quartiles of each metric over the runs."""
    out = {"median": {}, "iqr": {}}
    for name in names:
        values = [r["metrics"][name] for r in runs]
        q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        out["median"][name], out["iqr"][name] = q[1], [q[0], q[2]]
    out["probe_scale"] = statistics.median(r["probe_scale"] or 0.0 for r in runs)
    return out


def better(metric: dict, this: float, base: float) -> bool:
    """Whether `this` beats `base` strictly, by the metric's direction."""
    return this > base if metric["better"] == "higher" else this < base


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, help="root of the base checkout")
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    if not set(workloads) <= set(WORKLOADS):
        ap.error(f"workloads are {', '.join(WORKLOADS)}")
    trees = {"this": ROOT}
    if args.base is not None:
        if not (args.base / "bench" / "run.py").is_file():
            ap.error(f"{args.base} has no bench/run.py")
        trees["base"] = args.base.resolve()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in end_to_end]

    report = {"python": None, "nproc": None, "commits": {}, "seeds": seeds,
              "seconds": args.seconds, "workloads": {}, "work_counts": {}}
    for workload in workloads:
        runs = {side: [] for side in trees}
        for k, seed in enumerate(seeds):
            for side in sorted(trees, reverse=k % 2 == 1):  # "base" first in even pairs
                runs[side].append(bench_run(trees[side], workload, seed, args.seconds))
                print(f"{workload} seed {seed} {side}: "
                      f"p95 {runs[side][-1]['metrics']['latency_p95_ms']:.4f} ms", file=sys.stderr)
        entry = {side: {"runs": r, **summary(r, names)} for side, r in runs.items()}
        if "base" in trees:
            pairs = list(zip(runs["this"], runs["base"]))
            entry["better_in"] = {m["name"]: sum(better(m, t["metrics"][m["name"]],
                                                        b["metrics"][m["name"]]) for t, b in pairs)
                                  for m in end_to_end}
            entry["pairs"] = len(seeds)
        report["workloads"][workload] = entry
    for side, root in trees.items():
        first = report["workloads"][workloads[0]][side]["runs"][0]
        report["commits"][side] = first["commit"] + ("+uncommitted" if dirty(root) else "")
        report["work_counts"][side] = work_counts(root, workloads)
    report["python"], report["nproc"] = first["python"], first["nproc"]
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
