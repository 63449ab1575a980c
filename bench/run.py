"""cakecalc benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cakecalc is imported from ./src.
Every workload is a closed loop with one client (one process, one thread).

--trace 0  prints the end-to-end metrics.  Set-up is timed in
           SETUP_SAMPLES fresh processes that only set up, plus the
           measuring process itself, and reported as their median.  The
           measuring process then sends requests untraced for S seconds.
--trace 1  prints the per-layer metrics.  One process sends a fixed batch of
           requests untraced, then wraps every public cakecalc function and
           sends the same batch again; spans go to .bench_out/spans-*.tsv.

Times are scaled to a reference machine speed (see worker.py); the
unscaled values are printed and recorded too.  Each output line before the
last is "name value unit", "meta: {...}" or "failure: ...";
the last line is one JSON object with keys correct, attempted, failed and
metrics.  A copy of the result, with the meta data, is written to
.bench_out/result-<workload>-seed<N>-trace<T>.json.  Exits 2 on bad
arguments or a missing source tree, 1 if a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("fair_division", "singular", "iterates")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
BUDGET_S = 170  # a run must end within 180 s

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("exact_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
LAYERS = ("intervals", "valuation", "cantor", "foundations", "protocols", "config", "cli")
PER_LAYER = tuple(
    (f"{layer}.{m}", unit)
    for layer in LAYERS
    for m, unit in (("calls", "count"), ("self_ms_per_op", "ms"), ("errors", "count"))
) + (
    ("valuation.probes_per_inversion", "ratio"),
    ("cantor.exact_share", "ratio"),
    ("intervals.components_per_op", "count"),
    ("protocols.rw_eval_queries", "count"),
    ("protocols.rw_cut_queries", "count"),
    ("cli.import_ms", "ms"),
    ("trace_overhead_ratio", "ratio"),
)


class WorkerFailed(Exception):
    pass


def worker(deadline: float, **args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")]
    for key, value in args.items():
        cmd += [f"--{key}", str(value)]
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise WorkerFailed("time budget used up before " + " ".join(cmd[2:]))
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerFailed(f"{' '.join(cmd[2:])} exceeded the time budget") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerFailed(f"{' '.join(cmd[2:])} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(args, deadline) -> tuple[dict, dict, dict]:
    samples = [
        worker(deadline, workload=args.workload, seed=args.seed, mode="setup")
        for _ in range(SETUP_SAMPLES)
    ]
    r = worker(deadline, workload=args.workload, seed=args.seed, mode="measure",
               seconds=args.seconds)
    samples.append(r)
    values = {name: r[name] for name, _ in END_TO_END if name in r}
    values["setup_s"] = statistics.median(x["setup_s"] for x in samples)
    raw = {k: r[k] for k in ("raw_ops_per_s", "raw_latency_p50_ms", "raw_latency_p95_ms")}
    raw["raw_setup_s"] = statistics.median(x["raw_setup_s"] for x in samples)
    detail = {
        "raw": raw,
        "setup_samples_s": [x["setup_s"] for x in samples],
        "beyond_p95": r["beyond_p95"],
        "errors": r["errors"],
    }
    return r, values, detail


def per_layer(args, deadline) -> tuple[dict, dict, dict]:
    imports = [
        worker(deadline, mode="import")["import_s"] for _ in range(IMPORT_SAMPLES)
    ]
    r = worker(deadline, workload=args.workload, seed=args.seed, mode="trace")
    t = r["traced"]
    values = dict(r["layers"])
    values["cli.import_ms"] = 1000 * statistics.median(imports)
    values["trace_overhead_ratio"] = r["ops_per_s"] / t["ops_per_s"] if t["ops_per_s"] else 0.0
    totals = {"attempted": r["attempted"] + t["attempted"], "failed": r["failed"] + t["failed"]}
    detail = {
        "import_samples_s": imports,
        "traced_requests": t["attempted"],
        "untraced": {k: r[k] for k in ("ops_per_s", "latency_p50_ms", "latency_p95_ms")},
        "traced": {k: t[k] for k in ("ops_per_s", "latency_p50_ms", "latency_p95_ms")},
        "binding_sites": values.pop("trace.binding_sites"),
        "spans": values.pop("trace.spans"),
        "errors": r["errors"] + t["errors"],
    }
    return totals, values, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    deadline = monotonic() + BUDGET_S
    if not (ROOT / "src" / "cakecalc" / "__init__.py").is_file():
        print(f"no cakecalc source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= BUDGET_S - 30:
        print(f"--seconds must be in (0, {BUDGET_S - 30}]", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    print("meta: " + json.dumps(meta))
    try:
        if args.trace:
            totals, values, detail = per_layer(args, deadline)
            table = PER_LAYER
        else:
            totals, values, detail = end_to_end(args, deadline)
            table = END_TO_END
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for why in detail["errors"]:
        print(f"failure: {why}")
    for name, value in detail.get("raw", {}).items():
        print(f"{name} {value:.6g} (unscaled)")
    for name, unit in table:
        print(f"{name} {values[name]:.6g} {unit}")
    result = {
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "detail": detail, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
