"""One workload process: set-up, then a closed loop with one client.

    python3 bench/worker.py --workload NAME --seed N --mode MODE [--seconds S]

Modes:
  import   time `import cakecalc.cli` in this fresh process, nothing else;
  setup    import cakecalc, build the workload, warm up, and stop;
  measure  set-up, then send requests untraced for S seconds;
  trace    set-up, send the first `traced_requests` requests untraced,
           then wrap the layers and send the same requests again.

Each request starts only after the previous one has returned and been
checked.  A request's latency covers the library calls only; generating
its inputs and checking its answers happen outside the timed region.
Prints one JSON object as its last line of output.

Only `sys`, `os`, `time` and `math` are imported before set-up is timed,
so the standard-library modules cakecalc pulls in are charged to cakecalc.

Times are reported at a reference machine speed.  The benchmark was
written on a shared machine whose speed drifts by up to 2x over tens of
seconds, which no run length averages out.  So after every request the
loop times `probe()`, a fixed task on the standard library alone, and
scales the request's latency by PROBE_REF_S over the median probe time of
the neighbouring requests.  Set-up is scaled by probes taken just before
it.  Raw times are reported alongside.
"""

import os
import sys
from math import gcd
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(os.path.dirname(HERE), ".bench_out")
WARMUP = 3
PROBE_REF_S = 2e-3  # probe time at the reference speed (about this machine's median)
PROBE_WINDOW = 7  # probes on each side of a request that set its speed


def _probe_step(n: int, d: int, k: int) -> tuple[int, int]:
    n, d = n * k + d, d * k
    g = gcd(n, d)
    return n // g, d // g


def probe() -> float:
    """Seconds taken by a fixed task shaped like the library's inner loops:
    rational additions through a Python call, tuples, small sorts."""
    t = perf_counter()
    n, d = 0, 1
    acc = []
    for i in range(1, 1500):
        n, d = _probe_step(n, d, i % 97 + 1)
        acc.append((n > d, i))
        if len(acc) > 64:
            acc.sort()
            acc.clear()
    return perf_counter() - t


def speed_scale(probes: list[float]) -> float:
    """Factor from raw time to time at the reference speed."""
    return PROBE_REF_S / sorted(probes)[len(probes) // 2]


def import_cakecalc(with_cli: bool):
    sys.path.insert(0, SRC)
    import cakecalc

    if with_cli:
        import cakecalc.cli  # noqa: F401
    if not os.path.realpath(cakecalc.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"cakecalc was imported from {cakecalc.__file__}, not {SRC}")
    return cakecalc


def setup(name: str, seed: int):
    t0 = perf_counter()
    cc = import_cakecalc(with_cli=name == "fair_division")
    t1 = perf_counter()
    from workloads import WORKLOADS  # the benchmark's own code is not set-up time

    t2 = perf_counter()
    os.makedirs(OUT, exist_ok=True)
    wl = WORKLOADS[name](cc, seed, OUT)
    t3 = perf_counter()
    warmups = [wl.make(-1 - i) for i in range(WARMUP)]
    t4 = perf_counter()
    for req in warmups:
        try:
            wl.run(req)
        except Exception:  # a failing program fails the measured requests too
            pass
    t5 = perf_counter()
    return cc, wl, (t1 - t0) + (t3 - t2) + (t5 - t4)


class Loop:
    """Closed-loop statistics of one phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.failed = 0
        self.values = 0
        self.exact = 0
        self.errors: list[str] = []

    def send(self, wl, i: int) -> None:
        req = wl.make(i)
        t = perf_counter()
        try:
            out = wl.run(req)
        except Exception as exc:
            self.latencies.append(perf_counter() - t)
            self._fail(f"request {i}: {type(exc).__name__}: {exc}")
        else:
            self.latencies.append(perf_counter() - t)
            ok, values, exact = wl.check(req, out)
            self.values += values
            self.exact += exact
            if not ok:
                self._fail(f"request {i}: answer rejected by the oracle")
        self.probes.append(probe())

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def summary(self) -> dict:
        n = len(self.latencies)
        w = PROBE_WINDOW
        scaled = [
            x * speed_scale(self.probes[max(0, k - w):k + w + 1])
            for k, x in enumerate(self.latencies)
        ]
        out = {
            "attempted": n,
            "failed": self.failed,
            "beyond_p95": n - _rank(n, 0.95) - 1,
            "ok_ratio": (n - self.failed) / n if n else 0.0,
            "exact_share": self.exact / self.values if self.values else 0.0,
            "errors": self.errors,
        }
        for prefix, lat in (("", scaled), ("raw_", self.latencies)):
            lat = sorted(lat)
            busy = sum(lat)
            out[prefix + "ops_per_s"] = (n - self.failed) / busy if busy else 0.0
            out[prefix + "latency_p50_ms"] = 1000 * _quantile(lat, 0.50)
            out[prefix + "latency_p95_ms"] = 1000 * _quantile(lat, 0.95)
        return out


def _rank(n: int, q: float) -> int:
    """Index of the nearest-rank q-quantile among n sorted samples."""
    return max(0, min(n - 1, -int(-q * n // 1) - 1))


def _quantile(sorted_values: list[float], q: float) -> float:
    return sorted_values[_rank(len(sorted_values), q)] if sorted_values else 0.0


def measure(wl, seconds: float):
    import gc

    loop = Loop()
    gc.collect()
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        loop.send(wl, i)
        i += 1
    return loop


def batch(wl, tracer=None):
    """The first `traced_requests` requests, with spans if a tracer is given."""
    import gc

    loop = Loop()
    gc.collect()
    for i in range(wl.traced_requests):
        if tracer is not None:
            tracer.request = i
        loop.send(wl, i)
    return loop


def traced(cc, wl):
    import cakecalc.cli  # noqa: F401  (wrapped like every other layer)
    from tracing import Tracer

    tracer = Tracer()
    sites = tracer.install(cc)
    loop = batch(wl, tracer)
    tracer.request = -1
    metrics = tracer.layer_metrics(wl.traced_requests, speed_scale(loop.probes))
    tracer.dump(os.path.join(OUT, f"spans-{wl.name}.tsv"))
    metrics["trace.binding_sites"] = sites
    metrics["trace.spans"] = len(tracer.start)
    return loop, metrics


def parse_args(argv: list[str]) -> dict:
    if len(argv) % 2 or any(not k.startswith("--") for k in argv[::2]):
        raise SystemExit(__doc__)
    args = {k[2:]: v for k, v in zip(argv[::2], argv[1::2])}
    if args.get("mode") not in ("import", "setup", "measure", "trace"):
        raise SystemExit(__doc__)
    return args


def main() -> int:
    args = parse_args(sys.argv[1:])
    scale = speed_scale([probe() for _ in range(9)])
    if args["mode"] == "import":
        t = perf_counter()
        import_cakecalc(with_cli=True)
        print('{"import_s": %r}' % ((perf_counter() - t) * scale))
        return 0

    cc, wl, setup_s = setup(args["workload"], int(args["seed"]))
    import json
    import resource

    result = {"setup_s": setup_s * scale, "raw_setup_s": setup_s}
    try:
        if args["mode"] == "measure":
            result.update(measure(wl, float(args["seconds"])).summary())
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args["mode"] == "trace":
            result.update(batch(wl).summary())
            loop, layers = traced(cc, wl)
            result["traced"] = loop.summary()
            result["layers"] = layers
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
