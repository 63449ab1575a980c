"""Spans around the public functions of each cakecalc module.

install() replaces every public module-level function of the layers below
at every place it is bound: its own module attribute, each `from ... import`
name in another cakecalc module (for example `cakecalc.cli.evaluate` or the
package-level `cakecalc.cut`), and values of module-level dicts such as the
CLI's protocol table.  Nothing is wrapped unless install() is called, and it
is called only in the traced run.

Spans (name, start, end, parent, request id) are kept in compact arrays and
written out by dump() when the run ends.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

LAYERS = ("intervals", "valuation", "cantor", "foundations", "protocols", "config", "cli")

VALUATION = LAYERS.index("valuation")
PROTOCOLS = LAYERS.index("protocols")

COUNTED_SETS = {"normalize", "union", "intersect", "complement", "difference"}
STAIRCASES = {"staircase", "staircase_bracket", "staircase_exact_third"}
INVERSIONS = {"cut", "prefix_with_value", "slice_valuation"}
PROBES = {"evaluate", "cdf"}
RW_CUTS = {"cut", "prefix_with_value"}
PROTOCOL_RUNS = {"cut_and_choose", "last_diminisher", "moving_knife"}


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # (layer, function) per name id
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request_of = array("i")
        self.errors: list[int] = []
        self.stack: list[int] = []
        self.request = -1
        self.components = 0  # returned by the COUNTED_SETS functions
        self.staircase_values = 0  # staircase results entered from outside cantor
        self.staircase_exact = 0

    def install(self, package) -> int:
        """Wrap every public function of the layers; returns binding sites."""
        modules = {m: sys.modules[f"{package.__name__}.{m}"] for m in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (callable(fn) and not attr.startswith("_") and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == module.__name__):
                    wrapped[id(fn)] = self._wrap(layer, attr, fn)
        sites = 0
        namespaces = [vars(package)] + [vars(m) for m in modules.values()]
        for ns in namespaces:
            for attr, value in list(ns.items()):
                if id(value) in wrapped:
                    ns[attr] = wrapped[id(value)]
                    sites += 1
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in wrapped:
                            value[key] = wrapped[id(item)]
                            sites += 1
        return sites

    def _wrap(self, layer: str, fname: str, fn):
        nid = len(self.names)
        self.names.append((layer, fname))
        self.errors.append(0)
        stack = self.stack
        post = None
        if layer == "intervals" and fname in COUNTED_SETS:
            post = self._count_components
        elif layer == "cantor" and fname in STAIRCASES:
            post = self._count_exact

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request_of.append(self.request)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[nid] += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if post is not None:
                post(idx, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _count_components(self, idx, result):
        self.components += len(result)

    def _count_exact(self, idx, result):
        parent = self.parent[idx]
        if parent >= 0 and self.names[self.name[parent]][0] == "cantor":
            return
        self.staircase_values += 1
        if not isinstance(result, tuple) or result[0] == result[1]:
            self.staircase_exact += 1

    def layer_metrics(self, requests: int, scale: float) -> dict[str, float]:
        """Per-layer calls, self time per request (times `scale`, the factor
        to the reference speed), errors, and the ratios measured at layer
        boundaries."""
        n = len(self.start)
        layer_of = [LAYERS.index(layer) for layer, _ in self.names]
        fname = [f for _, f in self.names]
        child = [0.0] * n
        self_time = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        errors = [0] * len(LAYERS)
        for nid, count in enumerate(self.errors):
            errors[layer_of[nid]] += count
        in_inversion = bytearray(n)  # an ancestor is an inversion
        in_probe = bytearray(n)  # an ancestor is a probe
        probes = inversions = rw_eval = rw_cut = 0
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        # spans were appended in call order, so each parent precedes its children
        for i in range(n):
            nid = name[i]
            f = fname[nid]
            layer = layer_of[nid]
            calls[layer] += 1
            self_time[layer] += end[i] - start[i] - child[i]
            par = parent[i]
            if par >= 0:
                pf = fname[name[par]]
                in_inversion[i] = in_inversion[par] or pf in INVERSIONS
                in_probe[i] = in_probe[par] or pf in PROBES
                if pf in PROTOCOL_RUNS and layer_of[name[par]] == PROTOCOLS:
                    rw_eval += f == "evaluate"
                    rw_cut += f in RW_CUTS
            if layer == VALUATION:
                if f in INVERSIONS and not in_inversion[i]:
                    inversions += 1
                elif f in PROBES and in_inversion[i] and not in_probe[i]:
                    probes += 1
        out = {}
        per_op = 1000.0 * scale / max(1, requests)
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = calls[k]
            out[f"{layer}.self_ms_per_op"] = self_time[k] * per_op
            out[f"{layer}.errors"] = errors[k]
        out["valuation.probes_per_inversion"] = probes / inversions if inversions else 0.0
        out["cantor.exact_share"] = (
            self.staircase_exact / self.staircase_values if self.staircase_values else 0.0
        )
        out["intervals.components_per_op"] = self.components / max(1, requests)
        out["protocols.rw_eval_queries"] = rw_eval
        out["protocols.rw_cut_queries"] = rw_cut
        return out

    def dump(self, path) -> None:
        """One span per line, in call order (the line number is the span id):
        request, parent span (-1 for none), layer.function, start and end in
        microseconds from the first span."""
        labels = [f"{layer}.{f}" for layer, f in self.names]
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("request\tparent\tname\tstart_us\tend_us\n")
            for lo in range(0, len(self.start), 10000):
                fh.writelines(
                    f"{self.request_of[i]}\t{self.parent[i]}\t{labels[self.name[i]]}"
                    f"\t{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n"
                    for i in range(lo, min(lo + 10000, len(self.start)))
                )
