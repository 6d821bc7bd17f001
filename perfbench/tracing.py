"""Timing spans around the public functions of nfgdual's layers.

`Tracer.install` replaces, at run time, every public function that a layer
module defines or imports from another layer with a wrapper that records one
span per call: name, layer, start, end, parent span, operation id, and the
call's arguments and result for counting. Replacing the imported names as
well (for example `run_bp` and `map_dual_to_primal` as bound inside
`nfgdual.samplers`) is what makes calls between layers visible. No program
file changes; spans stay in memory until `write` is called.

Spans are recorded only while an operation id is set, so output checks that
call into the library between operations leave no spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import types

LAYERS = ("graphs", "nfg", "oracle", "mapping", "bp", "samplers", "gaussian")

SMALL_BP_VARIABLES = 24  # bp.call_ms_small covers run_bp calls on at most this many variables


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "args", "result")

    def __init__(self, name, layer, start, parent, op, args):
        self.name, self.layer, self.start, self.parent, self.op, self.args = (
            name, layer, start, parent, op, args)
        self.end = None
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None  # "setup", "warmup", an operation index, or None (not recording)

    def install(self, package) -> None:
        """Wrap every public function of every layer module of `package`."""
        wrapped = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                home = fn.__module__.rpartition(".")[2]
                if home not in LAYERS:
                    continue
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(fn, home, f"{home}.{fn.__name__}")
                setattr(module, attr, wrapped[fn])

    def _wrap(self, fn, layer, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            return tracer._call(fn, layer, name, args, kwargs)

        return wrapper

    def _call(self, fn, layer, name, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        span = Span(name, layer, 0.0, parent, self.op, (args, kwargs))
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            span.result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
        return span.result

    def write(self, path) -> None:
        """One JSON line per span: name, layer, start, end, parent, op."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op,
                }) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _subtree_layer_time(spans, own, root, layer, children) -> float:
    """Self time of `layer` inside the subtree rooted at span index `root`."""
    total, todo = 0.0, [root]
    while todo:
        i = todo.pop()
        if spans[i].layer == layer:
            total += own[i]
        todo.extend(children.get(i, ()))
    return total


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def _sweeps(cfg, num_variables) -> int:
    return cfg.resolved_burn_in(num_variables) + cfg.samples * cfg.thinning


def _bp_variables(model) -> int:
    g = model.graph
    return g.num_vertices if model.domain == "primal" else g.num_edges


def _bp_slots(model) -> int:
    """Message slots, the sum of factor degrees: 2|E| + |V| primal, 3|E| dual."""
    g = model.graph
    return 2 * g.num_edges + g.num_vertices if model.domain == "primal" else 3 * g.num_edges


def layer_metrics(tracer: Tracer, num_ops: int) -> dict:
    """Per-layer metrics from the spans of set-up and of the timed operations.

    A metric of a layer that the workload never calls reads 0.
    """
    spans = tracer.spans
    own = self_times(spans)
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)
    timed = [i for i, s in enumerate(spans) if isinstance(s.op, int)]
    setup_top = [i for i, s in enumerate(spans) if s.op == "setup" and s.parent == -1]

    def calls(name):
        return [i for i in timed if spans[i].name == name]

    def mean_ms(indices):
        return 1e3 * statistics.fmean(spans[i].duration for i in indices) if indices else 0.0

    m = {}
    for layer in LAYERS:
        busy = sum(own[i] for i in timed if spans[i].layer == layer)
        m[f"{layer}.busy_ms_per_estimate"] = (1e3 * busy / num_ops, "ms")
    m["graphs.build_ms"] = (
        1e3 * sum(spans[i].duration for i in setup_top if spans[i].layer == "graphs"), "ms")
    m["nfg.model_build_ms"] = (
        1e3 * sum(spans[i].duration for i in setup_top if spans[i].layer == "nfg"), "ms")
    m["nfg.dualize_ms"] = (mean_ms(calls("nfg.dualize")), "ms")

    states, oracle_time = 0, 0.0
    for i in timed:
        s = spans[i]
        if s.layer != "oracle":
            continue
        oracle_time += own[i]
        if s.name in ("oracle.partition_primal", "oracle.marginals_primal"):
            model = s.args[0][0]
            states += model.alphabet.q ** model.graph.num_vertices
        elif s.name in ("oracle.partition_dual", "oracle.marginals_dual"):
            model = s.args[0][0]
            states += model.alphabet.q ** model.graph.num_edges
    m["oracle.states_per_s"] = (_rate(states, oracle_time), "1/s")

    maps = [i for i in timed if spans[i].name in
            ("mapping.map_dual_to_primal", "mapping.map_primal_to_dual")]
    mapping_time = sum(own[i] for i in timed if spans[i].layer == "mapping")
    m["mapping.maps_per_s"] = (_rate(len(maps), mapping_time), "1/s")

    bp_calls = calls("bp.run_bp")
    iters = {"primal": [], "dual": []}
    updates, bp_time, converged, small = 0, 0.0, 0, []
    for i in bp_calls:
        model, result = spans[i].args[0][0], spans[i].result
        iters[model.domain].append(result.iterations)
        updates += result.iterations * _bp_slots(model)
        bp_time += _subtree_layer_time(spans, own, i, "bp", children)
        converged += bool(result.converged)
        if _bp_variables(model) <= SMALL_BP_VARIABLES:
            small.append(i)
    for domain in ("primal", "dual"):
        m[f"bp.iterations_{domain}"] = (
            statistics.median(iters[domain]) if iters[domain] else 0, "count")
    m["bp.message_updates_per_s"] = (_rate(updates, bp_time), "1/s")
    m["bp.call_ms_small"] = (mean_ms(small), "ms")
    m["bp.converged_ratio"] = (converged / len(bp_calls) if bp_calls else 0.0, "ratio")

    def chain_rate(name, layer, variables):
        count, seconds = 0, 0.0
        for i in calls(name):
            model, cfg = spans[i].args[0][:2]
            n = variables(model)
            count += n * _sweeps(cfg, n)
            seconds += _subtree_layer_time(spans, own, i, layer, children)
        return _rate(count, seconds)

    m["samplers.gibbs_primal.site_updates_per_s"] = (
        chain_rate("samplers.gibbs_primal", "samplers", lambda p: p.graph.num_vertices), "1/s")
    m["samplers.gibbs_dual.site_updates_per_s"] = (
        chain_rate("samplers.gibbs_dual", "samplers", lambda d: d.graph.num_edges), "1/s")
    m["samplers.swp.proposals_per_s"] = (
        chain_rate("samplers.swp", "samplers", lambda p: p.graph.num_edges), "1/s")
    m["gaussian.primal.site_updates_per_s"] = (
        chain_rate("gaussian.gmrf_primal_gibbs", "gaussian", lambda g: g.graph.num_vertices),
        "1/s")
    m["gaussian.dual.site_updates_per_s"] = (
        chain_rate("gaussian.gmrf_dual_gibbs", "gaussian", lambda g: g.graph.num_edges), "1/s")
    exact = [i for i in timed if spans[i].name in
             ("gaussian.exact_variances", "gaussian.exact_dual_vertex_variances")]
    m["gaussian.exact_ms"] = (1e3 * sum(spans[i].duration for i in exact) / num_ops, "ms")
    return m
