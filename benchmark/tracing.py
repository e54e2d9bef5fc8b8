"""Spans around the calls into each layer, recorded from outside the
program.

The tracer swaps each traced function for a timing wrapper in every
``flowgame`` module namespace that refers to it, so calls between layers
(``cli`` -> ``flows.analyze`` -> ``flows.max_flow``) are seen too. It finds
the functions only by the names the ``flowgame`` package exports, plus
``flowgame.lp.solve_lp``, so internal refactors that keep those names do
not break it. Spans live in memory until the run ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Traced functions: name exported by the flowgame package -> span name.
TRACED = {
    "network_from_json": "network.parse",
    "analyze": "flows.analyze",
    "max_flow": "flows.max_flow",
    "min_cost_max_flow": "flows.min_cost_max_flow",
    "decompose": "flows.decompose",
    "cheapest_path_cost": "flows.cheapest_path_cost",
    "all_min_cuts": "flows.all_min_cuts",
    "construct_equilibrium": "equilibrium.construct",
    "verify_equilibrium": "equilibrium.verify",
    "best_router_response": "equilibrium.router_br",
    "enumerate_simple_paths": "equilibrium.enumerate_paths",
    "best_attacker_response": "equilibrium.attacker_br",
    "edge_always_saturated": "equilibrium.saturation",
    "expected_payoffs": "game.expected_payoffs",
    "expected_edge_loads": "game.edge_loads",
}
# The same for flowgame.lp, whose solver the package does not export.
LP_TRACED = {"solve_lp": "lp.solve"}
OP = "cli.main"

# Spans whose call arguments or result feed a counter.
KEEP_CALL = {
    "equilibrium.attacker_br",
    "equilibrium.enumerate_paths",
    "flows.all_min_cuts",
    "lp.solve",
}

# Per-layer time metrics: metric name -> span name. ``cli.overhead_s`` and
# ``equilibrium.checks_self_s`` are derived below.
TIME_METRICS = {
    "network.parse_s": "network.parse",
    "flows.analyze_s": "flows.analyze",
    "flows.max_flow_s": "flows.max_flow",
    "flows.min_cost_max_flow_s": "flows.min_cost_max_flow",
    "flows.decompose_s": "flows.decompose",
    "flows.cheapest_path_cost_s": "flows.cheapest_path_cost",
    "flows.all_min_cuts_s": "flows.all_min_cuts",
    "equilibrium.construct_s": "equilibrium.construct",
    "equilibrium.router_br_s": "equilibrium.router_br",
    "equilibrium.enumerate_paths_s": "equilibrium.enumerate_paths",
    "equilibrium.attacker_br_s": "equilibrium.attacker_br",
    "equilibrium.saturation_s": "equilibrium.saturation",
    "game.expected_payoffs_s": "game.expected_payoffs",
    "game.edge_loads_s": "game.edge_loads",
    "lp.solve_s": "lp.solve",
}
DERIVED_TIME_METRICS = ("equilibrium.checks_self_s", "cli.overhead_s")
COUNT_METRICS = (
    "equilibrium.attack_candidates",
    "equilibrium.attack_subsets",
    "equilibrium.saturation_lps",
    "flows.partitions",
    "flows.min_cuts",
    "equilibrium.paths_enumerated",
    "lp.packing_cols",
    "lp.packing_rows",
    "cli.output_bytes",
)


def per_layer_metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in (*TIME_METRICS, *DERIVED_TIME_METRICS):
        units[name] = "s"
        units[name + ".total"] = "s"
        units[name + ".share"] = "ratio"
    for name in COUNT_METRICS:
        units[name] = "count"
    units["trace.op_span_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "call")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.call = None


class Tracer:
    """Records spans (name, start, end, parent, op id) in memory."""

    def __init__(self, package, lp_module):
        self.spans: list = []
        self._open: list = []
        self._op = -1
        self._settled = 0
        self.counts: dict = {}  # op id -> counter values
        self._targets = {}
        for export, span_name in TRACED.items():
            self._targets[getattr(package, export)] = span_name
        for export, span_name in LP_TRACED.items():
            self._targets[getattr(lp_module, export)] = span_name
        self.originals = {name: fn for fn, name in self._targets.items()}
        self._signatures = {name: inspect.signature(fn) for fn, name in self._targets.items()}

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            span = Span(name, 0, tracer._open[-1] if tracer._open else -1, tracer._op)
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._open.append(index)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                tracer._open.pop()
            if name in KEEP_CALL:
                span.call = (args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap the traced functions for wrappers in every loaded flowgame
        module, and put the originals back on exit."""
        wrappers = {fn: self._wrap(fn, name) for fn, name in self._targets.items()}
        swapped = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "flowgame" or module_name.startswith("flowgame.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    swapped.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in swapped:
                setattr(module, attr, value)

    def op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span of op ``op_id``."""
        self._op = op_id
        try:
            return self._wrap(fn, OP)(*args)
        finally:
            self._op = -1

    def settle(self) -> None:
        """Compute the counters of the ops run since the last call, then
        drop the call arguments and results the spans held for them."""
        for span in self.spans[self._settled:]:
            counts = self.counts.setdefault(span.op, dict.fromkeys(COUNT_METRICS, 0))
            _count(self, span, counts)
            span.call = None
        self._settled = len(self.spans)

    def bound(self, span: Span) -> dict:
        args, kwargs, _ = span.call
        bound = self._signatures[span.name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name, "start_ns": span.start, "end_ns": span.end,
                    "parent": span.parent, "op": span.op,
                }) + "\n")


# ---------------------------------------------------------------------------
# From spans to per-op numbers
# ---------------------------------------------------------------------------

def per_op(tracer: Tracer) -> list:
    """One dict per traced op: inclusive and self time per span name, the
    check phase of verification, and the counters. Call ``settle`` first."""
    children: dict = {}
    ops: dict = {}
    for index, span in enumerate(tracer.spans):
        children.setdefault(span.parent, []).append(index)
        if span.name == OP:
            ops[span.op] = index
    results = []
    for op_id, root in sorted(ops.items()):
        times: dict = {}
        self_times: dict = {}
        checks_ns = 0
        stack = [root]
        while stack:
            index = stack.pop()
            span = tracer.spans[index]
            kids = children.get(index, [])
            stack.extend(kids)
            duration = span.end - span.start
            covered = sum(tracer.spans[k].end - tracer.spans[k].start for k in kids)
            times[span.name] = times.get(span.name, 0) + duration
            self_times[span.name] = self_times.get(span.name, 0) + duration - covered
            if span.name == "equilibrium.verify":
                responses = [tracer.spans[k].end for k in kids
                             if tracer.spans[k].name in ("equilibrium.router_br", "equilibrium.attacker_br")]
                if responses:
                    checks_ns += span.end - max(responses)
        results.append({
            "op": op_id,
            "times_ns": times,
            "self_ns": self_times,
            "checks_ns": checks_ns,
            "counts": dict(tracer.counts[op_id]),
        })
    return results


def _count(tracer: Tracer, span: Span, counts: dict) -> None:
    if span.name == "equilibrium.saturation":
        counts["equilibrium.saturation_lps"] += 1
    if span.call is None:
        return
    result = span.call[2]
    if span.name == "equilibrium.attacker_br":
        args = tracer.bound(span)
        loads = tracer.originals["game.edge_loads"](args["net"], args["s1"])
        k = len(loads) if args.get("exhaustive") else sum(1 for v in loads.values() if v > 0)
        counts["equilibrium.attack_candidates"] += k
        counts["equilibrium.attack_subsets"] += 2 ** k
    elif span.name == "flows.all_min_cuts":
        n = len(tracer.bound(span)["net"].nodes)
        counts["flows.partitions"] += 2 ** (n - 2)
        counts["flows.min_cuts"] += len(result)
    elif span.name == "equilibrium.enumerate_paths":
        counts["equilibrium.paths_enumerated"] += len(result)
    elif span.name == "lp.solve":
        parent = tracer.spans[span.parent] if span.parent >= 0 else None
        if parent is not None and parent.name == "equilibrium.router_br":
            args = tracer.bound(span)
            counts["lp.packing_cols"] += len(args["minimize"])
            counts["lp.packing_rows"] += len(args["eq"]) + len(args["ub"])


def layer_metrics(ops: list, factors: list, output_bytes: list, untraced_op_s: list) -> dict:
    """The per-layer metrics of a traced run, from ``per_op`` records, the
    factor that scales each op's times to the reference speed, the stdout
    size of each traced op, and the untraced times of the same ops."""
    span_total = sum(op["times_ns"][OP] for op in ops)
    metrics = {}

    def add_time(name, values_ns):
        scaled = [v * f / 1e9 for v, f in zip(values_ns, factors)]
        metrics[name] = statistics.median(scaled)
        metrics[name + ".total"] = sum(scaled)
        metrics[name + ".share"] = sum(values_ns) / span_total

    for metric, span_name in TIME_METRICS.items():
        add_time(metric, [op["times_ns"].get(span_name, 0) for op in ops])
    add_time("equilibrium.checks_self_s", [op["checks_ns"] for op in ops])
    add_time("cli.overhead_s", [op["self_ns"][OP] for op in ops])
    for op, size in zip(ops, output_bytes):
        op["counts"]["cli.output_bytes"] = size
    for name in COUNT_METRICS:
        metrics[name] = statistics.median(op["counts"][name] for op in ops)
    metrics["trace.op_span_s"] = statistics.median(
        op["times_ns"][OP] * f / 1e9 for op, f in zip(ops, factors)
    )
    metrics["trace.overhead_ratio"] = metrics["trace.op_span_s"] / statistics.median(untraced_op_s)
    return metrics


def self_time_table(ops: list) -> dict:
    """Run total of each span name's self time, in seconds; with the op
    span's own self time (``cli.overhead``) they add up to the op spans."""
    table: dict = {}
    for op in ops:
        for name, ns in op["self_ns"].items():
            table[name] = table.get(name, 0) + ns
    return {
        "self_s": {name: ns / 1e9 for name, ns in sorted(table.items())},
        "sum_matches_op_spans": sum(table.values()) == sum(op["times_ns"][OP] for op in ops),
    }
