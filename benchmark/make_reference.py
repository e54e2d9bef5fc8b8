"""Regenerate ``reference.json``: the sha256 goldens of every op's stdout
for the default seed, the instance-size statistics of each workload, and
which end-to-end metric (at which workload) each per-layer metric should
move. The workloads' reasons and the metric units are in BENCHMARK.json.

    python3 benchmark/make_reference.py

Run it from a checkout whose program output is known to be right, and
only when the instance families or the program's output format change
on purpose. It checks every op with the workload checks before writing.
"""

from __future__ import annotations

import json
import statistics
import sys

import checks
import instances
import run
import tracing

_SOLVE = ["op_p50_s@solve-contested"]
_SOLVE_ALL = ["op_p50_s@solve-contested", "op_tail_s@solve-contested", "ops_per_s@solve-contested"]
_VERIFY = ["op_p50_s@verify-dense", "op_tail_s@verify-dense"]
_ANALYZE = ["op_p50_s@analyze-grid", "ops_per_s@analyze-grid"]
_CLI = ["op_p50_s@analyze-grid", "cli_process_p50_s@every workload"]
_CONTROL = ["none: control layer, should stay negligible everywhere"]

# Per-layer metric -> the end-to-end metrics (at workload) it should move.
MOVES = {
    "equilibrium.attacker_br_s": _SOLVE_ALL,
    "equilibrium.attack_candidates": _SOLVE_ALL,
    "equilibrium.attack_subsets": _SOLVE_ALL,
    "equilibrium.checks_self_s": _SOLVE,
    "equilibrium.saturation_s": _SOLVE,
    "equilibrium.saturation_lps": _SOLVE,
    "flows.all_min_cuts_s": _SOLVE,
    "flows.partitions": _SOLVE,
    "flows.min_cuts": _SOLVE,
    "equilibrium.router_br_s": _VERIFY,
    "equilibrium.enumerate_paths_s": _VERIFY,
    "equilibrium.paths_enumerated": _VERIFY,
    "lp.packing_cols": _VERIFY,
    "lp.packing_rows": _VERIFY,
    "lp.solve_s": _SOLVE + _VERIFY,
    "flows.analyze_s": _ANALYZE,
    "flows.max_flow_s": _ANALYZE,
    "flows.min_cost_max_flow_s": _ANALYZE,
    "flows.decompose_s": _ANALYZE,
    "flows.cheapest_path_cost_s": _ANALYZE,
    "network.parse_s": _CLI,
    "cli.overhead_s": _CLI,
    "cli.output_bytes": _CLI,
    "equilibrium.construct_s": _CONTROL,
    "game.expected_payoffs_s": _CONTROL,
    "game.edge_loads_s": _CONTROL,
    "trace.op_span_s": ["none: the traced op span, base of the shares"],
    "trace.overhead_ratio": ["none: traced op span over untraced op_p50_s"],
}


def _summary(values: list) -> dict:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def _paths(instance) -> int:
    net = instance.files["net.json"]
    adj: dict = {node: [] for node in net["nodes"]}
    for edge in net["edges"]:
        adj[edge["from"]].append(edge["to"])
    return len(instances.short_paths(adj, "s", "t", len(adj)))


def _candidates(instance, report: dict):
    """Edges the attacker enumerates: those loaded by the router mixture."""
    if instance.workload == "solve-contested":
        mixture = report["equilibrium"]["p1_strategy"]
    elif instance.workload == "verify-dense":
        mixture = instance.files["profile.json"]["p1_strategy"]
    else:
        return None
    return len({
        hop
        for entry in mixture
        for path in entry["flow"]["paths"]
        for hop in zip(path["nodes"], path["nodes"][1:])
    })


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    _, cli, _ = run.import_flowgame()
    reference = {"seed": run.DEFAULT_SEED, "goldens": {}, "workloads": {}}
    for name in instances.WORKLOADS:
        goldens, nodes, edges, paths, candidates = [], [], [], [], []
        for index in range(run.POOL[name]):
            instance = instances.generate(name, run.DEFAULT_SEED, index)
            argv = instances.write(instance, run.OUT / "reference" / name / f"{index:03d}")
            outcome = run.call_cli(cli.main, argv)
            cause = outcome.cause or checks.check_op(instance, outcome.code, outcome.stdout, None)
            if cause is not None:
                print(f"error: {name} instance {index}: {cause}", file=sys.stderr)
                return 1
            goldens.append(checks.sha256(outcome.stdout))
            nodes.append(instance.facts["nodes"])
            edges.append(instance.facts["edges"])
            if name != "analyze-grid":
                paths.append(_paths(instance))
            candidates.append(_candidates(instance, json.loads(outcome.stdout)))
        reference["goldens"][name] = goldens
        reference["workloads"][name] = {
            "instances": run.POOL[name],
            "size_schedule": instances.SCHEDULE[name],
            "nodes": _summary(nodes),
            "edges": _summary(edges),
            "simple_paths": _summary(paths) if paths else "not enumerated (grids)",
            "attack_candidate_edges": (
                _summary(candidates) if candidates[0] is not None else "attacker never runs"
            ),
            "share_with_at_most_16_nodes": sum(n <= 16 for n in nodes) / len(nodes),
        }
    reference["per_layer_moves"] = {
        name: MOVES[name.removesuffix(".total").removesuffix(".share")]
        for name in tracing.per_layer_metric_units()
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {run.REFERENCE.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
