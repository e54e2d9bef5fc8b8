"""Seeded instance families, one per workload.

Every generator is a pure function of ``(seed, index)``: the same pair
always gives the same files, byte for byte. The program under test only
ever sees the JSON files written here. Instances are never filtered on
what the program does with them. The size of instance ``i`` is fixed by
its position in a repeating schedule (``SCHEDULE``), so every prefix of
the op sequence mixes sizes in the same proportions whatever the seed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("solve-contested", "verify-dense", "analyze-grid")

SCHEDULE = {
    # (width of layer a, width of layer b)
    # Two slots of (5, 5) put 40% of the ops at 2^15 attack subsets, so
    # the tail percentile lands inside that stratum at 30-s run lengths.
    "solve-contested": [(3, 4), (4, 4), (4, 5), (5, 5), (5, 5)],
    # edges of the 9-node mesh, out of 57 possible
    "verify-dense": [32, 34, 36],
    # (rows, columns)
    "analyze-grid": [(10, 10), (12, 16), (15, 15), (18, 14), (20, 20)],
}
# Columns of the router's path-packing program in verify-dense.
PROFITABLE_PATHS = 120


@dataclass(frozen=True)
class Instance:
    """One op: the files it reads, the CLI arguments (file names relative
    to the instance directory), and what the output checks need to know."""

    workload: str
    files: dict  # file name -> JSON-ready object
    argv: tuple
    facts: dict


def _size(workload: str, index: int):
    schedule = SCHEDULE[workload]
    return schedule[index % len(schedule)]


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{index}")


def _network(nodes, edges) -> dict:
    return {
        "nodes": list(nodes),
        "source": "s",
        "sink": "t",
        "edges": [
            {"from": u, "to": v, "capacity": str(cap), "cost": str(cost)}
            for u, v, cap, cost in edges
        ],
    }


def _rational(rng: random.Random, low: int, high: int) -> Fraction:
    """A random rational strictly between ``low`` and ``high``."""
    den = rng.randint(2, 7)
    return Fraction(rng.randint(low * den + 1, high * den - 1), den)


def _probabilities(rng: random.Random, count: int) -> list:
    weights = [rng.randint(1, 6) for _ in range(count)]
    return [str(Fraction(w, sum(weights))) for w in weights]


# ---------------------------------------------------------------------------
# solve-contested: depth-2 layered networks in Region III
# ---------------------------------------------------------------------------

def layered(seed: int, index: int) -> Instance:
    """s -> layer a -> layer b -> t, with every s->a, a->b and b->t edge.
    Costs are uniform within a layer, so every path costs the same and
    cheapest-path routing always holds.

    The s->a and b->t edges have capacity 1, the a->b edges capacity 1-3.
    The optimal flow is integral and matches min(wa, wb) a-nodes to
    b-nodes, so exactly 3 * min(wa, wb) edges carry flow: the attacker
    enumerates 2^9, 2^12 or 2^15 subsets, fixed by the widths and within
    the CLI's default budget of 20 candidate edges. p1 lies above the path
    cost and p2 above 1 (Region III)."""
    rng = _rng("solve-contested", seed, index)
    wa, wb = _size("solve-contested", index)
    layer_a = [f"a{i}" for i in range(wa)]
    layer_b = [f"b{j}" for j in range(wb)]
    c1, c2, c3 = (rng.randint(0, 2) for _ in range(3))
    edges = [("s", a, 1, c1) for a in layer_a]
    edges += [(a, b, rng.randint(1, 3), c2) for a in layer_a for b in layer_b]
    edges += [(b, "t", 1, c3) for b in layer_b]
    path_cost = c1 + c2 + c3
    p1 = path_cost + _rational(rng, 0, 4)
    p2 = 1 + _rational(rng, 0, 3)
    nodes = ["s", *layer_a, *layer_b, "t"]
    return Instance(
        workload="solve-contested",
        files={"net.json": _network(nodes, edges)},
        argv=("solve", "net.json", "--p1", str(p1), "--p2", str(p2), "--format", "json"),
        facts={
            "nodes": len(nodes),
            "edges": len(edges),
            "path_cost": str(path_cost),
            "p1": str(p1),
            "p2": str(p2),
            "max_flow": str(max_flow_value(nodes, edges)),
        },
    )


# ---------------------------------------------------------------------------
# verify-dense: seeded profiles on dense 9-node meshes
# ---------------------------------------------------------------------------

def short_paths(adj: dict, source: str, sink: str, max_edges: int) -> list:
    """Simple source-sink paths of at most ``max_edges`` edges, in
    adjacency order."""
    found = []
    stack = [(source, (source,))]
    while stack:
        node, path = stack.pop()
        if node == sink:
            found.append(path)
            continue
        if len(path) > max_edges:
            continue
        for nxt in reversed(adj[node]):
            if nxt not in path:
                stack.append((nxt, path + (nxt,)))
    return found


def _p1_for_profitable_paths(nodes: list, edges: list, attacks: list, count: int) -> Fraction:
    """A p1 at which at most ``count`` simple paths, and as many as ties
    allow, are worth routing against the attacker mixture.

    A path is worth p1 * survival - cost per unit, where survival is the
    probability that no attack hits it, so it is profitable exactly when
    p1 exceeds cost / survival. p1 is put halfway between the last
    threshold that keeps at most ``count`` paths and the next one. This
    fixes the width of the router's path-packing program whatever the
    mesh looks like."""
    adj: dict = {node: [] for node in nodes}
    cost = {}
    for u, v, _, c in edges:
        adj[u].append(v)
        cost[(u, v)] = c
    hit = [(Fraction(a["prob"]), {tuple(pair) for pair in a["attack"]}) for a in attacks]
    survival: dict = {}  # which attacks miss the path -> their total probability
    paths_at = Counter()  # (cost, survival) -> number of paths
    for path in short_paths(adj, "s", "t", len(adj)):
        hops = list(zip(path, path[1:]))
        missed = tuple(pairs.isdisjoint(hops) for _, pairs in hit)
        if missed not in survival:
            survival[missed] = sum((q for (q, _), m in zip(hit, missed) if m), Fraction(0))
        if survival[missed] > 0:
            paths_at[(sum(cost[h] for h in hops), survival[missed])] += 1
    thresholds = sorted((Fraction(c) / q, n) for (c, q), n in paths_at.items())
    seen = 0
    for k, (threshold, n) in enumerate(thresholds):
        seen += n
        if seen > count:
            below = thresholds[k - 1][0] if k else Fraction(0)
            return (below + threshold) / 2
    return thresholds[-1][0] + 1 if thresholds else Fraction(1)


def dense_mesh(seed: int, index: int) -> Instance:
    """9 nodes and 32-36 of the 57 possible edges (none into s or out of
    t), capacity 1-5, cost 0-3. The router mixes the zero flow with one
    or two single-path flows of at most 4 edges, so at most 8 edges are
    loaded; the attacker mixes the empty attack with one or two attacks
    of one or two edges. The profile is rarely an equilibrium. p1 is set
    so that ``PROFITABLE_PATHS`` paths are worth routing."""
    rng = _rng("verify-dense", seed, index)
    nodes = ["s", *(f"v{i}" for i in range(7)), "t"]
    pairs = [(u, v) for u in nodes for v in nodes if u != v and u != "t" and v != "s"]
    edges = [
        (u, v, rng.randint(1, 5), rng.randint(0, 3))
        for u, v in sorted(rng.sample(pairs, _size("verify-dense", index)))
    ]
    adj = {node: [] for node in nodes}
    capacity = {}
    for u, v, cap, _ in edges:
        adj[u].append(v)
        capacity[(u, v)] = cap
    candidates = short_paths(adj, "s", "t", 4)

    flows = [[]]
    for path in rng.sample(candidates, min(len(candidates), rng.randint(1, 2))):
        bottleneck = min(capacity[hop] for hop in zip(path, path[1:]))
        amount = Fraction(bottleneck * rng.randint(1, 2), 2)
        flows.append([{"nodes": list(path), "amount": str(amount)}])
    attacks = [[]]
    for _ in range(rng.randint(1, 2)):
        chosen = sorted(rng.sample(range(len(edges)), rng.randint(1, 2)))
        hit = [[edges[i][0], edges[i][1]] for i in chosen]
        if hit not in attacks:
            attacks.append(hit)
    profile = {
        "p1_strategy": [
            {"prob": prob, "flow": {"paths": paths}}
            for prob, paths in zip(_probabilities(rng, len(flows)), flows)
        ],
        "p2_strategy": [
            {"prob": prob, "attack": hit}
            for prob, hit in zip(_probabilities(rng, len(attacks)), attacks)
        ],
    }
    p1 = _p1_for_profitable_paths(nodes, edges, profile["p2_strategy"], PROFITABLE_PATHS)
    p2 = _rational(rng, 1, 4)
    return Instance(
        workload="verify-dense",
        files={"net.json": _network(nodes, edges), "profile.json": profile},
        argv=(
            "verify", "net.json", "profile.json",
            "--p1", str(p1), "--p2", str(p2), "--format", "json",
        ),
        facts={"nodes": len(nodes), "edges": len(edges)},
    )


# ---------------------------------------------------------------------------
# analyze-grid: r x c grids with back edges
# ---------------------------------------------------------------------------

def grid(seed: int, index: int) -> Instance:
    """An r x c grid; every right and down edge exists, each left and up
    edge with probability 1/2. s feeds the left column and the right
    column drains to t through zero-cost edges that never bind.
    Capacities 1-5, costs 0-3."""
    rng = _rng("analyze-grid", seed, index)
    rows, cols = _size("analyze-grid", index)
    name = [[f"n{r}_{c}" for c in range(cols)] for r in range(rows)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            here = name[r][c]
            steps = []
            if c + 1 < cols:
                steps.append(name[r][c + 1])
            if r + 1 < rows:
                steps.append(name[r + 1][c])
            if c > 0 and rng.random() < 0.5:
                steps.append(name[r][c - 1])
            if r > 0 and rng.random() < 0.5:
                steps.append(name[r - 1][c])
            edges += [(here, there, rng.randint(1, 5), rng.randint(0, 3)) for there in steps]
    never_binds = 5 * cols + 1
    edges += [("s", name[r][0], never_binds, 0) for r in range(rows)]
    edges += [(name[r][cols - 1], "t", never_binds, 0) for r in range(rows)]
    nodes = ["s", *(n for row in name for n in row), "t"]
    return Instance(
        workload="analyze-grid",
        files={"net.json": _network(nodes, edges)},
        argv=("analyze", "net.json", "--format", "json"),
        facts={"nodes": len(nodes), "edges": len(edges)},
    )


GENERATORS = {
    "solve-contested": layered,
    "verify-dense": dense_mesh,
    "analyze-grid": grid,
}


def generate(workload: str, seed: int, index: int) -> Instance:
    return GENERATORS[workload](seed, index)


def write(instance: Instance, directory: Path) -> list:
    """Write the instance's files under ``directory`` and return the CLI
    argv with file names replaced by their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    for file_name, data in instance.files.items():
        (directory / file_name).write_text(json.dumps(data, indent=1) + "\n")
    return [str(directory / arg) if arg in instance.files else arg for arg in instance.argv]


# ---------------------------------------------------------------------------
# Independent reference for the closed-form check
# ---------------------------------------------------------------------------

def max_flow_value(nodes, edges, source="s", sink="t") -> int:
    """Edmonds-Karp on integer capacities, separate from the program so
    the solve check does not trust the program's own max flow."""
    residual = {u: {} for u in nodes}
    for u, v, cap, _ in edges:
        residual[u][v] = residual[u].get(v, 0) + cap
        residual[v].setdefault(u, 0)
    total = 0
    while True:
        parent = {source: None}
        queue = [source]
        for u in queue:
            for v, cap in residual[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return total
        hops = []
        v = sink
        while parent[v] is not None:
            hops.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in hops)
        for u, v in hops:
            residual[u][v] -= push
            residual[v][u] += push
        total += push
