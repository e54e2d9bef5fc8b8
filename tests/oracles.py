"""Slow reference implementations that the fast algorithms in ``src/`` are
checked against."""

import itertools
from fractions import Fraction

from flowgame import (
    Attack,
    BestResponse,
    Cut,
    EdgeBudgetExceeded,
    PathBudgetExceeded,
    expected_edge_loads,
)
from flowgame.lp import solve_lp
from flowgame.network import ZERO

ONE = Fraction(1)


def enumerate_partition_cuts(net):
    """Every source-sink cut, by explicit enumeration of node partitions,
    in increasing order of the source side as a bitmask over the sorted
    non-terminal nodes."""
    middle = sorted(net.nodes - {net.source, net.sink})
    for mask in range(1 << len(middle)):
        s_side = {net.source}
        for i, node in enumerate(middle):
            if mask >> i & 1:
                s_side.add(node)
        cut_ids = tuple(
            e.id for e in net.edges if e.tail in s_side and e.head not in s_side
        )
        capacity = sum((net.edge(i).capacity for i in cut_ids), ZERO)
        yield Cut(frozenset(s_side), cut_ids, capacity)


def partition_min_cuts(net):
    """All minimum cuts, by partition enumeration."""
    cuts = list(enumerate_partition_cuts(net))
    best = min(cut.capacity for cut in cuts)
    return tuple(cut for cut in cuts if cut.capacity == best)


def distinct_partition_min_cuts(net):
    """The first minimum cut, by partition enumeration, for each set of
    positive-capacity edges that minimum cuts cross."""
    seen = set()
    cuts = []
    for cut in partition_min_cuts(net):
        crossing = frozenset(i for i in cut.cut_set if net.edge(i).capacity > 0)
        if crossing not in seen:
            seen.add(crossing)
            cuts.append(cut)
    return tuple(cuts)


def lp_edge_always_saturated(net, max_flow_value, min_transport_cost, edge_id):
    """Whether every min-cost max-flow fills the edge to capacity, by a
    secondary program: over all flows with the maximum value and the
    minimum transport cost, minimize the amount on this edge."""
    n = len(net.edges)
    eq_rows = []
    for node in sorted(net.nodes):
        if node in (net.source, net.sink):
            continue
        coeffs = [ZERO] * n
        for e in net.in_edges[node]:
            coeffs[e.id] += ONE
        for e in net.out_edges[node]:
            coeffs[e.id] -= ONE
        eq_rows.append((coeffs, ZERO))
    value_row = [ZERO] * n
    for e in net.in_edges[net.sink]:
        value_row[e.id] += ONE
    for e in net.out_edges[net.sink]:
        value_row[e.id] -= ONE
    eq_rows.append((value_row, max_flow_value))
    eq_rows.append(([e.cost for e in net.edges], min_transport_cost))
    ub_rows = []
    for e in net.edges:
        coeffs = [ZERO] * n
        coeffs[e.id] = ONE
        ub_rows.append((coeffs, e.capacity))

    objective = [ZERO] * n
    objective[edge_id] = ONE
    result = solve_lp(objective, eq=eq_rows, ub=ub_rows)
    assert result.status == "optimal", result.status
    return result.objective == net.edge(edge_id).capacity


def brute_force_attacker_response(
    net, s1, params, max_attack_edges=20, exhaustive=False
):
    """The attacker's best response by scoring every subset of the
    candidate edges, with the tie rule of ``best_attacker_response``:
    the lexicographically smallest optimal edge-id tuple wins."""
    loads = expected_edge_loads(net, s1)
    if exhaustive:
        candidates = sorted(loads)
    else:
        candidates = [edge_id for edge_id in sorted(loads) if loads[edge_id] > 0]
    if len(candidates) > max_attack_edges:
        raise EdgeBudgetExceeded(
            f"{len(candidates)} candidate edges exceed the attack budget "
            f"of {max_attack_edges}"
        )

    flows_info = []
    for flow, p in s1.support:
        paths = [
            (frozenset(net.edge_ids_on_path(nodes)), amount)
            for nodes, amount in flow.paths
        ]
        flows_info.append((p, flow.value, paths))

    best_value = None
    best_ids = None
    for size in range(len(candidates) + 1):
        for ids in itertools.combinations(candidates, size):
            id_set = frozenset(ids)
            cost = sum((net.edge(i).capacity for i in ids), ZERO)
            lost = ZERO
            for p, total, paths in flows_info:
                surviving = sum(
                    (amount for edge_set, amount in paths if id_set.isdisjoint(edge_set)),
                    ZERO,
                )
                lost += p * (total - surviving)
            value = params.p2 * lost - cost
            if (
                best_value is None
                or value > best_value
                or (value == best_value and ids < best_ids)
            ):
                best_value = value
                best_ids = ids
    return BestResponse(best_value, Attack(best_ids))


def recursive_simple_paths(net, budget):
    """Simple source-sink paths over positive-capacity edges by recursive
    depth-first search, lowest edge id first, with the budget rule of
    ``enumerate_simple_paths``."""
    paths = []
    on_path = [net.source]

    def walk(node):
        if node == net.sink:
            if len(paths) >= budget:
                raise PathBudgetExceeded(f"more than {budget} paths")
            paths.append(tuple(on_path))
            return
        for e in net.out_edges[node]:
            if e.capacity <= 0 or e.head in on_path:
                continue
            on_path.append(e.head)
            walk(e.head)
            on_path.pop()

    walk(net.source)
    return tuple(paths)
