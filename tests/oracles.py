"""Slow reference implementations that the fast algorithms in ``src/`` are
checked against."""

import heapq
import itertools
from fractions import Fraction

from flowgame import (
    Attack,
    BestResponse,
    Cut,
    EdgeBudgetExceeded,
    PathBudgetExceeded,
    attacker_payoff,
    expected_edge_loads,
    router_payoff,
)
from flowgame.flows import Decomposition, _extract_path, _find_cycle, _subtract
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


def pairwise_expected_payoffs(net, s1, s2, params):
    """Both expected payoffs as the probability-weighted sum of the pure
    payoffs over every (flow, attack) pair of the two supports."""
    u1 = u2 = ZERO
    for flow, p in s1.support:
        for atk, q in s2.support:
            u1 += p * q * router_payoff(net, flow, atk, params)
            u2 += p * q * attacker_payoff(net, flow, atk, params)
    return u1, u2


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


# ---------------------------------------------------------------------------
# The flow layer on Fraction, as it ran before its integer core
# ---------------------------------------------------------------------------

def _arcs_by_node(net, reverse_ties=False):
    """Residual adjacency: node -> tuple of (edge id, is_forward, other end),
    sorted by edge id with the forward direction first. ``reverse_ties``
    flips the scan order."""
    adj = {node: [] for node in net.nodes}
    for e in net.edges:
        adj[e.tail].append((e.id, True, e.head))
        adj[e.head].append((e.id, False, e.tail))
    ordered = {}
    for node, arcs in adj.items():
        arcs.sort(key=lambda arc: (arc[0], not arc[1]))
        if reverse_ties:
            arcs.reverse()
        ordered[node] = tuple(arcs)
    return ordered


def _residual(net, flow, edge_id, forward):
    if forward:
        return net.edge(edge_id).capacity - flow.get(edge_id, ZERO)
    return flow.get(edge_id, ZERO)


def fraction_min_cost_max_flow(net, reverse_ties=False):
    """Successive shortest paths with node potentials on Fraction, with
    the scan and heap order of ``min_cost_max_flow``."""
    flow = {e.id: ZERO for e in net.edges}
    adj = _arcs_by_node(net, reverse_ties)
    index = {node: i for i, node in enumerate(sorted(net.nodes))}
    potential = {node: ZERO for node in net.nodes}
    total_cost = ZERO

    while True:
        dist, parent = _fraction_cheapest_residual_paths(net, adj, flow, potential, index)
        if net.sink not in dist:
            break
        for node, d in dist.items():
            potential[node] += d

        arcs = []
        node = net.sink
        while node != net.source:
            edge_id, forward, prev = parent[node]
            arcs.append((edge_id, forward))
            node = prev
        bottleneck = min(_residual(net, flow, eid, fwd) for eid, fwd in arcs)
        step_cost = ZERO
        for edge_id, forward in arcs:
            if forward:
                flow[edge_id] += bottleneck
                step_cost += net.edge(edge_id).cost
            else:
                flow[edge_id] -= bottleneck
                step_cost -= net.edge(edge_id).cost
        total_cost += bottleneck * step_cost
    return flow, total_cost


def _fraction_cheapest_residual_paths(net, adj, flow, potential, index):
    """Dijkstra over the residual graph with reduced arc costs."""
    dist = {net.source: ZERO}
    parent = {}
    final = set()
    heap = [(ZERO, index[net.source], net.source)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in final:
            continue
        final.add(node)
        for edge_id, forward, dst in adj[node]:
            if dst in final or _residual(net, flow, edge_id, forward) <= 0:
                continue
            cost = net.edge(edge_id).cost
            reduced = (cost if forward else -cost) + potential[node] - potential[dst]
            candidate = d + reduced
            if dst not in dist or candidate < dist[dst]:
                dist[dst] = candidate
                parent[dst] = (edge_id, forward, node)
                heapq.heappush(heap, (candidate, index[dst], dst))
    return {node: d for node, d in dist.items() if node in final}, parent


def fraction_cheapest_path_cost(net):
    """Dijkstra on Fraction over the positive-capacity edges."""
    index = {node: i for i, node in enumerate(sorted(net.nodes))}
    dist = {net.source: ZERO}
    final = set()
    heap = [(ZERO, index[net.source], net.source)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in final:
            continue
        final.add(node)
        if node == net.sink:
            return d
        for e in net.out_edges[node]:
            if e.capacity <= 0 or e.head in final:
                continue
            candidate = d + e.cost
            if e.head not in dist or candidate < dist[e.head]:
                dist[e.head] = candidate
                heapq.heappush(heap, (candidate, index[e.head], e.head))
    return None


def fraction_decompose(net, amounts):
    """``decompose`` peeling the Fraction amounts themselves. The cycle
    search and the path walk look only at which edges carry flow, so they
    are the layer's own."""
    work = {i: amount for i, amount in amounts.items() if amount > 0}
    cycles = []
    while True:
        found = _find_cycle(net, work)
        if found is None:
            break
        cycle_nodes, cycle_edges = found
        bottleneck = min(work[i] for i in cycle_edges)
        _subtract(work, cycle_edges, bottleneck)
        cycles.append((tuple(cycle_nodes), bottleneck))
    out_ids = {
        node: tuple(sorted(e.id for e in net.out_edges[node])) for node in net.nodes
    }
    paths = []
    while True:
        extracted = _extract_path(net, work, out_ids)
        if extracted is None:
            break
        paths.append(extracted)
    assert not work, sorted(work)
    return Decomposition(tuple(paths), tuple(cycles))


def fraction_canonical_cut(net, flow):
    """The nodes the source reaches over positive Fraction residuals, and
    the edges leaving them."""
    adj = _arcs_by_node(net)
    side = {net.source}
    todo = [net.source]
    while todo:
        node = todo.pop()
        for edge_id, forward, dst in adj[node]:
            if dst not in side and _residual(net, flow, edge_id, forward) > 0:
                side.add(dst)
                todo.append(dst)
    cut_ids = tuple(e.id for e in net.edges if e.tail in side and e.head not in side)
    capacity = sum((net.edge(i).capacity for i in cut_ids), ZERO)
    return Cut(frozenset(side), cut_ids, capacity)
