"""Slow reference implementations that the fast algorithms in ``src/`` are
checked against."""

import heapq
import itertools
import math
from fractions import Fraction

from flowgame import (
    Attack,
    BestResponse,
    Cut,
    EdgeBudgetExceeded,
    PathBudgetExceeded,
    PathFlow,
    ProfileExpectations,
    PropertyCheck,
    VerificationReport,
    all_min_cuts,
    always_saturated_edges,
    analyze,
    classify_region,
    decompose,
    effective_flow,
    path_flow,
)
from flowgame.equilibrium import ClosedFormReport, _label, _verdict
from flowgame.errors import UndecomposableFlow
from flowgame.flows import Decomposition, _open_arcs, _subtract
from flowgame.game import payoffs_of
from flowgame.lp import LpResult
from flowgame.network import ZERO
from flowgame.rational import to_integers

ONE = Fraction(1)


def in_edges(net):
    """Each node's in-edges, in id order."""
    table = {node: [] for node in net.nodes}
    for e in net.edges:
        table[e.head].append(e)
    return table


def out_edges(net):
    """Each node's out-edges, in id order."""
    table = {node: [] for node in net.nodes}
    for e in net.edges:
        table[e.tail].append(e)
    return table


def expect(strategy, fn):
    """The expectation of ``fn`` over a mixed strategy, summed as
    Fractions from zero."""
    return sum((prob * fn(action) for action, prob in strategy.support), ZERO)


def is_feasible(net, amounts):
    """Capacity bounds on every edge plus conservation at every node other
    than the source and the sink."""
    for e in net.edges:
        amount = amounts.get(e.id, ZERO)
        if amount < 0 or amount > e.capacity:
            return False
    into, out = in_edges(net), out_edges(net)
    for node in net.nodes - {net.source, net.sink}:
        inflow = sum((amounts.get(e.id, ZERO) for e in into[node]), ZERO)
        outflow = sum((amounts.get(e.id, ZERO) for e in out[node]), ZERO)
        if inflow != outflow:
            return False
    return True


def edge_flow_cost(net, amounts):
    """The transport cost of an edge flow, edge by edge."""
    return sum((net.edge(i).cost * amount for i, amount in amounts.items()), ZERO)


def strip_loops(net, amounts):
    """The path part of a feasible edge flow: its decomposition less the
    cycles."""
    return path_flow(net, decompose(net, amounts).paths)


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
    into, out = in_edges(net), out_edges(net)
    eq_rows = []
    for node in sorted(net.nodes):
        if node in (net.source, net.sink):
            continue
        coeffs = [ZERO] * n
        for e in into[node]:
            coeffs[e.id] += ONE
        for e in out[node]:
            coeffs[e.id] -= ONE
        eq_rows.append((coeffs, ZERO))
    value_row = [ZERO] * n
    for e in into[net.sink]:
        value_row[e.id] += ONE
    for e in out[net.sink]:
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
    result = fraction_solve_lp(objective, eq=eq_rows, ub=ub_rows)
    assert result.status == "optimal", result.status
    return result.objective == net.edge(edge_id).capacity


def brute_force_attacker_response(
    net, s1, params, max_attack_edges=20, exhaustive=False
):
    """The attacker's best response by scoring every subset of the
    candidate edges, with the tie rule of ``best_attacker_response``:
    the lexicographically smallest optimal edge-id tuple wins."""
    loads = fraction_expected_edge_loads(net, s1)
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
        flows_info.append((p, fraction_value(flow), paths))

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
            u1 += p * q * fraction_router_payoff(net, flow, atk, params)
            u2 += p * q * fraction_attacker_payoff(net, flow, atk, params)
    return u1, u2


def recursive_simple_paths(net, budget):
    """Simple source-sink paths over positive-capacity edges by recursive
    depth-first search, lowest edge id first, with the budget rule of
    ``enumerate_simple_paths``."""
    paths = []
    on_path = [net.source]
    out = out_edges(net)

    def walk(node):
        if node == net.sink:
            if len(paths) >= budget:
                raise PathBudgetExceeded(f"more than {budget} paths")
            paths.append(tuple(on_path))
            return
        for e in out[node]:
            if e.capacity <= 0 or e.head in on_path:
                continue
            on_path.append(e.head)
            walk(e.head)
            on_path.pop()

    walk(net.source)
    return tuple(paths)


def reached_paths(net, s2, params):
    """The source-sink paths that the router's best response to ``s2``
    reaches, by recursive depth-first search on Fractions, lowest edge id
    first: a prefix is extended to an inner node only while p1 times the
    probability that no supported attack hits it, minus its cost, is
    positive. Every path that arrives at the sink is listed, profitable
    or not, as its node sequence."""
    paths = []
    on_path = [net.source]
    out = out_edges(net)

    def worth(ids):
        survival = sum((q for atk, q in s2.support if ids.isdisjoint(atk.edge_ids)), ZERO)
        return params.p1 * survival - sum((net.edge(i).cost for i in ids), ZERO)

    def walk(node, ids):
        for e in out[node]:
            if e.capacity <= 0 or e.head in on_path:
                continue
            if e.head == net.sink:
                paths.append((*on_path, e.head))
            elif worth(ids | {e.id}) > 0:
                on_path.append(e.head)
                walk(e.head, ids | {e.id})
                on_path.pop()

    walk(net.source, frozenset())
    return tuple(paths)


# ---------------------------------------------------------------------------
# The game layer on Fraction, as it ran before its integer core: every sum
# starts at ZERO and adds one Fraction per hop, path or attack
# ---------------------------------------------------------------------------

def fraction_value(flow):
    return sum((amount for _, amount in flow.paths), ZERO)


def fraction_path_cost(net, nodes):
    return sum((net.edge(i).cost for i in net.edge_ids_on_path(nodes)), ZERO)


def fraction_transport_cost(net, flow):
    return sum(
        (amount * fraction_path_cost(net, nodes) for nodes, amount in flow.paths), ZERO
    )


def fraction_attack_cost(net, atk):
    return sum((net.edge(i).capacity for i in atk.edge_ids), ZERO)


def fraction_edge_amounts(net, flow):
    amounts = {}
    for nodes, amount in flow.paths:
        for edge_id in net.edge_ids_on_path(nodes):
            amounts[edge_id] = amounts.get(edge_id, ZERO) + amount
    return amounts


def fraction_router_payoff(net, flow, atk, params):
    delivered = fraction_value(effective_flow(net, flow, atk))
    return params.p1 * delivered - fraction_transport_cost(net, flow)


def fraction_attacker_payoff(net, flow, atk, params):
    lost = fraction_value(flow) - fraction_value(effective_flow(net, flow, atk))
    return params.p2 * lost - fraction_attack_cost(net, atk)


def fraction_mean_flow(s1):
    merged = {}
    for flow, prob in s1.support:
        for nodes, amount in flow.paths:
            merged[nodes] = merged.get(nodes, ZERO) + prob * amount
    return PathFlow(tuple(sorted(merged.items())))


def fraction_profile_expectations(net, s1, s2):
    mean = fraction_mean_flow(s1)
    initial = fraction_value(mean)
    effective = expect(s2, lambda atk: fraction_value(effective_flow(net, mean, atk)))
    return ProfileExpectations(
        initial_flow=initial,
        transport_cost=fraction_transport_cost(net, mean),
        attack_cost=expect(s2, lambda atk: fraction_attack_cost(net, atk)),
        effective_flow=effective,
        lost_flow=initial - effective,
    )


def fraction_expected_edge_loads(net, s1):
    return {e.id: ZERO for e in net.edges} | fraction_edge_amounts(net, fraction_mean_flow(s1))


def fraction_closed_forms(params, unit_cost, theta):
    """The Region III closed forms as Fraction expressions."""
    p1, p2 = params.p1, params.p2
    return ClosedFormReport(
        u1=ZERO,
        u2=ZERO,
        exp_initial_flow=theta / p2,
        exp_transport_cost=unit_cost * theta / p2,
        exp_attack_cost=(1 - unit_cost / p1) * theta,
        exp_effective_flow=unit_cost * theta / (p1 * p2),
        exp_lost_flow=(1 - unit_cost / p1) * theta / p2,
        yield_ratio=unit_cost / p1,
    )


def _fraction_is_cheapest_max_flow(net, flow, analysis):
    return fraction_value(flow) == analysis.max_flow_value and all(
        fraction_path_cost(net, nodes) == analysis.cheapest_path_cost
        for nodes, _ in flow.paths
    )


def fraction_property_checks(net, s1, s2, params, analysis, exps):
    """The structural checks of ``verify_equilibrium`` on Fractions, with
    the flow layer's saturation and min-cut verdicts."""
    theta = analysis.max_flow_value
    unit_cost = analysis.cheapest_path_cost
    p1, p2 = params.p1, params.p2
    checks = []

    report = fraction_closed_forms(params, unit_cost, theta)
    u1, u2 = payoffs_of(exps, params)
    comparisons = [
        ("router payoff", u1, report.u1),
        ("attacker payoff", u2, report.u2),
        ("expected initial flow", exps.initial_flow, report.exp_initial_flow),
        ("expected transport cost", exps.transport_cost, report.exp_transport_cost),
        ("expected attack cost", exps.attack_cost, report.exp_attack_cost),
        ("expected delivered flow", exps.effective_flow, report.exp_effective_flow),
        ("expected lost flow", exps.lost_flow, report.exp_lost_flow),
    ]
    if exps.initial_flow > 0:
        comparisons.append(
            ("yield", exps.effective_flow / exps.initial_flow, report.yield_ratio)
        )
    mismatches = [
        f"{name}: {actual} != {expected}"
        for name, actual, expected in comparisons
        if actual != expected
    ]
    checks.append(_verdict(
        "closed-form quantities", mismatches, "direct expectations match the closed forms"
    ))

    over_budget = [atk for atk, _ in s2.support if fraction_attack_cost(net, atk) > theta]
    checks.append(_verdict(
        "attack cost within min-cut budget", over_budget,
        f"every supported attack costs at most {theta}",
        f"{len(over_budget)} supported attacks cost more than {theta}",
    ))

    disrupted = sorted({i for atk, _ in s2.support for i in atk.edge_ids})
    optimal_amounts = fraction_edge_amounts(net, analysis.optimal_flow)
    open_arcs = _open_arcs(net, optimal_amounts)
    always_full = always_saturated_edges(net, optimal_amounts, disrupted, open_arcs)
    unsaturated = [_label(net.edge(i)) for i in disrupted if i not in always_full]
    checks.append(_verdict(
        "disrupted edges saturated by every optimal routing", unsaturated,
        "all disrupted edges are saturated in every optimal routing",
        f"edges {', '.join(unsaturated)} admit an optimal routing below capacity",
    ))

    cuts = all_min_cuts(net, optimal_amounts, open_arcs)
    loads = fraction_expected_edge_loads(net, s1)

    def cut_edges(chosen):
        edges = (net.edge(i) for cut in chosen for i in cut.cut_set)
        return [edge for edge in edges if edge.capacity > 0]

    load_misses, uncovered = [], []
    for edge in cut_edges(cuts):
        load = loads[edge.id]
        if load != edge.capacity / p2:
            load_misses.append(f"{_label(edge)}: {load} != {edge.capacity / p2}")
        if load == 0:
            uncovered.append(_label(edge))
    checks.append(_verdict(
        "min-cut edge loads equal capacity over p2", load_misses,
        f"checked {len(cuts)} min-cut(s)",
    ))

    name = "uniform disruption probability across the min-cut"
    applicable = [
        cut
        for cut in cuts
        if all(set(atk.edge_ids) <= set(cut.cut_set) for atk, _ in s2.support)
    ]
    expected_prob = 1 - unit_cost / p1
    prob_misses = []
    for edge in cut_edges(applicable):
        prob = sum((q for atk, q in s2.support if edge.id in atk.edge_ids), ZERO)
        if prob != expected_prob:
            prob_misses.append(f"{_label(edge)}: {prob} != {expected_prob}")
    checks.append(
        _verdict(
            name, prob_misses,
            f"each edge of {len(applicable)} containing min-cut(s) is "
            f"disrupted with probability {expected_prob}",
        )
        if applicable
        else PropertyCheck(
            name, "not applicable", "supported attacks are not contained in a single min-cut"
        )
    )

    checks.append(_verdict(
        "min-cut edges covered by supported flows", uncovered,
        "every min-cut edge carries flow under some supported action",
        "no supported flow crosses " + ", ".join(uncovered),
    ))

    bound_misses = []
    cut_sets = [frozenset(cut.cut_set) for cut in cuts]
    for flow, prob in s1.support:
        if flow.is_zero and prob > 1 - 1 / p2:
            bound_misses.append(f"zero flow has probability {prob} > {1 - 1 / p2}")
        if _fraction_is_cheapest_max_flow(net, flow, analysis) and prob > 1 / p2:
            bound_misses.append(
                f"a cheapest max flow has probability {prob} > {1 / p2}"
            )
    for atk, prob in s2.support:
        if atk.is_empty and prob > unit_cost / p1:
            bound_misses.append(
                f"the empty attack has probability {prob} > {unit_cost / p1}"
            )
        if frozenset(atk.edge_ids) in cut_sets and prob > 1 - unit_cost / p1:
            bound_misses.append(
                f"a full min-cut attack has probability {prob} > {1 - unit_cost / p1}"
            )
    checks.append(_verdict(
        "support probability bounds", bound_misses,
        "all supported named actions respect their bounds",
    ))

    delivered = expect(
        s2, lambda atk: fraction_value(effective_flow(net, analysis.optimal_flow, atk))
    )
    expected_delivery = theta - exps.attack_cost
    detail = (
        f"expected delivery of the optimal routing is {delivered}, "
        f"max-flow value minus expected attack cost is {expected_delivery}"
    )
    checks.append(_verdict(
        "optimal-routing delivery identity",
        [detail] if delivered != expected_delivery else [], detail,
    ))
    return tuple(checks)


def fraction_verify_equilibrium(net, s1, s2, params):
    """``verify_equilibrium`` from the oracles: Fraction expectations and
    checks, the Fraction router response and the brute-force attacker
    response."""
    exps = fraction_profile_expectations(net, s1, s2)
    u1, u2 = payoffs_of(exps, params)
    router_best = fraction_router_response(net, s2, params)
    attacker_best = brute_force_attacker_response(net, s1, params)
    router_gap = router_best.value - u1
    attacker_gap = attacker_best.value - u2
    is_ne = router_gap == 0 and attacker_gap == 0
    checks = ()
    if is_ne:
        analysis = analyze(net)
        unit_cost = analysis.cheapest_path_cost
        if (
            unit_cost is not None
            and classify_region(params, unit_cost).tag == "III"
            and analysis.cheapest_routing
        ):
            checks = fraction_property_checks(net, s1, s2, params, analysis, exps)
    return VerificationReport(
        is_ne, router_gap, attacker_gap, u1, u2, router_best, attacker_best, checks
    )


# ---------------------------------------------------------------------------
# The flow layer on Fraction, as it ran before its integer core
# ---------------------------------------------------------------------------

def fraction_router_response(net, s2, params, budget=5000):
    """The router's best response as the path-packing program stated on
    Fractions: recursive path enumeration, Fraction path costs and
    survival sums, and the Fraction simplex, with the column and row
    order of ``best_router_response``."""
    weighted = []
    for nodes in recursive_simple_paths(net, budget):
        ids = frozenset(net.edge_ids_on_path(nodes))
        survival = sum(
            (q for atk, q in s2.support if ids.isdisjoint(atk.edge_ids)), ZERO
        )
        worth = params.p1 * survival - fraction_path_cost(net, nodes)
        if worth > 0:
            weighted.append((nodes, ids, worth))
    if not weighted:
        return BestResponse(ZERO, PathFlow(()))
    rows = [
        ([ONE if edge_id in ids else ZERO for _, ids, _ in weighted], net.edge(edge_id).capacity)
        for edge_id in sorted(set().union(*(ids for _, ids, _ in weighted)))
    ]
    result = fraction_solve_lp([-w for _, _, w in weighted], ub=rows)
    assert result.status == "optimal", result.status
    amounts = [(nodes, x) for (nodes, _, _), x in zip(weighted, result.solution) if x > 0]
    return BestResponse(-result.objective, PathFlow(tuple(sorted(amounts))))


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
    out = out_edges(net)
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in final:
            continue
        final.add(node)
        if node == net.sink:
            return d
        for e in out[node]:
            if e.capacity <= 0 or e.head in final:
                continue
            candidate = d + e.cost
            if e.head not in dist or candidate < dist[e.head]:
                dist[e.head] = candidate
                heapq.heappush(heap, (candidate, index[e.head], e.head))
    return None


def restart_find_cycle(net, work):
    """Deterministic depth-first search for a directed cycle in the support
    graph of ``work``, from scratch: (cycle nodes closed, cycle edge ids),
    or None."""
    adjacency = {}
    for edge_id in sorted(work):
        adjacency.setdefault(net.edge(edge_id).tail, []).append(edge_id)

    finished = set()
    for root in sorted(adjacency):
        if root in finished:
            continue
        frames = [(root, 0)]
        path_nodes = [root]
        path_edges = []
        position = {root: 0}
        while frames:
            node, idx = frames[-1]
            arcs = adjacency.get(node, ())
            if idx >= len(arcs):
                frames.pop()
                finished.add(node)
                del position[node]
                path_nodes.pop()
                if path_edges:
                    path_edges.pop()
                continue
            frames[-1] = (node, idx + 1)
            edge_id = arcs[idx]
            dst = net.edge(edge_id).head
            if dst in position:
                k = position[dst]
                return path_nodes[k:] + [dst], path_edges[k:] + [edge_id]
            if dst in finished:
                continue
            frames.append((dst, 0))
            position[dst] = len(path_nodes)
            path_nodes.append(dst)
            path_edges.append(edge_id)
    return None


def fraction_decompose(net, amounts):
    """``decompose`` peeling the Fraction amounts themselves, with the cycle
    search restarted from scratch after every peel. The path walk looks
    only at which edges carry flow, so it is the layer's own."""
    work = {i: amount for i, amount in amounts.items() if amount > 0}
    cycles = []
    while True:
        found = restart_find_cycle(net, work)
        if found is None:
            break
        cycle_nodes, cycle_edges = found
        bottleneck = min(work[i] for i in cycle_edges)
        _subtract(work, cycle_edges, bottleneck)
        cycles.append((tuple(cycle_nodes), bottleneck))
    out_ids = {node: tuple(e.id for e in edges) for node, edges in out_edges(net).items()}
    paths = []
    while True:
        extracted = _extract_path(net, work, out_ids)
        if extracted is None:
            break
        paths.append(extracted)
    assert not work, sorted(work)
    return Decomposition(tuple(paths), tuple(cycles))


# ---------------------------------------------------------------------------
# The decomposition on node names, as it ran before node numbers
# ---------------------------------------------------------------------------

def name_decompose(net, amounts):
    """``decompose`` on node names: the integer amounts peeled by a cycle
    search that keeps its finished nodes across peels, then paths walked
    along each node's lowest-id edge in ``out_edges``, with the same
    errors."""
    positive = {}
    for edge_id, amount in amounts.items():
        if amount.numerator < 0:
            edge = net.edge(edge_id)
            raise UndecomposableFlow(
                f"negative amount {amount} on edge ({edge.tail}, {edge.head})"
            )
        if amount.numerator > 0:
            positive[edge_id] = amount
    scale, scaled = to_integers(list(positive.values()))
    work = dict(zip(positive, scaled))

    cycles = _peel_cycles(net, work)
    out_ids = {node: tuple(e.id for e in edges) for node, edges in out_edges(net).items()}
    paths = []
    while True:
        extracted = _extract_path(net, work, out_ids)
        if extracted is None:
            break
        paths.append(extracted)

    if work:
        leftover = sorted(work)
        raise UndecomposableFlow(
            f"flow is not a sum of source-sink paths and cycles; "
            f"edges {leftover} carry unassignable amounts"
        )
    return Decomposition(
        tuple((nodes, Fraction(amount, scale)) for nodes, amount in paths),
        tuple((nodes, Fraction(amount, scale)) for nodes, amount in cycles),
    )


def _peel_cycles(net, work):
    """Peel directed cycles off the support graph of ``work`` until none is
    left: (closed cycle nodes, amount) for each, in the order a
    deterministic depth-first search finds them.

    The search keeps its finished nodes across peels. A finished node
    reaches no cycle, and peeling only removes edges, so it never reaches
    one later; the search therefore finds the cycles that a search
    restarted from scratch after every peel would find."""
    adjacency = {}
    for edge_id in sorted(work):
        adjacency.setdefault(net.edge(edge_id).tail, []).append(edge_id)
    finished = set()
    cycles = []
    for root in sorted(adjacency):
        while root not in finished:
            found = _find_cycle(net, work, adjacency, finished, root)
            if found is not None:
                cycle_nodes, cycle_edges = found
                bottleneck = min(work[i] for i in cycle_edges)
                _subtract(work, cycle_edges, bottleneck)
                cycles.append((tuple(cycle_nodes), bottleneck))
    return cycles


def _find_cycle(net, work, adjacency, finished, root):
    """Depth-first search from ``root`` over the edges of ``adjacency``
    still in ``work``, skipping and extending the ``finished`` nodes.
    Returns the first cycle met as (cycle nodes closed, cycle edge ids),
    or None once ``root`` is finished."""
    frames = [(root, 0)]
    path_nodes = [root]
    path_edges = []
    position = {root: 0}
    while frames:
        node, idx = frames[-1]
        arcs = adjacency.get(node, ())
        if idx >= len(arcs):
            frames.pop()
            finished.add(node)
            del position[node]
            path_nodes.pop()
            if path_edges:
                path_edges.pop()
            continue
        frames[-1] = (node, idx + 1)
        edge_id = arcs[idx]
        if edge_id not in work:
            continue
        dst = net.edge(edge_id).head
        if dst in position:
            k = position[dst]
            return path_nodes[k:] + [dst], path_edges[k:] + [edge_id]
        if dst in finished:
            continue
        frames.append((dst, 0))
        position[dst] = len(path_nodes)
        path_nodes.append(dst)
        path_edges.append(edge_id)
    return None


def _extract_path(net, work, out_ids):
    """One source-sink path along each node's lowest-id edge still in
    ``work``, with its bottleneck peeled off ``work``: (nodes, amount),
    or None when no edge leaves the source."""
    node = net.source
    nodes = [node]
    edges = []
    while node != net.sink:
        step = None
        for edge_id in out_ids.get(node, ()):
            if edge_id in work:
                step = edge_id
                break
        if step is None:
            if node == net.source and not edges:
                return None
            raise UndecomposableFlow(
                f"walk from the source stalled at {node!r}"
            )
        edges.append(step)
        node = net.edge(step).head
        nodes.append(node)
        if len(edges) > len(net.edges):
            raise UndecomposableFlow("walk revisited an edge; flow has a cycle")
    bottleneck = min(work[i] for i in edges)
    _subtract(work, edges, bottleneck)
    return tuple(nodes), bottleneck


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


def fraction_solve_lp(minimize, eq=(), ub=()):
    """A general two-phase Bland simplex (equality rows, right-hand sides
    of either sign, infeasible programs) on a dense Fraction tableau, each
    row divided through by its pivot. On a packing program (``ub`` rows
    with right-hand sides >= 0) it adds no artificials and starts from
    the slack basis, so it makes the pivots of ``flowgame.lp.solve_lp``,
    counted the same way, in plain rational arithmetic."""
    costs = [Fraction(c) for c in minimize]
    n = len(costs)

    # Assemble equality rows: slacks turn inequalities into equations.
    rows = []        # each: (coeffs over n originals, rhs, has_slack)
    for coeffs, rhs in eq:
        rows.append(([Fraction(a) for a in coeffs], Fraction(rhs), False))
    for coeffs, rhs in ub:
        rows.append(([Fraction(a) for a in coeffs], Fraction(rhs), True))

    n_slack = sum(1 for _, _, s in rows if s)
    slack_start = n
    art_start = n + n_slack

    tableau = []
    basis = []
    artificial_rows = []
    slack_index = 0
    for coeffs, rhs, has_slack in rows:
        row = coeffs + [ZERO] * n_slack
        this_slack = None
        if has_slack:
            this_slack = slack_start + slack_index
            row[this_slack] = ONE
            slack_index += 1
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
            this_slack = None  # slack coefficient is now -1, unusable as basis
        if this_slack is not None:
            basis.append(this_slack)
        else:
            artificial_rows.append(len(tableau))
            basis.append(None)  # patched below once artificial columns exist
        tableau.append(row + [rhs])

    n_art = len(artificial_rows)
    width = art_start + n_art  # columns excluding rhs
    for row in tableau:
        row[-1:-1] = [ZERO] * n_art
    for k, i in enumerate(artificial_rows):
        tableau[i][art_start + k] = ONE
        basis[i] = art_start + k

    pivots = 0
    # Phase 1: minimize the artificial total to find a feasible basis.
    if n_art:
        reduced = [ZERO] * (width + 1)
        for k in range(n_art):
            reduced[art_start + k] = ONE
        for i in artificial_rows:
            for j in range(width + 1):
                reduced[j] -= tableau[i][j]
        status, pivots = _fraction_pivot_until_optimal(tableau, reduced, basis, width)
        if status != "optimal" or -reduced[-1] > 0:
            return LpResult("infeasible", None, None, pivots)
        pivots += _fraction_drive_out_artificials(tableau, basis, art_start)
        tableau = [row[:art_start] + row[-1:] for row in tableau]
        width = art_start

    # Phase 2: the real objective.
    full_costs = costs + [ZERO] * (width - n)
    reduced = full_costs + [ZERO]
    for i, b in enumerate(basis):
        weight = full_costs[b]
        if weight != 0:
            for j in range(width + 1):
                reduced[j] -= weight * tableau[i][j]
    status, phase_2 = _fraction_pivot_until_optimal(tableau, reduced, basis, width)
    pivots += phase_2
    if status == "unbounded":
        return LpResult("unbounded", None, None, pivots)

    solution = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            solution[b] = tableau[i][-1]
    return LpResult("optimal", -reduced[-1], tuple(solution), pivots)


def _fraction_pivot_until_optimal(tableau, reduced, basis, width):
    pivots = 0
    while True:
        entering = None
        for j in range(width):
            if reduced[j] < 0:
                entering = j  # Bland: lowest improving index
                break
        if entering is None:
            return "optimal", pivots

        leaving = None
        best = None
        for i, row in enumerate(tableau):
            coeff = row[entering]
            if coeff > 0:
                key = (row[-1] / coeff, basis[i])
                if best is None or key < best:
                    best = key
                    leaving = i
        if leaving is None:
            return "unbounded", pivots
        _fraction_pivot(tableau, reduced, basis, leaving, entering)
        pivots += 1


def _fraction_pivot(tableau, reduced, basis, row, col):
    pivot = tableau[row][col]
    tableau[row] = [v / pivot for v in tableau[row]]
    # v - factor * 0 is v, so each updated row changes only in the pivot
    # row's nonzero columns.
    nonzero = [(j, p) for j, p in enumerate(tableau[row]) if p]
    for r, other in enumerate(tableau):
        factor = other[col]
        if r != row and factor != 0:
            for j, p in nonzero:
                other[j] -= factor * p
    factor = reduced[col]
    if factor != 0:
        for j, p in nonzero:
            reduced[j] -= factor * p
    basis[row] = col


def _fraction_drive_out_artificials(tableau, basis, art_start):
    """Pivot zero-valued artificial variables out of the basis; a row with
    no real nonzero coefficient is redundant and removed."""
    pivots = 0
    i = 0
    while i < len(tableau):
        if basis[i] < art_start:
            i += 1
            continue
        pivot_col = None
        for j in range(art_start):
            if tableau[i][j] != 0:
                pivot_col = j
                break
        if pivot_col is None:
            del tableau[i]
            del basis[i]
            continue
        _fraction_pivot(tableau, [ZERO] * len(tableau[i]), basis, i, pivot_col)
        pivots += 1
        i += 1
    return pivots


def dense_solve_columns(costs, columns, rhs):
    """The reference for ``flowgame.lp.solve_columns``: the program laid
    out as the dense fraction-free int tableau, with every slack column
    and every structural entry held in each row, and run through Bland's
    rule on it. ``(status, pivots, basic, pivot_elements)``: the first
    three as ``solve_columns`` returns them, and the pivot element p of
    each pivot in turn.

    Row i of the tableau is its n structural entries, m slack entries
    that are 1 at column n + i, and its rhs. A pivot on (r, c), with
    p = row_r[c] > 0, replaces every other row i that has a nonzero in
    column c by p*row_i - row_i[c]*row_r, divided by the gcd of its
    entries when p > 1, and the reduced-cost row the same way."""
    n, m = len(costs), len(rhs)
    tableau = []
    for i, b in enumerate(rhs):
        row = [0] * (n + m + 1)
        row[n + i] = 1
        row[-1] = b
        tableau.append(row)
    for j, column in enumerate(columns):
        for i, a in column:
            tableau[i][j] = a
    basis = list(range(n, n + m))
    reduced = list(costs) + [0] * (m + 1)
    status, elements = _dense_pivot_until_optimal(tableau, reduced, basis, n + m)
    if status == "unbounded":
        return status, len(elements), None, elements
    basic = {b: Fraction(row[-1], row[b]) for row, b in zip(tableau, basis) if b < n and row[-1]}
    return status, len(elements), basic, elements


def _dense_pivot_until_optimal(tableau, reduced, basis, width):
    """Bland's rule to optimality or unboundedness: ``(status, pivot
    elements)``."""
    elements = []
    while True:
        entering = None
        for j in range(width):
            if reduced[j] < 0:
                entering = j  # Bland: lowest improving index
                break
        if entering is None:
            return "optimal", elements

        # The least ratio rhs/coeff over positive coefficients, ties to the
        # lowest basic index; ratios compare by cross-multiplying.
        leaving = None
        for i, row in enumerate(tableau):
            coeff = row[entering]
            if coeff > 0:
                if leaving is None:
                    leaving, num, den = i, row[-1], coeff
                    continue
                left, right = row[-1] * den, num * coeff
                if left < right or (left == right and basis[i] < basis[leaving]):
                    leaving, num, den = i, row[-1], coeff
        if leaving is None:
            return "unbounded", elements
        elements.append(den)
        _dense_pivot(tableau, reduced, basis, leaving, entering)


def _dense_pivot(tableau, reduced, basis, row, col):
    pivot_row = tableau[row]
    p = pivot_row[col]  # > 0: the ratio test takes only positive entries
    # Each other row becomes p*other - factor*pivot_row; the second term
    # touches only the pivot row's nonzero columns.
    nonzero = [(j, a) for j, a in enumerate(pivot_row) if a]
    for r, other in enumerate(tableau):
        factor = other[col]
        if r != row and factor != 0:
            tableau[r] = _dense_eliminate(other, p, factor, nonzero)
    factor = reduced[col]
    if factor != 0:
        reduced[:] = _dense_eliminate(reduced, p, factor, nonzero)
    basis[row] = col


def _dense_eliminate(other, p, factor, nonzero):
    """p*other - factor*pivot_row, divided by the gcd of its entries, with
    the pivot row given by its nonzero ``(column, value)`` pairs. With
    p = 1 it is other - factor*pivot_row, computed in ``other`` itself."""
    if p == 1:
        for j, a in nonzero:
            other[j] -= factor * a
        return other
    new = [p * v for v in other]
    for j, a in nonzero:
        new[j] -= factor * a
    g = math.gcd(*new)
    if g > 1:
        return [v // g for v in new]
    return new
