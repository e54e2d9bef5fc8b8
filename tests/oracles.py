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
    PathFlow,
    attacker_payoff,
    expected_edge_loads,
    path_cost,
    router_payoff,
)
from flowgame.flows import Decomposition, _extract_path, _subtract
from flowgame.lp import LpResult
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
    result = fraction_solve_lp(objective, eq=eq_rows, ub=ub_rows)
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
        worth = params.p1 * survival - path_cost(net, nodes)
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
    pivot_row = tableau[row]
    for r, other in enumerate(tableau):
        if r != row and other[col] != 0:
            factor = other[col]
            tableau[r] = [v - factor * p for v, p in zip(other, pivot_row)]
    factor = reduced[col]
    if factor != 0:
        reduced[:] = [v - factor * p for v, p in zip(reduced, pivot_row)]
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
