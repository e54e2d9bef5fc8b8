import contextlib
import io
import json
import math
import random
from fractions import Fraction

import pytest

from flowgame import cli, flows
from flowgame import (
    NoRoute,
    UndecomposableFlow,
    all_min_cuts,
    always_saturated_edges,
    analyze,
    cheapest_path_cost,
    decompose,
    edge_always_saturated,
    flow_value,
    make_network,
    max_flow,
    min_cost_max_flow,
    network_from_json,
    network_to_json,
    path_cost,
    path_flow,
    transport_cost,
)
from flowgame.cli import main

from conftest import (
    FIXTURES,
    random_grid_network,
    random_network,
    random_rational_network,
    random_tie_network,
)
from oracles import (
    distinct_partition_min_cuts,
    edge_flow_cost,
    fraction_canonical_cut,
    fraction_cheapest_path_cost,
    fraction_decompose,
    fraction_min_cost_max_flow,
    fraction_solve_lp,
    in_edges,
    is_feasible,
    lp_edge_always_saturated,
    name_decompose,
    out_edges,
    strip_loops,
)

ZERO = Fraction(0)


def edge_pairs(net, ids):
    return sorted((net.edge(i).tail, net.edge(i).head) for i in ids)


def min_cost_max_flow_reversed(net):
    """``min_cost_max_flow`` in the other tie order: run on the network
    with its edge list reversed, which scans every node's arcs in reverse,
    and map the amounts back to this network's edge ids."""
    flipped = make_network(
        net.nodes,
        [(e.tail, e.head, e.capacity, e.cost) for e in reversed(net.edges)],
        net.source,
        net.sink,
    )
    amounts, cost, _, _ = min_cost_max_flow(flipped)
    last = len(net.edges) - 1
    return {i: amounts[last - i] for i in range(len(net.edges))}, cost


# ---------------------------------------------------------------------------
# Fixture networks
# ---------------------------------------------------------------------------

def test_cheap_routing_net_analysis(cheap_routing_net):
    a = analyze(cheap_routing_net)
    assert a.max_flow_value == 3
    assert a.cheapest_path_cost == 3
    assert a.min_transport_cost == 9
    assert a.cheapest_routing is True
    # the unique optimal routing, as edge amounts
    amounts, cost, _, _ = min_cost_max_flow(cheap_routing_net)
    expected = {
        ("s", "1"): 1, ("s", "2"): 2, ("s", "4"): 0,
        ("1", "3"): 0, ("1", "t"): 1, ("2", "3"): 1,
        ("2", "4"): 1, ("3", "t"): 1, ("4", "t"): 1,
    }
    for e in cheap_routing_net.edges:
        assert amounts[e.id] == expected[(e.tail, e.head)]
    assert cost == 9


def test_triple_cut_net_min_cut(triple_cut_net):
    cut = analyze(triple_cut_net).min_cut
    assert edge_pairs(triple_cut_net, cut.cut_set) == [("1", "3"), ("2", "3"), ("2", "4")]
    assert cut.capacity == 3
    value, _ = max_flow(triple_cut_net)
    assert value == 3
    assert cheapest_path_cost(triple_cut_net) == 3


def test_triple_cut_routing_witness(triple_cut_net):
    a = analyze(triple_cut_net)
    assert a.cheapest_routing is True
    witness = a.routing_witness
    assert witness == a.optimal_flow
    assert witness.value == 3
    assert all(path_cost(triple_cut_net, nodes) == 3 for nodes, _ in witness.paths)


def test_detour_net_analysis(detour_net):
    a = analyze(detour_net)
    assert a.max_flow_value == 2
    assert a.min_transport_cost == 8  # two unit paths of cost 4 each
    assert a.cheapest_path_cost == 3  # via the middle edge
    assert a.cheapest_routing is False
    nodes, cost = a.routing_witness
    assert cost == 4
    assert cost > a.cheapest_path_cost


def test_single_edge_min_cut(single_edge_net):
    cut = analyze(single_edge_net).min_cut
    assert edge_pairs(single_edge_net, cut.cut_set) == [("s", "t")]
    assert cut.capacity == 5


def test_no_path_theta_zero():
    net = make_network(["s", "t", "a"], [("a", "t", 1, 1)], "s", "t")
    value, amounts = max_flow(net)
    assert value == 0
    assert all(v == 0 for v in amounts.values())
    assert cheapest_path_cost(net) is None
    a = analyze(net)
    assert a.cheapest_routing is None
    assert a.routing_witness is None


def test_zero_capacity_network():
    net = make_network(["s", "t"], [("s", "t", 0, 1)], "s", "t")
    amounts, cost, _, _ = min_cost_max_flow(net)
    assert flow_value(net, amounts) == 0
    assert cost == 0
    # a capacity-zero edge cannot carry flow, so no route exists either
    assert cheapest_path_cost(net) is None


def test_cheapest_path_ignores_zero_capacity_edges():
    net = make_network(
        ["s", "a", "t"],
        [("s", "a", 0, 0), ("a", "t", 1, 0), ("s", "t", 1, 5)],
        "s",
        "t",
    )
    assert cheapest_path_cost(net) == 5


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def test_decompose_square_flow(square_net):
    ids = {(e.tail, e.head): e.id for e in square_net.edges}
    amounts = {
        ids[("s", "1")]: Fraction(2),
        ids[("1", "2")]: Fraction(1),
        ids[("2", "t")]: Fraction(2),
        ids[("s", "2")]: Fraction(1),
        ids[("1", "t")]: Fraction(1),
    }
    result = decompose(square_net, amounts)
    assert result.cycles == ()
    assert sorted(result.paths) == [
        (("s", "1", "2", "t"), Fraction(1)),
        (("s", "1", "t"), Fraction(1)),
        (("s", "2", "t"), Fraction(1)),
    ]


def test_decompose_zero_flow(square_net):
    result = decompose(square_net, {})
    assert result.paths == ()
    assert result.cycles == ()


def test_decompose_cycle_through_terminals():
    net = make_network(
        ["s", "a", "t"],
        [("s", "t", 1, 1), ("t", "a", 1, 1), ("a", "s", 1, 1)],
        "s",
        "t",
    )
    amounts = {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}
    result = decompose(net, amounts)
    assert result.paths == ()
    assert len(result.cycles) == 1
    nodes, amount = result.cycles[0]
    assert amount == 1
    assert nodes[0] == nodes[-1]
    assert set(nodes) == {"s", "a", "t"}


def test_cycle_peeling_matches_restarted_search():
    # the cycle search keeps its finished nodes across peels; it must peel
    # the cycles a search restarted after every peel finds, in that order
    rng = random.Random(29)
    several = 0
    for _ in range(2000):
        nodes = ["s", "t"] + [f"v{i}" for i in range(rng.randint(2, 6))]
        net = make_network(
            nodes,
            [(a, b, 100, 1) for a in nodes for b in nodes if a != b and rng.random() < 0.7],
            "s",
            "t",
        )
        amounts = {}
        walks = [[e.id] for e in out_edges(net)["s"] if e.head == "t"]
        for _ in range(rng.randint(2, 8)):
            # a random simple cycle of existing edges, if the walk closes
            cycle = rng.sample(nodes, rng.randint(2, 4))
            pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
            if all(pair in net.edge_by_pair for pair in pairs):
                walks.append([net.edge_by_pair[pair].id for pair in pairs])
        for walk in walks:
            amount = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            for edge_id in walk:
                amounts[edge_id] = amounts.get(edge_id, ZERO) + amount
        result = decompose(net, amounts)
        assert result == fraction_decompose(net, amounts)
        assert result == name_decompose(net, amounts)
        several += len(result.cycles) >= 2
    assert several >= 900, several


def outcome(call, *args):
    """What ``call(*args)`` returns, or the type and message it raises."""
    try:
        return call(*args)
    except UndecomposableFlow as exc:
        return type(exc), str(exc)


def test_decompose_fails_as_the_name_based_search_does():
    # Random nonnegative amounts on random edges mostly break conservation:
    # decompose on node numbers must return what the search on names
    # returns, or raise with the same message.
    rng = random.Random(41)
    raised = 0
    for _ in range(1000):
        net = random_network(rng, max_internal=5, density=0.5)
        amounts = {
            e.id: Fraction(rng.randint(0, 4), rng.randint(1, 3))
            for e in net.edges
            if rng.random() < 0.6
        }
        if amounts and rng.random() < 0.1:
            amounts[rng.choice(list(amounts))] = Fraction(-1, 2)
        expected = outcome(name_decompose, net, amounts)
        assert outcome(decompose, net, amounts) == expected
        raised += isinstance(expected, tuple) and expected[0] is UndecomposableFlow
    assert raised >= 300, raised


def test_decompose_rejects_sink_to_source_chain():
    net = make_network(["s", "a", "t"], [("t", "a", 1, 1), ("a", "s", 1, 1)], "s", "t")
    with pytest.raises(UndecomposableFlow):
        decompose(net, {0: Fraction(1), 1: Fraction(1)})


def test_decompose_rejects_negative_amount(square_net):
    with pytest.raises(UndecomposableFlow):
        decompose(square_net, {0: Fraction(-1)})


def test_strip_loops_drops_cycle_cost():
    net = make_network(
        ["s", "a", "b", "t"],
        [("s", "a", 2, 1), ("a", "t", 2, 1), ("a", "b", 1, 3), ("b", "a", 1, 2)],
        "s",
        "t",
    )
    with_cycle = {0: Fraction(1), 1: Fraction(1), 2: Fraction(1), 3: Fraction(1)}
    assert is_feasible(net, with_cycle)
    stripped = strip_loops(net, with_cycle)
    assert stripped.paths == ((("s", "a", "t"), Fraction(1)),)
    assert transport_cost(net, stripped) == 2  # cycle cost 5 is gone


# ---------------------------------------------------------------------------
# Randomized cross-checks
# ---------------------------------------------------------------------------

def brute_force_min_cut_value(net):
    middle = sorted(net.nodes - {net.source, net.sink})
    best = None
    for mask in range(1 << len(middle)):
        side = {net.source} | {middle[i] for i in range(len(middle)) if mask >> i & 1}
        cap = sum(
            (e.capacity for e in net.edges if e.tail in side and e.head not in side),
            ZERO,
        )
        if best is None or cap < best:
            best = cap
    return best


def lp_min_transport_cost(net, value):
    """Independent statement of the min-cost flow problem as an exact LP."""
    n = len(net.edges)
    into, out = in_edges(net), out_edges(net)
    eq = []
    for node in sorted(net.nodes):
        if node in (net.source, net.sink):
            continue
        coeffs = [ZERO] * n
        for e in into[node]:
            coeffs[e.id] += 1
        for e in out[node]:
            coeffs[e.id] -= 1
        eq.append((coeffs, ZERO))
    value_row = [ZERO] * n
    for e in into[net.sink]:
        value_row[e.id] += 1
    for e in out[net.sink]:
        value_row[e.id] -= 1
    eq.append((value_row, value))
    ub = []
    for e in net.edges:
        coeffs = [ZERO] * n
        coeffs[e.id] = 1
        ub.append((coeffs, e.capacity))
    result = fraction_solve_lp([e.cost for e in net.edges], eq=eq, ub=ub)
    assert result.status == "optimal"
    return result.objective


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_networks_cross_checked(seed):
    rng = random.Random(seed)
    for _ in range(40):
        net = random_network(rng)
        value, amounts = max_flow(net)
        assert is_feasible(net, amounts)
        assert flow_value(net, amounts) == value
        # max-flow equals the exhaustive minimum over all partitions
        assert value == brute_force_min_cut_value(net)
        cut = analyze(net).min_cut
        assert cut.capacity == value

        mc_amounts, cost, _, _ = min_cost_max_flow(net)
        assert is_feasible(net, mc_amounts)
        assert flow_value(net, mc_amounts) == value
        # cost agrees with an independent exact LP formulation
        assert cost == lp_min_transport_cost(net, value)

        # decomposition reconstructs the edge flow exactly, in <= |E| pieces
        result = decompose(net, mc_amounts)
        rebuilt = {e.id: ZERO for e in net.edges}
        for nodes, amount in result.paths:
            for edge_id in net.edge_ids_on_path(nodes):
                rebuilt[edge_id] += amount
        for nodes, amount in result.cycles:
            for edge_id in net.edge_ids_on_path(nodes):
                rebuilt[edge_id] += amount
        assert rebuilt == {e.id: mc_amounts.get(e.id, ZERO) for e in net.edges}
        assert len(result.paths) + len(result.cycles) <= len(net.edges)

        # a min-cost flow never carries a positive-cost cycle; with all
        # costs strictly positive it carries no cycle at all
        for nodes, _ in result.cycles:
            assert path_cost(net, nodes) == 0
        if all(e.cost > 0 for e in net.edges):
            assert result.cycles == ()


def test_tie_breaking_order_does_not_change_results(
    triple_cut_net, cheap_routing_net, detour_net
):
    rng = random.Random(99)
    nets = [triple_cut_net, cheap_routing_net, detour_net]
    nets += [random_network(rng) for _ in range(20)]
    for net in nets:
        amounts_a, cost_a, _, _ = min_cost_max_flow(net)
        amounts_b, cost_b = min_cost_max_flow_reversed(net)
        assert flow_value(net, amounts_a) == flow_value(net, amounts_b)
        assert cost_a == cost_b
        assert all_min_cuts(net, amounts_a) == all_min_cuts(net, amounts_b)


def test_reversed_edge_list_takes_the_other_tie_order():
    # v0 and v1 are joined both ways at cost 0, so a shortest path may
    # reach v1 from v0 over the forward arc of (v0, v1) or the backward
    # arc of (v1, v0); reversing the edge list swaps which is scanned
    # first, and the two flows differ by the circulation v0-v1-v0.
    net = make_network(
        ["s", "t", "v0", "v1"],
        [("s", "v0", 1, 0), ("s", "v1", 2, 1), ("t", "s", 2, 0), ("t", "v0", 2, 1),
         ("v0", "s", 2, 0), ("v0", "t", 1, 1), ("v0", "v1", 1, 0), ("v1", "t", 2, 0),
         ("v1", "v0", 1, 0)],
        "s", "t",
    )
    first, cost, _, _ = min_cost_max_flow(net)
    second = min_cost_max_flow_reversed(net)
    assert first != second[0]
    assert (first, cost) == fraction_min_cost_max_flow(net)
    assert second == fraction_min_cost_max_flow(net, reverse_ties=True)
    assert second[1] == cost
    assert flow_value(net, first) == flow_value(net, second[0]) == 3
    assert all_min_cuts(net, first) == all_min_cuts(net, second[0])


def test_tie_orders_differ_on_dense_zero_cost_networks():
    # The random families above almost never tie; this one does. Where
    # the two orders build different flows, each must be the oracle's in
    # the same order, with one value, one cost and one set of min-cuts.
    rng = random.Random(1)
    differing = 0
    for _ in range(1000):
        net = random_tie_network(rng)
        first, cost, _, _ = min_cost_max_flow(net)
        second, second_cost = min_cost_max_flow_reversed(net)
        if first == second:
            continue
        differing += 1
        assert (first, cost) == fraction_min_cost_max_flow(net)
        assert (second, second_cost) == fraction_min_cost_max_flow(net, reverse_ties=True)
        assert flow_value(net, first) == flow_value(net, second)
        assert cost == second_cost
        assert all_min_cuts(net, first) == all_min_cuts(net, second)
    assert differing >= 20


def test_grids_match_the_fraction_oracle_in_both_tie_orders():
    # Grids like the benchmark's, with back edges: the successive
    # shortest paths over the open residual arcs must take the oracle's
    # paths in either scan order, and the first round and the cut read
    # off the run must be the oracle's too, from either flow.
    rng = random.Random(13)
    differing = 0
    for _ in range(30):
        net = random_grid_network(rng)
        first, cost, _, _ = min_cost_max_flow(net)
        assert (first, cost) == fraction_min_cost_max_flow(net)
        second = min_cost_max_flow_reversed(net)
        assert second == fraction_min_cost_max_flow(net, reverse_ties=True)
        differing += first != second[0]
        assert cheapest_path_cost(net) == fraction_cheapest_path_cost(net)
        cut = analyze(net).min_cut
        for flow in (first, second[0]):
            assert cut == fraction_canonical_cut(net, flow)
    # the tie order decides the flow on some of them
    assert differing >= 2


def test_benchmark_scale_grids_match_the_oracles():
    # The first two seeded grids of up to 20 x 20 with at least 100 grid
    # nodes, the benchmark's sizes: the flow in both tie orders and the
    # decomposition of each must be the oracles'.
    rng = random.Random(21)
    nets = []
    while len(nets) < 2:
        net = random_grid_network(rng, max_side=20)
        if len(net.nodes) >= 102:
            nets.append(net)
    for net in nets:
        first, cost, _, _ = min_cost_max_flow(net)
        assert (first, cost) == fraction_min_cost_max_flow(net)
        second = min_cost_max_flow_reversed(net)
        assert second == fraction_min_cost_max_flow(net, reverse_ties=True)
        for flow in (first, second[0]):
            assert decompose(net, flow) == fraction_decompose(net, flow)
            assert decompose(net, flow) == name_decompose(net, flow)


def residual_distances(open_arcs, source, unreached):
    """Bellman-Ford over the open residual arcs: each node's distance from
    the source, ``unreached`` for the nodes it does not reach."""
    dist = [unreached] * len(open_arcs)
    dist[source] = 0
    for _ in open_arcs:
        for node, arcs in enumerate(open_arcs):
            if dist[node] != unreached:
                for _, _, dst, cost in arcs:
                    dist[dst] = min(dist[dst], dist[node] + cost)
    return dist


def test_labels_are_residual_distances_and_the_reached_nodes_only_shrink(monkeypatch):
    # Each round's labels are the next round's potentials. That is safe
    # because a node the source stops reaching is never reached again, so
    # its unreached label is never read as a potential; and each label
    # must be the node's distance over the round's open residual arcs.
    rounds = []
    search = flows._cheapest_residual_paths

    def recording(open_arcs, potential, source, unreached):
        label, parent = search(open_arcs, potential, source, unreached)
        rounds.append((list(open_arcs), potential, label, source, unreached))
        return label, parent

    monkeypatch.setattr(flows, "_cheapest_residual_paths", recording)
    rng = random.Random(17)
    nets = [random_network(rng, max_internal=6) for _ in range(100)]
    nets += [random_rational_network(rng) for _ in range(100)]
    nets += [random_tie_network(rng) for _ in range(100)]
    nets += [random_grid_network(rng) for _ in range(20)]
    shrinking = 0
    for net in nets:
        rounds.clear()
        min_cost_max_flow(net)
        reached = set(range(len(net.nodes)))
        potential = [0] * len(net.nodes)
        for open_arcs, given, label, source, unreached in rounds:
            assert given == potential
            assert label == residual_distances(open_arcs, source, unreached)
            now = {node for node, value in enumerate(label) if value != unreached}
            assert now <= reached
            shrinking += now < reached
            reached, potential = now, label
    assert shrinking >= 300, shrinking


def test_open_arcs_are_the_integer_forms_arc_tuples():
    net = random_grid_network(random.Random(3))
    form = net._integer_form
    for node, arcs in enumerate(flows._open_arcs(net, min_cost_max_flow(net)[0])):
        assert all(any(arc is shared for shared in form.arcs[node]) for arc in arcs)


def test_routing_check_agrees_with_per_path_criterion():
    # the cost identity and the "every used path is cheapest" criterion
    # must decide identically
    rng = random.Random(7)
    nets = [random_network(rng) for _ in range(60)]
    for net in nets:
        amounts, cost, _, _ = min_cost_max_flow(net)
        value = flow_value(net, amounts)
        if value == 0:
            continue
        unit = cheapest_path_cost(net)
        a = analyze(net)
        per_path = all(
            path_cost(net, nodes) == unit
            for nodes, _ in decompose(net, amounts).paths
        )
        assert a.cheapest_routing == (cost == unit * value)
        assert a.cheapest_routing == per_path
        if a.cheapest_routing:
            assert a.routing_witness == a.optimal_flow
        else:
            nodes, witness_cost = a.routing_witness
            assert witness_cost == path_cost(net, nodes) > unit


def test_all_min_cuts_include_canonical(triple_cut_net, detour_net):
    for net in (triple_cut_net, detour_net):
        cuts = all_min_cuts(net, max_flow(net)[1])
        canonical = analyze(net).min_cut
        assert canonical.capacity == cuts[0].capacity
        assert any(set(c.cut_set) == set(canonical.cut_set) for c in cuts)
    # the detour network has several min-cuts, the triple-cut one exactly one
    assert len(all_min_cuts(detour_net, max_flow(detour_net)[1])) == 3
    assert len(all_min_cuts(triple_cut_net, max_flow(triple_cut_net)[1])) == 1


def test_min_cuts_match_partition_oracle():
    # the same cuts in the same order (increasing source-side bitmask) as
    # the first partition of the exhaustive loop to reach each set of
    # positive-capacity crossing edges, on networks of up to 8 nodes, from
    # a dense maximum flow and from the sparse edge amounts of the
    # decomposed optimal flow
    rng = random.Random(4)
    nets = [random_network(rng, max_internal=6) for _ in range(300)]
    # a saturated edge, decided first, whose tail reaches its head
    # through an unused detour, so it can never be cut
    nets.append(make_network(
        ["s", "a", "b", "c", "t"],
        [("a", "b", 1, 1), ("s", "a", 1, 1), ("a", "c", 5, 1), ("c", "b", 5, 1),
         ("b", "t", 1, 1)],
        "s", "t",
    ))
    # an isolated node may sit on either side of every min-cut
    nets.append(make_network(
        ["s", "a", "b", "t"], [("s", "a", 1, 1), ("a", "t", 1, 1)], "s", "t"
    ))
    for net in nets:
        expected = distinct_partition_min_cuts(net)
        assert all_min_cuts(net, max_flow(net)[1]) == expected
        assert all_min_cuts(net, analyze(net).optimal_flow.edge_amounts(net)) == expected
    assert [cut.s_side for cut in all_min_cuts(nets[-1], max_flow(nets[-1])[1])] == [
        frozenset({"s"}), frozenset({"s", "a"})
    ]


def test_nodes_off_the_saturated_edges_do_not_multiply_min_cuts():
    # Each of these nodes can sit on either side of every min-cut of the
    # triple-cut network (2^90 partitions), but no saturated edge touches
    # them, so the cut is found once.
    edges = [
        ("2", "1", 1, 1), ("4", "3", 1, 1), ("s", "1", 2, 1), ("2", "3", 1, 1),
        ("s", "2", 3, 1), ("1", "3", 1, 1), ("2", "4", 1, 1), ("3", "t", 3, 1),
        ("4", "t", 2, 1),
    ]
    isolated = [f"x{i:02d}" for i in range(30)]
    zero_cap = [f"y{i:02d}" for i in range(30)]
    dangling = [f"z{i:02d}" for i in range(30)]
    edges += [("s", y, 0, 1) for y in zero_cap] + [("1", z, 1, 1) for z in dangling]
    net = make_network(
        ["s", "1", "2", "3", "4", "t", *isolated, *zero_cap, *dangling], edges, "s", "t"
    )
    cuts = all_min_cuts(net, max_flow(net)[1])
    assert cuts == (analyze(net).min_cut,)
    assert cuts[0].s_side == {"s", "1", "2", *dangling}
    # The cheap cross links u -> v_i -> w are never saturated: 3 cuts, not
    # the 2^30 + 2 closed source sides.
    middle = [f"v{i:02d}" for i in range(30)]
    net = make_network(
        ["s", "u", "w", "t", *middle],
        [("s", "u", 1, 1), ("u", "t", 1, 1), ("s", "w", 1, 1), ("w", "t", 1, 1)]
        + [("u", v, 1, 1) for v in middle] + [(v, "w", 1, 1) for v in middle],
        "s", "t",
    )
    names = [
        sorted((net.edge(i).tail, net.edge(i).head) for i in cut.cut_set)
        for cut in all_min_cuts(net, max_flow(net)[1])
    ]
    assert names == [
        [("s", "u"), ("s", "w")],
        [("s", "u"), ("w", "t")],
        [("u", "t"), ("w", "t")],
    ]


def test_all_min_cuts_beyond_partition_range():
    # a 30-node unit chain: every one of its 29 edges is a min-cut on its
    # own, with 2^28 node partitions behind them
    nodes = ["s", *(f"v{i:02d}" for i in range(28)), "t"]
    net = make_network(nodes, [(a, b, 1, 1) for a, b in zip(nodes, nodes[1:])], "s", "t")
    cuts = all_min_cuts(net, max_flow(net)[1])
    assert [net.edge(cut.cut_set[0]).head for cut in cuts] == nodes[1:]
    assert all(len(cut.cut_set) == 1 and cut.capacity == 1 for cut in cuts)
    assert cuts[0] == analyze(net).min_cut


# ---------------------------------------------------------------------------
# The integer core against the Fraction oracle
# ---------------------------------------------------------------------------

def off_lattice(net, flow) -> bool:
    """Whether some amount is not a multiple of 1 / (capacity scale)."""
    scale = math.lcm(*(e.capacity.denominator for e in net.edges))
    return any((amount * scale).denominator != 1 for amount in flow.values())


def relabelled(net, cost):
    """The network with its non-terminal nodes renamed in reverse order,
    so that ties break differently, and the costs ``cost(edge)``; edge ids
    are kept, so flows carry over."""
    middle = sorted(net.nodes - {net.source, net.sink})
    name = dict(zip(middle, reversed(middle))) | {net.source: net.source, net.sink: net.sink}
    edges = [(name[e.tail], name[e.head], e.capacity, cost(e)) for e in net.edges]
    return make_network(net.nodes, edges, net.source, net.sink)


def mix(first, second):
    """The flow 1008/1009 first + 1/1009 second: no capacity denominator
    here divides 1009, so it leaves the capacity lattice wherever the two
    differ."""
    return {i: first[i] + (second[i] - first[i]) / 1009 for i in first}


def always_saturated(net, amounts, edge_id) -> bool:
    """``lp_edge_always_saturated``, skipping the program where ``amounts``
    is itself a min-cost max-flow below capacity on the edge."""
    edge = net.edge(edge_id)
    if amounts.get(edge_id, 0) < edge.capacity:
        return False
    value, cost = flow_value(net, amounts), edge_flow_cost(net, amounts)
    return lp_edge_always_saturated(net, value, cost, edge_id)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integer_core_matches_fraction_oracle(seed):
    # 100 rational networks per seed, in both tie orders. Cuts and the
    # decomposition also get the decomposed optimal flow that
    # verify_equilibrium passes, and a mix of the min-cost max-flow with
    # another maximum flow (cheapest under inverted costs); the canonical
    # cut read off the run must be the oracle's from each of them. The saturation
    # test also gets a mix of two min-cost max-flows of the network with
    # every cost 1/2, which has many.
    rng = random.Random(seed)
    off = 0
    for _ in range(100):
        net = random_rational_network(rng, max_internal=5)
        first, cost, _, _ = min_cost_max_flow(net)
        assert (first, cost) == fraction_min_cost_max_flow(net)
        second = min_cost_max_flow_reversed(net)
        assert second == fraction_min_cost_max_flow(net, reverse_ties=True)
        assert cheapest_path_cost(net) == fraction_cheapest_path_cost(net)
        # analyze takes the decomposed paths as they are; path_flow checks them
        optimal_flow = analyze(net).optimal_flow
        assert optimal_flow == path_flow(net, decompose(net, first).paths)

        optimal = optimal_flow.edge_amounts(net)
        mixed = mix(first, min_cost_max_flow(relabelled(net, lambda e: 2 - e.cost))[0])
        min_cuts = distinct_partition_min_cuts(net)
        cut = analyze(net).min_cut
        for flow in (first, second[0], optimal, mixed):
            assert decompose(net, flow) == fraction_decompose(net, flow)
            assert cut == fraction_canonical_cut(net, flow)
            assert all_min_cuts(net, flow) == min_cuts

        tied = relabelled(net, lambda e: Fraction(1, 2))
        tied_mixed = mix(
            min_cost_max_flow(tied)[0],
            min_cost_max_flow(relabelled(tied, lambda e: e.cost))[0],
        )
        # which edges every min-cost max-flow fills is one answer per network
        for network, same in ((net, (first, optimal)), (tied, (tied_mixed,))):
            ids = range(len(network.edges))
            expected = [always_saturated(network, same[0], i) for i in ids]
            for flow in same:
                assert [edge_always_saturated(network, flow, i) for i in ids] == expected
        off += off_lattice(net, mixed) + off_lattice(tied, tied_mixed)
    assert off >= 5


def test_flows_off_the_capacity_lattice():
    # Two unit routes s-a-t and s-b-t joined by free links a-b and b-a:
    # the min-cost max-flows add any circulation a-b-a up to 1 to the two
    # routes, so 1/1009 of it leaves the lattice of the integer capacities.
    net = make_network(
        ["s", "a", "b", "t"],
        [("s", "a", 1, 1), ("s", "b", 1, 1), ("a", "t", 1, 1), ("b", "t", 1, 1),
         ("a", "b", 1, 0), ("b", "a", 1, 0)],
        "s", "t",
    )
    first, cost, _, _ = min_cost_max_flow(net)
    flow = dict(first) | {4: Fraction(1, 1009), 5: Fraction(1, 1009)}
    assert off_lattice(net, flow)
    assert decompose(net, flow) == fraction_decompose(net, flow)
    assert decompose(net, flow).cycles == ((("a", "b", "a"), Fraction(1, 1009)),)
    assert analyze(net).min_cut == fraction_canonical_cut(net, flow)
    assert all_min_cuts(net, flow) == distinct_partition_min_cuts(net)
    saturated = [edge_always_saturated(net, flow, e.id) for e in net.edges]
    assert saturated == [True, True, True, True, False, False]
    assert saturated == [always_saturated(net, first, e.id) for e in net.edges]
    # filled to within 1/1009 of capacity, every forward arc stays open
    nearly = {e.id: e.capacity - Fraction(1, 1009) for e in net.edges}
    assert not any(edge_always_saturated(net, nearly, e.id) for e in net.edges)


def test_always_saturated_edges_refuses_a_flow_that_is_not_min_cost(cheap_routing_net):
    # a max flow with the cost-4 path s-4-t: the residual cycle 4-s-2-4
    # costs -1, so the amounts are no min-cost flow to give verdicts on
    net = cheap_routing_net
    paths = (("s", "4", "t"), ("s", "1", "t"), ("s", "2", "3", "t"))
    flow = path_flow(net, [(path, 1) for path in paths])
    assert flow.value == analyze(net).max_flow_value
    assert transport_cost(net, flow) > analyze(net).min_transport_cost
    with pytest.raises(ValueError, match="negative cycle"):
        always_saturated_edges(net, flow.edge_amounts(net), range(len(net.edges)))


def first_primes(count: int) -> list:
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def analyze_stdout(path, fmt="json"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", str(path), "--format", fmt])
    return code, out.getvalue()


def fraction_min_cost_max_flow_run(net):
    """What ``min_cost_max_flow`` returns, from the Fraction oracles."""
    amounts, cost = fraction_min_cost_max_flow(net)
    source_side = fraction_canonical_cut(net, amounts).s_side
    return amounts, cost, fraction_cheapest_path_cost(net), source_side


def swap_in_reference(monkeypatch):
    """Make ``analyze`` run on the Fraction oracles, and the CLI sum each
    reported flow's transport cost path by path, so that the report no
    longer depends on the integer core or on the reused min transport
    cost."""
    monkeypatch.setattr(flows, "min_cost_max_flow", fraction_min_cost_max_flow_run)
    monkeypatch.setattr(flows, "decompose", fraction_decompose)
    flow_json = cli._flow_json
    monkeypatch.setattr(cli, "_flow_json", lambda net, flow, cost=None: flow_json(net, flow))


def test_huge_scales_match_the_oracle(tmp_path, monkeypatch):
    # 40 edges whose capacity and cost denominators are the first 40
    # primes: both scales are their product, over 10^60.
    primes = first_primes(40)
    rng = random.Random(40)
    middle = [f"v{i}" for i in range(8)]
    pairs = [(a, b) for a in ["s", *middle] for b in [*middle, "t"] if a != b]
    chosen = rng.sample(pairs, 40)
    edges = [
        (tail, head, Fraction(rng.randint(1, 3 * p), p),
         Fraction(rng.randint(1, 3 * q), q))
        for (tail, head), p, q in zip(chosen, primes, primes[7:] + primes[:7])
    ]
    net = make_network(["s", "t", *middle], edges, "s", "t")
    form = net._integer_form
    assert min(form.cap_scale, form.cost_scale) > 10**60
    for solve, reverse in ((min_cost_max_flow, False), (min_cost_max_flow_reversed, True)):
        amounts, cost = solve(net)[:2]
        assert flow_value(net, amounts) > 0
        assert (amounts, cost) == fraction_min_cost_max_flow(net, reverse)

    path = tmp_path / "huge.json"
    path.write_text(json.dumps(network_to_json(net)))
    code, stdout = analyze_stdout(path)
    swap_in_reference(monkeypatch)
    assert code == 0
    assert analyze_stdout(path) == (code, stdout)


def test_grid_reports_match_the_reference_byte_for_byte(tmp_path, monkeypatch):
    rng = random.Random(21)
    runs = []
    for k in range(5):
        path = tmp_path / f"grid{k}.json"
        path.write_text(json.dumps(network_to_json(random_grid_network(rng))))
        runs += [(path, "json"), (path, "text")]
    reports = [analyze_stdout(path, fmt) for path, fmt in runs]
    assert all(code == 0 for code, _ in reports)
    swap_in_reference(monkeypatch)
    assert [analyze_stdout(path, fmt) for path, fmt in runs] == reports


def test_reported_transport_cost_is_the_path_by_path_sum():
    # The report prints the min transport cost as the optimal flow's
    # transport cost. That flow is the min-cost max-flow less the cycles
    # of its decomposition, so each of those cycles must cost 0.
    rng = random.Random(5)
    nets = [network_from_json(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]
    nets += [random_grid_network(rng) for _ in range(30)]
    nets += [random_rational_network(rng) for _ in range(60)]
    nets += [random_tie_network(rng) for _ in range(60)]
    with_cycles = 0
    for net in nets:
        analysis = analyze(net)
        summed = transport_cost(net, analysis.optimal_flow)
        assert analysis.min_transport_cost == summed
        report = cli._analysis_json(net, analysis)
        assert report["optimal_flow"]["transport_cost"] == str(summed)
        if analysis.cheapest_routing:
            assert report["routing_witness"]["flow"] == report["optimal_flow"]
        with_cycles += bool(decompose(net, min_cost_max_flow(net)[0]).cycles)
    assert any(net._integer_form.cap_scale > 1 for net in nets)
    assert with_cycles >= 1


def test_classify_no_route_error():
    net = make_network(["s", "t"], [], "s", "t")
    from flowgame import GameParams, classify_region

    with pytest.raises(NoRoute):
        classify_region(GameParams(1, 1), cheapest_path_cost(net))
