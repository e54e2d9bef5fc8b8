import random
from fractions import Fraction

import pytest

from flowgame import (
    CapacityExceeded,
    GameParams,
    InvalidParams,
    InvalidPath,
    InvalidStrategy,
    LoopyFlowInSupport,
    analyze,
    attack,
    attack_cost,
    attacker_payoff,
    best_attacker_response,
    decompose,
    effective_flow,
    enumerate_simple_paths,
    expected_edge_loads,
    expected_payoffs,
    make_network,
    mean_flow,
    min_cost_max_flow,
    mixture,
    path_cost,
    path_flow,
    point_mass,
    profile_expectations,
    router_payoff,
    transport_cost,
    verify_equilibrium,
)
from conftest import (
    load_fixture,
    random_network,
    random_path_flow,
    random_probabilities,
    random_rational_network,
)
from flowgame.equilibrium import (
    _equilibrium_property_checks,
    closed_form_quantities,
    construct_equilibrium,
)
from flowgame.game import _expectations, _mean_table
from oracles import (
    edge_flow_cost,
    fraction_attack_cost,
    fraction_attacker_payoff,
    fraction_closed_forms,
    fraction_edge_amounts,
    fraction_expected_edge_loads,
    fraction_mean_flow,
    fraction_path_cost,
    fraction_profile_expectations,
    fraction_property_checks,
    fraction_router_payoff,
    fraction_transport_cost,
    fraction_value,
    fraction_verify_equilibrium,
    pairwise_expected_payoffs,
    strip_loops,
)

F = Fraction


@pytest.fixture(scope="module")
def square_flow(square_net):
    return path_flow(
        square_net,
        [
            (("s", "1", "t"), 1),
            (("s", "1", "2", "t"), 1),
            (("s", "2", "t"), 1),
        ],
    )


def all_attacks(net):
    ids = [e.id for e in net.edges]
    for mask in range(1 << len(ids)):
        yield attack(net, [ids[i] for i in range(len(ids)) if mask >> i & 1])


# ---------------------------------------------------------------------------
# Path flows and attacks
# ---------------------------------------------------------------------------

def test_path_flow_merges_duplicates(square_net):
    flow = path_flow(square_net, [(("s", "1", "t"), F(1, 2)), (("s", "1", "t"), F(1, 2))])
    assert flow.paths == ((("s", "1", "t"), F(1)),)


def test_path_flow_rejects_loops(square_net):
    with pytest.raises(LoopyFlowInSupport):
        path_flow(square_net, [(("s", "1", "2", "1", "t"), 1)])


def test_path_flow_rejects_wrong_endpoints(square_net):
    with pytest.raises(InvalidPath):
        path_flow(square_net, [(("1", "t"), 1)])
    with pytest.raises(InvalidPath):
        path_flow(square_net, [(("s", "1"), 1)])


def test_path_flow_rejects_missing_edge(square_net):
    with pytest.raises(InvalidPath):
        path_flow(square_net, [(("s", "2", "1", "t"), 1)])


def test_path_flow_rejects_overload(square_net):
    with pytest.raises(CapacityExceeded):
        path_flow(square_net, [(("s", "2", "t"), 2)])


def test_path_flow_rejects_nonpositive_amount(square_net):
    with pytest.raises(InvalidPath):
        path_flow(square_net, [(("s", "1", "t"), 0)])


def test_path_flow_reports_the_first_fault_in_item_order(square_net):
    # An earlier item's missing edge wins over a later item's loop.
    with pytest.raises(InvalidPath, match="^no edge from '2' to '1'$"):
        path_flow(square_net, [(("s", "2", "1", "t"), 1), (("s", "1", "2", "1", "t"), 1)])


def test_capacity_fault_names_the_first_edge_in_path_order(square_net):
    # (1, t) and (s, 2) are both over capacity; (1, t) comes first on the
    # sorted paths, though (s, 2) has the smaller id and its item comes first.
    with pytest.raises(CapacityExceeded, match=r"^edge \(1, t\) carries 2 but has capacity 1$"):
        path_flow(square_net, [(("s", "2", "t"), F(3, 2)), (("s", "1", "t"), 2)])


# Each fixture's optimal flow: its edge amounts as (tail, head, amount) in
# first-use order over the sorted paths, and its transport cost.
OPTIMAL_FLOW_PINS = {
    "cheap_routing.json": (
        [("s", "1", 1), ("1", "t", 1), ("s", "2", 2), ("2", "3", 1), ("3", "t", 1),
         ("2", "4", 1), ("4", "t", 1)],
        9,
    ),
    "detour.json": ([("s", "1", 1), ("1", "t", 1), ("s", "2", 1), ("2", "t", 1)], 8),
    "rational_detour.json": (
        [("s", "1", F(3, 2)), ("1", "t", F(3, 2)), ("s", "2", F(5, 7)), ("2", "t", F(5, 7))],
        F(31, 7),
    ),
    "triple_cut.json": (
        [("s", "1", 1), ("1", "3", 1), ("3", "t", 2), ("s", "2", 2), ("2", "3", 1),
         ("2", "4", 1), ("4", "t", 1)],
        9,
    ),
    "two_source.json": (
        [("super_source", "a1", 2), ("a1", "b", 1), ("b", "z", 2), ("a1", "c", 1),
         ("c", "z", 2), ("super_source", "a2", 2), ("a2", "b", 1), ("a2", "c", 1)],
        8,
    ),
}


def _labelled_amounts(net, flow):
    return [(net.edge(i).tail, net.edge(i).head, a) for i, a in flow.edge_amounts(net).items()]


@pytest.mark.parametrize("name", sorted(OPTIMAL_FLOW_PINS))
def test_optimal_flow_edge_amounts_and_transport_cost_pinned(name):
    net = load_fixture(name)
    flow = analyze(net).optimal_flow
    amounts, cost = OPTIMAL_FLOW_PINS[name]
    assert _labelled_amounts(net, flow) == amounts
    assert transport_cost(net, flow) == cost


def test_rational_two_path_flow_edge_amounts_and_transport_cost(square_net):
    flow = path_flow(square_net, [(("s", "1", "t"), F(1, 3)), (("s", "1", "2", "t"), F(2, 5))])
    assert _labelled_amounts(square_net, flow) == [
        ("s", "1", F(11, 15)), ("1", "2", F(2, 5)), ("2", "t", F(2, 5)), ("1", "t", F(1, 3)),
    ]
    assert transport_cost(square_net, flow) == F(28, 15)


def test_attack_from_pairs_and_ids(square_net):
    a = attack(square_net, [("s", "1"), ("1", "t")])
    b = attack(square_net, [e.id for e in square_net.edges if e.tail == "s" and e.head == "1"] + [3])
    assert a.edge_ids == (0, 3)
    assert b.edge_ids == (0, 3)
    with pytest.raises(InvalidPath):
        attack(square_net, [("t", "s")])


def test_effective_flow_square_example(square_net, square_flow):
    atk = attack(square_net, [("1", "t"), ("s", "2")])
    survived = effective_flow(square_net, square_flow, atk)
    assert survived.paths == ((("s", "1", "2", "t"), F(1)),)
    amounts = survived.edge_amounts(square_net)
    pair_amount = {
        (square_net.edge(i).tail, square_net.edge(i).head): v
        for i, v in amounts.items()
    }
    assert pair_amount == {("s", "1"): 1, ("1", "2"): 1, ("2", "t"): 1}


def test_effective_flow_trivial_attacks(square_net, square_flow):
    assert effective_flow(square_net, square_flow, attack(square_net)) == square_flow
    everything = attack(square_net, [e.id for e in square_net.edges])
    assert effective_flow(square_net, square_flow, everything).is_zero


def test_path_representation_carries_more_than_edge_amounts():
    # two flows can induce identical edge amounts yet lose different paths
    # under the same attack; this is why actions are path-based
    net = make_network(
        ["s", "u", "v", "m", "p", "q", "t"],
        [
            ("s", "u", 1, 1),
            ("s", "v", 1, 1),
            ("u", "m", 1, 1),
            ("v", "m", 1, 1),
            ("m", "p", 1, 1),
            ("m", "q", 1, 1),
            ("p", "t", 1, 1),
            ("q", "t", 1, 1),
        ],
        "s",
        "t",
    )
    straight = path_flow(
        net,
        [(("s", "u", "m", "p", "t"), 1), (("s", "v", "m", "q", "t"), 1)],
    )
    crossed = path_flow(
        net,
        [(("s", "u", "m", "q", "t"), 1), (("s", "v", "m", "p", "t"), 1)],
    )
    assert straight.edge_amounts(net) == crossed.edge_amounts(net)
    assert straight != crossed

    atk = attack(net, [("s", "u"), ("q", "t")])
    assert effective_flow(net, straight, atk).value == 0  # both paths hit
    assert effective_flow(net, crossed, atk).value == 1   # one path dodges

    params = GameParams(F(5), F(2))
    assert router_payoff(net, crossed, atk, params) > router_payoff(
        net, straight, atk, params
    )


def test_effective_flow_antitone(square_net, square_flow):
    attacks = list(all_attacks(square_net))
    for small in attacks:
        for big in attacks:
            if set(small.edge_ids) <= set(big.edge_ids):
                small_value = effective_flow(square_net, square_flow, small).value
                big_value = effective_flow(square_net, square_flow, big).value
                assert big_value <= small_value


# ---------------------------------------------------------------------------
# Costs and payoffs
# ---------------------------------------------------------------------------

def test_transport_cost_examples(cheap_routing_net):
    a = analyze(cheap_routing_net)
    assert transport_cost(cheap_routing_net, a.optimal_flow) == 9
    assert transport_cost(cheap_routing_net, path_flow(cheap_routing_net)) == 0


def test_transport_cost_path_sum_equals_edge_sum():
    rng = random.Random(5)
    from flowgame import enumerate_simple_paths
    for _ in range(30):
        net = random_network(rng)
        paths = enumerate_simple_paths(net, 5000)
        flow = random_path_flow(rng, net, paths)
        assert transport_cost(net, flow) == edge_flow_cost(net, flow.edge_amounts(net))


def test_attack_cost_examples(triple_cut_net):
    cut = analyze(triple_cut_net).min_cut
    assert attack_cost(triple_cut_net, attack(triple_cut_net, cut.cut_set)) == 3
    assert attack_cost(triple_cut_net, attack(triple_cut_net)) == 0
    assert attack_cost(triple_cut_net, attack(triple_cut_net, [("s", "1")])) == 2


def test_router_payoff_examples(triple_cut_net):
    params = GameParams(F(6), F(2))
    a = analyze(triple_cut_net)
    x_star = a.optimal_flow
    no_attack = attack(triple_cut_net)
    cut_attack = attack(triple_cut_net, a.min_cut.cut_set)
    zero = path_flow(triple_cut_net)

    assert router_payoff(triple_cut_net, x_star, no_attack, params) == 9
    assert router_payoff(triple_cut_net, zero, cut_attack, params) == 0
    # everything is lost but the transport bill still arrives
    assert router_payoff(triple_cut_net, x_star, cut_attack, params) == -9


def test_attacker_payoff_examples(triple_cut_net):
    params = GameParams(F(6), F(2))
    a = analyze(triple_cut_net)
    x_star = a.optimal_flow
    no_attack = attack(triple_cut_net)
    cut_attack = attack(triple_cut_net, a.min_cut.cut_set)
    zero = path_flow(triple_cut_net)

    assert attacker_payoff(triple_cut_net, x_star, cut_attack, params) == 2 * 3 - 3
    assert attacker_payoff(triple_cut_net, x_star, no_attack, params) == 0
    assert attacker_payoff(triple_cut_net, zero, cut_attack, params) == -3


def test_point_masses_reduce_to_pure_payoffs(square_net, square_flow):
    params = GameParams(F(3), F(2))
    atk = attack(square_net, [("1", "t")])
    u1, u2 = expected_payoffs(square_net, point_mass(square_flow), point_mass(atk), params)
    assert u1 == router_payoff(square_net, square_flow, atk, params)
    assert u2 == attacker_payoff(square_net, square_flow, atk, params)


def test_expected_payoffs_bilinear(square_net, square_flow):
    params = GameParams(F(3), F(2))
    zero = path_flow(square_net)
    s2 = mixture([(attack(square_net), F(1, 3)), (attack(square_net, [0]), F(2, 3))])
    w = F(1, 4)
    blend = mixture([(zero, 1 - w), (square_flow, w)])
    u1_blend, u2_blend = expected_payoffs(square_net, blend, s2, params)
    u1_a, u2_a = expected_payoffs(square_net, point_mass(zero), s2, params)
    u1_b, u2_b = expected_payoffs(square_net, point_mass(square_flow), s2, params)
    assert u1_blend == (1 - w) * u1_a + w * u1_b
    assert u2_blend == (1 - w) * u2_a + w * u2_b


def test_lost_plus_effective_equals_initial(square_net, square_flow):
    # the lost part is a flow in its own right: subtracting the surviving
    # edge amounts from the initial ones must leave a flow whose value is
    # exactly the difference of the two values
    from flowgame import flow_value

    total = square_flow.edge_amounts(square_net)
    for atk in all_attacks(square_net):
        surviving = effective_flow(square_net, square_flow, atk)
        kept = surviving.edge_amounts(square_net)
        difference = {
            edge_id: amount - kept.get(edge_id, F(0))
            for edge_id, amount in total.items()
        }
        assert all(amount >= 0 for amount in difference.values())
        assert flow_value(square_net, difference) == square_flow.value - surviving.value
        assert surviving.value + flow_value(square_net, difference) == square_flow.value


# ---------------------------------------------------------------------------
# Mixed strategies
# ---------------------------------------------------------------------------

def test_mixture_probabilities_must_sum_to_one(square_net):
    with pytest.raises(InvalidStrategy):
        mixture([(path_flow(square_net), F(1, 2))])


def test_mixture_rejects_nonpositive_probability(square_net):
    with pytest.raises(InvalidStrategy):
        mixture([(path_flow(square_net), F(0)), (path_flow(square_net), F(1))])


def test_mixture_rejects_duplicate_actions(square_net):
    with pytest.raises(InvalidStrategy):
        mixture([(path_flow(square_net), F(1, 2)), (path_flow(square_net), F(1, 2))])


def test_game_params_must_be_positive():
    with pytest.raises(InvalidParams):
        GameParams(0, 1)
    with pytest.raises(InvalidParams):
        GameParams(1, F(-1, 2))


def test_expected_edge_loads(triple_cut_net):
    a = analyze(triple_cut_net)
    s1 = mixture([(path_flow(triple_cut_net), F(1, 2)), (a.optimal_flow, F(1, 2))])
    loads = expected_edge_loads(triple_cut_net, s1)
    for edge_id in a.min_cut.cut_set:
        assert loads[edge_id] == F(1, 2)


# ---------------------------------------------------------------------------
# Linking the two players' expected payoffs
# ---------------------------------------------------------------------------

def assert_link_identities(net, s1, s2, params):
    """Each player's expected payoff can be rewritten through the other's:
    U1 = p1 E[F(x)] - E[C1(x)] - (p1/p2) E[C2(mu)] - (p1/p2) U2 and the
    symmetric form for U2. Both must hold for every profile."""
    u1, u2 = expected_payoffs(net, s1, s2, params)
    exps = profile_expectations(net, s1, s2)
    p1, p2 = params.p1, params.p2
    assert u1 == (
        p1 * exps.initial_flow
        - exps.transport_cost
        - (p1 / p2) * exps.attack_cost
        - (p1 / p2) * u2
    )
    assert u2 == (
        -exps.attack_cost
        + p2 * exps.initial_flow
        - (p2 / p1) * exps.transport_cost
        - (p2 / p1) * u1
    )
    assert exps.effective_flow + exps.lost_flow == exps.initial_flow


def test_link_identities_on_constructed_equilibrium(triple_cut_net):
    from flowgame import construct_equilibrium

    params = GameParams(F(6), F(2))
    profile = construct_equilibrium(triple_cut_net, params)
    assert_link_identities(triple_cut_net, profile.s1, profile.s2, params)


def test_link_identities_on_random_profiles():
    rng = random.Random(11)
    from flowgame import enumerate_simple_paths

    for _ in range(25):
        net = random_network(rng)
        paths = enumerate_simple_paths(net, 5000)
        params = GameParams(F(rng.randint(1, 9), rng.randint(1, 3)),
                            F(rng.randint(1, 9), rng.randint(1, 3)))
        for _ in range(8):
            flows = list(dict.fromkeys(random_path_flow(rng, net, paths) for _ in range(2)))
            attacks = list(dict.fromkeys(
                attack(net, [e.id for e in net.edges if rng.random() < 0.3])
                for _ in range(2)
            ))
            s1 = mixture(zip(flows, random_probabilities(rng, len(flows))))
            s2 = mixture(zip(attacks, random_probabilities(rng, len(attacks))))
            assert_link_identities(net, s1, s2, params)


# ---------------------------------------------------------------------------
# Loop removal dominance
# ---------------------------------------------------------------------------

def test_strip_loops_never_hurts_against_any_attack():
    net = make_network(
        ["s", "a", "b", "t"],
        [
            ("s", "a", 2, 1),
            ("a", "t", 2, 2),
            ("a", "b", 1, 1),
            ("b", "a", 1, 1),
            ("s", "b", 1, 0),
            ("b", "t", 2, 1),
        ],
        "s",
        "t",
    )
    params = GameParams(F(4), F(2))
    # a flow with a positive-cost cycle between a and b
    amounts = {0: F(1), 1: F(1), 2: F(1), 3: F(1), 4: F(1), 5: F(1)}
    decomposition = decompose(net, amounts)
    assert decomposition.cycles != ()
    path_part = path_flow(net, decomposition.paths)
    stripped = strip_loops(net, amounts)
    assert stripped == path_part

    for atk in all_attacks(net):
        # payoff of the loopy original: surviving paths earn, the whole
        # edge flow (cycles included) is paid for
        original = (
            params.p1 * effective_flow(net, path_part, atk).value
            - edge_flow_cost(net, amounts)
        )
        improved = router_payoff(net, stripped, atk, params)
        assert improved >= original


def test_strip_loops_identity_on_acyclic(cheap_routing_net):
    amounts = min_cost_max_flow(cheap_routing_net)[0]
    a = analyze(cheap_routing_net)
    assert strip_loops(cheap_routing_net, amounts) == a.optimal_flow


def test_expected_payoffs_match_the_pairwise_sum():
    # 200 seeded profiles with 1-3 flows and 1-3 attacks, on integer and
    # rational networks: the payoffs read off the profile's expectations
    # equal the weighted sum over every (flow, attack) pair.
    rng = random.Random(2015)
    checked = 0
    while checked < 200:
        make = random_network if checked % 2 else random_rational_network
        net = make(rng)
        paths = enumerate_simple_paths(net, 5000)
        flows = list(dict.fromkeys(
            random_path_flow(rng, net, paths) for _ in range(rng.randint(1, 3))
        ))
        attacks = list(dict.fromkeys(
            attack(net, [e.id for e in net.edges if rng.random() < 0.3])
            for _ in range(rng.randint(1, 3))
        ))
        s1 = mixture(zip(flows, random_probabilities(rng, len(flows))))
        s2 = mixture(zip(attacks, random_probabilities(rng, len(attacks))))
        params = GameParams(
            F(rng.randint(1, 9), rng.randint(1, 4)), F(rng.randint(1, 9), rng.randint(1, 4))
        )
        assert expected_payoffs(net, s1, s2, params) == pairwise_expected_payoffs(
            net, s1, s2, params
        )
        checked += 1


def test_a_router_mixture_plays_as_its_mean_flow():
    # 120 seeded profiles with 1-3 flows, some of them sharing a path:
    # verification, the pairwise payoffs and the attacker's best response
    # see the mixture and the point mass on its mean flow alike.
    rng = random.Random(71)
    checked = shared = 0
    while checked < 120:
        make = random_network if checked % 2 else random_rational_network
        net = make(rng)
        paths = enumerate_simple_paths(net, 5000)
        flows = [random_path_flow(rng, net, paths) for _ in range(rng.randint(1, 3))]
        if checked % 3 == 0 and flows[0].paths:
            # a second flow on a path the first one uses
            nodes, amount = flows[0].paths[0]
            flows.append(path_flow(net, [(nodes, amount / 2)]))
        flows = list(dict.fromkeys(flows))
        attacks = list(dict.fromkeys(
            attack(net, [e.id for e in net.edges if rng.random() < 0.3])
            for _ in range(rng.randint(1, 3))
        ))
        s1 = mixture(zip(flows, random_probabilities(rng, len(flows))))
        s2 = mixture(zip(attacks, random_probabilities(rng, len(attacks))))
        params = GameParams(
            F(rng.randint(1, 9), rng.randint(1, 4)), F(rng.randint(1, 9), rng.randint(1, 4))
        )
        mean = point_mass(mean_flow(s1))
        path_uses = [nodes for flow in flows for nodes, _ in flow.paths]
        shared += len(path_uses) > len(set(path_uses))

        mixed = verify_equilibrium(net, s1, s2, params)
        pooled = verify_equilibrium(net, mean, s2, params)
        for field in ("u1", "u2", "router_gap", "attacker_gap", "router_best", "attacker_best"):
            assert getattr(mixed, field) == getattr(pooled, field), field
        assert (mixed.u1, mixed.u2) == pairwise_expected_payoffs(net, s1, s2, params)
        assert best_attacker_response(net, s1, params) == best_attacker_response(
            net, mean, params
        )
        checked += 1
    assert shared >= 30, shared


def test_integer_game_layer_matches_fraction_oracle():
    # 320 seeded profiles on integer and rational networks. Router
    # mixtures of 1-3 flows, with the zero flow in some and a path that
    # two flows share in others; attacker mixtures of 1-3 attacks, with the
    # empty attack in some. Every third network that admits the Region
    # III construction verifies the constructed equilibrium instead, so
    # the property checks run too. Costs, amounts, loads, expectations
    # and whole verification reports equal the Fraction oracles, and the
    # payoffs the pairwise sum.
    rng = random.Random(2204)
    checked = zeros = shared = empties = equilibria = 0
    while checked < 320:
        make = random_network if checked % 2 else random_rational_network
        net = make(rng)
        paths = enumerate_simple_paths(net, 5000)
        analysis = analyze(net)
        unit_cost = analysis.cheapest_path_cost
        if checked % 3 == 0 and analysis.cheapest_routing:
            params = GameParams(unit_cost + F(rng.randint(1, 6), rng.randint(1, 3)),
                                1 + F(rng.randint(1, 6), rng.randint(1, 3)))
            s1, s2, _ = construct_equilibrium(net, params)
            flows = [flow for flow, _ in s1.support]
            attacks = [atk for atk, _ in s2.support]
        else:
            flows = [random_path_flow(rng, net, paths) for _ in range(rng.randint(1, 3))]
            if checked % 4 == 0:
                flows.append(path_flow(net))
            if checked % 3 == 1 and flows[0].paths:
                nodes, amount = flows[0].paths[0]
                flows.append(path_flow(net, [(nodes, amount / 3)]))
            flows = list(dict.fromkeys(flows))
            attacks = [
                attack(net, [e.id for e in net.edges if rng.random() < 0.3])
                for _ in range(rng.randint(1, 3))
            ]
            if checked % 5 == 0:
                attacks[0] = attack(net)
            attacks = list(dict.fromkeys(attacks))
            s1 = mixture(zip(flows, random_probabilities(rng, len(flows))))
            s2 = mixture(zip(attacks, random_probabilities(rng, len(attacks))))
            params = GameParams(
                F(rng.randint(1, 9), rng.randint(1, 4)), F(rng.randint(1, 9), rng.randint(1, 4))
            )
        path_uses = [nodes for flow in flows for nodes, _ in flow.paths]
        zeros += any(flow.is_zero for flow in flows)
        shared += len(path_uses) > len(set(path_uses))
        empties += any(atk.is_empty for atk in attacks)

        for flow in flows:
            assert flow.value == fraction_value(flow)
            assert transport_cost(net, flow) == fraction_transport_cost(net, flow)
            assert flow.edge_amounts(net) == fraction_edge_amounts(net, flow)
            for nodes, _ in flow.paths:
                assert path_cost(net, nodes) == fraction_path_cost(net, nodes)
            for atk in attacks:
                assert router_payoff(net, flow, atk, params) == fraction_router_payoff(
                    net, flow, atk, params
                )
                assert attacker_payoff(net, flow, atk, params) == fraction_attacker_payoff(
                    net, flow, atk, params
                )
        for atk in attacks:
            assert attack_cost(net, atk) == fraction_attack_cost(net, atk)
        assert mean_flow(s1) == fraction_mean_flow(s1)
        assert expected_edge_loads(net, s1) == fraction_expected_edge_loads(net, s1)
        exps = profile_expectations(net, s1, s2)
        assert exps == fraction_profile_expectations(net, s1, s2)

        report = verify_equilibrium(net, s1, s2, params)
        assert report == fraction_verify_equilibrium(net, s1, s2, params)
        assert (report.u1, report.u2) == pairwise_expected_payoffs(net, s1, s2, params)
        if report.checks:
            equilibria += 1
            assert len(report.checks) == 8
            # past the equilibrium gate: the zero flow and an attack on
            # every edge make several checks fail
            everything = mixture([(attack(net, range(len(net.edges))), 1)])
            for r1, r2 in ((point_mass(path_flow(net)), s2), (s1, everything)):
                table = _mean_table(net, r1)
                crafted = _expectations(net, table, r2)
                assert crafted == fraction_profile_expectations(net, r1, r2)
                assert _equilibrium_property_checks(
                    net, r1, r2, params, analysis, table, crafted
                ) == fraction_property_checks(net, r1, r2, params, analysis, crafted)
            assert closed_form_quantities(
                params, unit_cost, analysis.max_flow_value
            ) == fraction_closed_forms(params, unit_cost, analysis.max_flow_value)
        checked += 1
    assert min(zeros, shared, empties) >= 40, (zeros, shared, empties)
    assert equilibria >= 30, equilibria
