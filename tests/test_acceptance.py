"""Acceptance suite.

Each test states one acceptance criterion, checks it with exact equality
(no tolerances anywhere), and prints a PASS/FAIL line. Expected values
were computed with independent means: exhaustive partition enumeration
for cuts, direct support-weighted expectation for the closed forms, and
exhaustive attack enumeration for best responses.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from flowgame import (
    GameParams,
    analyze,
    attack,
    attack_cost,
    best_attacker_response,
    best_router_response,
    closed_form_quantities,
    construct_equilibrium,
    decompose,
    edge_always_saturated,
    effective_flow,
    enumerate_simple_paths,
    expected_edge_loads,
    expected_payoffs,
    flow_value,
    max_flow,
    maximin,
    min_cost_max_flow,
    minimax_certificate,
    mixture,
    path_flow,
    point_mass,
    profile_expectations,
    verify_equilibrium,
)
from flowgame.network import ZERO

from conftest import random_network, random_path_flow, random_probabilities
from oracles import brute_force_attacker_response

F = Fraction


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} [{description}]: FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:2d} [{description}]: PASS ({elapsed:.2f}s)")


def test_criterion_01_cheap_routing_analysis(cheap_routing_net):
    with criterion(1, "six-node relay: value 3, unit cost 3, bill 9, cheapest routing"):
        started = time.monotonic()
        a = analyze(cheap_routing_net)
        assert a.max_flow_value == 3
        assert a.cheapest_path_cost == 3
        assert a.min_transport_cost == 9
        assert a.cheapest_routing is True
        assert time.monotonic() - started < 1.0


def test_criterion_02_triple_cut_min_cut(triple_cut_net):
    with criterion(2, "triple-cut net: min-cut {(1,3),(2,3),(2,4)} of capacity 3"):
        started = time.monotonic()
        a = analyze(triple_cut_net)
        cut_pairs = sorted(
            (triple_cut_net.edge(i).tail, triple_cut_net.edge(i).head)
            for i in a.min_cut.cut_set
        )
        assert cut_pairs == [("1", "3"), ("2", "3"), ("2", "4")]
        assert a.min_cut.capacity == 3
        assert a.cheapest_path_cost == 3
        assert time.monotonic() - started < 1.0


def test_criterion_03_mixed_equilibrium_verifies(triple_cut_net):
    with criterion(3, "p1=6 p2=2: half/half mixture verifies, gaps exactly 0"):
        started = time.monotonic()
        params = GameParams(F(6), F(2))
        profile = construct_equilibrium(triple_cut_net, params)
        assert [p for _, p in profile.s1.support] == [F(1, 2), F(1, 2)]
        assert [p for _, p in profile.s2.support] == [F(1, 2), F(1, 2)]
        report = verify_equilibrium(triple_cut_net, profile.s1, profile.s2, params)
        assert report.is_ne
        # none of all 2**9 attacks does better
        assert report.attacker_best.value == brute_force_attacker_response(
            triple_cut_net, profile.s1, params, exhaustive=True
        ).value
        assert report.router_gap == 0
        assert report.attacker_gap == 0
        assert time.monotonic() - started < 5.0


def test_criterion_04_closed_forms_two_ways(triple_cut_net):
    with criterion(4, "closed forms equal direct support expectations"):
        params = GameParams(F(6), F(2))
        analysis = analyze(triple_cut_net)
        profile = construct_equilibrium(triple_cut_net, params, analysis)

        closed = closed_form_quantities(params, analysis.cheapest_path_cost,
                                        analysis.max_flow_value)
        exps = profile_expectations(triple_cut_net, profile.s1, profile.s2)
        u1, u2 = expected_payoffs(triple_cut_net, profile.s1, profile.s2, params)

        assert exps.initial_flow == closed.exp_initial_flow == F(3, 2)
        assert exps.transport_cost == closed.exp_transport_cost == F(9, 2)
        assert exps.attack_cost == closed.exp_attack_cost == F(3, 2)
        assert exps.effective_flow == closed.exp_effective_flow == F(3, 4)
        assert exps.lost_flow == closed.exp_lost_flow == F(3, 4)
        assert exps.effective_flow / exps.initial_flow == closed.yield_ratio == F(1, 2)
        assert u1 == closed.u1 == 0
        assert u2 == closed.u2 == 0


def test_criterion_05_pure_regions(triple_cut_net):
    with criterion(5, "pure equilibria in regions I and II, payoff 9 in II"):
        low = GameParams(F(2), F(5))
        profile = construct_equilibrium(triple_cut_net, low)
        report = verify_equilibrium(triple_cut_net, profile.s1, profile.s2, low)
        assert report.is_ne
        assert report.router_gap == 0 and report.attacker_gap == 0

        high = GameParams(F(6), F(1, 2))
        profile = construct_equilibrium(triple_cut_net, high)
        report = verify_equilibrium(triple_cut_net, profile.s1, profile.s2, high)
        assert report.is_ne
        assert report.router_gap == 0 and report.attacker_gap == 0
        assert report.u1 == (6 - 3) * 3 == 9


def test_criterion_06_no_pure_equilibrium(triple_cut_net):
    with criterion(6, "p1=6 p2=2: every pure profile fails with a positive gap"):
        params = GameParams(F(6), F(2))
        analysis = analyze(triple_cut_net)
        zero = path_flow(triple_cut_net)
        no_attack = attack(triple_cut_net)
        cut_attack = attack(triple_cut_net, analysis.min_cut.cut_set)
        for flow in (zero, analysis.optimal_flow):
            for atk in (no_attack, cut_attack):
                report = verify_equilibrium(
                    triple_cut_net, point_mass(flow), point_mass(atk), params
                )
                assert not report.is_ne
                assert max(report.router_gap, report.attacker_gap) > 0


def test_criterion_07_detour_network(detour_net):
    with criterion(7, "detour net: routing fails, special mixture is the equilibrium"):
        analysis = analyze(detour_net)
        assert analysis.cheapest_routing is False

        params = GameParams(F(7, 2), F(2))
        zero = path_flow(detour_net)
        detour = path_flow(detour_net, [(("s", "1", "2", "t"), 1)])
        middle = attack(detour_net, [("1", "2")])
        s1 = mixture([(zero, 1 - F(1, 2)), (detour, F(1, 2))])
        s2 = mixture([(attack(detour_net), F(3) / F(7, 2)),
                      (middle, 1 - F(3) / F(7, 2))])
        report = verify_equilibrium(detour_net, s1, s2, params)
        assert report.is_ne
        assert report.attacker_best.value == brute_force_attacker_response(
            detour_net, s1, params, exhaustive=True
        ).value
        assert report.router_gap == 0 and report.attacker_gap == 0

        # the mixture built from the optimal flow and min-cut must fail here
        bad_s1 = mixture([(zero, F(1, 2)), (analysis.optimal_flow, F(1, 2))])
        bad_s2 = mixture(
            [
                (attack(detour_net), F(6, 7)),
                (attack(detour_net, analysis.min_cut.cut_set), F(1, 7)),
            ]
        )
        bad = verify_equilibrium(detour_net, bad_s1, bad_s2, params)
        assert not bad.is_ne
        assert bad.attacker_best.value == brute_force_attacker_response(
            detour_net, bad_s1, params, exhaustive=True
        ).value
        assert max(bad.router_gap, bad.attacker_gap) > 0


def test_criterion_08_support_properties(triple_cut_net):
    with criterion(8, "support properties: loads c/2, disruption prob 1/2, saturation"):
        params = GameParams(F(6), F(2))
        analysis = analyze(triple_cut_net)
        profile = construct_equilibrium(triple_cut_net, params, analysis)

        loads = expected_edge_loads(triple_cut_net, profile.s1)
        for edge_id in analysis.min_cut.cut_set:
            edge = triple_cut_net.edge(edge_id)
            assert loads[edge_id] == edge.capacity / params.p2 == edge.capacity / 2

        for edge_id in analysis.min_cut.cut_set:
            disruption = sum(
                (q for atk, q in profile.s2.support if edge_id in atk.edge_ids), ZERO
            )
            assert disruption == 1 - F(3, 6) == F(1, 2)

        for atk, _ in profile.s2.support:
            assert attack_cost(triple_cut_net, atk) <= 3

        disrupted = {i for atk, _ in profile.s2.support for i in atk.edge_ids}
        amounts = analysis.optimal_flow.edge_amounts(triple_cut_net)
        for edge_id in disrupted:
            assert edge_always_saturated(triple_cut_net, amounts, edge_id)


def test_criterion_09_maximin_and_minimax(triple_cut_net):
    with criterion(9, "maximin 0 at the costless actions; minimax certificates at 0"):
        params = GameParams(F(6), F(2))
        analysis = analyze(triple_cut_net)

        value1, action1 = maximin(triple_cut_net, params, 1)
        assert value1 == 0 and action1.is_zero
        value2, action2 = maximin(triple_cut_net, params, 2)
        assert value2 == 0 and action2.is_empty

        cap1, cert1 = minimax_certificate(triple_cut_net, params, 1, analysis)
        assert cap1 == 0
        assert best_router_response(triple_cut_net, cert1, params).value == 0
        cap2, cert2 = minimax_certificate(triple_cut_net, params, 2, analysis)
        assert cap2 == 0
        assert best_attacker_response(triple_cut_net, cert2, params).value == 0


def test_criterion_10_randomized_property_suite():
    with criterion(10, "200 random networks: cuts, decomposition, payoff identities"):
        started = time.monotonic()
        rng = random.Random(20240810)
        for _ in range(200):
            net = random_network(rng)

            # (a) max-flow value equals the exhaustive minimum cut
            value, amounts = max_flow(net)
            middle = sorted(net.nodes - {net.source, net.sink})
            best = None
            for mask in range(1 << len(middle)):
                side = {net.source} | {
                    middle[i] for i in range(len(middle)) if mask >> i & 1
                }
                cap = sum(
                    (
                        e.capacity
                        for e in net.edges
                        if e.tail in side and e.head not in side
                    ),
                    ZERO,
                )
                if best is None or cap < best:
                    best = cap
            assert value == best

            # (b) decomposition rebuilds the min-cost flow edge-exactly
            mc_amounts = min_cost_max_flow(net)[0]
            assert flow_value(net, mc_amounts) == value
            pieces = decompose(net, mc_amounts)
            rebuilt = {e.id: ZERO for e in net.edges}
            for nodes, amount in pieces.paths + pieces.cycles:
                for edge_id in net.edge_ids_on_path(nodes):
                    rebuilt[edge_id] += amount
            assert rebuilt == {e.id: mc_amounts.get(e.id, ZERO) for e in net.edges}

            # (c) + (d): payoff identities on 50 random strategy pairs
            paths = enumerate_simple_paths(net, 5000)
            params = GameParams(
                F(rng.randint(1, 9), rng.randint(1, 3)),
                F(rng.randint(1, 9), rng.randint(1, 3)),
            )
            p1, p2 = params.p1, params.p2
            for _ in range(50):
                flows = list(dict.fromkeys(random_path_flow(rng, net, paths) for _ in range(2)))
                attacks = list(dict.fromkeys(
                    attack(net, [e.id for e in net.edges if rng.random() < 0.25])
                    for _ in range(2)
                ))
                s1 = mixture(zip(flows, random_probabilities(rng, len(flows))))
                s2 = mixture(zip(attacks, random_probabilities(rng, len(attacks))))

                u1, u2 = expected_payoffs(net, s1, s2, params)
                exps = profile_expectations(net, s1, s2)
                # each payoff rewritten through the other player's
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
                # delivered plus lost is what was sent, for every sampled
                # pure pair, with the lost part valued as an edge flow
                for flow, _ in s1.support:
                    total = flow.edge_amounts(net)
                    for atk, _ in s2.support:
                        surviving = effective_flow(net, flow, atk)
                        kept = surviving.edge_amounts(net)
                        difference = {
                            edge_id: amount - kept.get(edge_id, ZERO)
                            for edge_id, amount in total.items()
                        }
                        assert surviving.value + flow_value(net, difference) == flow.value
        assert time.monotonic() - started < 60.0
