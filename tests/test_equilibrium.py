import random
from fractions import Fraction

import pytest

from flowgame import (
    BoundaryParams,
    CheapestRoutingRequired,
    EdgeBudgetExceeded,
    GameParams,
    PathBudgetExceeded,
    WrongRegion,
    analyze,
    attack,
    attacker_payoff,
    best_attacker_response,
    best_router_response,
    classify_region,
    closed_form_quantities,
    construct_equilibrium,
    edge_always_saturated,
    enumerate_simple_paths,
    expected_payoffs,
    flow_value,
    make_network,
    maximin,
    minimax_certificate,
    mixture,
    path_flow,
    point_mass,
    profile_expectations,
    verify_equilibrium,
)
from flowgame import equilibrium, flows, lp

from conftest import (
    random_grid_network,
    random_network,
    random_path_flow,
    random_probabilities,
    random_rational_network,
)
from oracles import (
    brute_force_attacker_response,
    edge_flow_cost,
    expect,
    fraction_edge_amounts,
    fraction_router_payoff,
    fraction_router_response,
    fraction_solve_lp,
    is_feasible,
    lp_edge_always_saturated,
    reached_paths,
    recursive_simple_paths,
)

F = Fraction


@pytest.fixture(scope="module")
def contested(triple_cut_net):
    """The triple-cut network in the mixed region: p1 = 6, p2 = 2."""
    params = GameParams(F(6), F(2))
    analysis = analyze(triple_cut_net)
    return triple_cut_net, params, analysis


def assert_no_edge_set_does_better(report, net, s1, params):
    """The attacker's best response in ``report`` is worth as much as the
    best attack on any set of edges, loaded or not."""
    full = brute_force_attacker_response(net, s1, params, exhaustive=True)
    assert report.attacker_best.value == full.value


# ---------------------------------------------------------------------------
# Region classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "p1,p2,tag",
    [
        (F(2), F(5), "I"),
        (F(1, 2), F(1, 2), "I"),
        (F(6), F(1, 2), "II"),
        (F(6), F(2), "III"),
        (F(100), F(101), "III"),
        (F(2), F(1), "I"),  # p2 = 1 only separates the high-p1 half plane
    ],
)
def test_classify_region(p1, p2, tag):
    assert classify_region(GameParams(p1, p2), F(3)).tag == tag


def test_boundaries_are_never_folded():
    at_cost = classify_region(GameParams(F(3), F(1, 2)), F(3))
    assert at_cost.tag == "boundary" and at_cost.p1_at_cost
    at_one = classify_region(GameParams(F(6), F(1)), F(3))
    assert at_one.tag == "boundary" and at_one.p2_at_one
    both = classify_region(GameParams(F(3), F(1)), F(3))
    assert both.p1_at_cost and both.p2_at_one


# ---------------------------------------------------------------------------
# Constructed equilibria per region
# ---------------------------------------------------------------------------

def test_region_one_no_action(triple_cut_net):
    params = GameParams(F(2), F(5))
    profile = construct_equilibrium(triple_cut_net, params)
    assert profile.provenance == "no-action"
    assert profile.s1.support[0][0].is_zero
    assert profile.s2.support[0][0].is_empty
    report = verify_equilibrium(triple_cut_net, profile.s1, profile.s2, params)
    assert report.is_ne
    assert report.u1 == 0 and report.u2 == 0


def test_region_two_route_only(triple_cut_net):
    params = GameParams(F(6), F(1, 2))
    profile = construct_equilibrium(triple_cut_net, params)
    assert profile.provenance == "route-only"
    report = verify_equilibrium(triple_cut_net, profile.s1, profile.s2, params)
    assert report.is_ne
    # router earns (p1 - path cost) per unit on all 3 units
    assert report.u1 == (6 - 3) * 3 == 9
    assert report.u2 == 0


def test_region_three_mixture_probabilities(contested):
    net, params, analysis = contested
    profile = construct_equilibrium(net, params, analysis)
    assert profile.provenance == "contested-mixed"
    probs1 = {flow.is_zero: p for flow, p in profile.s1.support}
    assert probs1[True] == F(1, 2) and probs1[False] == F(1, 2)
    probs2 = {atk.is_empty: p for atk, p in profile.s2.support}
    assert probs2[True] == F(1, 2) and probs2[False] == F(1, 2)
    cut_attacks = [atk for atk, _ in profile.s2.support if not atk.is_empty]
    assert set(cut_attacks[0].edge_ids) == set(analysis.min_cut.cut_set)


def test_boundary_emits_both_pure_equilibria(triple_cut_net):
    params = GameParams(F(3), F(1, 2))
    with pytest.raises(BoundaryParams) as excinfo:
        construct_equilibrium(triple_cut_net, params)
    profiles = excinfo.value.profiles
    assert len(profiles) == 2
    for profile in profiles:
        report = verify_equilibrium(triple_cut_net, profile.s1, profile.s2, params)
        assert report.is_ne
        assert report.u1 == 0 and report.u2 == 0


def test_boundary_p2_equal_one_has_no_attached_profiles(triple_cut_net):
    with pytest.raises(BoundaryParams) as excinfo:
        construct_equilibrium(triple_cut_net, GameParams(F(6), F(1)))
    assert excinfo.value.profiles == ()


def test_region_three_requires_cheapest_routing(detour_net):
    with pytest.raises(CheapestRoutingRequired) as excinfo:
        construct_equilibrium(detour_net, GameParams(F(7, 2), F(2)))
    nodes, cost = excinfo.value.witness
    assert cost == 4


def test_degenerate_network_profile():
    net = make_network(["s", "t", "a"], [("a", "t", 1, 1)], "s", "t")
    profile = construct_equilibrium(net, GameParams(F(5), F(5)))
    assert profile.provenance == "degenerate-no-route"
    report = verify_equilibrium(net, profile.s1, profile.s2, GameParams(F(5), F(5)))
    assert report.is_ne


def test_zero_cost_path_puts_every_p1_above_the_cost():
    # free transport: the cheapest path cost is 0, so any positive p1 lands
    # in region II or III and the empty attack drops out of the mixture
    net = make_network(["s", "t"], [("s", "t", 5, 0)], "s", "t")
    params = GameParams(F(1), F(2))
    assert classify_region(params, F(0)).tag == "III"
    profile = construct_equilibrium(net, params)
    assert profile.provenance == "contested-mixed"
    assert len(profile.s2.support) == 1  # only the full min-cut attack
    assert not profile.s2.support[0][0].is_empty
    report = verify_equilibrium(net, profile.s1, profile.s2, params)
    assert report.is_ne
    assert_no_edge_set_does_better(report, net, profile.s1, params)
    statuses = {check.name: check.status for check in report.checks}
    assert set(statuses.values()) == {"pass"}


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_closed_forms_match_direct_expectation(contested):
    net, params, analysis = contested
    report = closed_form_quantities(params, F(3), F(3))
    assert report.u1 == 0 and report.u2 == 0
    assert report.exp_initial_flow == F(3, 2)
    assert report.exp_transport_cost == F(9, 2)
    assert report.exp_attack_cost == F(3, 2)
    assert report.exp_effective_flow == F(3, 4)
    assert report.exp_lost_flow == F(3, 4)
    assert report.yield_ratio == F(1, 2)

    # the same quantities by direct expectation over the mixed support
    profile = construct_equilibrium(net, params, analysis)
    exps = profile_expectations(net, profile.s1, profile.s2)
    u1, u2 = expected_payoffs(net, profile.s1, profile.s2, params)
    assert (u1, u2) == (report.u1, report.u2)
    assert exps.initial_flow == report.exp_initial_flow
    assert exps.transport_cost == report.exp_transport_cost
    assert exps.attack_cost == report.exp_attack_cost
    assert exps.effective_flow == report.exp_effective_flow
    assert exps.lost_flow == report.exp_lost_flow
    assert exps.effective_flow / exps.initial_flow == report.yield_ratio


def test_closed_forms_reject_boundary_and_lower_regions():
    with pytest.raises(WrongRegion):
        closed_form_quantities(GameParams(F(3), F(2)), F(3), F(3))
    with pytest.raises(WrongRegion):
        closed_form_quantities(GameParams(F(6), F(1, 2)), F(3), F(3))


def test_yield_is_invariant_under_capacity_scaling(triple_cut_net):
    params = GameParams(F(6), F(2))
    for k in (2, 3):
        scaled = make_network(
            triple_cut_net.nodes,
            [(e.tail, e.head, e.capacity * k, e.cost) for e in triple_cut_net.edges],
            "s",
            "t",
        )
        analysis = analyze(scaled)
        assert analysis.max_flow_value == 3 * k
        report = closed_form_quantities(params, F(3), analysis.max_flow_value)
        assert report.yield_ratio == F(1, 2)  # independent of the scaling
        assert report.exp_attack_cost == F(3, 2) * k
        # mixture probabilities do not scale either
        profile = construct_equilibrium(scaled, params, analysis)
        assert {p for _, p in profile.s1.support} == {F(1, 2)}
        assert {p for _, p in profile.s2.support} == {F(1, 2)}
        check = verify_equilibrium(scaled, profile.s1, profile.s2, params)
        assert check.is_ne


# ---------------------------------------------------------------------------
# Best-response oracles
# ---------------------------------------------------------------------------

def test_router_best_response_to_no_attack(contested):
    net, params, analysis = contested
    best = best_router_response(net, point_mass(attack(net)), params)
    assert best.value == 9
    assert best.action.value == 3  # ships a full cheapest max flow


def test_router_best_response_to_everything_attack(contested):
    net, params, _ = contested
    everything = attack(net, [e.id for e in net.edges])
    best = best_router_response(net, point_mass(everything), params)
    assert best.value == 0
    assert best.action.is_zero


def test_router_best_response_to_equilibrium_mixture(contested):
    net, params, analysis = contested
    profile = construct_equilibrium(net, params, analysis)
    best = best_router_response(net, profile.s2, params)
    assert best.value == 0


def test_attacker_best_response_to_zero_flow(contested):
    net, params, _ = contested
    best = best_attacker_response(net, point_mass(path_flow(net)), params)
    assert best.value == 0
    assert best.action.is_empty


def test_attacker_best_response_to_optimal_flow(contested):
    net, params, analysis = contested
    best = best_attacker_response(net, point_mass(analysis.optimal_flow), params)
    assert best.value == 3
    assert set(best.action.edge_ids) == set(analysis.min_cut.cut_set)


def test_attacker_best_response_to_equilibrium_mixture(contested):
    net, params, analysis = contested
    profile = construct_equilibrium(net, params, analysis)
    best = best_attacker_response(net, profile.s1, params)
    assert best.value == 0
    assert best.action.is_empty  # empty attack wins the tie lexicographically


def test_pruned_and_exhaustive_attacker_responses_agree():
    rng = random.Random(17)
    for _ in range(15):
        net = random_network(rng, max_internal=2)
        paths = enumerate_simple_paths(net, 5000)
        params = GameParams(F(rng.randint(1, 8)), F(rng.randint(1, 8), 2))
        flows = list(dict.fromkeys(random_path_flow(rng, net, paths) for _ in range(2)))
        s1 = mixture(zip(flows, random_probabilities(rng, len(flows))))
        pruned = best_attacker_response(net, s1, params)
        full = brute_force_attacker_response(net, s1, params, exhaustive=True)
        assert pruned.value == full.value


def test_simple_paths_match_recursive_enumeration():
    rng = random.Random(6)
    for _ in range(200):
        net = random_network(rng, max_internal=5)
        paths = enumerate_simple_paths(net, 5000)
        expected = recursive_simple_paths(net, 5000)
        assert paths == tuple(net.edge_ids_on_path(nodes) for nodes in expected)
        assert [net.nodes_on_path(ids) for ids in paths] == list(expected)


def random_attacks(rng, net, density):
    """One to three distinct random attacks with random probabilities."""
    attacks = list(dict.fromkeys(
        attack(net, [e.id for e in net.edges if rng.random() < density])
        for _ in range(rng.randint(1, 3))
    ))
    return mixture(zip(attacks, random_probabilities(rng, len(attacks))))


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_router_best_response_matches_fraction_oracle(rational, monkeypatch):
    # integer path worths and the integer simplex against Fraction costs,
    # Fraction survival sums and the Fraction simplex: same value, same flow
    rng = random.Random(41 + rational)
    make = random_rational_network if rational else random_network
    packed = 0
    for _ in range(300):
        net = make(rng, max_internal=6)
        params = GameParams(F(rng.randint(2, 40), rng.choice([1, 2, 3])), F(1))
        s2 = random_attacks(rng, net, 0.15)
        best = best_router_response(net, s2, params)
        assert best == fraction_router_response(net, s2, params)
        packed += not best.action.is_zero
    assert packed >= 100, packed

    # wide meshes, where the packing program has dozens to hundreds of
    # columns. Bland's pivots depend on the column order, so the program
    # the router lays out as its tableau must also be the one rebuilt from
    # the enumerated paths, column for column and row for row.
    programs = capture_packing_programs(monkeypatch)
    for net, s2, params in wide_meshes(rng, make, 25):
        assert_router_lays_out_packing_program(programs, net, s2, params)
    columns = [len(minimize) for minimize, _ in programs]
    assert sum(count >= 60 for count in columns) >= 22, sorted(columns)


def capture_packing_programs(monkeypatch) -> list:
    """Record, as ``(costs, [(row, rhs)])``, each program the router lays
    out as its tableau, where it enters ``lp.solve_tableau``, after
    checking that the tableau's slack columns are the identity."""
    programs = []
    solve_tableau = equilibrium.solve_tableau

    def capturing_solve_tableau(costs, tableau):
        n = len(costs)
        for r, row in enumerate(tableau):
            assert row[n:-1] == [int(k == r) for k in range(len(tableau))]
        programs.append((list(costs), [(row[:n], row[-1]) for row in tableau]))
        return solve_tableau(costs, tableau)

    monkeypatch.setattr(equilibrium, "solve_tableau", capturing_solve_tableau)
    return programs


def assert_router_lays_out_packing_program(programs, net, s2, params):
    """The router's best response equals the Fraction oracle's, and the
    program it lays out (captured into ``programs``) is the one rebuilt
    from every simple path, column for column and row for row."""
    before = len(programs)
    assert best_router_response(net, s2, params) == fraction_router_response(net, s2, params)
    costs, rows = packing_program(net, s2, params)
    if not costs:
        assert len(programs) == before
        return
    assert len(programs) == before + 1
    minimize, ub = programs[-1]
    assert proportional(minimize, costs)
    assert [coeffs for coeffs, _ in ub] == [coeffs for coeffs, _ in rows]
    assert proportional([rhs for _, rhs in ub], [rhs for _, rhs in rows])


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_pruned_router_walk_keeps_every_profitable_column(rational, monkeypatch):
    # p1 within 2 of the cheapest path cost and attacks that hit many
    # edges, so most prefixes stop paying and the walk skips what lies
    # below them: the response and the program it lays out must still be
    # those built from every simple path
    rng = random.Random(47 + rational)
    make = random_rational_network if rational else random_network
    programs = capture_packing_programs(monkeypatch)
    instances = pruned = 0
    while instances < 150:
        net = make(rng, max_internal=6, min_internal=3, density=0.5)
        unit_cost = analyze(net).cheapest_path_cost
        if unit_cost is None:
            continue
        instances += 1
        params = GameParams(unit_cost + F(rng.randint(1, 8), 4), F(2))
        s2 = random_attacks(rng, net, 0.3)
        assert_router_lays_out_packing_program(programs, net, s2, params)
        reached = len(reached_paths(net, s2, params))
        simple = len(enumerate_simple_paths(net, 5000))
        assert reached <= simple
        pruned += reached < simple
    assert len(programs) >= 50, len(programs)
    assert pruned >= 100, pruned


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_router_tableau_and_solve_lp_run_one_pivot_loop(rational, monkeypatch):
    # the router lays out its int tableau itself; solve_lp scales and lays
    # out the same dense program. Both run Bland's loop exactly once, with
    # the same pivots, objective and solution.
    rng = random.Random(43 + rational)
    make = random_rational_network if rational else random_network
    core_calls = []
    core = lp._pivot_until_optimal

    def counting_core(*args):
        core_calls.append(None)
        return core(*args)

    runs = []
    solve_tableau = equilibrium.solve_tableau

    def capturing_solve_tableau(costs, tableau):
        program = (list(costs), [list(row) for row in tableau])
        runs.append((program, solve_tableau(costs, tableau)))
        return runs[-1][1]

    monkeypatch.setattr(lp, "_pivot_until_optimal", counting_core)
    monkeypatch.setattr(equilibrium, "solve_tableau", capturing_solve_tableau)
    compared = 0
    for net, s2, params in wide_meshes(rng, make, 25):
        before = len(core_calls)
        best_router_response(net, s2, params)
        if len(runs) == compared:
            assert len(core_calls) == before
            continue
        assert len(core_calls) == before + 1
        (costs, tableau), (status, pivots, basic) = runs[-1]
        n = len(costs)
        result = lp.solve_lp(costs, ub=[(row[:n], row[-1]) for row in tableau])
        assert len(core_calls) == before + 2
        assert status == result.status == "optimal"
        assert pivots == result.pivots > 0
        assert sum(costs[j] * x for j, x in basic.items()) == result.objective
        assert [basic.get(j, 0) for j in range(n)] == list(result.solution)
        compared += 1
    assert compared >= 20, compared


def wide_meshes(rng, make, count):
    """``count`` seeded meshes with 7-8 internal nodes and 120-400 simple
    paths, each with an attacker mixture and a high p1: ``(net, s2,
    params)``."""
    meshes = 0
    while meshes < count:
        net = make(rng, max_internal=8, min_internal=7, density=0.5)
        if not 120 <= len(enumerate_simple_paths(net, 5000)) <= 400:
            continue
        meshes += 1
        params = GameParams(F(rng.randint(30, 60)), F(1))
        yield net, random_attacks(rng, net, 0.1), params


def packing_program(net, s2, params):
    """The router's packing program on Fractions, rebuilt from
    ``enumerate_simple_paths``: the costs (minus each positive path worth)
    in path order, and one 0/1 capacity row per edge those paths use, in
    edge-id order."""
    weighted = []
    for ids in enumerate_simple_paths(net, 5000):
        survival = sum((q for atk, q in s2.support if not set(ids) & set(atk.edge_ids)), F(0))
        worth = params.p1 * survival - sum(net.edge(i).cost for i in ids)
        if worth > 0:
            weighted.append((ids, worth))
    edge_ids = sorted({i for ids, _ in weighted for i in ids})
    rows = [
        ([int(i in ids) for ids, _ in weighted], net.edge(i).capacity) for i in edge_ids
    ]
    return [-worth for _, worth in weighted], rows


def proportional(scaled, values) -> bool:
    """Is ``scaled`` ``values`` times one positive factor?"""
    if len(scaled) != len(values):
        return False
    pivot = next((j for j, v in enumerate(values) if v), None)
    if pivot is None:
        return all(v == 0 for v in scaled)
    factor = F(scaled[pivot]) / values[pivot]
    return factor > 0 and all(a == factor * v for a, v in zip(scaled, values))


def test_router_path_budget_counts_worthless_paths():
    # an attack of probability 1 makes every path it hits worthless, and
    # the router's walk extends no prefix it hits; the paths the walk
    # still reaches at the sink count against the budget, worthless or
    # not, so the router stops at that count, which lies between the
    # number of paths it keeps and the number of simple paths
    rng = random.Random(29)
    checked = 0
    while checked < 30:
        net = random_network(rng, max_internal=6, min_internal=3, density=0.5)
        paths = enumerate_simple_paths(net, 5000)
        hit = [e.id for e in net.edges if rng.random() < 0.4]
        params = GameParams(F(rng.randint(4, 12)), F(2))
        kept = sum(
            1 for ids in paths
            if not set(ids) & set(hit) and sum(net.edge(i).cost for i in ids) < params.p1
        )
        if len(paths) < 4 or 2 * kept >= len(paths):
            continue
        checked += 1
        s2 = point_mass(attack(net, hit))
        reached = len(reached_paths(net, s2, params))
        assert kept <= reached <= len(paths)
        full = best_router_response(net, s2, params)
        for budget in sorted({0, kept, reached // 2, max(reached - 1, 0), reached,
                              reached + 1, len(paths)}):
            if budget < reached:
                with pytest.raises(PathBudgetExceeded, match=f"more than {budget} simple"):
                    best_router_response(net, s2, params, max_paths=budget)
            else:
                assert best_router_response(net, s2, params, max_paths=budget) == full


def test_router_best_response_passes_the_simple_path_wall():
    # seeded grids with back edges, s feeding the left column and the
    # right column draining to t, taken only when they have more than
    # 5,000 simple s-t paths. Against the empty attack at p1 = 6 only
    # prefixes cheaper than 6 pay, so the router's walk stays within the
    # default budget, and its value is the optimum of the edge-flow
    # program with conservation rows
    rng = random.Random(5)
    params = GameParams(F(6), F(1, 2))
    walled = 0
    while walled < 3:
        net = random_grid_network(rng, max_side=6)
        try:
            enumerate_simple_paths(net, 5000)
            continue
        except PathBudgetExceeded:
            walled += 1
        empty = attack(net)
        best = best_router_response(net, point_mass(empty), params)
        assert is_feasible(net, fraction_edge_amounts(net, best.action))
        assert fraction_router_payoff(net, best.action, empty, params) == best.value
        source = net.source
        inner = sorted(net.nodes - {source, net.sink})
        result = fraction_solve_lp(
            [e.cost - params.p1 * ((e.tail == source) - (e.head == source)) for e in net.edges],
            eq=[([(e.head == v) - (e.tail == v) for e in net.edges], 0) for v in inner],
            ub=[([int(e.id == i) for e in net.edges], net.edge(i).capacity)
                for i in range(len(net.edges))],
        )
        assert result.status == "optimal"
        assert best.value == -result.objective > 0


def test_path_budget_exceeded(triple_cut_net):
    with pytest.raises(PathBudgetExceeded):
        enumerate_simple_paths(triple_cut_net, 2)
    with pytest.raises(PathBudgetExceeded):
        best_router_response(
            triple_cut_net,
            point_mass(attack(triple_cut_net)),
            GameParams(F(6), F(2)),
            max_paths=2,
        )


def test_edge_budget_exceeded(contested):
    net, params, analysis = contested
    with pytest.raises(EdgeBudgetExceeded):
        best_attacker_response(
            net, point_mass(analysis.optimal_flow), params, max_attack_edges=3
        )


def test_attacker_search_matches_brute_force_on_random_networks():
    rng = random.Random(2024)
    for _ in range(300):
        net = random_network(rng, max_internal=3)
        paths = enumerate_simple_paths(net, 5000)
        params = GameParams(F(rng.randint(1, 8)), F(rng.randint(1, 12), rng.randint(1, 3)))
        flows = list(
            dict.fromkeys(
                random_path_flow(rng, net, paths) for _ in range(rng.randint(2, 3))
            )
        )
        s1 = mixture(zip(flows, random_probabilities(rng, len(flows))))
        fast = best_attacker_response(net, s1, params)
        slow = brute_force_attacker_response(net, s1, params)
        assert fast.value == slow.value
        assert fast.action.edge_ids == slow.action.edge_ids
        # unloaded edges add nothing: every subset of every edge gives the
        # same value (an all-edge tie may pick another set, through
        # zero-capacity unloaded edges)
        full = brute_force_attacker_response(net, s1, params, exhaustive=True)
        assert fast.value == full.value


def complete_layered_network(rng, width):
    """s -> width a-nodes -> width b-nodes -> t with every edge present;
    unit capacities into and out of the layers, 1-3 between them, and
    uniform costs, so every path is a cheapest path."""
    layer_a = [f"a{i}" for i in range(width)]
    layer_b = [f"b{i}" for i in range(width)]
    edges = [("s", a, 1, 1) for a in layer_a]
    edges += [(a, b, rng.randint(1, 3), 1) for a in layer_a for b in layer_b]
    edges += [(b, "t", 1, 1) for b in layer_b]
    return make_network(["s", "t", *layer_a, *layer_b], edges, "s", "t")


@pytest.mark.parametrize("width", [3, 4, 5])
def test_attacker_search_matches_brute_force_on_layered_networks(width):
    net = complete_layered_network(random.Random(width), width)
    analysis = analyze(net)
    params = GameParams(F(9, 2), F(5, 2))
    equilibrium = construct_equilibrium(net, params, analysis).s1
    first_path = analysis.optimal_flow.paths[0]
    off_equilibrium = mixture(
        [(analysis.optimal_flow, F(1, 2)), (path_flow(net, [first_path]), F(1, 2))]
    )
    values = []
    for s1 in (equilibrium, off_equilibrium):
        fast = best_attacker_response(net, s1, params)
        slow = brute_force_attacker_response(net, s1, params)
        assert fast.value == slow.value
        assert fast.action.edge_ids == slow.action.edge_ids
        values.append(fast.value)
    assert values[0] == 0 < values[1]


@pytest.mark.parametrize("shared_at", [0, 3])
def test_attacker_tie_goes_to_lexicographically_smallest_set(shared_at):
    # Two unit paths s-a-c-t and s-b-c-t share the edge c->t of capacity
    # 2. With p2 = 2, cutting c->t alone, both unit source edges, or s->b
    # and the unit edge a->c is each worth 4 - 2 = 2, the maximum; the
    # smallest id tuple must win, whether or not it is the longest.
    # At id 3, c->t is an optimum met after the smallest one, with edge
    # a->c still ahead of it in the search.
    edges = [("s", "a", 1, 0), ("s", "b", 1, 0), ("b", "c", 3, 0), ("a", "c", 1, 0)]
    edges.insert(shared_at, ("c", "t", 2, 0))
    net = make_network(["s", "a", "b", "c", "t"], edges, "s", "t")
    params = GameParams(F(1), F(2))
    flow = path_flow(net, [(("s", "a", "c", "t"), 1), (("s", "b", "c", "t"), 1)])
    optima = [
        attack(net, pairs)
        for pairs in ([("c", "t")], [("s", "a"), ("s", "b")], [("s", "b"), ("a", "c")])
    ]
    assert all(attacker_payoff(net, flow, atk, params) == 2 for atk in optima)
    expected = min(atk.edge_ids for atk in optima)

    best = best_attacker_response(net, point_mass(flow), params)
    assert best.value == 2
    assert best.action.edge_ids == expected
    # every edge carries flow, so scoring every edge set picks the same one
    for exhaustive in (False, True):
        slow = brute_force_attacker_response(
            net, point_mass(flow), params, exhaustive=exhaustive
        )
        assert slow == best


# ---------------------------------------------------------------------------
# Saturation test
# ---------------------------------------------------------------------------

def test_min_cut_edges_always_saturated(contested):
    net, _, analysis = contested
    amounts = analysis.optimal_flow.edge_amounts(net)
    for edge_id in analysis.min_cut.cut_set:
        assert edge_always_saturated(net, amounts, edge_id)


def test_slack_edge_not_always_saturated(contested):
    net, _, analysis = contested
    # the source edge of capacity 2 carries 1 unit in the optimal routing
    slack = next(e.id for e in net.edges if (e.tail, e.head) == ("s", "1"))
    assert not edge_always_saturated(
        net, analysis.optimal_flow.edge_amounts(net), slack
    )


def test_saturation_matches_lp_oracle():
    # the residual-graph test and the secondary program agree on every
    # edge of networks of up to 8 nodes
    rng = random.Random(5)
    nets = [random_network(rng, max_internal=6) for _ in range(300)]
    nets.append(make_network(
        ["s", "a", "b", "t"], [("s", "a", 1, 1), ("a", "t", 1, 1)], "s", "t"
    ))
    verdicts = set()
    for net in nets:
        analysis = analyze(net)
        amounts = analysis.optimal_flow.edge_amounts(net)
        # the flow lies in the optimal face, so the program's minimum is
        # at most its amount on each edge: an edge it leaves below
        # capacity has the verdict False, and a zero-capacity edge True,
        # without solving the program
        assert is_feasible(net, amounts)
        assert flow_value(net, amounts) == analysis.max_flow_value
        assert edge_flow_cost(net, amounts) == analysis.min_transport_cost
        for e in net.edges:
            saturated = amounts.get(e.id, 0) == e.capacity
            if e.capacity == 0 or not saturated:
                expected = e.capacity == 0
            else:
                expected = lp_edge_always_saturated(
                    net, analysis.max_flow_value, analysis.min_transport_cost, e.id
                )
            verdict = edge_always_saturated(net, amounts, e.id)
            assert verdict == expected, (net, e)
            verdicts.add((verdict, e.capacity > 0 and saturated))
    # saturated edges of both verdicts occur, so the residual search is
    # exercised and not just the capacity shortcut
    assert {(True, True), (False, True), (False, False)} <= verdicts


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def test_constructed_equilibrium_verifies_with_property_checks(contested):
    net, params, analysis = contested
    profile = construct_equilibrium(net, params, analysis)
    report = verify_equilibrium(net, profile.s1, profile.s2, params)
    assert report.is_ne
    assert_no_edge_set_does_better(report, net, profile.s1, params)
    assert report.router_gap == 0 and report.attacker_gap == 0
    assert report.u1 == 0 and report.u2 == 0
    statuses = {check.name: check.status for check in report.checks}
    assert statuses == {
        "closed-form quantities": "pass",
        "attack cost within min-cut budget": "pass",
        "disrupted edges saturated by every optimal routing": "pass",
        "min-cut edge loads equal capacity over p2": "pass",
        "uniform disruption probability across the min-cut": "pass",
        "min-cut edges covered by supported flows": "pass",
        "support probability bounds": "pass",
        "optimal-routing delivery identity": "pass",
    }


def test_all_pure_profiles_fail_in_contested_region(contested):
    net, params, analysis = contested
    zero = path_flow(net)
    x_star = analysis.optimal_flow
    no_attack = attack(net)
    cut_attack = attack(net, analysis.min_cut.cut_set)
    for flow in (zero, x_star):
        for atk in (no_attack, cut_attack):
            report = verify_equilibrium(
                net, point_mass(flow), point_mass(atk), params
            )
            assert not report.is_ne
            assert report.router_gap > 0 or report.attacker_gap > 0


def test_detour_net_special_equilibrium(detour_net):
    params = GameParams(F(7, 2), F(2))
    zero = path_flow(detour_net)
    detour = path_flow(detour_net, [(("s", "1", "2", "t"), 1)])
    middle = attack(detour_net, [("1", "2")])
    s1 = mixture([(zero, F(1, 2)), (detour, F(1, 2))])
    s2 = mixture([(attack(detour_net), F(6, 7)), (middle, F(1, 7))])
    report = verify_equilibrium(detour_net, s1, s2, params)
    assert report.is_ne
    assert_no_edge_set_does_better(report, detour_net, s1, params)
    assert report.router_gap == 0 and report.attacker_gap == 0
    # outside the cheapest-routing world the structural checks do not apply
    assert report.checks == ()


def test_detour_net_mixture_from_optimal_flow_fails(detour_net):
    params = GameParams(F(7, 2), F(2))
    analysis = analyze(detour_net)
    s1 = mixture([(path_flow(detour_net), F(1, 2)), (analysis.optimal_flow, F(1, 2))])
    s2 = mixture(
        [
            (attack(detour_net), F(6, 7)),
            (attack(detour_net, analysis.min_cut.cut_set), F(1, 7)),
        ]
    )
    report = verify_equilibrium(detour_net, s1, s2, params)
    assert not report.is_ne
    assert_no_edge_set_does_better(report, detour_net, s1, params)
    assert report.router_gap > 0


def test_verify_consistency_across_regions(triple_cut_net):
    for p1, p2 in [(F(2), F(5)), (F(6), F(1, 2)), (F(6), F(2)), (F(9), F(3, 2))]:
        params = GameParams(p1, p2)
        profile = construct_equilibrium(triple_cut_net, params)
        report = verify_equilibrium(triple_cut_net, profile.s1, profile.s2, params)
        assert report.is_ne, (p1, p2)


def test_larger_support_equilibrium_on_parallel_routes():
    # two disjoint routes of equal cost and capacity give four min-cuts;
    # the attacker can spread the cut probability over two different
    # full cuts and stay in equilibrium with a three-point support
    net = make_network(
        ["s", "a", "b", "t"],
        [("s", "a", 1, 1), ("a", "t", 1, 1), ("s", "b", 1, 1), ("b", "t", 1, 1)],
        "s",
        "t",
    )
    params = GameParams(F(4), F(2))
    analysis = analyze(net)
    assert analysis.max_flow_value == 2
    assert analysis.cheapest_path_cost == 2

    s1 = mixture([(path_flow(net), F(1, 2)), (analysis.optimal_flow, F(1, 2))])
    cut_a = attack(net, [("s", "a"), ("s", "b")])
    cut_b = attack(net, [("a", "t"), ("s", "b")])
    s2 = mixture([(attack(net), F(1, 2)), (cut_a, F(1, 4)), (cut_b, F(1, 4))])
    report = verify_equilibrium(net, s1, s2, params)
    assert report.is_ne
    assert_no_edge_set_does_better(report, net, s1, params)
    statuses = {check.name: check.status for check in report.checks}
    # the supported attacks span two different min-cuts, so the uniform
    # disruption claim does not apply; everything else must hold
    assert statuses.pop("uniform disruption probability across the min-cut") == (
        "not applicable"
    )
    assert set(statuses.values()) == {"pass"}


def test_single_cut_alternative_equilibrium_on_parallel_routes():
    # the attacker may also use a non-canonical min-cut outright
    net = make_network(
        ["s", "a", "b", "t"],
        [("s", "a", 1, 1), ("a", "t", 1, 1), ("s", "b", 1, 1), ("b", "t", 1, 1)],
        "s",
        "t",
    )
    params = GameParams(F(4), F(2))
    analysis = analyze(net)
    s1 = mixture([(path_flow(net), F(1, 2)), (analysis.optimal_flow, F(1, 2))])
    cut_b = attack(net, [("a", "t"), ("s", "b")])
    s2 = mixture([(attack(net), F(1, 2)), (cut_b, F(1, 2))])
    report = verify_equilibrium(net, s1, s2, params)
    assert report.is_ne
    assert_no_edge_set_does_better(report, net, s1, params)
    statuses = {check.name: check.status for check in report.checks}
    assert set(statuses.values()) == {"pass"}


def test_property_checks_with_several_min_cuts():
    # a two-edge chain has two min-cuts; the load and coverage checks run
    # over both, while the uniform-disruption check applies only to the
    # cut the supported attack lives in
    net = make_network(["s", "a", "t"], [("s", "a", 2, 1), ("a", "t", 2, 1)], "s", "t")
    params = GameParams(F(4), F(2))
    profile = construct_equilibrium(net, params)
    report = verify_equilibrium(net, profile.s1, profile.s2, params)
    assert report.is_ne
    assert_no_edge_set_does_better(report, net, profile.s1, params)
    statuses = {check.name: check.status for check in report.checks}
    assert statuses["min-cut edge loads equal capacity over p2"] == "pass"
    assert statuses["min-cut edges covered by supported flows"] == "pass"
    assert statuses["uniform disruption probability across the min-cut"] == "pass"
    assert statuses["closed-form quantities"] == "pass"


def test_zero_capacity_min_cut_edges_are_skipped():
    # The min-cut {s} crosses (s, a) and the zero-capacity (s, t), which
    # no flow can use: the coverage check must not ask for flow on it,
    # nor the uniform-disruption check for an attack on it.
    net = make_network(
        ["s", "a", "t"], [("s", "a", 1, 1), ("a", "t", 2, 1), ("s", "t", 0, 1)], "s", "t"
    )
    params = GameParams(F(6), F(2))
    analysis = analyze(net)
    assert analysis.min_cut.cut_set == attack(net, [("s", "a"), ("s", "t")]).edge_ids
    profile = construct_equilibrium(net, params, analysis)
    # the constructed attack, and the same attack without (s, t)
    positive = mixture([(attack(net), F(1, 3)), (attack(net, [("s", "a")]), F(2, 3))])
    for s2 in (profile.s2, positive):
        report = verify_equilibrium(net, profile.s1, s2, params)
        assert report.is_ne
        details = {check.name: (check.status, check.detail) for check in report.checks}
        assert {status for status, _ in details.values()} == {"pass"}
        assert details["min-cut edges covered by supported flows"][1] == (
            "every min-cut edge carries flow under some supported action"
        )
        assert details["uniform disruption probability across the min-cut"][1] == (
            "each edge of 1 containing min-cut(s) is disrupted with probability 2/3"
        )


def test_constructed_region_three_equilibria_pass_every_check():
    # Random networks with capacities 0-3, where min-cuts often cross
    # zero-capacity edges: every check of a constructed Region III
    # equilibrium passes or does not apply.
    rng = random.Random(5)
    verified = crossing_zero = 0
    for _ in range(280):
        net = random_network(rng)
        analysis = analyze(net)
        if analysis.cheapest_path_cost is None or not analysis.cheapest_routing:
            continue
        params = GameParams(analysis.cheapest_path_cost + 1, F(2))
        profile = construct_equilibrium(net, params, analysis)
        report = verify_equilibrium(net, profile.s1, profile.s2, params, analysis=analysis)
        assert report.is_ne
        assert len(report.checks) == 8
        statuses = {check.status for check in report.checks}
        assert statuses <= {"pass", "not applicable"}, (net, report.checks)
        verified += 1
        cut = analysis.min_cut.cut_set
        crossing_zero += any(net.edge(i).capacity == 0 for i in cut)
    assert verified >= 100
    assert crossing_zero >= 30


def test_verify_analyzes_the_network_only_for_equilibria(contested, monkeypatch):
    # the analysis feeds only the property checks, and those run only for
    # equilibria: a profile that is not one costs no analysis
    net, params, analysis = contested
    profile = construct_equilibrium(net, params, analysis)
    expected = verify_equilibrium(net, profile.s1, profile.s2, params, analysis=analysis)
    calls = []

    def counted(net):
        calls.append(net)
        return analyze(net)

    monkeypatch.setattr(equilibrium, "analyze", counted)
    route_only = point_mass(analysis.optimal_flow)
    report = verify_equilibrium(net, route_only, point_mass(attack(net)), params)
    assert not report.is_ne and calls == []

    report = verify_equilibrium(net, profile.s1, profile.s2, params)
    assert report.is_ne and len(calls) == 1
    assert report == expected
    assert len(report.checks) == 8
    assert {check.status for check in report.checks} <= {"pass", "not applicable"}


def test_verify_computes_expectations_and_saturation_once(contested, monkeypatch):
    # the payoffs and the checks share one expectations call on one mean
    # table of s1, built by verification itself (the attacker's best
    # response, a public function of s1, builds its own); the checks table
    # the optimal flow once, for its edge amounts and, in a second
    # expectations call, its delivery; and every disrupted edge's
    # saturation verdict walks one build of the open-arc lists
    net, params, analysis = contested
    profile = construct_equilibrium(net, params, analysis)
    expected = verify_equilibrium(net, profile.s1, profile.s2, params, analysis=analysis)
    calls, arc_lists, tables = [], [], []

    def counted(name):
        original = getattr(equilibrium, name)
        return lambda *args: calls.append(name) or original(*args)

    for name in ("_expectations", "always_saturated_edges"):
        monkeypatch.setattr(equilibrium, name, counted(name))
    for name in ("_mean_table", "_flow_table"):
        build = getattr(equilibrium, name)
        monkeypatch.setattr(
            equilibrium, name,
            lambda net, strategy, _build=build: tables.append(strategy) or _build(net, strategy),
        )
    attacker = equilibrium.best_attacker_response
    monkeypatch.setattr(
        equilibrium, "best_attacker_response",
        lambda *args: tables.append("attacker") or attacker(*args),
    )
    per_edge = flows.edge_always_saturated
    monkeypatch.setattr(
        flows, "edge_always_saturated",
        lambda *args: arc_lists.append(args[3]) or per_edge(*args),
    )
    report = verify_equilibrium(net, profile.s1, profile.s2, params, analysis=analysis)
    assert report == expected
    assert report.is_ne and len(report.checks) == 8
    assert len({i for atk, _ in profile.s2.support for i in atk.edge_ids}) == 3
    assert sorted(calls) == ["_expectations", "_expectations", "always_saturated_edges"]
    assert tables == [profile.s1, "attacker", profile.s1, analysis.optimal_flow]
    assert len(arc_lists) == 3 and all(arcs is arc_lists[0] for arcs in arc_lists)


def test_verify_builds_the_open_arcs_once(contested, monkeypatch):
    # the saturation verdicts and the min-cut search read one build of the
    # optimal flow's open residual arcs
    net, params, analysis = contested
    profile = construct_equilibrium(net, params, analysis)
    expected = verify_equilibrium(net, profile.s1, profile.s2, params, analysis=analysis)
    builds, arc_lists = [], []
    build = flows._open_arcs

    def build_once(*args):
        builds.append(build(*args))
        return builds[-1]

    monkeypatch.setattr(equilibrium, "_open_arcs", build_once)
    monkeypatch.setattr(flows, "_open_arcs", lambda *args: pytest.fail("a second build"))
    for module, name, position in (
        (equilibrium, "all_min_cuts", 2),
        (equilibrium, "always_saturated_edges", 3),
        (flows, "edge_always_saturated", 3),
    ):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name,
            lambda *args, original=original, position=position:
                arc_lists.append(args[position]) or original(*args),
        )
    report = verify_equilibrium(net, profile.s1, profile.s2, params, analysis=analysis)
    assert report == expected and report.is_ne
    assert len(builds) == 1 and len(arc_lists) == 5
    assert all(arcs is builds[0] for arcs in arc_lists)
    assert builds[0] == build(net, analysis.optimal_flow.edge_amounts(net))


# ---------------------------------------------------------------------------
# Maximin and minimax
# ---------------------------------------------------------------------------

def test_maximin_values_are_zero(contested):
    net, params, _ = contested
    value1, action1 = maximin(net, params, 1)
    value2, action2 = maximin(net, params, 2)
    assert value1 == 0 and action1.is_zero
    assert value2 == 0 and action2.is_empty


def test_maximin_on_single_edge_network(single_edge_net):
    params = GameParams(F(5), F(3))
    value1, action1 = maximin(single_edge_net, params, 1)
    value2, action2 = maximin(single_edge_net, params, 2)
    assert (value1, value2) == (0, 0)
    assert action1.is_zero and action2.is_empty


def test_maximin_without_cheapest_routing(detour_net):
    params = GameParams(F(7, 2), F(2))
    assert maximin(detour_net, params, 1)[0] == 0
    assert maximin(detour_net, params, 2)[0] == 0


def test_minimax_certificates_in_contested_region(contested):
    net, params, analysis = contested
    value1, certificate1 = minimax_certificate(net, params, 1, analysis)
    assert value1 == 0
    assert {prob for _, prob in certificate1.support} == {F(1, 2)}
    value2, certificate2 = minimax_certificate(net, params, 2, analysis)
    assert value2 == 0
    assert {prob for _, prob in certificate2.support} == {F(1, 2)}


def test_minimax_certificates_region_one(triple_cut_net):
    params = GameParams(F(2), F(5))
    value1, certificate1 = minimax_certificate(triple_cut_net, params, 1)
    assert value1 == 0
    assert certificate1.support[0][0].is_empty
    value2, certificate2 = minimax_certificate(triple_cut_net, params, 2)
    assert value2 == 0
    assert certificate2.support[0][0].is_zero


def test_maximin_and_certificates_take_only_players_1_and_2(triple_cut_net):
    params = GameParams(F(2), F(5))
    with pytest.raises(ValueError, match=r"^player must be 1 or 2, got 3$"):
        maximin(triple_cut_net, params, 3)
    with pytest.raises(ValueError, match=r"^player must be 1 or 2, got 0$"):
        minimax_certificate(triple_cut_net, params, 0)


def test_minimax_certificate_boundary_rejected(triple_cut_net):
    with pytest.raises(WrongRegion):
        minimax_certificate(triple_cut_net, GameParams(F(3), F(2)), 1)


def test_minimax_certificates_region_two(triple_cut_net):
    params = GameParams(F(6), F(1, 2))
    value1, _ = minimax_certificate(triple_cut_net, params, 1)
    value2, certificate2 = minimax_certificate(triple_cut_net, params, 2)
    assert value1 == 0
    assert value2 == 0
    assert certificate2.support[0][0].is_zero


def test_minimax_router_side_works_without_cheapest_routing(detour_net):
    # the attacker-side certificate only needs a min-cut
    value, _ = minimax_certificate(detour_net, GameParams(F(7, 2), F(2)), 1)
    assert value == 0
    # the router-side certificate needs a cheapest max flow, which is missing
    with pytest.raises(CheapestRoutingRequired):
        minimax_certificate(detour_net, GameParams(F(7, 2), F(2)), 2)


# ---------------------------------------------------------------------------
# The equilibrium delivery identity, directly
# ---------------------------------------------------------------------------

def test_delivery_identity_at_equilibrium(contested):
    from flowgame import effective_flow

    net, params, analysis = contested
    profile = construct_equilibrium(net, params, analysis)
    delivered = expect(
        profile.s2, lambda atk: effective_flow(net, analysis.optimal_flow, atk).value
    )
    exps = profile_expectations(net, profile.s1, profile.s2)
    assert delivered == analysis.max_flow_value - exps.attack_cost


def test_delivery_identity_needs_cheapest_routing(detour_net):
    # on the detour network the equilibrium attack hits an edge the optimal
    # routing does not even use, so the identity genuinely fails there;
    # this is why verify_equilibrium only checks it under cheapest routing
    from flowgame import attack_cost, effective_flow

    analysis = analyze(detour_net)
    middle = attack(detour_net, [("1", "2")])
    s2 = mixture([(attack(detour_net), F(6, 7)), (middle, F(1, 7))])
    delivered = expect(
        s2, lambda atk: effective_flow(detour_net, analysis.optimal_flow, atk).value
    )
    expected_attack_cost = expect(s2, lambda atk: attack_cost(detour_net, atk))
    assert delivered == 2  # the optimal routing avoids the attacked edge
    assert analysis.max_flow_value - expected_attack_cost == F(13, 7)
    assert delivered != analysis.max_flow_value - expected_attack_cost


@pytest.mark.xfail(
    strict=True,
    reason="at cheapest path cost 0 the Region III property checks still run and fail "
    "on verified equilibria; the report change for c = 0 is ROADMAP item 3",
)
def test_zero_cost_equilibrium_passes_its_property_checks():
    # One free edge s -> t. At p1 = 40, p2 = 6 the attacker's mixture built
    # for p1 = 20, p2 = 3 is the pure cut attack, so the router is
    # indifferent among many mixtures and the one built for p2 = 3 is an
    # equilibrium too, though not the one the closed forms describe.
    net = make_network(["s", "t"], [("s", "t", 1, 0)], "s", "t")
    profile = construct_equilibrium(net, GameParams(20, 3))
    report = verify_equilibrium(net, profile.s1, profile.s2, GameParams(40, 6))
    assert report.is_ne
    assert [check.name for check in report.checks if check.status == "fail"] == []


# ---------------------------------------------------------------------------
# Oracle soundness sweeps
# ---------------------------------------------------------------------------

def _contested_outcome(net, analysis, p1, p2):
    """Direct expectations and both payoffs of the constructed Region III
    profile at (p1, p2)."""
    params = GameParams(p1, p2)
    profile = construct_equilibrium(net, params, analysis)
    assert profile.provenance == "contested-mixed"
    return (
        profile_expectations(net, profile.s1, profile.s2),
        expected_payoffs(net, profile.s1, profile.s2, params),
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_region_three_comparative_statics(seed):
    # Along the constructed equilibrium, raising p2 lowers the expected
    # transport cost, raising p1 raises the expected attack cost, raising
    # either lowers the expected delivered flow, and the payoffs stay
    # equal. Each change is strict when cheapest path cost x max-flow
    # value is positive, and zero when it is not.
    rng = random.Random(seed)
    strict = flat = 0
    while strict + flat < 60:
        net = random_network(rng, max_internal=4)
        analysis = analyze(net)
        if not analysis.cheapest_routing:
            continue
        unit_cost = analysis.cheapest_path_cost
        p1 = unit_cost + F(rng.randint(1, 6), rng.randint(1, 3))
        p2 = 1 + F(rng.randint(1, 6), rng.randint(1, 3))
        more_p1 = p1 + F(rng.randint(1, 4), rng.randint(1, 3))
        more_p2 = p2 + F(rng.randint(1, 4), rng.randint(1, 3))
        base, (u1, u2) = _contested_outcome(net, analysis, p1, p2)
        up1, (v1, v2) = _contested_outcome(net, analysis, more_p1, p2)
        up2, (w1, w2) = _contested_outcome(net, analysis, p1, more_p2)
        assert u1 == u2 and v1 == v2 and w1 == w2
        if unit_cost * analysis.max_flow_value > 0:
            strict += 1
            assert up2.transport_cost < base.transport_cost
            assert up1.attack_cost > base.attack_cost
            assert up1.effective_flow < base.effective_flow
            assert up2.effective_flow < base.effective_flow
        else:
            flat += 1
            assert up2.transport_cost == base.transport_cost
            assert up1.attack_cost == base.attack_cost
            assert up1.effective_flow == base.effective_flow == up2.effective_flow
    assert strict and flat


def test_router_best_response_dominates_random_flows():
    # no sampled feasible flow may beat the packing-program optimum
    from flowgame import router_payoff

    rng = random.Random(23)
    for _ in range(15):
        net = random_network(rng, max_internal=3)
        paths = enumerate_simple_paths(net, 5000)
        params = GameParams(F(rng.randint(1, 9)), F(rng.randint(1, 6), 2))
        attacks = list(dict.fromkeys(
            attack(net, [e.id for e in net.edges if rng.random() < 0.3])
            for _ in range(2)
        ))
        s2 = mixture(zip(attacks, random_probabilities(rng, len(attacks))))
        best = best_router_response(net, s2, params)
        for _ in range(12):
            candidate = random_path_flow(rng, net, paths)
            value = expect(s2, lambda atk: router_payoff(net, candidate, atk, params))
            assert value <= best.value


def test_constructed_equilibria_verify_on_both_routing_fixtures(
    triple_cut_net, cheap_routing_net
):
    for net in (triple_cut_net, cheap_routing_net):
        for p1, p2 in [(F(2), F(3)), (F(5), F(1, 3)), (F(6), F(2)), (F(7), F(4))]:
            params = GameParams(p1, p2)
            profile = construct_equilibrium(net, params)
            report = verify_equilibrium(net, profile.s1, profile.s2, params)
            assert report.is_ne, (net.sink, p1, p2)
            if classify_region(params, analyze(net).cheapest_path_cost).tag == "III":
                assert all(check.status == "pass" for check in report.checks)


def test_tampered_probabilities_are_rejected(contested):
    # the verifier must not bless near-equilibria: shifting any of the four
    # probabilities breaks at least one player's indifference
    net, params, analysis = contested
    zero = path_flow(net)
    x_star = analysis.optimal_flow
    no_attack = attack(net)
    cut_attack = attack(net, analysis.min_cut.cut_set)

    good_s1 = mixture([(zero, F(1, 2)), (x_star, F(1, 2))])
    good_s2 = mixture([(no_attack, F(1, 2)), (cut_attack, F(1, 2))])
    bad_s1 = mixture([(zero, F(1, 3)), (x_star, F(2, 3))])
    bad_s2 = mixture([(no_attack, F(1, 3)), (cut_attack, F(2, 3))])

    report = verify_equilibrium(net, bad_s1, good_s2, params)
    assert not report.is_ne
    assert report.attacker_gap > 0

    report = verify_equilibrium(net, good_s1, bad_s2, params)
    assert not report.is_ne
    assert report.router_gap > 0


def test_layered_network_end_to_end():
    # a 12-node, 35-edge layered network: uniform costs make every route
    # a cheapest path, so the mixed construction applies; the attacker
    # enumeration runs over the loaded edges of the optimal flow
    import time

    layer_a = [f"a{i}" for i in range(5)]
    layer_b = [f"b{i}" for i in range(5)]
    nodes = ["s", "t"] + layer_a + layer_b
    edges = []
    for a in layer_a:
        edges.append(("s", a, 1, 1))
    for a in layer_a:
        for b in layer_b:
            edges.append((a, b, 1, 1))
    for b in layer_b:
        edges.append((b, "t", 1, 1))
    net = make_network(nodes, edges, "s", "t")

    started = time.monotonic()
    analysis = analyze(net)
    assert analysis.max_flow_value == 5
    assert analysis.cheapest_path_cost == 3
    assert analysis.cheapest_routing is True

    params = GameParams(F(9), F(3))
    profile = construct_equilibrium(net, params, analysis)
    report = verify_equilibrium(net, profile.s1, profile.s2, params,
                                analysis=analysis)
    assert report.is_ne
    assert all(
        check.status in ("pass", "not applicable") for check in report.checks
    )
    assert time.monotonic() - started < 20.0
