"""The public surface of the package, pinned: any name or record member
added to or removed from ``flowgame`` shows in this file's diff."""

import types

import flowgame

PUBLIC_NAMES = [
    "Attack", "BestResponse", "BoundaryParams", "CapacityExceeded",
    "CheapestRoutingRequired", "ClosedFormReport", "Cut", "Decomposition",
    "DuplicateEdge", "EdgeBudgetExceeded", "EdgeSpec", "EmptyTerminalSet",
    "EquilibriumProfile", "FlowAnalysis", "FlowGameError", "GameParams",
    "InvalidParams", "InvalidPath", "InvalidStrategy", "LoopyFlowInSupport",
    "MixedStrategy", "NegativeCapacity", "NegativeCost", "Network", "NoRoute",
    "ParseError", "PathBudgetExceeded", "PathFlow", "ProfileExpectations",
    "PropertyCheck", "Region", "SelfLoop", "SourceEqualsSink",
    "UndecomposableFlow", "UnknownEndpoint", "VerificationReport", "WrongRegion",
    "all_min_cuts", "always_saturated_edges", "analyze", "attack", "attack_cost",
    "attacker_payoff", "best_attacker_response", "best_router_response",
    "cheapest_path_cost", "classify_region", "closed_form_quantities",
    "construct_equilibrium", "decompose", "edge_always_saturated",
    "effective_flow", "enumerate_simple_paths", "expected_edge_loads",
    "expected_payoffs", "flow_value", "make_network", "max_flow", "maximin",
    "mean_flow", "min_cost_max_flow", "minimax_certificate", "mixture",
    "network_from_json", "network_to_json", "normalize_terminals",
    "parse_rational", "path_cost", "path_flow", "point_mass",
    "profile_expectations", "router_payoff", "transport_cost",
    "verify_equilibrium",
]

# The public members of each exported record or class (exceptions aside),
# less the tuple methods every NamedTuple inherits.
PUBLIC_MEMBERS = {
    "Attack": ["edge_ids", "is_empty", "pairs", "sort_key"],
    "BestResponse": ["action", "value"],
    "ClosedFormReport": [
        "exp_attack_cost", "exp_effective_flow", "exp_initial_flow", "exp_lost_flow",
        "exp_transport_cost", "u1", "u2", "yield_ratio",
    ],
    "Cut": ["capacity", "cut_set", "s_side"],
    "Decomposition": ["cycles", "paths"],
    "EdgeSpec": ["capacity", "cost", "head", "id", "tail"],
    "EquilibriumProfile": ["provenance", "s1", "s2"],
    "FlowAnalysis": [
        "cheapest_path_cost", "cheapest_routing", "max_flow_value", "min_cut",
        "min_transport_cost", "optimal_flow", "routing_witness",
    ],
    "GameParams": ["p1", "p2"],
    "MixedStrategy": ["support"],
    "Network": [
        "edge", "edge_by_pair", "edge_ids_on_path", "edges", "nodes", "nodes_on_path",
        "sink", "source",
    ],
    "PathFlow": ["edge_amounts", "is_zero", "paths", "sort_key", "value"],
    "ProfileExpectations": [
        "attack_cost", "effective_flow", "initial_flow", "lost_flow", "transport_cost",
    ],
    "PropertyCheck": ["detail", "name", "status"],
    "Region": ["describe", "p1_at_cost", "p2_at_one", "tag"],
    "VerificationReport": [
        "attacker_best", "attacker_gap", "checks", "is_ne", "router_best",
        "router_gap", "u1", "u2",
    ],
}


def _public(names):
    return sorted(name for name in names if not name.startswith("_"))


def test_public_names_of_the_package():
    # Submodules become package attributes once imported, so they are left out.
    names = [
        name for name in dir(flowgame)
        if not isinstance(getattr(flowgame, name), types.ModuleType)
    ]
    assert _public(names) == PUBLIC_NAMES


def test_public_members_of_the_exported_classes():
    classes = {
        name: value for name, value in vars(flowgame).items()
        if isinstance(value, type) and not issubclass(value, Exception)
        and not name.startswith("_")
    }
    inherited = set(dir(tuple))
    members = {
        name: _public(set(dir(cls)) - inherited) for name, cls in sorted(classes.items())
    }
    assert members == PUBLIC_MEMBERS
