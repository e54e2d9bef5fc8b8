"""Exact solver and verifier for a two-player network routing and
interdiction game.

A router ships flow from a source to a sink, paying per-unit transport
costs and valuing what arrives; an attacker simultaneously disrupts
edges, paying the capacity of what she destroys and valuing what the
router loses. This package computes the flow primitives (max-flow,
min-cut, min-cost max-flow, cheapest path cost), constructs the
equilibrium of each parameter region, evaluates the closed-form
equilibrium quantities, and verifies arbitrary finite-support profiles
with exact best-response oracles. All arithmetic is exact rational.
"""

from .errors import (
    BoundaryParams,
    CapacityExceeded,
    CheapestRoutingRequired,
    DuplicateEdge,
    EdgeBudgetExceeded,
    EmptyTerminalSet,
    FlowGameError,
    InvalidParams,
    InvalidPath,
    InvalidStrategy,
    LoopyFlowInSupport,
    NegativeCapacity,
    NegativeCost,
    NoRoute,
    ParseError,
    PathBudgetExceeded,
    SelfLoop,
    SourceEqualsSink,
    UndecomposableFlow,
    UnknownEndpoint,
    WrongRegion,
)
from .flows import (
    Decomposition,
    FlowAnalysis,
    all_min_cuts,
    always_saturated_edges,
    analyze,
    cheapest_path_cost,
    decompose,
    edge_always_saturated,
    flow_value,
    max_flow,
    min_cost_max_flow,
)
from .game import (
    Attack,
    GameParams,
    MixedStrategy,
    PathFlow,
    ProfileExpectations,
    attack,
    attack_cost,
    attacker_payoff,
    effective_flow,
    expected_edge_loads,
    expected_payoffs,
    mean_flow,
    mixture,
    path_cost,
    path_flow,
    point_mass,
    profile_expectations,
    router_payoff,
    transport_cost,
)
from .equilibrium import (
    BestResponse,
    ClosedFormReport,
    EquilibriumProfile,
    PropertyCheck,
    Region,
    VerificationReport,
    best_attacker_response,
    best_router_response,
    classify_region,
    closed_form_quantities,
    construct_equilibrium,
    enumerate_simple_paths,
    maximin,
    minimax_certificate,
    verify_equilibrium,
)
from .network import (
    Cut,
    EdgeSpec,
    Network,
    make_network,
    network_from_json,
    network_to_json,
    normalize_terminals,
)
from .rational import parse_rational

__version__ = "0.1.0"
