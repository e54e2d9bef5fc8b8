"""Equilibrium construction, closed-form quantities, best-response
oracles, profile verification, and maximin/minimax values.

The parameter plane splits into three open regions relative to the
cheapest per-unit path cost:

* Region I: p1 below the cheapest path cost. Routing anything loses
  money, so nobody acts.
* Region II: p1 above the cost, p2 below 1. Lost flow is worth less
  than the capacity an attack pays for, so the attacker stays out and
  the router ships a cheapest max flow.
* Region III: p1 above the cost and p2 above 1. No pure profile is
  stable; the constructed equilibrium mixes the zero flow with a
  cheapest max flow, and the empty attack with disrupting a full
  min-cut.

Points exactly on a boundary (p1 equal to the path cost, or p2 equal
to 1 with p1 above the cost) are reported as such, never folded into a
neighbouring region: the closed-form results are stated on open regions.
When the sink is unreachable the cost is infinite, and every (p1, p2)
falls in the degenerate region, whose only equilibrium is no flow and no
attack. ``classify_region`` makes this decision for every caller.

All decisions are exact. A profile is an equilibrium iff both
best-response gaps are exactly zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import (
    BoundaryParams,
    CheapestRoutingRequired,
    EdgeBudgetExceeded,
    PathBudgetExceeded,
    WrongRegion,
)
from .flows import FlowAnalysis, _open_arcs, all_min_cuts, always_saturated_edges, analyze
from .game import (
    Attack,
    GameParams,
    MixedStrategy,
    PathFlow,
    _edge_amounts,
    _edge_loads,
    _expectations,
    _flow_table,
    _mean_table,
    attack,
    attack_cost,
    mixture,
    path_flow,
    payoffs_of,
    point_mass,
)
from .lp import solve_tableau
from .network import Network, ZERO
from .rational import to_integers

# Default budgets: source-sink paths reached by the router's best
# response, candidate edges for the attacker's.
MAX_PATHS = 5000
MAX_ATTACK_EDGES = 20


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

class Region(NamedTuple):
    """Parameter region tag: "I", "II", "III", "boundary" with flags
    saying which equality binds, or "degenerate" when the sink is
    unreachable."""

    tag: str
    p1_at_cost: bool = False
    p2_at_one: bool = False

    def describe(self) -> str:
        if self.tag != "boundary":
            return self.tag
        parts = []
        if self.p1_at_cost:
            parts.append("p1 equals the cheapest path cost")
        if self.p2_at_one:
            parts.append("p2 equals 1")
        return "boundary (" + " and ".join(parts) + ")"


def classify_region(params: GameParams, unit_cost: Optional[Fraction]) -> Region:
    """Exact classification of (p1, p2) against the cheapest path cost.
    A cost of None, an unreachable sink, gives Region("degenerate"):
    whatever the parameters, the only equilibrium is no flow and no
    attack."""
    if unit_cost is None:
        return Region("degenerate")
    if params.p1 < unit_cost:
        return Region("I")
    if params.p1 == unit_cost:
        return Region("boundary", p1_at_cost=True, p2_at_one=params.p2 == 1)
    if params.p2 == 1:
        return Region("boundary", p2_at_one=True)
    if params.p2 < 1:
        return Region("II")
    return Region("III")


# ---------------------------------------------------------------------------
# Constructed equilibria
# ---------------------------------------------------------------------------

class EquilibriumProfile(NamedTuple):
    s1: MixedStrategy
    s2: MixedStrategy
    provenance: str


def _mixture_drop_zero(pairs) -> MixedStrategy:
    """Mixture builder tolerating zero-probability atoms: with a zero
    cheapest path cost the empty attack gets weight cost/p1 = 0 and the
    mixture degenerates to a point mass."""
    return mixture([(action, prob) for action, prob in pairs if prob != 0])


def _attacker_mixture(net: Network, params: GameParams, analysis: FlowAnalysis) -> MixedStrategy:
    """The empty attack with probability cost/p1, else the min-cut attack."""
    unit_cost = analysis.cheapest_path_cost
    return _mixture_drop_zero([
        (attack(net), unit_cost / params.p1),
        (attack(net, analysis.min_cut.cut_set), 1 - unit_cost / params.p1),
    ])


def _router_mixture(net: Network, params: GameParams, analysis: FlowAnalysis) -> MixedStrategy:
    """The zero flow with probability 1 - 1/p2, else the optimal flow."""
    return _mixture_drop_zero(
        [(path_flow(net), 1 - 1 / params.p2), (analysis.optimal_flow, 1 / params.p2)]
    )


def construct_equilibrium(
    net: Network,
    params: GameParams,
    analysis: Optional[FlowAnalysis] = None,
) -> EquilibriumProfile:
    """Build the equilibrium for the network's parameter region.

    Region I gives the pure no-action profile, Region II the pure
    cheapest-routing profile, Region III the two-point mixture with
    router probabilities (1 - 1/p2, 1/p2) on (zero flow, cheapest max
    flow) and attacker probabilities (cost/p1, 1 - cost/p1) on (no
    attack, full min-cut attack). Region III requires the network to
    admit a min-cost max-flow on cheapest paths only. A network without
    a route, the degenerate region, yields the no-action profile too.
    """
    if analysis is None:
        analysis = analyze(net)
    zero = path_flow(net)
    no_attack = attack(net)
    region = classify_region(params, analysis.cheapest_path_cost)
    if region.tag == "degenerate":
        return EquilibriumProfile(point_mass(zero), point_mass(no_attack), "degenerate-no-route")
    if region.tag == "boundary":
        profiles = ()
        if region.p1_at_cost and params.p2 < 1:
            # Both pure profiles are equilibria here, with payoffs (0, 0).
            profiles = (
                EquilibriumProfile(
                    point_mass(zero), point_mass(no_attack), "boundary-no-action"
                ),
                EquilibriumProfile(
                    point_mass(analysis.optimal_flow),
                    point_mass(no_attack),
                    "boundary-route-only",
                ),
            )
        raise BoundaryParams(
            f"parameters sit on a region boundary: {region.describe()}",
            profiles=profiles,
        )
    if region.tag == "I":
        return EquilibriumProfile(point_mass(zero), point_mass(no_attack), "no-action")
    if region.tag == "II":
        return EquilibriumProfile(
            point_mass(analysis.optimal_flow), point_mass(no_attack), "route-only"
        )

    if not analysis.cheapest_routing:
        nodes, cost = analysis.routing_witness  # a (nodes, cost) pair
        raise CheapestRoutingRequired(
            "the mixed construction needs a min-cost max-flow that travels "
            "only along cheapest paths, and this network has none; the "
            f"optimal routing uses path {list(nodes)} of cost {cost}, above "
            f"the cheapest path cost {analysis.cheapest_path_cost}",
            witness=analysis.routing_witness,
        )
    return EquilibriumProfile(
        _router_mixture(net, params, analysis),
        _attacker_mixture(net, params, analysis),
        "contested-mixed",
    )


# ---------------------------------------------------------------------------
# Closed-form equilibrium quantities (Region III)
# ---------------------------------------------------------------------------

class ClosedFormReport(NamedTuple):
    """Quantities shared by every equilibrium in the contested region:
    payoffs are zero, and the expected flows and costs depend only on
    (p1, p2), the cheapest path cost, and the max-flow value."""

    u1: Fraction
    u2: Fraction
    exp_initial_flow: Fraction
    exp_transport_cost: Fraction
    exp_attack_cost: Fraction
    exp_effective_flow: Fraction
    exp_lost_flow: Fraction
    yield_ratio: Fraction


def closed_form_quantities(
    params: GameParams,
    unit_cost: Optional[Fraction],
    max_flow_value: Fraction,
) -> ClosedFormReport:
    region = classify_region(params, unit_cost)
    if region.tag != "III":
        raise WrongRegion(
            "closed-form quantities hold only in the contested region "
            f"(p1 above the cheapest path cost, p2 above 1); got {region.describe()}"
        )
    # With p1 = a/b, p2 = c/d, the cost e/f and theta = g/h, each
    # quantity is one ratio of int products.
    a, b = params.p1.numerator, params.p1.denominator
    c, d = params.p2.numerator, params.p2.denominator
    e, f = unit_cost.numerator, unit_cost.denominator
    g, h = max_flow_value.numerator, max_flow_value.denominator
    spare = f * a - e * b  # 1 - cost / p1, times f * a
    return ClosedFormReport(
        u1=ZERO,
        u2=ZERO,
        exp_initial_flow=Fraction(g * d, h * c),
        exp_transport_cost=Fraction(e * g * d, f * h * c),
        exp_attack_cost=Fraction(spare * g, f * a * h),
        exp_effective_flow=Fraction(e * g * b * d, f * h * a * c),
        exp_lost_flow=Fraction(spare * g * d, f * a * h * c),
        yield_ratio=Fraction(e * b, f * a),
    )


# ---------------------------------------------------------------------------
# Best-response oracles
# ---------------------------------------------------------------------------

class BestResponse(NamedTuple):
    value: Fraction
    action: Union[PathFlow, Attack]


def _walk_paths(net: Network, hit: list, gain, unit: int, budget: int) -> list:
    """Walk the simple source-sink paths over positive-capacity edges, in
    lowest-edge-id depth-first order, and return ``(edge ids, worth)`` for
    each path whose worth is positive.

    ``hit[i]`` is edge i's attack mask. A path's worth is the gain of its
    mask, the OR of its edges' masks, minus its scaled cost times ``unit``,
    all on ints; a prefix's worth is defined the same way. ``gain(mask)``
    is called once per mask met, so at most once per subset of the
    attacks. Gains are nonnegative and never grow as a mask gains bits,
    and charges only add, so no path is worth more than any of its
    prefixes: the walk extends a prefix to an inner node only while the
    prefix is worth more than 0. Every path it reaches at the sink counts
    against ``budget``, worth or not: PathBudgetExceeded is raised as soon
    as the count would pass it. Only a profitable path gets an edge-id
    tuple, so the profitable paths are all found, in the order of the
    unpruned walk. The walk is iterative, so the depth is bounded by
    memory, not by the recursion limit.
    """
    form = net._integer_form
    capacity = form.capacity
    charge = [c * unit for c in form.cost]
    out = [
        [(e, head) for e, forward, head, _ in arcs if forward and capacity[e] > 0]
        for arcs in form.arcs
    ]
    source, sink = form.index[net.source], form.index[net.sink]
    gains = {}
    found = []
    count = 0
    visited = [False] * len(out)
    visited[source] = True
    on_path = []  # edge ids
    # Per depth: the node, its out-arc iterator, and the mask and charged
    # cost of the path up to it.
    frames = [(source, iter(out[source]), 0, 0)]
    while frames:
        node, arcs, mask, so_far = frames[-1]
        for e, head in arcs:
            if visited[head]:
                continue
            m = mask | hit[e]
            g = gains.get(m)
            if g is None:
                g = gains[m] = gain(m)
            cost = so_far + charge[e]
            if head == sink:
                if count >= budget:
                    raise PathBudgetExceeded(
                        f"more than {budget} simple source-sink paths; raise the budget"
                    )
                count += 1
                if g > cost:
                    found.append(((*on_path, e), g - cost))
                continue
            if g <= cost:
                continue  # no path through this prefix is profitable
            visited[head] = True
            on_path.append(e)
            frames.append((head, iter(out[head]), m, cost))
            break
        else:
            frames.pop()
            visited[node] = False
            if on_path:
                on_path.pop()
    return found


def enumerate_simple_paths(net: Network, budget: int) -> tuple:
    """All simple source-sink paths over positive-capacity edges, each as
    the tuple of its edge ids, in lowest-edge-id depth-first order.
    Raises PathBudgetExceeded as soon as the count would pass ``budget``.
    It is the router's walk with no attacks and every path worth 1."""
    found = _walk_paths(net, [0] * len(net.edges), lambda mask: 1, 0, budget)
    return tuple(ids for ids, _ in found)


def best_router_response(
    net: Network,
    s2: MixedStrategy,
    params: GameParams,
    max_paths: int = MAX_PATHS,
) -> BestResponse:
    """Exact best response of the router to an attacker mixture.

    Per unit of flow, a path is worth p1 times its survival probability
    minus its transport cost. The best response solves the packing
    program: maximize total path worth subject to edge capacities. Paths
    with non-positive worth never help, so only the profitable ones enter
    the program; with none, the zero flow (worth 0) is optimal. Pure
    path flows suffice because the router payoff is linear in path
    amounts and loops only add cost. A path is worth no more than any of
    its prefixes, so the walk never extends a prefix worth 0 or less, and
    ``max_paths`` caps the source-sink paths whose every proper prefix is
    worth more than 0, not every simple path.

    The program runs on the scaled integer capacities and on the worths
    times the LCM of their denominators, so its amounts are those of the
    true program times the capacity scale and its optimum that times the
    worth scale as well. A positive scale on the costs keeps every sign
    Bland's rule reads, so the pivots are those of the true program.
    """
    form = net._integer_form
    # Bit k of an edge's mask: attack k of the support disrupts the edge.
    hit = [0] * len(form.capacity)
    for k, (atk, _) in enumerate(s2.support):
        for i in atk.edge_ids:
            hit[i] |= 1 << k
    # Worths are ints over ``scale``, the LCM of the denominators of p1
    # times each attack's probability and of one unit of scaled cost.
    scale, ints = to_integers(
        [*(params.p1 * q for _, q in s2.support), Fraction(1, form.cost_scale)]
    )
    gains, unit_cost = ints[:-1], ints[-1]

    def gain(mask):
        """The summed gains of the attacks that miss a path with this mask."""
        return sum(g for k, g in enumerate(gains) if not mask >> k & 1)

    weighted = _walk_paths(net, hit, gain, unit_cost, max_paths)
    if not weighted:
        return BestResponse(ZERO, PathFlow(()))

    # The fraction-free tableau, laid out directly: one row per edge some
    # profitable path uses, in edge-id order, with the paths' 0/1 entries,
    # the row's slack and the edge's scaled capacity.
    n = len(weighted)
    edge_ids = sorted({i for ids, _ in weighted for i in ids})
    m = len(edge_ids)
    tableau = []
    row_of = {}
    for r, i in enumerate(edge_ids):
        row = [0] * (n + m + 1)
        row[n + r] = 1
        row[-1] = form.capacity[i]
        tableau.append(row)
        row_of[i] = row
    for j, (ids, _) in enumerate(weighted):
        for i in ids:
            row_of[i][j] = 1
    status, _, basic = solve_tableau([-w for _, w in weighted], tableau)
    if status != "optimal":
        raise RuntimeError(f"path packing program came back {status}")
    # The basic amounts as ints over x_scale, the LCM of their denominators.
    x_scale, xs = to_integers(list(basic.values()))
    value = sum(weighted[j][1] * x for j, x in zip(basic, xs))
    amounts = [
        (net.nodes_on_path(weighted[j][0]), Fraction(x, x_scale * form.cap_scale))
        for j, x in zip(basic, xs)
    ]
    return BestResponse(
        Fraction(value, x_scale * scale * form.cap_scale), PathFlow(tuple(sorted(amounts)))
    )


def best_attacker_response(
    net: Network,
    s1: MixedStrategy,
    params: GameParams,
    max_attack_edges: int = MAX_ATTACK_EDGES,
) -> BestResponse:
    """Exact best response of the attacker to a router mixture, by
    depth-first branch-and-bound over candidate edge sets.

    Only edges carrying positive expected flow are candidates: disrupting
    an unloaded edge loses nothing for the router and costs its capacity,
    so it never appears in a best response. ``max_attack_edges`` caps the
    number of candidates. Ties break toward the lexicographically
    smallest edge set, so the empty attack wins all zero-value ties.

    Each path of the mixture's mean flow is an item worth p2 times its
    amount, lost when any of its edges is cut; an attack is worth the
    items it covers minus the capacity it cuts. Coverage is submodular, so no
    extension of an attack gains more than the sum of the positive
    marginal gains of the remaining edges. The search visits edge-id
    tuples in lexicographic pre-order, skips every subtree whose bound
    does not beat the incumbent, and replaces the incumbent only on a
    strictly higher value, so the first optimum found is the smallest.
    Weights and capacities are ints over one common scale, which keeps
    the search exact without Fractions.
    """
    # The edges with positive expected load are exactly the edges of the
    # mean flow's paths.
    table = _mean_table(net, s1)
    hits = {}
    for k, (_, ids, _, _) in enumerate(table.rows):
        for edge_id in ids:
            hits[edge_id] = hits.get(edge_id, 0) | 1 << k
    candidates = sorted(hits)
    if len(candidates) > max_attack_edges:
        raise EdgeBudgetExceeded(
            f"{len(candidates)} candidate edges exceed the attack budget "
            f"of {max_attack_edges}"
        )
    # Item k is worth p2 times its amount over the table's scale, and an
    # edge costs its capacity over the capacity scale: both are ints over
    # the product of those scales and p2's denominator.
    form = net._integer_form
    p2 = params.p2
    weights = [p2.numerator * form.cap_scale * amount for _, _, amount, _ in table.rows]
    costs = [form.capacity[i] * table.scale * p2.denominator for i in candidates]
    scale = table.scale * form.cap_scale * p2.denominator
    masks = [hits[i] for i in candidates]
    k = len(candidates)

    def expand(start, value, covered):
        """A search node: its value, covered items, the marginal gain of
        each candidate from ``start`` on, and the suffix sums of the
        positive gains."""
        gains = [0] * k
        rest = [0] * (k + 1)
        for i in range(k - 1, start - 1, -1):
            new, gain = masks[i] & ~covered, -costs[i]
            while new:
                low = new & -new
                gain += weights[low.bit_length() - 1]
                new ^= low
            gains[i] = gain
            rest[i] = rest[i + 1] + max(gain, 0)
        return value, covered, gains, rest

    best, best_set = 0, ()
    chosen, nodes, i = [], [expand(0, 0, 0)], 0
    while nodes:
        value, covered, gains, rest = nodes[-1]
        if i == k or value + rest[i] <= best:
            # No child from i on can beat the incumbent: back up.
            nodes.pop()
            if chosen:
                i = chosen.pop() + 1
            continue
        child = value + gains[i]
        if child + rest[i + 1] <= best:
            i += 1
            continue
        chosen.append(i)
        if child > best:
            best, best_set = child, tuple(chosen)
        nodes.append(expand(i + 1, child, covered | masks[i]))
        i += 1
    return BestResponse(
        Fraction(best, scale), Attack(tuple(candidates[j] for j in best_set))
    )


# ---------------------------------------------------------------------------
# Profile verification
# ---------------------------------------------------------------------------

class PropertyCheck(NamedTuple):
    name: str
    status: str  # "pass", "fail", or "not applicable"
    detail: str


class VerificationReport(NamedTuple):
    """Best-response gaps for both players, the equilibrium verdict, and
    (for verified equilibria in the contested region with cheapest-path
    routing) the structural property checks."""

    is_ne: bool
    router_gap: Fraction
    attacker_gap: Fraction
    u1: Fraction
    u2: Fraction
    router_best: BestResponse
    attacker_best: BestResponse
    checks: tuple


def verify_equilibrium(
    net: Network,
    s1: MixedStrategy,
    s2: MixedStrategy,
    params: GameParams,
    max_paths: int = MAX_PATHS,
    max_attack_edges: int = MAX_ATTACK_EDGES,
    analysis: Optional[FlowAnalysis] = None,
) -> VerificationReport:
    """Decide exactly whether (s1, s2) is an equilibrium.

    The router gap is the best-response value minus the expected router
    payoff (and symmetrically for the attacker); the profile is an
    equilibrium iff both gaps are exactly zero. For equilibria in the
    contested region of a cheapest-routing network, the structural
    properties every equilibrium must satisfy are checked as well. Only
    those checks read the network's analysis, so it is computed, when
    not passed in, only for an equilibrium. The router mixture's mean
    flow is built once, as a table on the network's integer form, and
    the profile's expectations are computed once from it, for its
    payoffs and for those checks.
    """
    table = _mean_table(net, s1)
    exps = _expectations(net, table, s2)
    u1, u2 = payoffs_of(exps, params)
    router_best = best_router_response(net, s2, params, max_paths)
    attacker_best = best_attacker_response(net, s1, params, max_attack_edges)
    router_gap = router_best.value - u1
    attacker_gap = attacker_best.value - u2
    is_ne = router_gap == 0 and attacker_gap == 0

    checks = ()
    if is_ne:
        if analysis is None:
            analysis = analyze(net)
        region = classify_region(params, analysis.cheapest_path_cost)
        if region.tag == "III" and analysis.cheapest_routing:
            checks = _equilibrium_property_checks(
                net, s1, s2, params, analysis, table, exps
            )

    return VerificationReport(
        is_ne=is_ne,
        router_gap=router_gap,
        attacker_gap=attacker_gap,
        u1=u1,
        u2=u2,
        router_best=router_best,
        attacker_best=attacker_best,
        checks=checks,
    )


def _is_cheapest_max_flow(flow, path_costs: dict, cost_scale: int, analysis) -> bool:
    """Does this flow qualify as a cheapest-path max flow? Its transport
    cost is then the cheapest path cost times the max-flow value.
    ``path_costs`` holds each path's cost times ``cost_scale``."""
    unit_cost = analysis.cheapest_path_cost
    unit = unit_cost.numerator * cost_scale
    return (
        all(path_costs[nodes] * unit_cost.denominator == unit for nodes, _ in flow.paths)
        and flow.value == analysis.max_flow_value
    )


def _verdict(name: str, misses: list, passed: str, failed: str = "") -> PropertyCheck:
    """A check fails iff it has misses. Its detail is ``passed`` when it
    passes, and otherwise ``failed`` or, without one, the misses."""
    if not misses:
        return PropertyCheck(name, "pass", passed)
    return PropertyCheck(name, "fail", failed or "; ".join(misses))


def _label(edge) -> str:
    return f"({edge.tail}, {edge.head})"


def _equilibrium_property_checks(net, s1, s2, params, analysis, table, exps) -> tuple:
    """The structural checks on a profile whose router mixture has the
    mean table ``table`` (``game._mean_table(net, s1)``) and whose
    expectations are ``exps`` (``game._expectations(net, table, s2)``).
    Each verdict compares ints scaled from the network's integer form and
    the tables; a Fraction is built only for a number a detail prints."""
    form = net._integer_form
    capacity, cap_scale = form.capacity, form.cap_scale
    theta = analysis.max_flow_value
    unit_cost = analysis.cheapest_path_cost
    p2 = params.p2
    checks = []

    # Closed forms against direct expectation over the support.
    report = closed_form_quantities(params, unit_cost, theta)
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

    # No supported attack costs more than disrupting a min-cut.
    over_budget = [atk for atk, _ in s2.support if attack_cost(net, atk) > theta]
    checks.append(_verdict(
        "attack cost within min-cut budget", over_budget,
        f"every supported attack costs at most {theta}",
        f"{len(over_budget)} supported attacks cost more than {theta}",
    ))

    # Every disrupted edge is filled to capacity by every optimal routing.
    disrupted = sorted({i for atk, _ in s2.support for i in atk.edge_ids})
    optimal = _flow_table(net, analysis.optimal_flow)
    optimal_amounts = _edge_amounts(optimal)
    open_arcs = _open_arcs(net, optimal_amounts)  # shared with all_min_cuts
    always_full = always_saturated_edges(net, optimal_amounts, disrupted, open_arcs)
    unsaturated = [_label(net.edge(i)) for i in disrupted if i not in always_full]
    checks.append(_verdict(
        "disrupted edges saturated by every optimal routing", unsaturated,
        "all disrupted edges are saturated in every optimal routing",
        f"edges {', '.join(unsaturated)} admit an optimal routing below capacity",
    ))

    cuts = all_min_cuts(net, optimal_amounts, open_arcs)
    cut_sets = [frozenset(cut.cut_set) for cut in cuts]
    loads = _edge_loads(table)

    def cut_edges(chosen):
        """The ids of the positive-capacity edges the chosen cuts cross,
        once per cut. A cut's edge set also holds its zero-capacity edges,
        but those carry no flow, and disrupting one costs and changes
        nothing, so their loads and disruption probabilities are free."""
        return [i for cut in chosen for i in cut.cut_set if capacity[i] > 0]

    # Expected load on each min-cut edge equals its capacity over p2, and
    # some supported flow uses the edge: support probabilities are
    # positive, so exactly when its expected load is. Each edge's load is
    # decided once: load / scale == (capacity / cap_scale) / p2.
    crossed = cut_edges(cuts)
    off_target = {
        i for i in set(crossed)
        if loads.get(i, 0) * cap_scale * p2.numerator
        != capacity[i] * p2.denominator * table.scale
    }
    load_misses = [
        f"{_label(net.edge(i))}: "
        f"{Fraction(loads.get(i, 0), table.scale)} != {net.edge(i).capacity / p2}"
        for i in crossed
        if i in off_target
    ]
    uncovered = [_label(net.edge(i)) for i in crossed if i not in loads]
    checks.append(_verdict(
        "min-cut edge loads equal capacity over p2", load_misses,
        f"checked {len(cuts)} min-cut(s)",
    ))

    # Uniform disruption probability when the attacks live inside one cut.
    name = "uniform disruption probability across the min-cut"
    attack_sets = [frozenset(atk.edge_ids) for atk, _ in s2.support]
    applicable = [
        cut for cut, cut_set in zip(cuts, cut_sets)
        if all(attacked <= cut_set for attacked in attack_sets)
    ]
    expected_prob = 1 - report.yield_ratio  # 1 - cost / p1
    prob_scale, probs = to_integers([q for _, q in s2.support])
    inside = cut_edges(applicable)
    # Each edge's disruption probability times prob_scale, summed once.
    disruption = {
        i: sum(q for attacked, q in zip(attack_sets, probs) if i in attacked)
        for i in set(inside)
    }
    target = expected_prob.numerator * prob_scale  # times its denominator
    prob_misses = [
        f"{_label(net.edge(i))}: {Fraction(disruption[i], prob_scale)} != {expected_prob}"
        for i in inside
        if disruption[i] * expected_prob.denominator != target
    ]
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

    # Probability bounds on the four named actions when supported.
    zero_bound = Fraction(p2.numerator - p2.denominator, p2.numerator)  # 1 - 1/p2
    flow_bound = Fraction(p2.denominator, p2.numerator)  # 1/p2
    path_costs = {nodes: cost for nodes, _, _, cost in table.rows}
    bound_misses = []
    for flow, prob in s1.support:
        if flow.is_zero and prob > zero_bound:
            bound_misses.append(f"zero flow has probability {prob} > {zero_bound}")
        cheapest = _is_cheapest_max_flow(flow, path_costs, form.cost_scale, analysis)
        if cheapest and prob > flow_bound:
            bound_misses.append(
                f"a cheapest max flow has probability {prob} > {flow_bound}"
            )
    for (atk, prob), attacked in zip(s2.support, attack_sets):
        if atk.is_empty and prob > report.yield_ratio:
            bound_misses.append(
                f"the empty attack has probability {prob} > {report.yield_ratio}"
            )
        if attacked in cut_sets and prob > expected_prob:
            bound_misses.append(
                f"a full min-cut attack has probability {prob} > {expected_prob}"
            )
    checks.append(_verdict(
        "support probability bounds", bound_misses,
        "all supported named actions respect their bounds",
    ))

    # Delivery identity: what the optimal routing would deliver under the
    # attacker's mixture equals the max-flow value minus the expected
    # attack cost.
    delivered = _expectations(net, optimal, s2).effective_flow
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


# ---------------------------------------------------------------------------
# Maximin and minimax
# ---------------------------------------------------------------------------

def maximin(net: Network, params: GameParams, player: int) -> tuple:
    """Pure maximin value and an action attaining it, for either player.

    Against a flow, the attacker can disrupt every edge (the attack cost
    does not enter the router's payoff), leaving the router with minus the
    transport cost; against an attack, the router can ship nothing,
    leaving the attacker with minus the attack cost. Costs are
    nonnegative, so no action guarantees more than zero, and the costless
    action (the zero flow, the empty attack) guarantees exactly zero.
    """
    if player == 1:
        return ZERO, path_flow(net)
    if player == 2:
        return ZERO, attack(net)
    raise ValueError(f"player must be 1 or 2, got {player!r}")


def minimax_certificate(
    net: Network,
    params: GameParams,
    player: int,
    analysis: Optional[FlowAnalysis] = None,
    max_paths: int = MAX_PATHS,
    max_attack_edges: int = MAX_ATTACK_EDGES,
) -> tuple:
    """An opponent mixture capping the player's best response at zero.

    For the router's side the certificate is an attacker mixture; against
    it no flow earns more than zero (checked by the exact best-response
    oracle, whose value is returned). Together with the maximin value of
    zero this pins the minimax value to zero exactly. In Region I and in
    the degenerate region the costless point masses certify; above the
    cheapest path cost the attacker mixes the empty attack (probability
    cost/p1) with a full min-cut attack, and in the contested region the
    router mixes the zero flow (probability 1 - 1/p2) with a cheapest max
    flow.
    """
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    if analysis is None:
        analysis = analyze(net)
    region = classify_region(params, analysis.cheapest_path_cost)
    if region.tag == "boundary":
        raise WrongRegion(
            f"minimax certificates are stated on open regions; {region.describe()}"
        )
    if player == 1:
        if region.tag in ("I", "degenerate"):
            certificate = point_mass(attack(net))
        else:
            certificate = _attacker_mixture(net, params, analysis)
    elif region.tag != "III":
        certificate = point_mass(path_flow(net))
    elif not analysis.cheapest_routing:
        raise CheapestRoutingRequired(
            "the router-side certificate mixes in a cheapest max "
            "flow, which this network does not admit",
            witness=analysis.routing_witness,
        )
    else:
        certificate = _router_mixture(net, params, analysis)

    if player == 1:
        value = best_router_response(net, certificate, params, max_paths).value
    else:
        value = best_attacker_response(net, certificate, params, max_attack_edges).value
    return value, certificate
