"""Strategies and payoffs for the routing-vs-interdiction game.

The router (player 1) picks a flow, represented path-based: the same edge
amounts can decompose into different path sets, and the attack outcome
depends on which paths were used, so the path representation is the true
action space. The attacker (player 2) picks a set of edges to disrupt.
Flow on a path that touches a disrupted edge is lost, not rerouted; the
router still pays its transport cost.

Mixed strategies have finite support. Every probability and amount is an
exact Fraction at this layer's boundary, so expected payoffs compare by
equality. Inside, like the flow layer, it computes on ints: the amounts
or probabilities of one sum are scaled by the LCM of their denominators,
costs and capacities are read off the network's integer form
(``Network._integer_form``), and each reported number is one
``Fraction`` of an int sum over the product of the scales.

Both payoffs are linear in path amounts, so every game quantity is read
off one kind of table, whose rows only ``_table`` builds: a mixture's
mean flow (``_mean_table``) or one flow, its own point mass without the
probability merge (``_flow_table``). The pure payoffs are the expected
payoffs of point masses. ``verify_equilibrium`` builds the mixture's
table once and reads its payoffs, edge loads and property checks off it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    CapacityExceeded,
    InvalidParams,
    InvalidPath,
    InvalidStrategy,
    LoopyFlowInSupport,
)
from .network import Network
from .rational import format_rational, parse_rational, to_integers

ONE = Fraction(1)


class PathFlow(NamedTuple):
    """A flow as amounts on simple source-sink paths.

    ``paths`` is a canonically sorted tuple of (node sequence, amount)
    pairs with positive amounts. Use :func:`path_flow` to build one.
    """

    paths: tuple

    @property
    def value(self) -> Fraction:
        """Amount of flow sent from source to sink."""
        scale, amounts = to_integers([amount for _, amount in self.paths])
        return Fraction(sum(amounts), scale)

    @property
    def is_zero(self) -> bool:
        return not self.paths

    def edge_amounts(self, net: Network) -> dict:
        """Per-edge flow induced by the path amounts, for the edges some
        path uses, in first-use order."""
        return _edge_amounts(_flow_table(net, self))

    def sort_key(self):
        return self.paths


class Attack(NamedTuple):
    """A set of disrupted edges, stored as a sorted tuple of edge ids."""

    edge_ids: tuple

    @property
    def is_empty(self) -> bool:
        return not self.edge_ids

    def pairs(self, net: Network) -> tuple:
        return tuple((net.edge(i).tail, net.edge(i).head) for i in self.edge_ids)

    def sort_key(self):
        return self.edge_ids


class MixedStrategy(NamedTuple):
    """Finite-support distribution over PathFlow or Attack actions."""

    support: tuple


class _GameParamsFields(NamedTuple):
    p1: Fraction
    p2: Fraction


class GameParams(_GameParamsFields):
    """Player valuations: p1 is the router's marginal value per unit of
    delivered flow, p2 the attacker's marginal value per unit of lost flow.
    Both must be strictly positive."""

    __slots__ = ()

    def __new__(cls, p1, p2):
        p1 = parse_rational(p1, what="p1")
        p2 = parse_rational(p2, what="p2")
        if p1 <= 0:
            raise InvalidParams(f"p1 must be positive, got {p1}")
        if p2 <= 0:
            raise InvalidParams(f"p2 must be positive, got {p2}")
        return super().__new__(cls, p1, p2)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would otherwise skip __new__
        return cls(*iterable)


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------

def path_flow(net: Network, items: Iterable = ()) -> PathFlow:
    """Validate and canonicalize a path flow.

    ``items`` is an iterable of (node sequence, amount). Each sequence must
    be a simple path from the network source to its sink over existing
    edges; amounts must be positive; the induced edge flow must respect
    capacities. Duplicate node sequences are merged. ``path_flow(net)``
    is the zero flow.
    """
    merged: dict = {}
    for nodes, amount in items:
        nodes = tuple(nodes)
        amount = parse_rational(amount, what=f"amount on path {list(nodes)}")
        if amount <= 0:
            raise InvalidPath(f"amount on path {list(nodes)} must be positive")
        if len(nodes) < 2:
            raise InvalidPath(f"path {list(nodes)} is too short")
        if nodes[0] != net.source or nodes[-1] != net.sink:
            raise InvalidPath(
                f"path {list(nodes)} must run from {net.source!r} to {net.sink!r}"
            )
        if len(set(nodes)) != len(nodes):
            raise LoopyFlowInSupport(
                f"path {list(nodes)} revisits a node; loopy flows are "
                "strictly dominated and not accepted"
            )
        net.edge_ids_on_path(nodes)
        merged[nodes] = merged[nodes] + amount if nodes in merged else amount

    flow = PathFlow(tuple(sorted(merged.items())))
    form = net._integer_form
    table = _flow_table(net, flow)
    for edge_id, load in _edge_loads(table).items():
        if load * form.cap_scale > form.capacity[edge_id] * table.scale:
            edge = net.edge(edge_id)
            raise CapacityExceeded(
                f"edge ({edge.tail}, {edge.head}) carries "
                f"{format_rational(Fraction(load, table.scale), 'the flow on an edge')} "
                f"but has capacity {edge.capacity}"
            )
    return flow


def attack(net: Network, edges: Iterable = ()) -> Attack:
    """Build an attack from edge ids or (tail, head) node pairs."""
    ids = set()
    for item in edges:
        if isinstance(item, int):
            if not 0 <= item < len(net.edges):
                raise InvalidPath(f"no edge with id {item}")
            ids.add(item)
        else:
            tail, head = item
            edge = net.edge_by_pair.get((tail, head))
            if edge is None:
                raise InvalidPath(f"no edge from {tail!r} to {head!r}")
            ids.add(edge.id)
    return Attack(tuple(sorted(ids)))


def mixture(items: Iterable) -> MixedStrategy:
    """Validate a finite-support mixed strategy: positive probabilities
    summing exactly to one over pairwise-distinct actions."""
    support = []
    for action, prob in items:
        prob = parse_rational(prob, what="probability")
        if prob <= 0:
            raise InvalidStrategy(f"probabilities must be positive, got {prob}")
        support.append((action, prob))
    scale, probs = to_integers([prob for _, prob in support])
    total = sum(probs)
    if total != scale:
        raise InvalidStrategy(
            "probabilities sum to "
            f"{format_rational(Fraction(total, scale), 'the probability sum')}, expected 1"
        )
    support.sort(key=lambda pair: pair[0].sort_key())
    for left, right in zip(support, support[1:]):
        if left[0] == right[0]:
            raise InvalidStrategy("support actions must be pairwise distinct")
    return MixedStrategy(tuple(support))


def point_mass(action) -> MixedStrategy:
    return MixedStrategy(((action, ONE),))


# ---------------------------------------------------------------------------
# Pure payoffs
# ---------------------------------------------------------------------------

def effective_flow(net: Network, flow: PathFlow, atk: Attack) -> PathFlow:
    """The surviving part of a flow under an attack: exactly the paths that
    contain no disrupted edge, amounts unchanged."""
    if atk.is_empty:
        return flow
    disrupted = set(atk.edge_ids)
    kept = tuple(
        (nodes, amount)
        for nodes, amount in flow.paths
        if disrupted.isdisjoint(net.edge_ids_on_path(nodes))
    )
    return PathFlow(kept)


def path_cost(net: Network, nodes: Sequence) -> Fraction:
    form = net._integer_form
    return Fraction(_scaled_sum(form.cost, net.edge_ids_on_path(nodes)), form.cost_scale)


def transport_cost(net: Network, flow: PathFlow) -> Fraction:
    """Total cost of sending the flow: sum over paths of amount times the
    path's per-unit cost (equal to the edge-sum form)."""
    table = _flow_table(net, flow)
    return Fraction(table.transport, table.scale * net._integer_form.cost_scale)


def attack_cost(net: Network, atk: Attack) -> Fraction:
    """Cost of an attack: the total capacity of the disrupted edges."""
    form = net._integer_form
    return Fraction(_scaled_sum(form.capacity, atk.edge_ids), form.cap_scale)


def router_payoff(net: Network, flow: PathFlow, atk: Attack, params: GameParams) -> Fraction:
    """p1 times the delivered flow, minus the transport cost of everything
    that was sent (lost flow is still paid for): the expected router
    payoff of the two point masses."""
    return expected_payoffs(net, point_mass(flow), point_mass(atk), params)[0]


def attacker_payoff(net: Network, flow: PathFlow, atk: Attack, params: GameParams) -> Fraction:
    """p2 times the lost flow, minus the capacity cost of the attack: the
    expected attacker payoff of the two point masses."""
    return expected_payoffs(net, point_mass(flow), point_mass(atk), params)[1]


# ---------------------------------------------------------------------------
# Expected payoffs over mixed strategies
# ---------------------------------------------------------------------------

class ProfileExpectations(NamedTuple):
    """Expected quantities of a strategy profile, independent of payoffs:
    initial flow, transport cost, attack cost, delivered (effective) flow,
    and lost flow. ``initial = effective + lost`` holds exactly."""

    initial_flow: Fraction
    transport_cost: Fraction
    attack_cost: Fraction
    effective_flow: Fraction
    lost_flow: Fraction


def mean_flow(s1: MixedStrategy) -> PathFlow:
    """Each distinct path of the support carries its sum of prob * amount.
    Payoffs are linear in path amounts, so this has s1's expectations."""
    scale, merged = _merged_paths(s1)
    paths = ((nodes, Fraction(amount, scale)) for nodes, amount in merged.items())
    return PathFlow(tuple(sorted(paths)))


def profile_expectations(net: Network, s1: MixedStrategy, s2: MixedStrategy) -> ProfileExpectations:
    return _expectations(net, _mean_table(net, s1), s2)


def expected_payoffs(
    net: Network,
    s1: MixedStrategy,
    s2: MixedStrategy,
    params: GameParams,
) -> tuple:
    """Expected payoffs, exactly. Both payoffs are linear in the profile's
    expectations, and both strategies' probabilities sum to one, so
    u1 = p1 * E[delivered] - E[transport cost] and
    u2 = p2 * E[lost] - E[attack cost]."""
    return payoffs_of(profile_expectations(net, s1, s2), params)


def payoffs_of(exps: ProfileExpectations, params: GameParams) -> tuple:
    """The expected payoffs (u1, u2) of a profile with these expectations;
    see ``expected_payoffs``."""
    return (
        params.p1 * exps.effective_flow - exps.transport_cost,
        params.p2 * exps.lost_flow - exps.attack_cost,
    )


def expected_edge_loads(net: Network, s1: MixedStrategy) -> dict:
    """Expected flow through each edge under the router's strategy."""
    table = _mean_table(net, s1)
    loads = _edge_loads(table)
    return _fractions({i: loads.get(i, 0) for i in range(len(net.edges))}, table.scale)


# ---------------------------------------------------------------------------
# The integer core
# ---------------------------------------------------------------------------

def _scaled_sum(scaled: tuple, edge_ids) -> int:
    """The sum of ``scaled[i]`` over the edge ids: on the integer form's
    costs, a path's cost; on its capacities, an attack's."""
    total = 0
    for i in edge_ids:
        total += scaled[i]
    return total


def _fractions(totals: dict, scale: int) -> dict:
    """``totals`` with each int over ``scale``, one Fraction per distinct
    value, shared by every key that has it."""
    shared = {total: Fraction(total, scale) for total in set(totals.values())}
    return {key: shared[total] for key, total in totals.items()}


def _merged_paths(s1: MixedStrategy) -> tuple:
    """``(scale, merged)``: each distinct path of the support, in
    first-seen order, with its sum of prob * amount times ``scale``, the
    LCM of the probabilities' denominators times that of the amounts'."""
    prob_scale, probs = to_integers([prob for _, prob in s1.support])
    amount_scale, amounts = to_integers(
        [amount for flow, _ in s1.support for _, amount in flow.paths]
    )
    amounts = iter(amounts)
    merged: dict = {}
    for (flow, _), prob in zip(s1.support, probs):
        for nodes, _ in flow.paths:
            merged[nodes] = merged.get(nodes, 0) + prob * next(amounts)
    return prob_scale * amount_scale, merged


class _PathTable(NamedTuple):
    """A flow on the network's integer form: each row is a distinct path
    as (node sequence, edge ids, amount times ``scale``, cost times the
    cost scale); ``initial`` is the rows' summed amount times ``scale``
    and ``transport`` their summed amount times cost."""

    scale: int
    rows: tuple
    initial: int
    transport: int


def _table(net: Network, scale: int, paths) -> _PathTable:
    """The table of the (node sequence, amount times ``scale``) paths,
    each mapped to its edge ids and scaled cost once."""
    cost = net._integer_form.cost
    rows = []
    initial = transport = 0
    for nodes, amount in paths:
        ids = net.edge_ids_on_path(nodes)
        unit = _scaled_sum(cost, ids)
        rows.append((nodes, ids, amount, unit))
        initial += amount
        transport += amount * unit
    return _PathTable(scale, tuple(rows), initial, transport)


def _mean_table(net: Network, s1: MixedStrategy) -> _PathTable:
    """The table of the mean flow of ``s1`` (see ``mean_flow``)."""
    scale, merged = _merged_paths(s1)
    return _table(net, scale, merged.items())


def _flow_table(net: Network, flow: PathFlow) -> _PathTable:
    """The table of one flow: its point mass's mean table, without the
    probability merge."""
    scale, amounts = to_integers([amount for _, amount in flow.paths])
    return _table(net, scale, zip([nodes for nodes, _ in flow.paths], amounts))


def _edge_loads(table: _PathTable) -> dict:
    """Each edge some row uses, in first-use order, with its load times
    the table's scale."""
    loads: dict = {}
    for _, ids, amount, _ in table.rows:
        for i in ids:
            loads[i] = loads.get(i, 0) + amount
    return loads


def _edge_amounts(table: _PathTable) -> dict:
    """Each edge some row uses, in first-use order, with its load."""
    return _fractions(_edge_loads(table), table.scale)


def _expectations(
    net: Network, table: _PathTable, s2: MixedStrategy
) -> ProfileExpectations:
    """The expectations of the profile whose router mixture has this mean
    table: int sums, one Fraction each."""
    form = net._integer_form
    scale, initial = table.scale, table.initial
    prob_scale, probs = to_integers([prob for _, prob in s2.support])
    attacked = delivered = 0
    for (atk, _), prob in zip(s2.support, probs):
        attacked += prob * _scaled_sum(form.capacity, atk.edge_ids)
        disrupted = set(atk.edge_ids)
        for _, ids, amount, _ in table.rows:
            if disrupted.isdisjoint(ids):
                delivered += prob * amount
    return ProfileExpectations(
        initial_flow=Fraction(initial, scale),
        transport_cost=Fraction(table.transport, scale * form.cost_scale),
        attack_cost=Fraction(attacked, prob_scale * form.cap_scale),
        effective_flow=Fraction(delivered, prob_scale * scale),
        lost_flow=Fraction(initial * prob_scale - delivered, prob_scale * scale),
    )
