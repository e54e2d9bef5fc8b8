"""Strategies and payoffs for the routing-vs-interdiction game.

The router (player 1) picks a flow, represented path-based: the same edge
amounts can decompose into different path sets, and the attack outcome
depends on which paths were used, so the path representation is the true
action space. The attacker (player 2) picks a set of edges to disrupt.
Flow on a path that touches a disrupted edge is lost, not rerouted; the
router still pays its transport cost.

Mixed strategies have finite support. Every probability and amount is an
exact Fraction, so expected payoffs compare by equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import (
    CapacityExceeded,
    InvalidParams,
    InvalidPath,
    InvalidStrategy,
    LoopyFlowInSupport,
)
from .network import Network, ZERO
from .rational import format_rational, parse_rational

ONE = Fraction(1)


@dataclass(frozen=True)
class PathFlow:
    """A flow as amounts on simple source-sink paths.

    ``paths`` is a canonically sorted tuple of (node sequence, amount)
    pairs with positive amounts. Use :func:`path_flow` to build one.
    """

    paths: tuple

    @property
    def value(self) -> Fraction:
        """Amount of flow sent from source to sink."""
        return sum((amount for _, amount in self.paths), ZERO)

    @property
    def is_zero(self) -> bool:
        return not self.paths

    def edge_amounts(self, net: Network) -> dict:
        """Per-edge flow induced by the path amounts."""
        amounts: dict = {}
        for nodes, amount in self.paths:
            for edge_id in net.edge_ids_on_path(nodes):
                amounts[edge_id] = amounts.get(edge_id, ZERO) + amount
        return amounts

    def sort_key(self):
        return self.paths


@dataclass(frozen=True)
class Attack:
    """A set of disrupted edges, stored as a sorted tuple of edge ids."""

    edge_ids: tuple

    @property
    def is_empty(self) -> bool:
        return not self.edge_ids

    def pairs(self, net: Network) -> tuple:
        return tuple((net.edge(i).tail, net.edge(i).head) for i in self.edge_ids)

    def sort_key(self):
        return self.edge_ids


@dataclass(frozen=True)
class MixedStrategy:
    """Finite-support distribution over PathFlow or Attack actions."""

    support: tuple

    def expect(self, fn: Callable) -> Fraction:
        return sum((prob * fn(action) for action, prob in self.support), ZERO)


@dataclass(frozen=True)
class GameParams:
    """Player valuations: p1 is the router's marginal value per unit of
    delivered flow, p2 the attacker's marginal value per unit of lost flow.
    Both must be strictly positive."""

    p1: Fraction
    p2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p1", parse_rational(self.p1, what="p1"))
        object.__setattr__(self, "p2", parse_rational(self.p2, what="p2"))
        if self.p1 <= 0:
            raise InvalidParams(f"p1 must be positive, got {self.p1}")
        if self.p2 <= 0:
            raise InvalidParams(f"p2 must be positive, got {self.p2}")


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
        merged[nodes] = merged.get(nodes, ZERO) + amount

    flow = PathFlow(tuple(sorted(merged.items())))
    for edge_id, amount in flow.edge_amounts(net).items():
        edge = net.edge(edge_id)
        if amount > edge.capacity:
            raise CapacityExceeded(
                f"edge ({edge.tail}, {edge.head}) carries "
                f"{format_rational(amount, 'the flow on an edge')} "
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
    total = sum((prob for _, prob in support), ZERO)
    if total != 1:
        raise InvalidStrategy(
            f"probabilities sum to {format_rational(total, 'the probability sum')}, "
            "expected 1"
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
    return sum((net.edge(i).cost for i in net.edge_ids_on_path(nodes)), ZERO)


def transport_cost(net: Network, flow: PathFlow) -> Fraction:
    """Total cost of sending the flow: sum over paths of amount times the
    path's per-unit cost (equal to the edge-sum form)."""
    return sum((amount * path_cost(net, nodes) for nodes, amount in flow.paths), ZERO)


def attack_cost(net: Network, atk: Attack) -> Fraction:
    """Cost of an attack: the total capacity of the disrupted edges."""
    return sum((net.edge(i).capacity for i in atk.edge_ids), ZERO)


def router_payoff(net: Network, flow: PathFlow, atk: Attack, params: GameParams) -> Fraction:
    """p1 times the delivered flow, minus the transport cost of everything
    that was sent (lost flow is still paid for)."""
    return params.p1 * effective_flow(net, flow, atk).value - transport_cost(net, flow)


def attacker_payoff(net: Network, flow: PathFlow, atk: Attack, params: GameParams) -> Fraction:
    """p2 times the lost flow, minus the capacity cost of the attack."""
    lost = flow.value - effective_flow(net, flow, atk).value
    return params.p2 * lost - attack_cost(net, atk)


# ---------------------------------------------------------------------------
# Expected payoffs over mixed strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileExpectations:
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
    merged: dict = {}
    for flow, prob in s1.support:
        for nodes, amount in flow.paths:
            merged[nodes] = merged.get(nodes, ZERO) + prob * amount
    return PathFlow(tuple(sorted(merged.items())))


def profile_expectations(net: Network, s1: MixedStrategy, s2: MixedStrategy) -> ProfileExpectations:
    mean = mean_flow(s1)
    initial = mean.value
    effective = s2.expect(lambda atk: effective_flow(net, mean, atk).value)
    return ProfileExpectations(
        initial_flow=initial,
        transport_cost=transport_cost(net, mean),
        attack_cost=s2.expect(lambda atk: attack_cost(net, atk)),
        effective_flow=effective,
        lost_flow=initial - effective,
    )


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
    exps = profile_expectations(net, s1, s2)
    return (
        params.p1 * exps.effective_flow - exps.transport_cost,
        params.p2 * exps.lost_flow - exps.attack_cost,
    )


def expected_edge_loads(net: Network, s1: MixedStrategy) -> dict:
    """Expected flow through each edge under the router's strategy."""
    return {e.id: ZERO for e in net.edges} | mean_flow(s1).edge_amounts(net)
