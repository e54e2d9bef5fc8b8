import random
from fractions import Fraction
from pathlib import Path

import pytest

from flowgame import Network, make_network, network_from_json, path_flow

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> Network:
    return network_from_json(FIXTURES.joinpath(name).read_text())


@pytest.fixture(scope="session")
def triple_cut_net() -> Network:
    """Six nodes, nine edges; min-cut of three unit edges, cheapest path
    cost 3, and a unique min-cost max-flow on three cost-3 paths."""
    return load_fixture("triple_cut.json")


@pytest.fixture(scope="session")
def cheap_routing_net() -> Network:
    """Six nodes; max flow 3 at transport cost 9, all of it on cost-3
    paths, so the cheapest-routing property holds."""
    return load_fixture("cheap_routing.json")


@pytest.fixture(scope="session")
def detour_net() -> Network:
    """Four nodes; the unique min-cost max-flow uses two cost-4 paths even
    though a cost-3 path exists, so cheapest routing fails."""
    return load_fixture("detour.json")


@pytest.fixture(scope="session")
def square_net() -> Network:
    """Four-node square used for decomposition and attack examples."""
    return make_network(
        ["s", "1", "2", "t"],
        [
            ("s", "1", 2, 1),
            ("s", "2", 1, 1),
            ("1", "2", 1, 1),
            ("1", "t", 1, 1),
            ("2", "t", 2, 1),
        ],
        "s",
        "t",
    )


@pytest.fixture(scope="session")
def single_edge_net() -> Network:
    return make_network(["s", "t"], [("s", "t", 5, 2)], "s", "t")


# ---------------------------------------------------------------------------
# Random instance helpers (seeded by the caller)
# ---------------------------------------------------------------------------

def random_network(
    rng: random.Random, max_internal: int = 4, min_internal: int = 0, density: float = 0.4
) -> Network:
    """Random directed network with ``min_internal`` to ``max_internal``
    internal nodes, each ordered pair an edge with probability
    ``density``, integer capacities and costs up to 3."""
    internal = [f"v{i}" for i in range(rng.randint(min_internal, max_internal))]
    nodes = ["s", "t"] + internal
    edges = []
    for tail in nodes:
        for head in nodes:
            if tail == head:
                continue
            if rng.random() < density:
                edges.append((tail, head, rng.randint(0, 3), rng.randint(0, 3)))
    return make_network(nodes, edges, "s", "t")


def random_tie_network(rng: random.Random) -> Network:
    """A complete directed network on 3-5 nodes, capacities 1-2 and costs
    mostly 0, so that a shortest path often reaches a node by a forward
    and a backward arc at equal reduced cost: the tie order then decides
    which one the min-cost max-flow takes."""
    nodes = ["s", "t"] + [f"v{i}" for i in range(rng.randint(1, 3))]
    edges = [
        (tail, head, rng.randint(1, 2), 0 if rng.random() < 0.7 else 1)
        for tail in nodes
        for head in nodes
        if tail != head
    ]
    return make_network(nodes, edges, "s", "t")


def random_grid_network(rng: random.Random, max_side: int = 7) -> Network:
    """An r x c grid, 2 <= r, c <= ``max_side``: every right and down edge,
    each left and up edge with probability 1/2, capacities 1-5 and costs
    0-3. s feeds the left column and the right column drains to t over
    zero-cost edges that never bind. Many paths tie in cost, so the tie
    order decides which ones the min-cost max-flow takes."""
    rows, cols = rng.randint(2, max_side), rng.randint(2, max_side)
    name = [[f"n{r}_{c}" for c in range(cols)] for r in range(rows)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            steps = []
            if c + 1 < cols:
                steps.append(name[r][c + 1])
            if r + 1 < rows:
                steps.append(name[r + 1][c])
            if c > 0 and rng.random() < 0.5:
                steps.append(name[r][c - 1])
            if r > 0 and rng.random() < 0.5:
                steps.append(name[r - 1][c])
            edges += [
                (name[r][c], there, rng.randint(1, 5), rng.randint(0, 3))
                for there in steps
            ]
    never_binds = 5 * cols + 1
    edges += [("s", name[r][0], never_binds, 0) for r in range(rows)]
    edges += [(name[r][cols - 1], "t", never_binds, 0) for r in range(rows)]
    nodes = ["s", "t", *(n for row in name for n in row)]
    return make_network(nodes, edges, "s", "t")


def _non_integer(rng: random.Random, denominators, top: int) -> Fraction:
    """A rational between 0 and ``top`` that is not an integer, over one of
    the given denominators."""
    d = rng.choice(denominators)
    return Fraction(rng.choice([n for n in range(1, top * d) if n % d]), d)


def random_rational_network(
    rng: random.Random, max_internal: int = 4, min_internal: int = 0, density: float = 0.4
) -> Network:
    """Like ``random_network``, but every capacity and cost is a
    non-integer rational, over mixed denominators: capacities over 2, 3,
    4, 5 or 7 up to 3, costs over 2, 3 or 6 up to 2 (so that path costs
    still tie often)."""
    internal = [f"v{i}" for i in range(rng.randint(min_internal, max_internal))]
    nodes = ["s", "t"] + internal
    edges = []
    for tail in nodes:
        for head in nodes:
            if tail != head and rng.random() < density:
                capacity = _non_integer(rng, (2, 3, 4, 5, 7), 3)
                edges.append((tail, head, capacity, _non_integer(rng, (2, 3, 6), 2)))
    return make_network(nodes, edges, "s", "t")


def random_path_flow(rng: random.Random, net: Network, paths) -> "path_flow":
    """A feasible flow over up to two of the given simple paths, each an
    edge-id tuple as ``enumerate_simple_paths`` gives them."""
    if not paths:
        return path_flow(net)
    remaining = {e.id: e.capacity for e in net.edges}
    items = []
    for ids in rng.sample(list(paths), min(rng.randint(0, 2), len(paths))):
        headroom = min(remaining[i] for i in ids)
        if headroom <= 0:
            continue
        amount = headroom * Fraction(rng.randint(1, 4), 4)
        for i in ids:
            remaining[i] -= amount
        items.append((net.nodes_on_path(ids), amount))
    return path_flow(net, items)


def random_probabilities(rng: random.Random, count: int) -> list:
    weights = [rng.randint(1, 5) for _ in range(count)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]
