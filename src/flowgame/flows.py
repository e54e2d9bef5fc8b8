"""Flow-theoretic primitives: exact, on integers inside the layer and on
``Fraction`` at its boundary.

The algorithms run on a network's integer form (``Network._integer_form``,
built once per network): the capacities and the costs times the LCM of
their denominators. A positive
scale keeps every comparison and every heap order, so each result is the
one the same algorithm gives on the rationals. Values leave the layer as
``Fraction``: flow amounts over the capacity scale, path costs over the
cost scale, a total transport cost over their product. The min-cost
max-flow builds one ``Fraction`` per distinct amount in each call and
shares it among the edges that carry that amount. Flows passed in
need not lie on the capacity lattice: residual tests cross-multiply, and
``decompose`` scales by the LCM of the given amounts' denominators.

Algorithms are chosen for exactness and reproducibility on desk-scale
networks, not asymptotics:

* min-cost max-flow: successive shortest paths with node potentials.
  Costs are nonnegative, so plain Dijkstra works from the start and
  reduced costs stay nonnegative throughout. It is also a maximum flow,
  and the only flow computed per network. Its first Dijkstra round, on
  the zero flow, gives the cheapest path cost; its last, which fails to
  reach the sink, reaches the source side of the canonical min-cut.
  Dijkstra keeps each node's label, its residual distance from the
  source: the potential plus the reduced distance. An arc relaxes when
  the label across it falls, the reduced test shifted by the head's
  potential, and each round's labels are the next round's potentials.
  A node the source stops reaching is never reached again, so its
  unreached label is never read as a potential. The integer form lists
  every residual arc once, as one tuple; each node keeps the list of
  those tuples the flow leaves open, in the integer form's order, and
  an augmentation changes arcs only at the nodes of its path, so only
  their lists are rebuilt, and Dijkstra never meets a closed arc. The
  heap holds the reduced distance times n plus the node for n nodes,
  which for 0 <= node < n orders as the pair (reduced distance, node)
  does. Pop order and scan order are those of a scan over every arc that
  skips the closed ones, so each augmenting path and each potential is
  too.
* all min-cuts: a search over the residual graph of a caller's maximum
  flow, whose open arcs ``_open_arcs`` lists per node as Dijkstra scans
  them.
* edge saturation under every min-cost max-flow: one Bellman-Ford run
  per edge over the same lists, built once for all the edges a caller
  decides.
* decomposition: cycles are peeled off first (depth-first search on the
  support graph), after which the support is acyclic and source-to-sink
  paths are extracted by always following the lowest-id positive edge.
  Both run on node numbers, which follow sorted names, and names are
  looked up only for the result. The cycles of a min-cost flow cost 0
  (removing one of positive cost would lower the cost at the same
  value), so its path part, the optimal flow of ``analyze``, has the min
  transport cost as its transport cost, and reports print that value
  instead of summing it.

Everything here is a pure function of an immutable network, safe for
concurrent use.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Union

from .errors import UndecomposableFlow
from .game import PathFlow, path_cost
from .network import Cut, Network, ZERO
from .rational import to_integers


# ---------------------------------------------------------------------------
# Residual arcs
# ---------------------------------------------------------------------------

def _open_arcs_at(form, forward_open, backward_open, node) -> list:
    """The residual arcs at ``node`` whose direction is open (by edge id,
    ``forward_open`` for forward arcs, ``backward_open`` for backward
    ones): the arc tuples of ``form.arcs[node]`` themselves, in that
    order."""
    return [
        arc for arc in form.arcs[node] if (forward_open if arc[1] else backward_open)[arc[0]]
    ]


def _open_arcs(net: Network, amounts: Mapping) -> list:
    """For each node number, the residual arcs that ``amounts`` (absent
    ids carry 0) leaves open, as ``_open_arcs_at`` lists them. Amounts are
    compared with the scaled capacities by cross-multiplying, so they need
    not lie on the capacity lattice."""
    form = net._integer_form
    scale = form.cap_scale
    forward_open, backward_open = [], []
    for edge_id, capacity in enumerate(form.capacity):
        amount = amounts.get(edge_id, 0)
        forward_open.append(amount.numerator * scale < capacity * amount.denominator)
        backward_open.append(amount.numerator > 0)
    return [
        _open_arcs_at(form, forward_open, backward_open, node)
        for node in range(len(form.arcs))
    ]


def always_saturated_edges(
    net: Network, amounts: Mapping, edge_ids, open_arcs: Optional[list] = None
) -> frozenset:
    """The ids among ``edge_ids`` of the edges that every min-cost max-flow
    fills to capacity: ``edge_always_saturated`` on each, with the open-arc
    lists of ``amounts`` built once, or taken from ``open_arcs``."""
    if open_arcs is None:
        open_arcs = _open_arcs(net, amounts)
    return frozenset(
        i for i in edge_ids if edge_always_saturated(net, amounts, i, open_arcs)
    )


def edge_always_saturated(
    net: Network, amounts: Mapping, edge_id: int, open_arcs: Optional[list] = None
) -> bool:
    """Whether every min-cost max-flow fills the edge to capacity.

    ``amounts`` is the edge flow of one min-cost max-flow (absent ids
    carry nothing). The others differ from it by zero-cost circulations in
    its residual graph, which has no negative cycle. So a saturated edge
    (u, v) of positive capacity can lose flow iff some positive-residual
    path from u to v costs at most the edge's cost: one Bellman-Ford run.
    A run that still relaxes an arc in its n-th round, for n nodes, has
    reached a negative residual cycle from u, so ``amounts`` is not a
    min-cost flow, and ValueError is raised. ``open_arcs``, when given, is
    ``_open_arcs(net, amounts)``, built once by a caller that decides
    several edges.
    """
    form = net._integer_form
    if open_arcs is None:
        open_arcs = _open_arcs(net, amounts)
    edge = net.edge(edge_id)
    tail, head = form.index[edge.tail], form.index[edge.head]
    if (edge_id, True, head, form.cost[edge_id]) in open_arcs[tail]:
        return False  # its forward arc is open: the edge is below capacity
    if form.capacity[edge_id] == 0:
        return True
    dist = [None] * len(open_arcs)
    dist[tail] = 0
    for _ in range(len(open_arcs)):
        changed = False
        for node, node_arcs in enumerate(open_arcs):
            base = dist[node]
            if base is None:
                continue
            for _, _, dst, cost in node_arcs:
                if dist[dst] is None or base + cost < dist[dst]:
                    dist[dst] = base + cost
                    changed = True
        if not changed:
            break
    else:
        raise ValueError(
            "the residual graph has a negative cycle: the amounts are not a min-cost flow"
        )
    reach = dist[head]
    return not (reach is not None and reach <= form.cost[edge_id])


# ---------------------------------------------------------------------------
# Min-cost max-flow, and the max-flow, min-cut and cheapest path cost
# read off it
# ---------------------------------------------------------------------------

def min_cost_max_flow(net: Network) -> tuple:
    """A maximum flow of minimum total transport cost.

    Successive shortest paths: augment along a cheapest residual path
    until the sink is unreachable. Node potentials keep reduced costs
    nonnegative so every iteration is a plain Dijkstra run. Returns
    ``(amounts, cost, cheapest_path_cost, source_side)``. The first round
    runs on the zero flow with zero potentials, so its distance to the
    sink is the cheapest path cost (None when the sink is unreachable).
    The last round, which fails to reach the sink, reaches the nodes the
    source reaches in the residual graph of a maximum flow: the source
    side of the canonical min-cut.

    Each round's labels, the residual distances from the source, are the
    next round's potentials. A node the source cannot reach keeps the
    unreached label, and that label is never read as a potential: an
    augmentation changes arcs only between nodes of its path, all of them
    reached, so no arc into an unreached node opens, and the nodes
    reached only ever shrink. The sink's label is the cost of a unit
    along the round's path.
    """
    form = net._integer_form
    capacity, ends = form.capacity, form.ends
    source, sink = form.index[net.source], form.index[net.sink]
    flow = [0] * len(capacity)
    forward_open = [c > 0 for c in capacity]
    backward_open = [False] * len(capacity)
    open_arcs = [
        _open_arcs_at(form, forward_open, backward_open, node)
        for node in range(len(form.arcs))
    ]
    # Every label is the signed cost of a simple residual path plus one
    # arc; its forward arcs belong to distinct edges, so it stays below
    # the sum of all costs plus one.
    unreached = sum(form.cost) + 1
    label = [0] * len(form.arcs)
    total_cost = 0
    unit_cost = None

    while True:
        label, parent = _cheapest_residual_paths(open_arcs, label, source, unreached)
        step_cost = label[sink]
        if step_cost == unreached:
            break
        if unit_cost is None:
            unit_cost = Fraction(step_cost, form.cost_scale)

        path, path_nodes = [], [sink]
        node = sink
        while node != source:
            arc = parent[node]
            path.append(arc)
            # a forward arc leaves its edge's tail, a backward one its head
            node = ends[arc[0]][not arc[1]]
            path_nodes.append(node)
        bottleneck = min(
            capacity[i] - flow[i] if forward else flow[i] for i, forward, _, _ in path
        )
        for edge_id, forward, _, _ in path:
            if forward:
                flow[edge_id] += bottleneck
            else:
                flow[edge_id] -= bottleneck
            forward_open[edge_id] = flow[edge_id] < capacity[edge_id]
            backward_open[edge_id] = flow[edge_id] > 0
        total_cost += bottleneck * step_cost
        # Only the arcs of the path's edges opened or closed, and each of
        # them lies at a node on the path.
        for node in path_nodes:
            open_arcs[node] = _open_arcs_at(form, forward_open, backward_open, node)
    # One Fraction per distinct amount, shared by every edge that carries it.
    shared = {amount: Fraction(amount, form.cap_scale) for amount in set(flow)}
    amounts = {i: shared[amount] for i, amount in enumerate(flow)}
    # ``form.index`` lists the node names in node-number order.
    source_side = frozenset(
        name for name, value in zip(form.index, label) if value != unreached
    )
    return (
        amounts,
        Fraction(total_cost, form.cap_scale * form.cost_scale),
        unit_cost,
        source_side,
    )


def _cheapest_residual_paths(open_arcs, potential, source, unreached) -> tuple:
    """Dijkstra over the open residual arcs (``open_arcs[node]`` as
    ``_open_arcs_at`` lists them) with reduced arc costs. Returns each
    node's label, its residual distance from the source (``unreached``
    when the source does not reach it), and the arc it was reached by.

    A label is the node's potential plus its reduced distance, so an arc
    relaxes exactly when the reduced test does: both sides of
    ``label[node] + cost < label[dst]`` differ from it by ``potential[dst]``.
    An arc into a finished node never relaxes, by the triangle inequality.
    The heap holds the reduced distance times n plus the node, for n
    nodes. With 0 <= node < n, these ints order as the pairs (reduced
    distance, node) do, ties to the lower node number, and the key modulo
    n is the node. A node's entries are pushed with falling keys, so its
    first entry popped is its last one pushed."""
    pop, push = heapq.heappop, heapq.heappush
    n = len(open_arcs)
    label = [unreached] * n
    parent = [None] * n
    final = [False] * n
    label[source] = 0
    heap = [source]
    while heap:
        node = pop(heap) % n
        if final[node]:
            continue
        final[node] = True
        base = label[node]
        for arc in open_arcs[node]:
            dst = arc[2]
            candidate = base + arc[3]
            if candidate < label[dst]:
                label[dst] = candidate
                parent[dst] = arc
                push(heap, (candidate - potential[dst]) * n + dst)
    return label, parent


def max_flow(net: Network) -> tuple:
    """Maximum source-to-sink flow value and a flow attaining it.

    Returns ``(value, amounts)`` where ``amounts`` maps edge id to the
    exact flow on that edge: the min-cost max-flow, which is a maximum
    flow. A network with no source-sink path yields value 0 and the zero
    flow.
    """
    amounts = min_cost_max_flow(net)[0]
    return flow_value(net, amounts), amounts


def cheapest_path_cost(net: Network) -> Optional[Fraction]:
    """Minimum per-unit transport cost over all source-sink paths that use
    only positive-capacity edges. ``None`` when the sink is unreachable."""
    return min_cost_max_flow(net)[2]


# ---------------------------------------------------------------------------
# Minimum cuts
# ---------------------------------------------------------------------------

def _grow(side: set, adj: list, node, log: list) -> None:
    """Add ``node`` and all it reaches along ``adj`` to ``side``; log each."""
    todo = [node]
    while todo:
        node = todo.pop()
        if node not in side:
            side.add(node)
            log.append((side, node))
            todo.extend(adj[node])


def _cut(net: Network, s_side: frozenset) -> Cut:
    cut_ids = tuple(
        e.id for e in net.edges if e.tail in s_side and e.head not in s_side
    )
    form = net._integer_form
    capacity = Fraction(sum(form.capacity[i] for i in cut_ids), form.cap_scale)
    return Cut(s_side, cut_ids, capacity)


def all_min_cuts(net: Network, flow: Mapping, open_arcs: Optional[list] = None) -> tuple:
    """Every minimum cut, one per set of positive-capacity edges it
    crosses, with the smallest source side crossing just those, ordered
    by that side as a bitmask over the sorted non-terminal nodes.

    Source sides of minimum cuts are the sets closed under the residual
    arcs of a maximum flow (Picard and Queyranne, 1980), so only saturated
    edges cross one. The search decides them in id order, cut before
    uncut, grows the nodes each choice forces onto either side and skips
    choices that cannot be completed: every leaf is a new cut.

    ``flow`` maps edge ids to the amounts of any maximum flow; absent ids
    carry 0. The cuts do not depend on which one. ``open_arcs``, when
    given, is ``_open_arcs(net, flow)``, built once by a caller that also
    decides saturation on it.
    """
    if open_arcs is None:
        open_arcs = _open_arcs(net, flow)
    form = net._integer_form
    index = form.index
    succ = [set() for _ in form.arcs]
    pred = [set() for _ in form.arcs]
    forward_open = set()
    for node, arcs in enumerate(open_arcs):
        for edge_id, forward, dst, _ in arcs:
            succ[node].add(dst)
            pred[dst].add(node)
            if forward:
                forward_open.add(edge_id)
    choices = [
        (index[e.tail], index[e.head])
        for e in net.edges
        if form.capacity[e.id] > 0 and e.id not in forward_open
    ]
    s_side, t_side, log = set(), set(), []
    _grow(s_side, succ, index[net.source], log)
    _grow(t_side, pred, index[net.sink], log)

    def undo(mark):
        while len(log) > mark:
            added_to, item = log.pop()
            added_to.discard(item)

    sides, branches, i = [], [], 0
    while True:
        if i < len(choices):
            tail, head = choices[i]
            i += 1
            if head in s_side or tail in t_side or (tail in s_side and head in t_side):
                continue  # decided already; the arc it would add is implied
            mark = len(log)
            _grow(s_side, succ, tail, log)
            if head in s_side:  # the tail reaches the head: it cannot be cut
                undo(mark)
            else:
                _grow(t_side, pred, head, log)
                branches.append((mark, i - 1))
            continue
        sides.append(frozenset(s_side))
        if not branches:
            break
        mark, i = branches.pop()
        undo(mark)
        tail, head = choices[i]
        i += 1
        # Left uncut, the edge ties its tail on the source side to its
        # head. Cutting it was possible, so the tail did not reach the head.
        for adj, a, b in ((succ, tail, head), (pred, head, tail)):
            adj[a].add(b)
            log.append((adj[a], b))
        if tail in s_side:
            _grow(s_side, succ, head, log)
        if head in t_side:
            _grow(t_side, pred, tail, log)
    # Node numbers follow sorted names, every side holds the source and
    # none the sink, so the bitmask over node numbers orders the sides as
    # the one over the sorted non-terminal nodes does.
    sides.sort(key=lambda side: sum(1 << node for node in side))
    names = tuple(index)
    return tuple(_cut(net, frozenset(names[node] for node in side)) for side in sides)


# ---------------------------------------------------------------------------
# Edge-flow utilities
# ---------------------------------------------------------------------------

def flow_value(net: Network, amounts: Mapping) -> Fraction:
    """Net flow into the sink: over its backward residual arcs, which are
    its in-edges, less over its forward ones, its out-edges."""
    form = net._integer_form
    into = out = ZERO
    for edge_id, forward, _, _ in form.arcs[form.index[net.sink]]:
        if forward:
            out += amounts.get(edge_id, ZERO)
        else:
            into += amounts.get(edge_id, ZERO)
    return into - out


# ---------------------------------------------------------------------------
# Decomposition into paths and cycles
# ---------------------------------------------------------------------------

class Decomposition(NamedTuple):
    """Paths are (node sequence, amount) pairs from source to sink; cycles
    are closed node sequences (first node repeated last) with an amount.
    Summing amounts edge-wise reproduces the input flow exactly."""

    paths: tuple
    cycles: tuple


def decompose(net: Network, amounts: Mapping) -> Decomposition:
    """Write a feasible edge flow as source-sink path amounts plus cycles.

    Cycles are peeled first; the rest is acyclic and splits into simple
    paths. At most one path or cycle per edge is produced. Flows that
    cannot be written this way (net flow running from sink to source)
    raise UndecomposableFlow.
    """
    positive = {}
    for edge_id, amount in amounts.items():
        if amount.numerator < 0:
            edge = net.edge(edge_id)
            raise UndecomposableFlow(
                f"negative amount {amount} on edge ({edge.tail}, {edge.head})"
            )
        if amount.numerator > 0:
            positive[edge_id] = amount
    # Peeling takes minima and differences only, so it runs on the amounts
    # times the LCM of their denominators.
    scale, scaled = to_integers(list(positive.values()))
    work = dict(zip(positive, scaled))

    # The search runs on node numbers, which follow sorted names. Each
    # node lists the edges leaving it that carry flow, in id order, as
    # (edge id, head).
    form = net._integer_form
    names = tuple(form.index)
    out = [[] for _ in names]
    for edge_id in sorted(work):
        tail, head = form.ends[edge_id]
        out[tail].append((edge_id, head))
    cycles = _peel_cycles(out, work)
    paths = _extract_paths(out, work, form.index[net.source], form.index[net.sink], names)

    if work:
        leftover = sorted(work)
        raise UndecomposableFlow(
            f"flow is not a sum of source-sink paths and cycles; "
            f"edges {leftover} carry unassignable amounts"
        )
    return Decomposition(
        tuple(
            (tuple(names[node] for node in nodes), Fraction(amount, scale))
            for nodes, amount in paths
        ),
        tuple(
            (tuple(names[node] for node in nodes), Fraction(amount, scale))
            for nodes, amount in cycles
        ),
    )


def _subtract(work: dict, edge_ids, amount: int) -> None:
    for edge_id in edge_ids:
        remaining = work[edge_id] - amount
        if remaining:
            work[edge_id] = remaining
        else:
            del work[edge_id]


def _peel_cycles(out: list, work: dict) -> list:
    """Peel directed cycles off the support graph of ``work`` (``out`` as
    ``decompose`` lists it) until none is left: (closed cycle nodes,
    amount) for each, in the order a deterministic depth-first search
    from each node in turn finds them.

    The search keeps its finished nodes across peels. A finished node
    reaches no cycle, and peeling only removes edges, so it never reaches
    one later; the search therefore finds the cycles that a search
    restarted from scratch after every peel would find."""
    finished = [False] * len(out)
    cycles = []
    for root in range(len(out)):
        while not finished[root]:
            found = _find_cycle(out, work, finished, root)
            if found is not None:
                cycle_nodes, cycle_edges = found
                bottleneck = min(work[i] for i in cycle_edges)
                _subtract(work, cycle_edges, bottleneck)
                cycles.append((cycle_nodes, bottleneck))
    return cycles


def _find_cycle(out: list, work: dict, finished: list, root: int):
    """Depth-first search from ``root`` over the edges of ``out`` still in
    ``work``, skipping and extending the ``finished`` nodes. Returns the
    first cycle met as (cycle nodes closed, cycle edge ids), or None once
    ``root`` is finished."""
    frames = [iter(out[root])]
    path_nodes = [root]
    path_edges = []
    position = {root: 0}
    while frames:
        for edge_id, dst in frames[-1]:
            if edge_id not in work or finished[dst]:
                continue
            if dst in position:
                k = position[dst]
                return path_nodes[k:] + [dst], path_edges[k:] + [edge_id]
            frames.append(iter(out[dst]))
            position[dst] = len(path_nodes)
            path_nodes.append(dst)
            path_edges.append(edge_id)
            break
        else:
            frames.pop()
            node = path_nodes.pop()
            finished[node] = True
            del position[node]
            if path_edges:
                path_edges.pop()
    return None


def _extract_paths(out: list, work: dict, source: int, sink: int, names: tuple) -> list:
    """Walk from the source along the lowest-id edge still in ``work``
    until the sink, and peel the path's bottleneck off ``work``, until no
    edge leaves the source: (path nodes, amount) for each path. Run after
    ``_peel_cycles``, on an acyclic support, so every walk is a simple
    path. An edge once emptied stays empty, so each node's walks resume
    at the first of its edges that was still in ``work``."""
    first = [0] * len(out)
    paths = []
    while True:
        node = source
        nodes = [node]
        edges = []
        while node != sink:
            arcs = out[node]
            k = first[node]
            while k < len(arcs) and arcs[k][0] not in work:
                k += 1
            first[node] = k
            if k == len(arcs):
                if not edges:
                    return paths
                raise UndecomposableFlow(
                    f"walk from the source stalled at {names[node]!r}"
                )
            edge_id, node = arcs[k]
            edges.append(edge_id)
            nodes.append(node)
        bottleneck = min(work[i] for i in edges)
        _subtract(work, edges, bottleneck)
        paths.append((nodes, bottleneck))


# ---------------------------------------------------------------------------
# One-shot analysis bundle
# ---------------------------------------------------------------------------

class FlowAnalysis(NamedTuple):
    """Everything the equilibrium layer needs about a network:
    the max-flow value, the canonical min-cut, a canonical min-cost
    max-flow as a path flow, its transport cost, the cheapest path cost
    (None when the sink is unreachable), and whether that flow routes only
    along cheapest paths (None when there is no flow to route).

    Every path costs at least the cheapest path cost, so the routing check
    holds exactly when the transport cost equals that cost times the
    max-flow value. Its witness is then ``optimal_flow`` itself, and
    otherwise a (nodes, cost) pair for the first path of the decomposition
    that costs more."""

    max_flow_value: Fraction
    min_cut: Cut
    optimal_flow: PathFlow
    min_transport_cost: Fraction
    cheapest_path_cost: Optional[Fraction]
    cheapest_routing: Optional[bool]
    routing_witness: Union[PathFlow, tuple, None]


def analyze(net: Network) -> FlowAnalysis:
    amounts, cost, unit_cost, source_side = min_cost_max_flow(net)
    decomposition = decompose(net, amounts)
    optimal = PathFlow(tuple(sorted(decomposition.paths)))
    value = optimal.value  # the decomposition's cycles carry no net flow

    if value == 0:
        routing, witness = None, None
    elif cost == unit_cost * value:
        routing, witness = True, optimal
    else:
        costs = ((nodes, path_cost(net, nodes)) for nodes, _ in decomposition.paths)
        routing, witness = False, next(pair for pair in costs if pair[1] > unit_cost)

    return FlowAnalysis(
        max_flow_value=value,
        min_cut=_cut(net, source_side),
        optimal_flow=optimal,
        min_transport_cost=cost,
        cheapest_path_cost=unit_cost,
        cheapest_routing=routing,
        routing_witness=witness,
    )
