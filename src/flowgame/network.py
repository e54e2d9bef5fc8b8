"""Immutable network model, validation, and terminal normalization.

A network is a directed graph with a single source and a single sink.
Each edge carries an exact rational capacity (flow units) and an exact
rational transport cost (money per flow unit). Parallel edges are not
allowed: an ordered node pair identifies at most one edge, which keeps
flow and attack maps unambiguous. A parallel pair must be modelled with
an intermediate node.

Networks are frozen after validation; every operation in this package
treats them as read-only values, so sharing across threads is safe.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DuplicateEdge,
    EmptyTerminalSet,
    InvalidPath,
    NegativeCapacity,
    NegativeCost,
    NetworkValidationError,
    ParseError,
    SelfLoop,
    SourceEqualsSink,
    UnknownEndpoint,
)
from .rational import parse_rational, to_integers

NodeId = str

ZERO = Fraction(0)


class EdgeSpec(NamedTuple):
    """One directed edge. ``id`` is the dense index of the edge in the
    network's edge list and is the key used by flows and attacks."""

    id: int
    tail: NodeId
    head: NodeId
    capacity: Fraction
    cost: Fraction


def _record_repr(record) -> str:
    """The NamedTuple repr, but with each frozenset field's members listed
    in the order of their reprs: a set's iteration order depends on the
    hash seed and on its history, and a pickle round trip can change it.
    A Network's node names are strings, but a Cut built by hand may hold
    members of any type, so the reprs are sorted, not the members."""
    fields = ", ".join(
        f"{name}=frozenset({{{', '.join(sorted(map(repr, value)))}}})"
        if isinstance(value, frozenset) and value
        else f"{name}={value!r}"
        for name, value in zip(record._fields, record)
    )
    return f"{type(record).__name__}({fields})"


class Cut(NamedTuple):
    """A source-sink cut: the source-side node set, the ids of the edges
    leaving it, and their total capacity."""

    s_side: frozenset
    cut_set: tuple
    capacity: Fraction

    __repr__ = _record_repr


class IntegerForm(NamedTuple):
    """A network's data on plain integers, for the flow algorithms.

    ``capacity`` and ``cost`` hold, by edge id, the capacities times
    ``cap_scale`` and the costs times ``cost_scale``, each scale being the
    LCM of the denominators it clears. ``index`` numbers the nodes in
    sorted-name order and iterates over the names in that order, so
    ``all_min_cuts`` and ``decompose`` can work on node numbers in place of
    sorted names. ``arcs[i]`` lists the residual arcs at node ``i`` as
    (edge id, is_forward, other end's number, scaled cost signed by
    direction) in edge-id order, the order every flow algorithm scans them
    in; each arc is one tuple, shared by every list of open arcs that holds
    it. ``ends`` holds, by edge id, the (tail, head) node numbers. A
    positive scale keeps every comparison, so results computed here equal
    those on the rationals once divided by the scales again."""

    cap_scale: int
    cost_scale: int
    capacity: tuple
    cost: tuple
    index: Mapping
    arcs: tuple
    ends: tuple


class _NetworkFields(NamedTuple):
    nodes: frozenset
    edges: tuple
    source: NodeId
    sink: NodeId


class Network(_NetworkFields):
    """A validated network; build one with :func:`make_network`. Its
    value is its four fields. The tables derived from them are built on
    first use and cached in the instance's ``__dict__``, outside that
    value; no attribute can be assigned."""

    __repr__ = _record_repr

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def _integer_form(self) -> IntegerForm:
        cap_scale, capacity = to_integers([e.capacity for e in self.edges])
        cost_scale, cost = to_integers([e.cost for e in self.edges])
        index = {name: i for i, name in enumerate(sorted(self.nodes))}
        arcs = [[] for _ in index]
        ends = []
        for e in self.edges:
            tail, head = index[e.tail], index[e.head]
            arcs[tail].append((e.id, True, head, cost[e.id]))
            arcs[head].append((e.id, False, tail, -cost[e.id]))
            ends.append((tail, head))
        return IntegerForm(
            cap_scale, cost_scale, capacity, cost, index, tuple(map(tuple, arcs)), tuple(ends)
        )

    @cached_property
    def edge_by_pair(self) -> Mapping:
        return {(e.tail, e.head): e for e in self.edges}

    def edge(self, edge_id: int) -> EdgeSpec:
        return self.edges[edge_id]

    def edge_ids_on_path(self, nodes: Sequence) -> tuple:
        """Map a node sequence to edge ids, raising InvalidPath if any hop
        is not an edge of this network."""
        ids = []
        for tail, head in zip(nodes, nodes[1:]):
            edge = self.edge_by_pair.get((tail, head))
            if edge is None:
                raise InvalidPath(f"no edge from {tail!r} to {head!r}")
            ids.append(edge.id)
        return tuple(ids)

    def nodes_on_path(self, edge_ids: Sequence) -> tuple:
        """The node sequence of a nonempty path given by its edge ids."""
        return (self.edges[edge_ids[0]].tail, *(self.edges[i].head for i in edge_ids))


def _coerce_edges(edges: Iterable) -> list:
    # Each distinct rational string is parsed once per call. Only strings
    # are memoized: True, 1 and 1.0 hash alike, and bool and float must
    # still be rejected wherever they occur.
    parsed = {}

    def rational(value, field, tail, head):
        if isinstance(value, str) and value in parsed:
            return parsed[value]
        number = parse_rational(value, what=f"{field} of edge ({tail}, {head})")
        if isinstance(value, str):
            parsed[value] = number
        return number

    coerced = []
    for index, item in enumerate(edges):
        # An EdgeSpec has five fields, so it never passes as a row.
        if isinstance(item, (tuple, list)) and len(item) == 4:
            tail, head, capacity, cost = item
        elif isinstance(item, EdgeSpec):
            tail, head, capacity, cost = item.tail, item.head, item.capacity, item.cost
        else:
            raise NetworkValidationError(
                f"edge #{index} is not a (tail, head, capacity, cost) row: {item!r}"
            )
        if not (isinstance(tail, str) and isinstance(head, str)):
            name = head if isinstance(tail, str) else tail
            raise NetworkValidationError(f"edge #{index}: node name {name!r} is not a string")
        capacity = rational(capacity, "capacity", tail, head)
        cost = rational(cost, "cost", tail, head)
        coerced.append(EdgeSpec(index, tail, head, capacity, cost))
    return coerced


def _check_names(names: Sequence) -> None:
    """Raise NetworkValidationError naming the first of ``names``, in the
    caller's order, that is not a string: a NodeId is a str, and the flow
    algorithms sort names."""
    for name in names:
        if not isinstance(name, str):
            raise NetworkValidationError(f"node name {name!r} is not a string")


def make_network(nodes: Iterable, edges: Iterable, source: NodeId, sink: NodeId) -> Network:
    """Validate a network candidate and freeze it.

    Raises an error naming the offending element when any invariant fails:
    node names that are not strings, edge rows that are not EdgeSpecs or
    (tail, head, capacity, cost) sequences, duplicate or self-loop edges,
    endpoints outside the node set, negative capacities or costs, or
    source equal to sink.
    """
    names = list(nodes)
    _check_names([*names, source, sink])
    node_set = frozenset(names)
    if source == sink:
        raise SourceEqualsSink(f"source and sink are both {source!r}")
    if source not in node_set:
        raise UnknownEndpoint(f"source {source!r} is not a declared node")
    if sink not in node_set:
        raise UnknownEndpoint(f"sink {sink!r} is not a declared node")

    specs = _coerce_edges(edges)
    seen = set()
    for e in specs:
        if e.tail not in node_set:
            raise UnknownEndpoint(f"edge ({e.tail}, {e.head}): unknown node {e.tail!r}")
        if e.head not in node_set:
            raise UnknownEndpoint(f"edge ({e.tail}, {e.head}): unknown node {e.head!r}")
        if e.tail == e.head:
            raise SelfLoop(f"edge ({e.tail}, {e.head}) is a self-loop")
        if (e.tail, e.head) in seen:
            raise DuplicateEdge(f"more than one edge from {e.tail!r} to {e.head!r}")
        seen.add((e.tail, e.head))
        # Both values are Fractions by now, whose sign is their numerator's.
        if e.capacity.numerator < 0:
            raise NegativeCapacity(
                f"edge ({e.tail}, {e.head}) has capacity {e.capacity}"
            )
        if e.cost.numerator < 0:
            raise NegativeCost(f"edge ({e.tail}, {e.head}) has cost {e.cost}")

    return Network(node_set, tuple(specs), source, sink)


def _fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name = "_" + name
    return name


def normalize_terminals(
    nodes: Iterable,
    edges: Iterable,
    sources: Iterable,
    sinks: Iterable,
) -> Network:
    """Collapse a multi-source / multi-sink candidate into a single-terminal
    network.

    A super-source is wired to every original source (and every original
    sink to a super-sink) with zero-cost edges whose capacity is the sum of
    all original capacities plus one, a finite bound that can never bind.
    A candidate that already has exactly one source and one sink is
    returned unchanged, with no super-nodes added.
    """
    sources, sinks = list(sources), list(sinks)
    _check_names([*sources, *sinks])
    source_list = sorted(set(sources))
    sink_list = sorted(set(sinks))
    if not source_list or not sink_list:
        raise EmptyTerminalSet("source set and sink set must both be nonempty")
    overlap = set(source_list) & set(sink_list)
    if overlap:
        raise SourceEqualsSink(
            f"nodes {sorted(overlap)} appear as both source and sink"
        )

    if len(source_list) == 1 and len(sink_list) == 1:
        return make_network(nodes, edges, source_list[0], sink_list[0])

    names = list(nodes)  # in the caller's order, for make_network's name check
    specs = _coerce_edges(edges)
    bound = sum((e.capacity for e in specs), ZERO) + 1

    edge_rows = [(e.tail, e.head, e.capacity, e.cost) for e in specs]
    source = source_list[0]
    if len(source_list) > 1:
        source = _fresh_name("super_source", names)
        names.append(source)
        for original in source_list:
            edge_rows.append((source, original, bound, ZERO))
    sink = sink_list[0]
    if len(sink_list) > 1:
        sink = _fresh_name("super_sink", names)
        names.append(sink)
        for original in sink_list:
            edge_rows.append((original, sink, bound, ZERO))

    return make_network(names, edge_rows, source, sink)


# ---------------------------------------------------------------------------
# JSON surface
# ---------------------------------------------------------------------------

def network_from_json(data) -> Network:
    """Build a network from its JSON form.

    Accepts either a JSON string or an already-parsed dict with keys
    ``nodes``, ``edges`` and either ``source``/``sink`` scalars or
    ``sources``/``sinks`` lists (normalized via super-terminals). Edge
    capacities and costs are exact rational strings or integers.
    """
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, an integer literal past the interpreter's
            # int-conversion digit limit, or nesting past its recursion limit
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("network JSON must be an object")

    try:
        nodes = data["nodes"]
        raw_edges = data["edges"]
    except KeyError as exc:
        raise ParseError(f"network JSON is missing key {exc.args[0]!r}") from exc
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise ParseError("'nodes' must be a list of strings")
    if not isinstance(raw_edges, list):
        raise ParseError("'edges' must be a list")

    edges = []
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            raise ParseError(f"edge #{i} must be an object")
        try:
            edges.append((entry["from"], entry["to"], entry["capacity"], entry["cost"]))
        except KeyError as exc:
            raise ParseError(f"edge #{i} is missing key {exc.args[0]!r}") from exc
        if not isinstance(entry["from"], str) or not isinstance(entry["to"], str):
            raise ParseError(f"edge #{i}: 'from' and 'to' must be strings")

    if "sources" in data or "sinks" in data:
        sources = _terminal_list(data, "sources", "source")
        sinks = _terminal_list(data, "sinks", "sink")
        return normalize_terminals(nodes, edges, sources, sinks)

    try:
        source = data["source"]
        sink = data["sink"]
    except KeyError as exc:
        raise ParseError(f"network JSON is missing key {exc.args[0]!r}") from exc
    if not isinstance(source, str) or not isinstance(sink, str):
        raise ParseError("'source' and 'sink' must be strings")
    return make_network(nodes, edges, source, sink)


def _terminal_list(data: dict, plural: str, singular: str) -> list:
    """The terminals listed under ``plural``, else the one named under
    ``singular``, else none."""
    if plural in data:
        names = data[plural]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ParseError(f"'{plural}' must be a list of strings")
        return names
    if singular not in data:
        return []
    if not isinstance(data[singular], str):
        raise ParseError(f"'{singular}' must be a string")
    return [data[singular]]


def network_to_json(net: Network) -> dict:
    """Serialize a network to the dict form accepted by network_from_json."""
    return {
        "nodes": sorted(net.nodes),
        "source": net.source,
        "sink": net.sink,
        "edges": [
            {
                "from": e.tail,
                "to": e.head,
                "capacity": str(e.capacity),
                "cost": str(e.cost),
            }
            for e in net.edges
        ],
    }
