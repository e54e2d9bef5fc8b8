import math
import random
from fractions import Fraction

import pytest

from flowgame import (
    DuplicateEdge,
    EdgeSpec,
    EmptyTerminalSet,
    NegativeCapacity,
    NegativeCost,
    ParseError,
    SelfLoop,
    SourceEqualsSink,
    UnknownEndpoint,
    make_network,
    network_from_json,
    network_to_json,
    normalize_terminals,
    parse_rational,
)
from flowgame.errors import NetworkValidationError
from flowgame.flows import max_flow
from flowgame.rational import to_integers

from conftest import FIXTURES


def test_nine_edge_fixture_accepted(triple_cut_net):
    assert len(triple_cut_net.edges) == 9
    assert triple_cut_net.source == "s"
    assert triple_cut_net.sink == "t"


def test_negative_capacity_rejected():
    with pytest.raises(NegativeCapacity, match=r"\(s, t\)"):
        make_network(["s", "t"], [("s", "t", -1, 0)], "s", "t")


def test_negative_cost_rejected():
    with pytest.raises(NegativeCost, match=r"\(s, t\)"):
        make_network(["s", "t"], [("s", "t", 1, "-1/2")], "s", "t")


def test_source_equals_sink_rejected():
    with pytest.raises(SourceEqualsSink):
        make_network(["s"], [], "s", "s")


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge, match="'s' to 't'"):
        make_network(["s", "t"], [("s", "t", 1, 1), ("s", "t", 2, 2)], "s", "t")


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        make_network(["s", "t"], [("s", "s", 1, 1)], "s", "t")


def test_unknown_endpoint_rejected():
    with pytest.raises(UnknownEndpoint, match="'x'"):
        make_network(["s", "t"], [("s", "x", 1, 1)], "s", "t")
    with pytest.raises(UnknownEndpoint, match="source"):
        make_network(["a", "t"], [], "s", "t")


def test_parse_rational_forms():
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("3") == Fraction(3)
    assert parse_rational(" -2 ") == Fraction(-2)
    assert parse_rational(4) == Fraction(4)


@pytest.mark.parametrize("bad", ["1.5", "1e3", 1.5, "", "a/b", "1/0", True, None])
def test_parse_rational_rejects_inexact(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


# ---------------------------------------------------------------------------
# Edge values: each distinct string is parsed once per network
# ---------------------------------------------------------------------------

NODES = ["s", "a", "b", "c", "t"]


def edge_error(kind, edges) -> str:
    with pytest.raises(kind) as caught:
        make_network(NODES, edges, "s", "t")
    return str(caught.value)


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "capacity of edge (c, t) must be a rational number, got a boolean"),
        (1.0, "capacity of edge (c, t) must be an exact rational such as '3' or "
              "'7/2'; floats like 1.0 are not accepted because results are "
              "decided by exact equality"),
        ([1], "capacity of edge (c, t) must be a rational number, got list"),
    ],
)
def test_non_strings_are_checked_after_equal_strings(value, message):
    # True == 1 == 1.0 and they hash alike, so "1" parsed on earlier edges
    # must not stand in for them
    edges = [("s", "a", "1", "1"), ("a", "b", "1", 1), ("b", "c", 1, "1"),
             ("c", "t", value, 0)]
    assert edge_error(ParseError, edges) == message
    edges[3] = ("c", "t", 1, value)
    assert edge_error(ParseError, edges) == message.replace("capacity", "cost")


@pytest.mark.parametrize("text", ["1.5", "-"])
def test_a_repeated_bad_string_fails_at_its_first_edge(text):
    edges = [("s", "a", "2", "1"), ("a", "b", text, "1"), ("b", "c", "2", text),
             ("c", "t", text, "1")]
    assert edge_error(ParseError, edges) == (
        f"capacity of edge (a, b) must be an exact rational such as '3' or "
        f"'7/2', got {text!r}"
    )


def test_a_shared_negative_cost_names_its_first_edge():
    edges = [("s", "a", "2", "0"), ("a", "b", "2", "-1"), ("b", "c", "2", "-1"),
             ("c", "t", "2", "-1")]
    assert edge_error(NegativeCost, edges) == "edge (a, b) has cost -1"


def test_equal_values_in_every_form_parse_alike():
    forms = ["3/2", " 3/2", 3, Fraction(3, 2)]
    edges = [(tail, head, form, form)
             for tail, head, form in zip(NODES, NODES[1:], forms)]
    net = make_network(NODES, edges, "s", "t")
    expected = [Fraction(3, 2), Fraction(3, 2), Fraction(3), Fraction(3, 2)]
    assert [e.capacity for e in net.edges] == expected
    assert [e.cost for e in net.edges] == expected
    assert all(type(e.capacity) is Fraction for e in net.edges)
    # the memo lives for one call: another network reads its own strings
    other = make_network(["s", "t"], [("s", "t", "3/2", "7")], "s", "t")
    assert (other.edges[0].capacity, other.edges[0].cost) == (Fraction(3, 2), 7)


# ---------------------------------------------------------------------------
# Sign checks: on the numerator of the parsed Fraction
# ---------------------------------------------------------------------------

def one_edge_network(route, capacity, cost):
    """A network whose edge (s, t) carries the given values, built by one
    of the routes a value can take into ``make_network``."""
    if route == "tuple":
        return make_network(["s", "t"], [("s", "t", capacity, cost)], "s", "t")
    if route == "EdgeSpec":
        edge = EdgeSpec(0, "s", "t", capacity, cost)
        return make_network(["s", "t"], [edge], "s", "t")
    if route == "one terminal each":
        return normalize_terminals(
            ["s", "t"], [("s", "t", capacity, cost)], sources=["s"], sinks=["t"]
        )
    # two sources: normalize_terminals coerces the edges itself first
    return normalize_terminals(
        ["s", "u", "t"],
        [("s", "t", capacity, cost), ("u", "t", 1, 0)],
        sources=["s", "u"],
        sinks=["t"],
    )


ROUTES = ["tuple", "EdgeSpec", "one terminal each", "two sources"]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize(
    "capacity, cost, kind, message",
    [
        (Fraction(-1, 3), 0, NegativeCapacity, "edge (s, t) has capacity -1/3"),
        (1, Fraction(-1, 3), NegativeCost, "edge (s, t) has cost -1/3"),
    ],
)
def test_negative_fractions_are_rejected_by_every_route(route, capacity, cost, kind, message):
    with pytest.raises(kind) as caught:
        one_edge_network(route, capacity, cost)
    assert str(caught.value) == message


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("zero", ["0", "-0", "0/7", 0, Fraction(0)])
def test_zero_in_every_form_is_accepted(route, zero):
    net = one_edge_network(route, zero, zero)
    edge = next(e for e in net.edges if (e.tail, e.head) == ("s", "t"))
    assert (edge.capacity, edge.cost) == (0, 0)
    assert type(edge.capacity) is Fraction and type(edge.cost) is Fraction


# ---------------------------------------------------------------------------
# Scaling rationals to integers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "values",
    [
        [Fraction(3), Fraction(-2), Fraction(0)],
        [Fraction(0)],
        [7, -1, 0],
        [Fraction(-5), 4],
    ],
)
def test_to_integers_returns_integers_as_they_are(values):
    scale, scaled = to_integers(values)
    assert (scale, scaled) == (1, tuple(int(v) for v in values))
    assert type(scaled) is tuple
    assert all(type(x) is int for x in scaled)


def test_to_integers_of_nothing():
    assert to_integers([]) == (1, ())


def test_to_integers_scales_mixed_lists():
    assert to_integers([Fraction(1, 2), 3, Fraction(-2, 3)]) == (6, (3, 18, -4))
    rng = random.Random(3)
    for _ in range(100):
        values = [
            Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6]))
            for _ in range(rng.randint(1, 6))
        ]
        scale = math.lcm(*(v.denominator for v in values))
        scaled = tuple(v.numerator * (scale // v.denominator) for v in values)
        assert to_integers(values) == (scale, scaled)


def test_json_round_trip_is_identity(triple_cut_net):
    again = network_from_json(network_to_json(triple_cut_net))
    assert again == triple_cut_net


def test_json_rejects_float_capacity():
    with pytest.raises(ParseError, match="exact rational"):
        network_from_json(
            {
                "nodes": ["s", "t"],
                "source": "s",
                "sink": "t",
                "edges": [{"from": "s", "to": "t", "capacity": 1.5, "cost": "1"}],
            }
        )


def test_json_missing_key():
    with pytest.raises(ParseError, match="'sink'"):
        network_from_json({"nodes": ["s", "t"], "source": "s", "edges": []})


# ---------------------------------------------------------------------------
# Multi-terminal normalization
# ---------------------------------------------------------------------------

def test_single_terminal_input_is_unchanged():
    net = normalize_terminals(
        ["s", "t"], [("s", "t", 2, 1)], sources=["s"], sinks=["t"]
    )
    assert net == make_network(["s", "t"], [("s", "t", 2, 1)], "s", "t")


def test_two_sources_get_one_super_source():
    net = normalize_terminals(
        ["s1", "s2", "m", "t"],
        [("s1", "m", 2, 1), ("s2", "m", 3, 1), ("m", "t", 9, 1)],
        sources=["s1", "s2"],
        sinks=["t"],
    )
    assert net.source == "super_source"
    super_edges = [e for e in net.edges if e.tail == "super_source"]
    assert {e.head for e in super_edges} == {"s1", "s2"}
    assert all(e.cost == 0 for e in super_edges)
    # capacity bound is the original total plus one, so it can never bind
    assert all(e.capacity == 2 + 3 + 9 + 1 for e in super_edges)
    assert net.sink == "t"


def test_empty_terminal_set_rejected():
    with pytest.raises(EmptyTerminalSet):
        normalize_terminals(["s", "t"], [], sources=[], sinks=["t"])


def test_overlapping_terminals_rejected():
    with pytest.raises(SourceEqualsSink):
        normalize_terminals(["s", "t"], [], sources=["s"], sinks=["s", "t"])


def brute_force_min_cut_value(net):
    middle = sorted(net.nodes - {net.source, net.sink})
    best = None
    for mask in range(1 << len(middle)):
        side = {net.source} | {middle[i] for i in range(len(middle)) if mask >> i & 1}
        cap = sum(
            (e.capacity for e in net.edges if e.tail in side and e.head not in side),
            Fraction(0),
        )
        if best is None or cap < best:
            best = cap
    return best


def test_two_source_diamond_flow_equals_source_outflows():
    # Each source can push 2, so the aggregated supply should move 4 units;
    # checked against exhaustive cut enumeration on the normalized graph.
    net = network_from_json(FIXTURES.joinpath("two_source.json").read_text())
    value, _ = max_flow(net)
    assert value == 4
    assert value == brute_force_min_cut_value(net)


def test_collision_safe_super_source_name():
    net = normalize_terminals(
        ["super_source", "a", "z1", "z2"],
        [("super_source", "a", 1, 0), ("a", "z1", 1, 0), ("a", "z2", 1, 0)],
        sources=["super_source", "a"],
        sinks=["z1", "z2"],
    )
    assert net.source == "_super_source"
    assert net.sink == "super_sink"


@pytest.mark.parametrize(
    "build, args, name",
    [
        (make_network, (["s", 1, "t"], [("s", 1, 1, 1), (1, "t", 1, 1)], "s", "t"), "1"),
        (make_network, (["s", "t"], [], None, "t"), "None"),
        (make_network, (["s", "t"], [], "s", ("t",)), "('t',)"),
        (normalize_terminals, (["s", "t"], [], ["s", 1], ["t"]), "1"),
        (normalize_terminals, (["s", "t"], [], ["s"], [2.0, "t"]), "2.0"),
        (normalize_terminals, (["a", "b", 3, "t"], [], ["a", "b"], ["t"]), "3"),
        # names walked in the caller's order, not in the hash-seeded order
        # of a set of bytes
        (make_network, (["s", b"y", b"x", "t"], [], "s", "t"), "b'y'"),
        (normalize_terminals, (["s", b"y", b"x", "t", "u"], [], ["s"], ["t", "u"]), "b'y'"),
        (normalize_terminals, (["s", "t"], [], [b"y", b"x"], ["t"]), "b'y'"),
    ],
    ids=["node", "source", "sink", "sources", "sinks", "multi-terminal nodes",
         "first node", "first node, multi-terminal", "first source"],
)
def test_node_names_must_be_strings(build, args, name):
    with pytest.raises(NetworkValidationError) as excinfo:
        build(*args)
    assert str(excinfo.value) == f"node name {name} is not a string"


@pytest.mark.parametrize(
    "build, args, message",
    [
        (make_network, (["s", "t"], [("s", "t", 1)], "s", "t"),
         "edge #0 is not a (tail, head, capacity, cost) row: ('s', 't', 1)"),
        (make_network, (["s", "t"], [("s", "t", 1, 1), 5], "s", "t"),
         "edge #1 is not a (tail, head, capacity, cost) row: 5"),
        (make_network, (["s", "t"], [None], "s", "t"),
         "edge #0 is not a (tail, head, capacity, cost) row: None"),
        (make_network, (["s", "t"], ["stab"], "s", "t"),
         "edge #0 is not a (tail, head, capacity, cost) row: 'stab'"),
        (make_network, (["s", "t"], [("s", "t", 1, 1, 0)], "s", "t"),
         "edge #0 is not a (tail, head, capacity, cost) row: ('s', 't', 1, 1, 0)"),
        (make_network, (["s", "t"], [("s", ["t"], 1, 1)], "s", "t"),
         "edge #0: node name ['t'] is not a string"),
        (make_network, (["s", "t"], [["s", "t", 1, 1], (1, "t", 1, 1)], "s", "t"),
         "edge #1: node name 1 is not a string"),
        (normalize_terminals, (["a", "b", "t"], [("a", "t", 1, 1), ("b",)], ["a", "b"], ["t"]),
         "edge #1 is not a (tail, head, capacity, cost) row: ('b',)"),
        (normalize_terminals, (["a", "b", "t"], [("a", "t", 1, 1), ("b", None, 1, 1)],
                               ["a", "b"], ["t"]),
         "edge #1: node name None is not a string"),
    ],
    ids=["three items", "bare int", "None", "string", "five items", "list endpoint",
         "int endpoint", "multi-terminal row", "multi-terminal endpoint"],
)
def test_malformed_edge_rows_name_their_index(build, args, message):
    with pytest.raises(NetworkValidationError) as excinfo:
        build(*args)
    assert str(excinfo.value) == message


def test_edge_rows_may_be_lists_tuples_or_edge_specs():
    rows = [["s", "a", 1, 2], ("a", "t", "3/2", 0), EdgeSpec(9, "s", "t", Fraction(1), Fraction(5))]
    net = make_network(["s", "a", "t"], rows, "s", "t")
    assert [tuple(e) for e in net.edges] == [
        (0, "s", "a", 1, 2), (1, "a", "t", Fraction(3, 2), 0), (2, "s", "t", 1, 5)
    ]
