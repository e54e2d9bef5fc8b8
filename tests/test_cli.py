import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from flowgame import (
    GameParams,
    InvalidPath,
    ParseError,
    attack,
    cli,
    enumerate_simple_paths,
    make_network,
    network_from_json,
    network_to_json,
    point_mass,
)
from flowgame.cli import main

from conftest import (
    FIXTURES,
    random_network,
    random_path_flow,
    random_probabilities,
    random_rational_network,
)
from oracles import reached_paths

TRIPLE_CUT = str(FIXTURES / "triple_cut.json")
CHEAP_ROUTING = str(FIXTURES / "cheap_routing.json")
DETOUR = str(FIXTURES / "detour.json")
TWO_SOURCE = str(FIXTURES / "two_source.json")
SRC = Path(__file__).resolve().parents[1] / "src"

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_cheap_routing(capsys):
    code, report, _ = run_json(capsys, "analyze", CHEAP_ROUTING)
    assert code == 0
    assert report["max_flow_value"] == "3"
    assert report["cheapest_path_cost"] == "3"
    assert report["min_transport_cost"] == "9"
    assert report["cheapest_routing"] is True


def test_analyze_triple_cut_min_cut(capsys):
    code, report, _ = run_json(capsys, "analyze", TRIPLE_CUT)
    assert code == 0
    assert sorted(map(tuple, report["min_cut"]["edges"])) == [
        ("1", "3"),
        ("2", "3"),
        ("2", "4"),
    ]
    assert report["min_cut"]["capacity"] == "3"


def test_analyze_detour_witness(capsys):
    code, report, _ = run_json(capsys, "analyze", DETOUR)
    assert code == 0
    assert report["cheapest_routing"] is False
    assert report["routing_witness"]["kind"] == "costly path"
    assert report["routing_witness"]["cost"] == "4"


def test_analyze_disconnected(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(
        json.dumps(
            {"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": []}
        )
    )
    code, report, _ = run_json(capsys, "analyze", str(path))
    assert code == 0
    assert report["max_flow_value"] == "0"
    assert report["cheapest_path_cost"] == "infinite"
    assert report["cheapest_routing"] == "not applicable"


def test_analyze_multi_terminal_file(capsys):
    code, report, _ = run_json(capsys, "analyze", TWO_SOURCE)
    assert code == 0
    assert report["max_flow_value"] == "4"


def test_solve_multi_terminal_contested(capsys):
    # super-source edges are free, so the cheapest path costs 2 and
    # (p1, p2) = (4, 2) lands in the contested region
    code, report, _ = run_json(capsys, "solve", TWO_SOURCE, "--p1", "4", "--p2", "2")
    assert code == 0
    assert report["region"] == "III"
    assert report["verification"]["is_ne"] is True
    assert report["closed_forms"]["yield"] == "1/2"


def test_analyze_text_format(capsys):
    code, out, _ = run(capsys, "analyze", CHEAP_ROUTING)
    assert code == 0
    assert "max_flow_value: 3" in out
    assert "cheapest_routing: true" in out


def test_analyze_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "error" in err


def test_analyze_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "nodes": ["s", "t"],
                "source": "s",
                "sink": "t",
                "edges": [{"from": "s", "to": "t", "capacity": "-1", "cost": "1"}],
            }
        )
    )
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "capacity" in err


def assert_one_line_error(code, err):
    assert code == 2
    assert err.startswith("error: ") and err.endswith("\n")
    assert len(err.splitlines()) == 1


UNIT_EDGE = {"from": "s", "to": "t", "capacity": "1", "cost": "1"}


@pytest.mark.parametrize(
    "fields",
    [
        {"sources": [["s"]], "sink": "t"},
        {"source": "s", "sinks": [["t"]]},
        {"source": ["s"], "sink": "t"},
        {"source": ["s"], "sinks": ["t"]},
        {"sources": "s", "sink": "t"},
        {"source": "s", "sink": "t", "edges": [dict(UNIT_EDGE, to=["t"])]},
    ],
)
def test_analyze_non_string_node_names_exit_2(tmp_path, capsys, fields):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"nodes": ["s", "t"], "edges": [UNIT_EDGE], **fields}))
    code, _, err = run(capsys, "analyze", str(path))
    assert_one_line_error(code, err)
    assert "must be" in err


# past the interpreter's 4300-digit limit on int conversion
HUGE = "1" * 5000


@pytest.mark.parametrize(
    "capacity",
    [json.dumps(HUGE), HUGE, json.dumps(f"1/{HUGE}")],
    ids=["rational-string", "integer-literal", "denominator"],
)
def test_analyze_oversized_number_exits_2(tmp_path, capsys, capacity):
    path = tmp_path / "net.json"
    path.write_text(
        '{"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": '
        f'[{{"from": "s", "to": "t", "capacity": {capacity}, "cost": "1"}}]}}'
    )
    code, _, err = run(capsys, "analyze", str(path))
    assert_one_line_error(code, err)


# Each under the limit, but the closed forms divide by p1 * p2, which has
# about 6000 digits.
DERIVED_HUGE = "9" * 3000


@pytest.mark.parametrize(
    "p1,p2",
    [(HUGE, "2"), ("6", f"1/{HUGE}"), (DERIVED_HUGE, DERIVED_HUGE)],
    ids=["p1", "p2", "derived"],
)
def test_solve_oversized_params_exit_2(capsys, p1, p2):
    code, _, err = run(capsys, "solve", TRIPLE_CUT, "--p1", p1, "--p2", p2)
    assert_one_line_error(code, err)
    assert "too many digits" in err


def test_maximin_oversized_derived_value_exits_2(tmp_path, capsys):
    # the cheapest path costs 1/A + 1/B, whose denominator A * B has about
    # 6000 digits; the attacker certificate's probabilities carry it
    a, b = "9" * 3000, "1" + "0" * 2998 + "1"
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "nodes": ["s", "a", "t"], "source": "s", "sink": "t",
        "edges": [
            {"from": "s", "to": "a", "capacity": "1", "cost": f"1/{a}"},
            {"from": "a", "to": "t", "capacity": "1", "cost": f"1/{b}"},
        ],
    }))
    code, _, err = run(capsys, "maximin", str(path), "--p1", "6", "--p2", "2")
    assert_one_line_error(code, err)
    assert "too many digits" in err


def test_analyze_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_bytes(b'{"nodes": ["s\xff"]}')
    code, _, err = run(capsys, "analyze", str(path))
    assert_one_line_error(code, err)


# A node name with a line feed, and one with every other kind of line break.
BROKEN = "a\nb"
BREAKS = "c\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029d"


@pytest.mark.parametrize(
    "edge, message",
    [
        ({"from": BROKEN, "to": BROKEN, "capacity": "1", "cost": "1"}, "is a self-loop"),
        ({"from": BROKEN, "to": "t", "capacity": "-1", "cost": "1"}, "has capacity -1"),
        ({"from": BROKEN, "to": "t", "capacity": "1", "cost": "-1"}, "has cost -1"),
        ({"from": BROKEN, "to": "t", "capacity": "1/0", "cost": "1"}, "zero denominator"),
        ({"from": BROKEN, "to": "t", "capacity": "x", "cost": "1"}, "capacity of edge"),
    ],
    ids=["self-loop", "negative capacity", "negative cost", "capacity", "capacity shape"],
)
def test_line_breaks_in_node_names_stay_on_the_error_line(tmp_path, capsys, edge, message):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "nodes": ["s", "t", BROKEN],
        "source": "s",
        "sink": "t",
        "edges": [{"from": "s", "to": BROKEN, "capacity": "1", "cost": "1"}, edge],
    }))
    code, out, err = run(capsys, "analyze", str(path))
    assert out == ""
    assert_one_line_error(code, err)
    assert "a\\nb" in err and message in err


@pytest.mark.parametrize("name", [BROKEN, BREAKS])
def test_line_breaks_in_capacity_exceeded_stay_on_the_error_line(tmp_path, capsys, name):
    network = tmp_path / "net.json"
    network.write_text(json.dumps({
        "nodes": ["s", "t", name],
        "source": "s",
        "sink": "t",
        "edges": [
            {"from": "s", "to": name, "capacity": "1", "cost": "1"},
            {"from": name, "to": "t", "capacity": "1", "cost": "1"},
        ],
    }))
    profile = write_profile(
        tmp_path,
        "profile.json",
        [{"prob": "1", "flow": {"paths": [{"nodes": ["s", name, "t"], "amount": "2"}]}}],
        [{"prob": "1", "attack": []}],
    )
    code, out, err = run(capsys, "verify", str(network), profile, "--p1", "6", "--p2", "2")
    assert out == ""
    assert_one_line_error(code, err)
    escaped = name.encode("unicode_escape").decode("ascii")
    assert f"edge (s, {escaped}) carries 2 but has capacity 1" in err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def write_unit_chain(tmp_path, count):
    """A path of ``count`` nodes from s to t, every edge of capacity 1 and
    cost 1."""
    nodes = ["s", *(f"v{i}" for i in range(count - 2)), "t"]
    edges = [
        {"from": a, "to": b, "capacity": "1", "cost": "1"}
        for a, b in zip(nodes, nodes[1:])
    ]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": edges, "source": "s", "sink": "t"}))
    return str(path)


def test_solve_checks_every_min_cut_of_a_20_node_chain(tmp_path, capsys):
    # each of the 19 edges is a min-cut on its own
    chain = write_unit_chain(tmp_path, 20)
    code, report, _ = run_json(capsys, "solve", chain, "--p1", "40", "--p2", "2")
    assert code == 0
    checks = {c["name"]: c for c in report["verification"]["property_checks"]}
    loads = checks["min-cut edge loads equal capacity over p2"]
    assert loads == {
        "name": "min-cut edge loads equal capacity over p2",
        "status": "pass",
        "detail": "checked 19 min-cut(s)",
    }
    assert {c["status"] for c in checks.values()} == {"pass"}


def test_solve_ignores_isolated_nodes(tmp_path, capsys):
    # 30 isolated nodes give 2^30 node partitions for each min-cut, all
    # crossing the same edges
    net = json.loads(Path(TRIPLE_CUT).read_text())
    net["nodes"] += [f"x{i}" for i in range(30)]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net))
    code, report, _ = run_json(capsys, "solve", str(path), "--p1", "6", "--p2", "2")
    assert code == 0
    checks = {c["name"]: c for c in report["verification"]["property_checks"]}
    assert checks["min-cut edge loads equal capacity over p2"]["detail"] == "checked 1 min-cut(s)"
    assert {c["status"] for c in checks.values()} == {"pass"}


def test_solve_long_chain_exits_5(tmp_path, capsys):
    # path enumeration goes 1500 nodes deep; the 1499 loaded edges then
    # exceed the attack budget
    chain = write_unit_chain(tmp_path, 1500)
    code, out, err = run(capsys, "solve", chain, "--p1", "2000", "--p2", "2")
    assert code == 5
    assert out == ""
    assert err == "error: 1499 candidate edges exceed the attack budget of 20\n"


def test_solve_contested_region(capsys):
    code, report, _ = run_json(
        capsys, "solve", TRIPLE_CUT, "--p1", "6", "--p2", "2"
    )
    assert code == 0
    assert report["region"] == "III"
    probs1 = [entry["prob"] for entry in report["equilibrium"]["p1_strategy"]]
    probs2 = [entry["prob"] for entry in report["equilibrium"]["p2_strategy"]]
    assert probs1 == ["1/2", "1/2"]
    assert probs2 == ["1/2", "1/2"]
    closed = report["closed_forms"]
    assert closed["expected_initial_flow"] == "3/2"
    assert closed["expected_transport_cost"] == "9/2"
    assert closed["expected_attack_cost"] == "3/2"
    assert closed["expected_effective_flow"] == "3/4"
    assert closed["expected_lost_flow"] == "3/4"
    assert closed["yield"] == "1/2"
    assert report["verification"]["is_ne"] is True
    assert report["verification"]["router_gap"] == "0"
    assert report["verification"]["attacker_gap"] == "0"


def test_solve_region_one(capsys):
    code, report, _ = run_json(capsys, "solve", TRIPLE_CUT, "--p1", "2", "--p2", "5")
    assert code == 0
    assert report["region"] == "I"
    assert report["equilibrium"]["provenance"] == "no-action"
    assert report["verification"]["router_payoff"] == "0"
    assert report["verification"]["attacker_payoff"] == "0"
    assert report["closed_forms"] is None


def test_solve_region_two_payoff(capsys):
    code, report, _ = run_json(
        capsys, "solve", TRIPLE_CUT, "--p1", "6", "--p2", "1/2"
    )
    assert code == 0
    assert report["region"] == "II"
    assert report["verification"]["router_payoff"] == "9"


def test_solve_detour_net_exits_3(capsys):
    code, out, err = run(capsys, "solve", DETOUR, "--p1", "7/2", "--p2", "2")
    assert code == 3
    assert "cheapest" in err


def test_solve_boundary_exits_4_with_both_profiles(capsys):
    code, report, _ = run_json(
        capsys, "solve", TRIPLE_CUT, "--p1", "3", "--p2", "1/2"
    )
    assert code == 4
    assert report["region"] == "boundary"
    assert len(report["equilibria"]) == 2


def test_solve_rejects_float_params(capsys):
    code, _, err = run(capsys, "solve", TRIPLE_CUT, "--p1", "1.5", "--p2", "2")
    assert code == 2
    assert "exact rational" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def write_profile(tmp_path, name, p1_strategy, p2_strategy):
    path = tmp_path / name
    path.write_text(
        json.dumps({"p1_strategy": p1_strategy, "p2_strategy": p2_strategy})
    )
    return str(path)


def x_star_paths():
    return [
        {"nodes": ["s", "1", "3", "t"], "amount": "1"},
        {"nodes": ["s", "2", "3", "t"], "amount": "1"},
        {"nodes": ["s", "2", "4", "t"], "amount": "1"},
    ]


def test_verify_solve_output_round_trip(tmp_path, capsys):
    code, report, _ = run_json(capsys, "solve", TRIPLE_CUT, "--p1", "6", "--p2", "2")
    assert code == 0
    profile = {
        "p1_strategy": report["equilibrium"]["p1_strategy"],
        "p2_strategy": report["equilibrium"]["p2_strategy"],
    }
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    code, verification, _ = run_json(
        capsys, "verify", TRIPLE_CUT, str(path), "--p1", "6", "--p2", "2"
    )
    assert code == 0
    assert verification["is_ne"] is True
    names = {check["name"]: check["status"] for check in verification["property_checks"]}
    assert all(status == "pass" for status in names.values())
    assert len(names) == 8


def test_verify_pure_profile_fails(tmp_path, capsys):
    profile = write_profile(
        tmp_path,
        "pure.json",
        [{"prob": "1", "flow": {"paths": x_star_paths()}}],
        [{"prob": "1", "attack": [["1", "3"], ["2", "3"], ["2", "4"]]}],
    )
    code, report, _ = run_json(
        capsys, "verify", TRIPLE_CUT, profile, "--p1", "6", "--p2", "2"
    )
    assert code == 1
    assert report["is_ne"] is False
    assert F(report["router_gap"]) > 0


def test_verify_detour_profile(tmp_path, capsys):
    profile = write_profile(
        tmp_path,
        "detour.json",
        [
            {"prob": "1/2", "flow": {"paths": []}},
            {
                "prob": "1/2",
                "flow": {"paths": [{"nodes": ["s", "1", "2", "t"], "amount": "1"}]},
            },
        ],
        [
            {"prob": "6/7", "attack": []},
            {"prob": "1/7", "attack": [["1", "2"]]},
        ],
    )
    code, report, _ = run_json(
        capsys, "verify", DETOUR, profile, "--p1", "7/2", "--p2", "2"
    )
    assert code == 0
    assert report["is_ne"] is True


def test_verify_malformed_profile_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("[1, 2")
    code, _, err = run(capsys, "verify", TRIPLE_CUT, str(path), "--p1", "6", "--p2", "2")
    assert code == 2


# Malformed router paths, then malformed attacks. The bare string was read
# as the path s, 1, 3, t.
MALFORMED_PATHS = {
    "paths not a list": 5,
    "nodes not a list": [{"nodes": 5, "amount": "1"}],
    "nodes a bare string": [{"nodes": "s13t", "amount": "1"}],
}
MALFORMED_ATTACKS = {
    "attack entry not a pair": [5],
    "attack pair of one": [["s"]],
    "attack pair with a list": [[["s"], "1"]],
}


@pytest.mark.parametrize("shape", [*MALFORMED_PATHS, *MALFORMED_ATTACKS])
def test_malformed_profile_shape_exits_2(tmp_path, capsys, shape):
    p1 = [{"prob": "1", "flow": {"paths": MALFORMED_PATHS.get(shape, x_star_paths())}}]
    p2 = [{"prob": "1", "attack": MALFORMED_ATTACKS.get(shape, [])}]
    profile = write_profile(tmp_path, "profile.json", p1, p2)
    # best-response reads only the opponent's side: the router's for player 2
    player = "2" if shape in MALFORMED_PATHS else "1"
    for argv in (["verify", TRIPLE_CUT, profile],
                 ["best-response", TRIPLE_CUT, profile, "--player", player]):
        code, out, err = run(capsys, *argv, "--p1", "6", "--p2", "2")
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_loopy_profile_exits_2(tmp_path, capsys):
    network = tmp_path / "cyclic.json"
    network.write_text(
        json.dumps(
            {
                "nodes": ["s", "a", "b", "t"],
                "source": "s",
                "sink": "t",
                "edges": [
                    {"from": "s", "to": "a", "capacity": "2", "cost": "1"},
                    {"from": "a", "to": "b", "capacity": "1", "cost": "1"},
                    {"from": "b", "to": "a", "capacity": "1", "cost": "1"},
                    {"from": "a", "to": "t", "capacity": "2", "cost": "1"},
                ],
            }
        )
    )
    profile = write_profile(
        tmp_path,
        "loopy.json",
        [
            {
                "prob": "1",
                "flow": {
                    "paths": [
                        {"nodes": ["s", "a", "b", "a", "t"], "amount": "1"},
                    ]
                },
            }
        ],
        [{"prob": "1", "attack": []}],
    )
    code, _, err = run(capsys, "verify", str(network), profile, "--p1", "6", "--p2", "2")
    assert code == 2
    assert "revisits" in err


def test_verify_bad_probabilities_exit_2(tmp_path, capsys):
    profile = write_profile(
        tmp_path,
        "halfsum.json",
        [{"prob": "1/2", "flow": {"paths": x_star_paths()}}],
        [{"prob": "1", "attack": []}],
    )
    code, _, err = run(capsys, "verify", TRIPLE_CUT, profile, "--p1", "6", "--p2", "2")
    assert code == 2
    assert "sum" in err


# Each under the input digit limit, but a sum of the two has a denominator
# of about 4400 digits, which the error message cannot print.
TINY_A, TINY_B = 10**2200 + 1, 10**2199 + 3


def test_verify_oversized_probability_sum_exits_2(tmp_path, capsys):
    profile = write_profile(
        tmp_path,
        "tiny.json",
        [
            {"prob": f"1/{TINY_A}", "flow": {"paths": []}},
            {"prob": f"1/{TINY_B}", "flow": {"paths": x_star_paths()}},
        ],
        [{"prob": "1", "attack": []}],
    )
    code, _, err = run(capsys, "verify", TRIPLE_CUT, profile, "--p1", "6", "--p2", "2")
    assert_one_line_error(code, err)
    assert "probability sum has too many digits" in err


def test_verify_oversized_edge_overload_exits_2(tmp_path, capsys):
    # the two paths put 1 - 1/A + 1/B > 1 on the unit edge (s, 1)
    paths = [
        {"nodes": ["s", "1", "3", "t"], "amount": f"{TINY_A - 1}/{TINY_A}"},
        {"nodes": ["s", "1", "t"], "amount": f"1/{TINY_B}"},
    ]
    profile = write_profile(
        tmp_path,
        "overload.json",
        [{"prob": "1", "flow": {"paths": paths}}],
        [{"prob": "1", "attack": []}],
    )
    code, _, err = run(capsys, "verify", CHEAP_ROUTING, profile, "--p1", "6", "--p2", "2")
    assert_one_line_error(code, err)
    assert "flow on an edge has too many digits" in err


def test_verify_budget_exceeded_exits_5(tmp_path, capsys):
    profile = write_profile(
        tmp_path,
        "budget.json",
        [{"prob": "1", "flow": {"paths": x_star_paths()}}],
        [{"prob": "1", "attack": []}],
    )
    code, _, err = run(
        capsys,
        "verify",
        TRIPLE_CUT,
        profile,
        "--p1",
        "6",
        "--p2",
        "2",
        "--max-paths",
        "2",
    )
    assert code == 5
    assert "budget" in err or "paths" in err


@pytest.mark.parametrize("command", ["verify", "best-response"])
def test_path_budget_counts_the_paths_the_walk_reaches(tmp_path, capsys, command):
    # the complete mesh on s, t and four inner nodes has 65 simple s-t
    # paths. An attack of probability 1 on s->a and b->t leaves no path
    # through s->a worth anything, so the router's walk never extends that
    # prefix; the paths it reaches at the sink, b->t ones included, are
    # the budget's count: a budget of k admits them and k - 1 stops the
    # router at the last one
    nodes = ["s", "t", "a", "b", "c", "d"]
    net = make_network(
        nodes, [(tail, head, 1, 1) for tail in nodes for head in nodes if tail != head], "s", "t"
    )
    assert len(enumerate_simple_paths(net, 5000)) == 65
    hit = [("s", "a"), ("b", "t")]
    k = len(reached_paths(net, point_mass(attack(net, hit)), GameParams(F(9), F(2))))
    assert 1 < k < 65
    net_file = tmp_path / "mesh.json"
    net_file.write_text(json.dumps(network_to_json(net)))
    profile = write_profile(
        tmp_path,
        "zero.json",
        [{"prob": "1", "flow": {"paths": []}}],
        [{"prob": "1", "attack": [list(pair) for pair in hit]}],
    )
    argv = [command, str(net_file), profile, "--p1", "9", "--p2", "2"]
    if command == "best-response":
        argv += ["--player", "1"]
    code, out, err = run(capsys, *argv, "--max-paths", str(k))
    assert code in (0, 1) and out and err == ""
    code, out, err = run(capsys, *argv, "--max-paths", str(k - 1))
    assert (code, out) == (5, "")
    assert err == f"error: more than {k - 1} simple source-sink paths; raise the budget\n"


@pytest.mark.parametrize("flag", ["--max-paths", "--max-attack-edges"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_negative_budgets_exit_2(tmp_path, capsys, command, flag):
    # Region I: the zero flow against the empty attack. A zero budget is
    # valid. Every edge costs 1, so at p1 = 1 no path prefix pays, the
    # router's walk reaches no path and Region I answers. At p1 = 6 paths
    # pay, and the zero path budget stops the router's best response.
    argv = [command, TRIPLE_CUT, "--p1", "1", "--p2", "2"]
    if command == "verify":
        argv.append(write_profile(
            tmp_path,
            "zero.json",
            [{"prob": "1", "flow": {"paths": []}}],
            [{"prob": "1", "attack": []}],
        ))
    code, out, err = run(capsys, *argv, flag, "-1")
    assert out == ""
    assert_one_line_error(code, err)
    assert err == f"error: {flag} must be nonnegative, got -1\n"
    code, out, err = run(capsys, *argv, flag, "0")
    assert (code, err) == (0, "") and out
    if flag == "--max-paths":
        argv[argv.index("--p1") + 1] = "6"
        code, out, err = run(capsys, *argv, flag, "0")
        assert (code, out) == (5, "")
        assert err == "error: more than 0 simple source-sink paths; raise the budget\n"


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["solve", TRIPLE_CUT, "--p1", "6"], "required: --p2"),
        (["solve", TRIPLE_CUT, "--p1", "6", "--p2", "2", "--bogus"], "unrecognized arguments: --bogus"),
        (["analyze", TRIPLE_CUT, "--max-paths", "5"], "unrecognized arguments: --max-paths 5"),
        (["analyze", TRIPLE_CUT, "--max-attack-edges", "-4"], "unrecognized arguments"),
        (
            ["best-response", TRIPLE_CUT, "x.json", "--player", "3", "--p1", "6", "--p2", "2"],
            "argument --player: invalid choice",
        ),
        (["maximin", TRIPLE_CUT, "--p1", "6", "--p2", "2", "--max-paths", "x"], "--max-paths"),
        ([], "required: command"),
    ],
)
def test_usage_errors_print_one_line(capsys, argv, fragment):
    # argparse's message, without its usage block, on the one error line
    code, out, err = run(capsys, *argv)
    assert out == ""
    assert_one_line_error(code, err)
    assert fragment in err


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: flowgame solve")
    assert "--max-paths" in out and "--max-attack-edges" in out


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["analyze", TRIPLE_CUT]) == 0
    finally:
        cli._parser.cache_clear()
    assert calls == [1]


# ---------------------------------------------------------------------------
# best-response
# ---------------------------------------------------------------------------

def test_best_response_attacker_vs_optimal_flow(tmp_path, capsys):
    opponent = tmp_path / "router.json"
    opponent.write_text(
        json.dumps({"p1_strategy": [{"prob": "1", "flow": {"paths": x_star_paths()}}]})
    )
    code, report, _ = run_json(
        capsys,
        "best-response",
        TRIPLE_CUT,
        str(opponent),
        "--player",
        "2",
        "--p1",
        "6",
        "--p2",
        "2",
    )
    assert code == 0
    assert report["value"] == "3"
    assert sorted(map(tuple, report["attack"])) == [("1", "3"), ("2", "3"), ("2", "4")]


def test_best_response_router_vs_no_attack(tmp_path, capsys):
    opponent = tmp_path / "attacker.json"
    opponent.write_text(json.dumps({"p2_strategy": [{"prob": "1", "attack": []}]}))
    code, report, _ = run_json(
        capsys,
        "best-response",
        TRIPLE_CUT,
        str(opponent),
        "--player",
        "1",
        "--p1",
        "6",
        "--p2",
        "2",
    )
    assert code == 0
    assert report["value"] == "9"
    assert report["flow"]["value"] == "3"


def test_best_response_router_vs_everything(tmp_path, capsys):
    pairs = [["2", "1"], ["4", "3"], ["s", "1"], ["2", "3"], ["s", "2"],
             ["1", "3"], ["2", "4"], ["3", "t"], ["4", "t"]]
    opponent = tmp_path / "attacker.json"
    opponent.write_text(json.dumps({"p2_strategy": [{"prob": "1", "attack": pairs}]}))
    code, report, _ = run_json(
        capsys,
        "best-response",
        TRIPLE_CUT,
        str(opponent),
        "--player",
        "1",
        "--p1",
        "6",
        "--p2",
        "2",
    )
    assert code == 0
    assert report["value"] == "0"
    assert report["flow"]["paths"] == []


# ---------------------------------------------------------------------------
# maximin
# ---------------------------------------------------------------------------

def test_maximin_contested(capsys):
    code, report, _ = run_json(capsys, "maximin", TRIPLE_CUT, "--p1", "6", "--p2", "2")
    assert code == 0
    assert report["router_maximin"]["value"] == "0"
    assert report["router_maximin"]["action"] == "zero flow"
    assert report["attacker_maximin"]["value"] == "0"
    assert report["attacker_maximin"]["action"] == "empty attack"
    certs = report["minimax_certificates"]
    assert certs["router_side"]["best_response_value"] == "0"
    assert certs["attacker_side"]["best_response_value"] == "0"


def test_maximin_region_one(capsys):
    code, report, _ = run_json(capsys, "maximin", TRIPLE_CUT, "--p1", "2", "--p2", "5")
    assert code == 0
    assert report["router_maximin"]["value"] == "0"
    assert report["attacker_maximin"]["value"] == "0"


def test_maximin_path_budget_exits_5(capsys):
    # the router-side certificate is checked by enumerating paths
    code, out, err = run(
        capsys, "maximin", TRIPLE_CUT, "--p1", "6", "--p2", "2", "--max-paths", "2"
    )
    assert code == 5
    assert out == ""
    assert err.startswith("error: more than 2 simple source-sink paths")
    assert err.count("\n") == 1


def test_maximin_attack_budget_exits_5(capsys):
    # the attacker-side certificate is checked against 7 loaded edges
    code, out, err = run(
        capsys, "maximin", TRIPLE_CUT, "--p1", "6", "--p2", "2", "--max-attack-edges", "1"
    )
    assert code == 5
    assert out == ""
    assert err == "error: 7 candidate edges exceed the attack budget of 1\n"


def test_maximin_detour_without_certificates(capsys):
    code, report, _ = run_json(capsys, "maximin", DETOUR, "--p1", "7/2", "--p2", "2")
    assert code == 0
    assert report["router_maximin"]["value"] == "0"
    assert report["attacker_maximin"]["value"] == "0"
    assert report["minimax_certificates"] is None
    assert "cheapest" in report["minimax_note"]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_json_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "solve", TRIPLE_CUT, "--p1", "6", "--p2", "2",
                      "--format", "json")
    _, second, _ = run(capsys, "solve", TRIPLE_CUT, "--p1", "6", "--p2", "2",
                       "--format", "json")
    assert first == second


def run_child(argv, hash_seed):
    """Run ``python -m flowgame.cli`` on this checkout's src under the
    given ``PYTHONHASHSEED``. ``PYTHONDONTWRITEBYTECODE`` is passed on, so
    a run that asks for no bytecode leaves no ``__pycache__`` in src."""
    import os
    import subprocess
    import sys

    # the child imports this checkout's src ahead of any installed copy
    pythonpath = [str(SRC)]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = {
        "PYTHONHASHSEED": hash_seed,
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": os.pathsep.join(pythonpath),
    }
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return subprocess.run(
        [sys.executable, "-m", "flowgame.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_json_output_is_byte_identical_across_processes(capsys):
    # set iteration order depends on the hash seed, so run with two
    # different seeds to prove nothing leaks into the report
    argv = ["solve", TRIPLE_CUT, "--p1", "6", "--p2", "2", "--format", "json"]
    outputs = []
    for seed in ("1", "2"):
        result = run_child(argv, seed)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    # the children ran the code under test, not some other installed copy
    _, in_process, _ = run(capsys, *argv)
    assert outputs[0] == in_process


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command is a fresh process, and these two modules (the first
    # imports the second) cost more to import than the solve itself takes;
    # -S keeps site-packages' own imports out of the child, and -B keeps
    # it from writing bytecode into the checkout
    import subprocess
    import sys

    probe = "import sys, flowgame.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-B", "-c", probe],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def write_random_profile_instance(rng, directory):
    """A seeded random network with a path, a mixed profile over up to two
    random path flows and one to three random attacks, and game
    parameters; returns the network file, the profile file, and the
    ``--p1``/``--p2`` arguments."""
    while True:
        make = random_rational_network if rng.random() < 0.5 else random_network
        net = make(rng, max_internal=5)
        paths = enumerate_simple_paths(net, 5000)
        if paths:
            break
    flows = list(dict.fromkeys(random_path_flow(rng, net, paths) for _ in range(2)))
    attacks = list(dict.fromkeys(
        attack(net, [e.id for e in net.edges if rng.random() < 0.2])
        for _ in range(rng.randint(1, 3))
    ))
    profile = {
        "p1_strategy": [
            {
                "prob": str(prob),
                "flow": {
                    "paths": [
                        {"nodes": list(nodes), "amount": str(amount)}
                        for nodes, amount in flow.paths
                    ]
                },
            }
            for flow, prob in zip(flows, random_probabilities(rng, len(flows)))
        ],
        "p2_strategy": [
            {"prob": str(prob), "attack": [list(pair) for pair in atk.pairs(net)]}
            for atk, prob in zip(attacks, random_probabilities(rng, len(attacks)))
        ],
    }
    net_file = directory / "net.json"
    profile_file = directory / "profile.json"
    net_file.write_text(json.dumps(network_to_json(net)))
    profile_file.write_text(json.dumps(profile))
    params = ["--p1", str(F(rng.randint(2, 30), rng.randint(1, 3))),
              "--p2", str(F(rng.randint(1, 8), rng.randint(1, 3)))]
    return str(net_file), str(profile_file), params


def test_router_output_is_byte_identical_across_hash_seeds(tmp_path):
    # the router's best response builds sets of edge ids; neither its
    # flow nor the verifier's report may depend on their iteration order
    rng = random.Random(909)
    routed = 0
    for index in range(10):
        directory = tmp_path / f"{index:02d}"
        directory.mkdir()
        net, profile, params = write_random_profile_instance(rng, directory)
        for argv in (
            ["verify", net, profile, *params, "--format", "json"],
            ["best-response", net, profile, "--player", "1", *params, "--format", "json"],
        ):
            first, second = (run_child(argv, seed) for seed in ("1", "2"))
            assert first.returncode == second.returncode, argv
            assert first.stdout == second.stdout, argv
            if argv[0] == "best-response":
                assert first.returncode == 0, first.stderr
                routed += bool(json.loads(first.stdout)["flow"]["paths"])
    assert routed >= 5


@pytest.mark.parametrize("command", ["analyze", "solve", "verify"])
def test_one_min_cost_max_flow_per_network(tmp_path, capsys, monkeypatch, command):
    # the min-cost max-flow is also the maximum flow every cut is read
    # from, and its run yields the cheapest path cost and the canonical
    # cut. analyze reaches each stage through the module's global names,
    # which the benchmark's tracer times and the oracle swaps in
    # test_flows replace, so each is counted here: one call per network,
    # and none of the views that rerun the min-cost max-flow.
    import flowgame.flows

    argv = [command, TRIPLE_CUT]
    if command != "analyze":
        argv += ["--p1", "6", "--p2", "2"]
    if command == "verify":
        _, report, _ = run_json(capsys, "solve", *argv[1:])
        argv.insert(2, write_profile(
            tmp_path, "profile.json",
            report["equilibrium"]["p1_strategy"], report["equilibrium"]["p2_strategy"],
        ))
    stages = ("min_cost_max_flow", "decompose")
    views = ("cheapest_path_cost", "max_flow")
    calls = dict.fromkeys((*stages, *views), 0)
    for name in calls:
        def counted(*args, _original=getattr(flowgame.flows, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(flowgame.flows, name, counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == {**dict.fromkeys(stages, 1), **dict.fromkeys(views, 0)}


def test_solve_degenerate_network(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(
        json.dumps({"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": []})
    )
    code, report, _ = run_json(capsys, "solve", str(path), "--p1", "6", "--p2", "2")
    assert code == 0
    assert report["region"] == "degenerate"
    assert report["equilibrium"]["provenance"] == "degenerate-no-route"
    assert report["verification"]["is_ne"] is True


def test_verify_attack_budget_exit_5(tmp_path, capsys):
    profile = write_profile(
        tmp_path,
        "budget2.json",
        [{"prob": "1", "flow": {"paths": x_star_paths()}}],
        [{"prob": "1", "attack": []}],
    )
    code, _, err = run(
        capsys,
        "verify",
        TRIPLE_CUT,
        profile,
        "--p1",
        "6",
        "--p2",
        "2",
        "--max-attack-edges",
        "2",
    )
    assert code == 5
    assert "attack budget" in err


def test_text_and_json_agree_on_values(capsys):
    code, report, _ = run_json(capsys, "analyze", TRIPLE_CUT)
    code2, text, _ = run(capsys, "analyze", TRIPLE_CUT)
    assert code == code2 == 0
    assert f"max_flow_value: {report['max_flow_value']}" in text


def test_readme_profile_example_parses(tmp_path, capsys):
    # the documented wire format, verbatim
    network = tmp_path / "net.json"
    network.write_text(
        json.dumps(
            {
                "nodes": ["s", "1", "t"],
                "source": "s",
                "sink": "t",
                "edges": [
                    {"from": "s", "to": "1", "capacity": "2", "cost": "1"},
                    {"from": "1", "to": "t", "capacity": "3/2", "cost": "1/2"},
                ],
            }
        )
    )
    profile = tmp_path / "profile.json"
    profile.write_text(
        json.dumps(
            {
                "p1_strategy": [
                    {"prob": "1/2", "flow": {"paths": []}},
                    {"prob": "1/2", "flow": {"paths": [
                        {"nodes": ["s", "1", "t"], "amount": "1"}
                    ]}},
                ],
                "p2_strategy": [
                    {"prob": "1/2", "attack": []},
                    {"prob": "1/2", "attack": [["s", "1"]]},
                ],
            }
        )
    )
    code, report, _ = run_json(
        capsys, "verify", str(network), str(profile), "--p1", "6", "--p2", "2"
    )
    assert code in (0, 1)
    assert "is_ne" in report


def layered_network(rng):
    """s -> layer a -> layer b -> t with every edge between neighbouring
    layers, the costs uniform within a layer, so that every path costs
    the same and cheapest routing holds; rational capacities on the
    middle edges."""
    layer_a = [f"a{i}" for i in range(rng.randint(2, 3))]
    layer_b = [f"b{j}" for j in range(rng.randint(2, 3))]
    costs = [F(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(3)]
    edges = [("s", a, 1, costs[0]) for a in layer_a]
    edges += [(a, b, F(rng.randint(1, 6), 2), costs[1]) for a in layer_a for b in layer_b]
    edges += [(b, "t", 1, costs[2]) for b in layer_b]
    return make_network(["s", *layer_a, *layer_b, "t"], edges, "s", "t"), sum(costs)


def test_region_three_solve_is_byte_identical_across_hash_seeds(tmp_path, capsys):
    # the verification tables its mean flow, edge loads and disruption
    # probabilities in dicts and builds sets of edge ids and of cuts; none
    # of their iteration orders may reach the report
    rng = random.Random(2205)
    for index in range(4):
        net, path_cost = layered_network(rng)
        net_file = tmp_path / f"layered{index}.json"
        net_file.write_text(json.dumps(network_to_json(net)))
        p1 = path_cost + F(rng.randint(1, 9), rng.randint(2, 3))
        p2 = 1 + F(rng.randint(1, 5), rng.randint(2, 3))
        argv = ["solve", str(net_file), "--p1", str(p1), "--p2", str(p2), "--format", "json"]
        first, second = (run_child(argv, seed) for seed in ("1", "2"))
        assert first.returncode == second.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        assert report["region"] == "III" and report["verification"]["is_ne"]
        assert len(report["verification"]["property_checks"]) == 8
        _, in_process, _ = run(capsys, *argv)
        assert first.stdout == in_process


# ---------------------------------------------------------------------------
# error branches: each input fault prints its one error line and exits 2
# ---------------------------------------------------------------------------

ZERO_FLOW = {"prob": "1", "flow": {"paths": []}}
NO_ATTACK = {"prob": "1", "attack": []}
NO_ACTION = {"p1_strategy": [ZERO_FLOW], "p2_strategy": [NO_ATTACK]}

PROFILE_FAULTS = [
    ([], "profile JSON must be an object"),
    ({"p1_strategy": [ZERO_FLOW]}, "profile JSON needs 'p1_strategy' and 'p2_strategy'"),
    ({**NO_ACTION, "p1_strategy": []}, "'p1_strategy' must be a nonempty list"),
    ({**NO_ACTION, "p2_strategy": {}}, "'p2_strategy' must be a nonempty list"),
    ({**NO_ACTION, "p1_strategy": [{"prob": "1"}]},
     "each p1_strategy entry needs 'prob' and 'flow'"),
    ({**NO_ACTION, "p2_strategy": [{"attack": []}]},
     "each p2_strategy entry needs 'prob' and 'attack'"),
    ({**NO_ACTION, "p1_strategy": [{"prob": "1", "flow": {"paths": [{"nodes": ["s", "t"]}]}}]},
     "each path needs 'nodes' and 'amount'"),
]


@pytest.mark.parametrize("profile, message", PROFILE_FAULTS)
def test_malformed_profiles_exit_2(tmp_path, capsys, profile, message):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    code, out, err = run(capsys, "verify", TRIPLE_CUT, str(path), "--p1", "6", "--p2", "2")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("player, opponent, message", [
    ("1", [], "opponent strategy JSON must be an object"),
    ("1", {"p1_strategy": [ZERO_FLOW]}, "player 1 responds to a 'p2_strategy'"),
    ("2", {"p2_strategy": [NO_ATTACK]}, "player 2 responds to a 'p1_strategy'"),
])
def test_malformed_opponents_exit_2(tmp_path, capsys, player, opponent, message):
    path = tmp_path / "opponent.json"
    path.write_text(json.dumps(opponent))
    code, out, err = run(
        capsys, "best-response", TRIPLE_CUT, str(path), "--player", player, "--p1", "6", "--p2", "2"
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fields, message", [
    ({"sink": "x"}, "sink 'x' is not a declared node"),
    ({"edges": [{"from": "q", "to": "t", "capacity": "1", "cost": "1"}]},
     "edge (q, t): unknown node 'q'"),
    ({"sink": None, "sources": ["s"]}, "source set and sink set must both be nonempty"),
])
def test_invalid_networks_exit_2(tmp_path, capsys, fields, message):
    data = {"nodes": ["s", "t"], "source": "s", "sink": "t", "edges": [], **fields}
    data = {key: value for key, value in data.items() if value is not None}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_missing_network_file_exits_2(tmp_path, capsys):
    path = str(tmp_path / "absent.json")
    code, out, err = run(capsys, "analyze", path)
    assert code == 2 and out == ""
    assert err == f"error: cannot read {path}: [Errno 2] No such file or directory: {path!r}\n"


# Nesting past the interpreter's recursion limit is invalid JSON too.
DEEP = "[" * 100000 + "]" * 100000
TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"


@pytest.mark.parametrize("role", ["network", "profile", "opponent"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, role):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    game = ["--p1", "6", "--p2", "2"]
    argv = {
        "network": ["analyze", str(deep)],
        "profile": ["verify", TRIPLE_CUT, str(deep), *game],
        "opponent": ["best-response", TRIPLE_CUT, str(deep), "--player", "1", *game],
    }[role]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {deep} is not valid JSON: {TOO_DEEP}\n")


def test_deeply_nested_json_exits_2_in_a_child_process(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    result = run_child(["analyze", str(deep)], "0")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {deep} is not valid JSON: {TOO_DEEP}\n"


def test_library_input_faults():
    net = make_network(["s", "t"], [("s", "t", 1, 1)], "s", "t")
    with pytest.raises(InvalidPath, match=r"^no edge with id 99$"):
        attack(net, [99])
    with pytest.raises(ParseError) as excinfo:
        network_from_json("{")
    assert str(excinfo.value) == (
        "invalid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)"
    )
    with pytest.raises(ParseError) as excinfo:
        network_from_json("[" * 3000 + "]" * 3000)
    assert str(excinfo.value) == f"invalid JSON: {TOO_DEEP}"
