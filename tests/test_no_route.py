"""The game on networks whose sink the source cannot reach.

With no source-sink path of positive capacity, the cheapest path cost is
infinite and the only equilibrium is no flow and no attack, whatever the
parameters. ``no_route_goldens.json`` records the stdout, stderr and exit
code, in both output formats, of ``solve`` and ``maximin`` on such a
network at the parameters of each region and boundary of
``test_goldens.PARAMS``; of ``verify`` and both players' ``best-response``
against the zero-flow, empty-attack profile at the same parameters; and
of ``verify`` against a profile whose attacker pays for a cut that
disrupts nothing. A change that alters any of them on purpose
regenerates the file with

    PYTHONPATH=src python tests/test_no_route.py

and says why the output changed.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from flowgame import (
    GameParams,
    analyze,
    attack,
    construct_equilibrium,
    make_network,
    minimax_certificate,
    network_to_json,
    path_flow,
    point_mass,
    verify_equilibrium,
)
from flowgame.cli import main

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "no_route_goldens.json"

PARAMS = {"I": ("1", "2"), "II": ("6", "1/2"), "III": ("6", "2"), "boundary": ("6", "1")}

# Both edges end at a, so t is reached from nowhere.
ONE_WAY = make_network(["s", "a", "t"], [("s", "a", 2, 1), ("t", "a", 3, "1/2")], "s", "t")
# The only source-sink path has an edge of zero capacity.
CLOSED = make_network(["s", "a", "t"], [("s", "a", 0, 1), ("a", "t", 1, 1)], "s", "t")

NO_ACTION = {
    "p1_strategy": [{"prob": "1", "flow": {"paths": []}}],
    "p2_strategy": [{"prob": "1", "attack": []}],
}
WASTED_CUT = {
    "p1_strategy": [{"prob": "1", "flow": {"paths": []}}],
    "p2_strategy": [{"prob": "1", "attack": [["s", "a"]]}],
}


def _runs(directory: Path):
    network = directory / "one_way.json"
    network.write_text(json.dumps(network_to_json(ONE_WAY)))
    profiles = {}
    for name, profile in (("no action", NO_ACTION), ("wasted cut", WASTED_CUT)):
        profiles[name] = directory / (name.replace(" ", "_") + ".json")
        profiles[name].write_text(json.dumps(profile))
    argvs = []
    for region, (p1, p2) in PARAMS.items():
        game = ["--p1", p1, "--p2", p2]
        for command in ("solve", "maximin"):
            argvs.append((f"{command} {region}", [command, str(network), *game]))
        no_action = str(profiles["no action"])
        argvs.append((f"verify no action {region}", ["verify", str(network), no_action, *game]))
        for player in ("1", "2"):
            argvs.append((
                f"best-response {player} no action {region}",
                ["best-response", str(network), no_action, "--player", player, *game],
            ))
    argvs.append((
        "verify wasted cut III",
        ["verify", str(network), str(profiles["wasted cut"]), "--p1", "6", "--p2", "2"],
    ))
    for fmt in ("json", "text"):
        for key, argv in argvs:
            yield f"{key} {fmt}", argv + ["--format", fmt]


def _record(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_output_on_a_network_without_a_route(tmp_path):
    goldens = json.loads(GOLDENS.read_text())
    runs = list(_runs(tmp_path))
    assert sorted(key for key, _ in runs) == sorted(goldens)
    for key, argv in runs:
        assert _record(argv) == goldens[key], key


@pytest.mark.parametrize("net", [ONE_WAY, CLOSED], ids=["one_way", "closed"])
@pytest.mark.parametrize("region", sorted(PARAMS))
def test_no_route_library_results(net, region):
    params = GameParams(*map(Fraction, PARAMS[region]))
    analysis = analyze(net)
    assert analysis.cheapest_path_cost is None and analysis.max_flow_value == 0
    zero, empty = point_mass(path_flow(net)), point_mass(attack(net))

    profile = construct_equilibrium(net, params)
    assert profile == (zero, empty, "degenerate-no-route")
    assert minimax_certificate(net, params, 1) == (0, empty)
    assert minimax_certificate(net, params, 2) == (0, zero)
    report = verify_equilibrium(net, zero, empty, params)
    assert report.is_ne and report.checks == ()
    assert (report.u1, report.u2, report.router_gap, report.attacker_gap) == (0, 0, 0, 0)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        records = {key: _record(argv) for key, argv in _runs(Path(directory))}
    GOLDENS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
