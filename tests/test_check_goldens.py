"""Golden property-check verdicts.

``check_goldens.json`` records the (name, status, detail) triple of each
structural check that ``_equilibrium_property_checks`` returns, on every
fixture, for the Region III profile and for profiles crafted so that
each of the eight checks fails at least once:

* the Region III profile built at (p1, p2) = (6, 2), checked there and
  at (12, 4);
* the zero flow against the Region III attacker;
* the Region III router against an attack on every edge;
* the Region III router against an attack on the first edge that some
  optimal routing leaves below capacity.

The checks are called directly, past the equilibrium gate of
``verify_equilibrium``, so failing verdicts are reached. A change that
alters any of them on purpose regenerates the file with

    PYTHONPATH=src python tests/test_check_goldens.py

and says why the output changed.
"""

import json
from fractions import Fraction
from pathlib import Path

from flowgame import (
    GameParams,
    analyze,
    attack,
    edge_always_saturated,
    path_flow,
    point_mass,
)
from flowgame.cli import load_network
from flowgame.equilibrium import _equilibrium_property_checks, _mixture_drop_zero
from flowgame.game import _expectations, _mean_table

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "check_goldens.json"
FIXTURES = HERE / "fixtures"

BUILT_AT = GameParams(Fraction(6), Fraction(2))
DOUBLED = GameParams(Fraction(12), Fraction(4))


def _profiles(net, analysis):
    """(label, s1, s2, params) for each crafted profile. The Region III
    mixture is built by hand, so the detour fixtures, where
    ``construct_equilibrium`` refuses, get one too."""
    p1, p2, cost = BUILT_AT.p1, BUILT_AT.p2, analysis.cheapest_path_cost
    zero, no_attack = path_flow(net), attack(net)
    s1 = _mixture_drop_zero([(zero, 1 - 1 / p2), (analysis.optimal_flow, 1 / p2)])

    def attacker(atk):
        return _mixture_drop_zero([(no_attack, cost / p1), (atk, 1 - cost / p1)])

    s2 = attacker(attack(net, analysis.min_cut.cut_set))
    yield "region III profile", s1, s2, BUILT_AT
    yield "region III profile at p1 12 p2 4", s1, s2, DOUBLED
    yield "zero flow", point_mass(zero), s2, BUILT_AT
    yield "attack on every edge", s1, attacker(attack(net, range(len(net.edges)))), BUILT_AT
    amounts = analysis.optimal_flow.edge_amounts(net)
    slack = [
        e.id for e in net.edges
        if e.capacity > 0 and not edge_always_saturated(net, amounts, e.id)
    ]
    if slack:
        yield "attack on a slack edge", s1, attacker(attack(net, slack[:1])), BUILT_AT


def _records() -> dict:
    records = {}
    for fixture in sorted(FIXTURES.glob("*.json")):
        net = load_network(str(fixture))
        analysis = analyze(net)
        for label, s1, s2, params in _profiles(net, analysis):
            table = _mean_table(net, s1)
            exps = _expectations(net, table, s2)
            checks = _equilibrium_property_checks(net, s1, s2, params, analysis, table, exps)
            records[f"{fixture.name} {label}"] = [
                [check.name, check.status, check.detail] for check in checks
            ]
    return records


def test_property_check_details_match_goldens():
    goldens = json.loads(GOLDENS.read_text())
    records = _records()
    assert sorted(records) == sorted(goldens)
    for key, checks in records.items():
        assert checks == goldens[key], key


def test_every_check_fails_on_some_golden_profile():
    goldens = json.loads(GOLDENS.read_text())
    names = {name for checks in goldens.values() for name, _, _ in checks}
    failing = {
        name for checks in goldens.values() for name, status, _ in checks
        if status == "fail"
    }
    assert len(names) == 8
    assert failing == names


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(_records(), indent=1, sort_keys=True) + "\n")
