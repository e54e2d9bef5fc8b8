"""The value semantics of the package's records: each is an immutable
value whose repr, equality and hash come from its fields, in order."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flowgame import (
    Attack,
    BestResponse,
    ClosedFormReport,
    Cut,
    Decomposition,
    EdgeSpec,
    EquilibriumProfile,
    FlowAnalysis,
    GameParams,
    InvalidParams,
    MixedStrategy,
    PathFlow,
    ProfileExpectations,
    PropertyCheck,
    Region,
    VerificationReport,
    make_network,
)
from flowgame.errors import NetworkValidationError
from flowgame.lp import LpResult
from flowgame.network import IntegerForm

F = Fraction

EDGE = EdgeSpec(id=0, tail="s", head="t", capacity=F(3), cost=F(1, 2))
FLOW = PathFlow(paths=((("s", "t"), F(1)),))
ATTACK = Attack(edge_ids=(0,))
BEST = BestResponse(value=F(0), action=ATTACK)
NET = make_network(["s", "t"], [("s", "t", 3, "1/2")], "s", "t")

# (type, fields in declaration order, repr text)
RECORDS = [
    (EdgeSpec, dict(id=0, tail="s", head="t", capacity=F(3), cost=F(1, 2)),
     "EdgeSpec(id=0, tail='s', head='t', capacity=Fraction(3, 1), cost=Fraction(1, 2))"),
    (Cut, dict(s_side=frozenset({"s", "a"}), cut_set=(0,), capacity=F(3)),
     "Cut(s_side=frozenset({'a', 's'}), cut_set=(0,), capacity=Fraction(3, 1))"),
    (IntegerForm,
     dict(cap_scale=1, cost_scale=2, capacity=(3,), cost=(1,), index={"s": 0, "t": 1},
          arcs=(((0, True, 1, 1),), ((0, False, 0, -1),)), ends=((0, 1),)),
     "IntegerForm(cap_scale=1, cost_scale=2, capacity=(3,), cost=(1,), "
     "index={'s': 0, 't': 1}, arcs=(((0, True, 1, 1),), ((0, False, 0, -1),)), "
     "ends=((0, 1),))"),
    (PathFlow, dict(paths=((("s", "t"), F(1)),)),
     "PathFlow(paths=((('s', 't'), Fraction(1, 1)),))"),
    (Attack, dict(edge_ids=(0,)), "Attack(edge_ids=(0,))"),
    (MixedStrategy, dict(support=((ATTACK, F(1)),)),
     "MixedStrategy(support=((Attack(edge_ids=(0,)), Fraction(1, 1)),))"),
    (GameParams, dict(p1=F(7, 2), p2=F(2)),
     "GameParams(p1=Fraction(7, 2), p2=Fraction(2, 1))"),
    (ProfileExpectations,
     dict(initial_flow=F(1), transport_cost=F(2), attack_cost=F(3),
          effective_flow=F(4), lost_flow=F(5)),
     "ProfileExpectations(initial_flow=Fraction(1, 1), transport_cost=Fraction(2, 1), "
     "attack_cost=Fraction(3, 1), effective_flow=Fraction(4, 1), lost_flow=Fraction(5, 1))"),
    (Decomposition, dict(paths=((("s", "t"), F(1)),), cycles=()),
     "Decomposition(paths=((('s', 't'), Fraction(1, 1)),), cycles=())"),
    (FlowAnalysis,
     dict(max_flow_value=F(3), min_cut=Cut(frozenset({"s"}), (0,), F(3)),
          optimal_flow=FLOW, min_transport_cost=F(3, 2), cheapest_path_cost=F(1, 2),
          cheapest_routing=True, routing_witness=FLOW),
     "FlowAnalysis(max_flow_value=Fraction(3, 1), min_cut=Cut(s_side=frozenset({'s'}), "
     "cut_set=(0,), capacity=Fraction(3, 1)), optimal_flow=PathFlow(paths=((('s', 't'), "
     "Fraction(1, 1)),)), min_transport_cost=Fraction(3, 2), cheapest_path_cost="
     "Fraction(1, 2), cheapest_routing=True, routing_witness=PathFlow(paths=((('s', 't'), "
     "Fraction(1, 1)),)))"),
    (LpResult, dict(status="optimal", objective=F(-1), solution=(F(1),), pivots=1),
     "LpResult(status='optimal', objective=Fraction(-1, 1), solution=(Fraction(1, 1),), "
     "pivots=1)"),
    (Region, dict(tag="boundary", p1_at_cost=True, p2_at_one=False),
     "Region(tag='boundary', p1_at_cost=True, p2_at_one=False)"),
    (EquilibriumProfile,
     dict(s1=MixedStrategy(((FLOW, F(1)),)), s2=MixedStrategy(((ATTACK, F(1)),)),
          provenance="route-only"),
     "EquilibriumProfile(s1=MixedStrategy(support=((PathFlow(paths=((('s', 't'), "
     "Fraction(1, 1)),)), Fraction(1, 1)),)), s2=MixedStrategy(support=((Attack("
     "edge_ids=(0,)), Fraction(1, 1)),)), provenance='route-only')"),
    (ClosedFormReport,
     dict(u1=F(0), u2=F(0), exp_initial_flow=F(1), exp_transport_cost=F(2),
          exp_attack_cost=F(3), exp_effective_flow=F(4), exp_lost_flow=F(5),
          yield_ratio=F(1, 3)),
     "ClosedFormReport(u1=Fraction(0, 1), u2=Fraction(0, 1), exp_initial_flow="
     "Fraction(1, 1), exp_transport_cost=Fraction(2, 1), exp_attack_cost=Fraction(3, 1), "
     "exp_effective_flow=Fraction(4, 1), exp_lost_flow=Fraction(5, 1), "
     "yield_ratio=Fraction(1, 3))"),
    (BestResponse, dict(value=F(0), action=ATTACK),
     "BestResponse(value=Fraction(0, 1), action=Attack(edge_ids=(0,)))"),
    (PropertyCheck, dict(name="yield", status="pass", detail="ok"),
     "PropertyCheck(name='yield', status='pass', detail='ok')"),
    (VerificationReport,
     dict(is_ne=True, router_gap=F(0), attacker_gap=F(0), u1=F(0), u2=F(0),
          router_best=BEST, attacker_best=BEST, checks=()),
     "VerificationReport(is_ne=True, router_gap=Fraction(0, 1), attacker_gap="
     "Fraction(0, 1), u1=Fraction(0, 1), u2=Fraction(0, 1), router_best=BestResponse("
     "value=Fraction(0, 1), action=Attack(edge_ids=(0,))), attacker_best=BestResponse("
     "value=Fraction(0, 1), action=Attack(edge_ids=(0,))), checks=())"),
    (type(NET), dict(nodes=NET.nodes, edges=(EDGE,), source="s", sink="t"),
     "Network(nodes=frozenset({'s', 't'}), edges=(EdgeSpec(id=0, tail='s', head='t', "
     "capacity=Fraction(3, 1), cost=Fraction(1, 2)),), source='s', sink='t')"),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_fields_in_order_and_repr(cls, fields, text):
    record = cls(**fields)
    assert cls(*fields.values()) == record
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())
    assert repr(record) == text


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, fields, text):
    record, twin = cls(**fields), cls(**fields)
    assert record == twin and not record != twin
    if cls is not IntegerForm:  # its index is a dict
        assert hash(record) == hash(twin)
    for name, value in fields.items():
        if cls is GameParams:
            changed = value + 1
        elif isinstance(value, bool):
            changed = not value
        else:
            changed = object()
        assert cls(**{**fields, name: changed}) != record, name


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_records_are_immutable(cls, fields, text):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_records_survive_a_pickle_round_trip(cls, fields, text):
    record = cls(**fields)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record and repr(copy) == text


# Builds the two records with set fields, as RECORDS does, and prints the
# repr of each before and after a pickle round trip.
PICKLED_REPRS = """
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from flowgame import Cut, make_network
records = (
    make_network(["s", "t"], [("s", "t", 3, "1/2")], "s", "t"),
    Cut(frozenset({"s", "a"}), (0,), Fraction(3)),
)
for record in records:
    print(repr(record))
    print(repr(pickle.loads(pickle.dumps(record))))
"""


@pytest.mark.parametrize("hash_seed", ["2", "36", "38"])
def test_set_reprs_survive_a_pickle_round_trip_under_any_hash_seed(hash_seed):
    # these seeds reorder the two-node set when pickling rebuilds it, so a
    # repr that followed the set's iteration order would change
    pythonpath = [str(Path(__file__).resolve().parents[1] / "src")]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = {"PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(pythonpath)}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    child = subprocess.run(
        [sys.executable, "-c", PICKLED_REPRS], capture_output=True, text=True, env=env
    )
    texts = {cls: text for cls, _, text in RECORDS}
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [texts[type(NET)]] * 2 + [texts[Cut]] * 2


def test_set_reprs_order_members_of_any_type():
    # a Network's node names are strings, so make_network refuses others;
    # a Cut built by hand may hold members that do not sort against each
    # other, and the repr orders their reprs instead
    with pytest.raises(NetworkValidationError, match=r"^node name 1 is not a string$"):
        make_network(["s", 1, "t"], [("s", 1, 1, 1), (1, "t", 1, 1)], "s", "t")
    assert repr(Cut(frozenset({2, "s"}), (), F(0))).startswith("Cut(s_side=frozenset({'s', 2}),")


def test_game_params_coerce_and_validate():
    params = GameParams("7/2", 2)
    assert params == GameParams(F(7, 2), F(2))
    assert type(params.p1) is Fraction and type(params.p2) is Fraction
    assert hash(params) == hash(GameParams(F(7, 2), F(2)))
    assert GameParams(p2=3, p1="1/2") == GameParams(F(1, 2), F(3))
    with pytest.raises(InvalidParams, match="p1 must be positive, got 0"):
        GameParams(0, 1)
    with pytest.raises(InvalidParams, match="p2 must be positive, got -1/2"):
        GameParams(1, "-1/2")
    assert params._replace(p2="5/2") == GameParams(F(7, 2), F(5, 2))
    with pytest.raises(InvalidParams, match="p1 must be positive, got 0"):
        params._replace(p1=0)


def test_network_caches_its_tables_once_outside_its_value():
    net = make_network(["s", "a", "t"], [("s", "a", 1, 1), ("a", "t", 2, "1/3")], "s", "t")
    twin = make_network(["s", "a", "t"], [("s", "a", 1, 1), ("a", "t", 2, "1/3")], "s", "t")
    text = repr(net)
    for name in ("_integer_form", "edge_by_pair"):
        first = getattr(net, name)
        assert getattr(net, name) is first, name
        with pytest.raises(AttributeError):
            setattr(net, name, first)
    assert net.edge_by_pair[("a", "t")] is net.edges[1]
    assert net._integer_form.cost_scale == 3
    assert net == twin and hash(net) == hash(twin)
    assert repr(net) == text
    assert net != make_network(["s", "a", "t"], [("s", "a", 1, 1), ("a", "t", 2, 1)], "s", "t")


def test_integer_form_lists_each_residual_arc_once_with_its_signed_cost():
    assert NET._integer_form == IntegerForm(
        cap_scale=1, cost_scale=2, capacity=(3,), cost=(1,), index={"s": 0, "t": 1},
        arcs=(((0, True, 1, 1),), ((0, False, 0, -1),)), ends=((0, 1),),
    )


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_records_unpack_and_equal_plain_tuples_of_their_fields(cls, fields, text):
    record = cls(**fields)
    assert tuple(record) == tuple(fields.values()) == record
    assert cls is IntegerForm or hash(record) == hash(tuple(fields.values()))
    first, *rest = record
    assert first is next(iter(fields.values())) and len(rest) == len(fields) - 1
