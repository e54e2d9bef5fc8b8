"""The benchmark's tracer finds the functions it times by name; these
names must stay importable."""

import ast
import importlib.util
import inspect
from pathlib import Path

import flowgame
import flowgame.cli
import flowgame.lp

from conftest import FIXTURES

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def traced_names(variable):
    """Keys of a module-level dict literal in the tracer source."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == variable
            for target in node.targets
        ):
            return sorted(ast.literal_eval(node.value))
    raise AssertionError(f"{variable} not found in {TRACING.name}")


def test_traced_names_are_exported():
    names = traced_names("TRACED")
    assert names
    missing = [name for name in names if not callable(getattr(flowgame, name, None))]
    assert missing == []


def test_traced_lp_solver_exists():
    assert traced_names("LP_TRACED") == ["solve_lp"]
    assert callable(flowgame.lp.solve_lp)


def parameters(fn) -> list:
    return list(inspect.signature(fn).parameters)


def test_parameters_the_tracer_binds_exist():
    # its counters read these arguments by name: lp.packing_rows sums the
    # eq and ub rows, and the attack counts reload the edge loads of s1
    assert parameters(flowgame.lp.solve_lp) == ["minimize", "eq", "ub"]
    assert {"net", "s1"} <= set(parameters(flowgame.best_attacker_response))
    assert parameters(flowgame.expected_edge_loads) == ["net", "s1"]
    assert "net" in parameters(flowgame.all_min_cuts)


def test_analyze_spans_show_the_min_cost_max_flow(capsys):
    # the per-layer metrics read these spans; a refactor that stopped
    # analyze from calling the min-cost max-flow and the decomposition by
    # their exported names would hide them
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer(flowgame, flowgame.lp)
    argv = ["analyze", str(FIXTURES / "detour.json")]
    with tracer.installed():
        code = tracer.op(0, flowgame.cli.main, argv)
    capsys.readouterr()
    assert code == 0
    names = {span.name for span in tracer.spans if span.op == 0}
    assert {"flows.analyze", "flows.min_cost_max_flow", "flows.decompose"} <= names


def test_region_three_solve_spans_show_the_attacker_and_the_checks(capsys):
    # solve-contested's per-layer metrics read these spans, and the
    # attacker counters bind the s1 that verify_equilibrium passes to
    # best_attacker_response by its module name
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer(flowgame, flowgame.lp)
    fixture = str(FIXTURES / "triple_cut.json")
    argv = ["solve", fixture, "--p1", "6", "--p2", "2", "--format", "json"]
    with tracer.installed():
        code = tracer.op(0, flowgame.cli.main, argv)
    capsys.readouterr()
    assert code == 0
    spans = [span for span in tracer.spans if span.op == 0]
    names = {span.name for span in spans}
    assert {
        "equilibrium.verify",
        "equilibrium.attacker_br",
        "flows.all_min_cuts",
        "equilibrium.saturation",
    } <= names
    net = flowgame.cli.load_network(fixture)
    profile = flowgame.construct_equilibrium(net, flowgame.GameParams(6, 2))
    (attacker,) = [span for span in spans if span.name == "equilibrium.attacker_br"]
    assert tracer.spans[attacker.parent].name == "equilibrium.verify"
    assert tracer.bound(attacker)["s1"] == profile.s1
