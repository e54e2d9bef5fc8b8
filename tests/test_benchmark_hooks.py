"""The benchmark's tracer finds the functions it times by name; these
names must stay importable."""

import ast
import inspect
from pathlib import Path

import flowgame
import flowgame.lp

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
