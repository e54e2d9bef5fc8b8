"""The benchmark's tracer finds the functions it times by name; these
names must stay importable."""

import ast
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
