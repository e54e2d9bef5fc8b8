"""Self-tests of the benchmark's own pieces.

    python3 -m pytest benchmark/test_bench.py -q
"""

from __future__ import annotations

import json
import random
import sys

import pytest

import checks
import instances
import run
import tracing

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def modules():
    return run.import_flowgame()


def _files(directory) -> dict:
    return {path.relative_to(directory).as_posix(): path.read_bytes()
            for path in sorted(directory.rglob("*.json"))}


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_same_seed_gives_byte_identical_instance_files(workload):
    base = run.OUT / "selftest" / workload
    for copy in ("a", "b", "other-seed"):
        seed = 5 if copy != "other-seed" else 6
        for index in range(len(instances.SCHEDULE[workload])):
            instances.write(instances.generate(workload, seed, index), base / copy / f"{index}")
    first, second, other = (_files(base / copy) for copy in ("a", "b", "other-seed"))
    assert first and first == second
    assert first != other


def test_tail_picks_the_sample_with_ten_beyond_it():
    assert run.tail(list(range(1, 101))) == (90, 90.0)
    assert run.tail(list(range(11))) == (0, 100 / 11)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, None)
    rng = random.Random(0)
    for n in range(11, 200, 7):
        values = [rng.random() for _ in range(n)]
        value, percentile = run.tail(values)
        assert sum(v > value for v in values) == 10
        assert percentile == pytest.approx(100 * (n - 10) / n)


def _op(modules, workload: str, index: int = 0):
    instance = instances.generate(workload, run.DEFAULT_SEED, index)
    argv = instances.write(instance, run.OUT / "selftest" / "ops" / workload)
    return instance, run.call_cli(modules[1].main, argv)


def _corrupt(stdout: str, edit) -> str:
    report = json.loads(stdout)
    edit(report)
    return json.dumps(report, indent=2) + "\n"


def _set(path, value):
    def edit(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


CORRUPTIONS = {
    "analyze-grid": [
        _set(["max_flow_value"], "1/3"),
        _set(["min_cut", "capacity"], "0"),
        lambda r: r["min_cut"]["edges"].pop(),
        lambda r: r["optimal_flow"]["paths"].pop(),
    ],
    "solve-contested": [
        _set(["verification", "is_ne"], False),
        _set(["closed_forms", "yield"], "7/3"),
        _set(["closed_forms", "expected_lost_flow"], "0"),
        lambda r: r["verification"]["property_checks"][0].update(status="fail"),
    ],
    "verify-dense": [
        _set(["router_gap"], "-1"),
        _set(["attacker_gap"], "-1/2"),
        lambda r: r.update(is_ne=not r["is_ne"]),
    ],
}


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_output_checks_accept_the_real_output(modules, workload):
    instance, outcome = _op(modules, workload)
    golden = checks.sha256(outcome.stdout)
    assert outcome.cause is None
    assert checks.check_op(instance, outcome.code, outcome.stdout, golden) is None


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_output_checks_reject_corrupted_output(modules, workload):
    instance, outcome = _op(modules, workload)
    golden = checks.sha256(outcome.stdout)
    for edit in CORRUPTIONS[workload]:
        bad = _corrupt(outcome.stdout, edit)
        assert checks.check_op(instance, outcome.code, bad, None) is not None
    assert checks.check_op(instance, outcome.code, outcome.stdout + " ", golden) is not None
    assert checks.check_op(instance, 5, outcome.stdout, None) == "budget refusal (exit 5)"
    assert checks.check_op(instance, 2, outcome.stdout, None) is not None
    assert checks.check_op(instance, outcome.code, "Traceback", None) is not None


def test_verify_check_ties_the_verdict_to_the_exit_code(modules):
    instance, outcome = _op(modules, "verify-dense")
    flipped = 1 - outcome.code
    assert checks.check_op(instance, flipped, outcome.stdout, None) is not None


def test_closed_forms_match_the_program(modules):
    instance, outcome = _op(modules, "solve-contested")
    facts = instance.facts
    from fractions import Fraction
    expected = checks.closed_forms(*(Fraction(facts[k]) for k in ("p1", "p2", "path_cost", "max_flow")))
    got = json.loads(outcome.stdout)["closed_forms"]
    assert {k: Fraction(v) for k, v in got.items()} == expected


def test_tracer_restores_the_program_and_self_times_add_up(modules):
    package, cli, lp = modules
    originals = {name: getattr(package, name) for name in tracing.TRACED}
    tracer = tracing.Tracer(package, lp)
    instance = instances.generate("solve-contested", run.DEFAULT_SEED, 0)
    argv = instances.write(instance, run.OUT / "selftest" / "traced")
    with tracer.installed():
        outcome = run.call_cli(lambda a: tracer.op(0, cli.main, a), argv)
    tracer.settle()
    assert outcome.cause is None
    assert {name: getattr(package, name) for name in tracing.TRACED} == originals
    assert sys.modules["flowgame.flows"].max_flow is originals["max_flow"]
    ops = tracing.per_op(tracer)
    assert tracing.self_time_table(ops)["sum_matches_op_spans"]
    names = {span.name for span in tracer.spans}
    assert {"flows.analyze", "flows.max_flow", "equilibrium.attacker_br",
            "equilibrium.saturation", "flows.all_min_cuts", "lp.solve"} <= names
    counts = ops[0]["counts"]
    assert counts["equilibrium.attack_subsets"] == 2 ** counts["equilibrium.attack_candidates"]
    assert counts["flows.partitions"] == 2 ** (instance.facts["nodes"] - 2)
