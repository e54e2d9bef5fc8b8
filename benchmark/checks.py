"""Output checks for every op.

Each check returns ``None`` when the output is right and a short cause
string otherwise. The workload checks are independent of the goldens:
they recompute what they can from the instance (cut capacities, path
sums, closed forms from p1, p2, the path cost and a max flow computed by
the benchmark itself) instead of trusting the program.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from instances import Instance

EXIT_OK = 0
EXIT_NOT_NE = 1
EXIT_BUDGET = 5


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_op(instance: Instance, code: int, stdout: str, golden) -> str | None:
    """The cause of failure of one op, or None when it passed. ``golden``
    is the expected sha256 of stdout, or None when there is none."""
    if code == EXIT_BUDGET:
        return "budget refusal (exit 5)"
    if code not in EXPECTED_CODES[instance.workload]:
        return f"unexpected exit code {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    try:
        cause = WORKLOAD_CHECKS[instance.workload](instance, code, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        cause = f"malformed report ({type(exc).__name__}: {exc})"
    if cause is None and golden is not None and sha256(stdout) != golden:
        cause = "stdout differs from the golden"
    return cause


def check_analyze(instance: Instance, code: int, report: dict) -> str | None:
    """Max-flow value equals the min-cut capacity (recomputed from the
    instance's own edges), and the decomposed paths sum to it."""
    value = Fraction(report["max_flow_value"])
    cut = report["min_cut"]
    side = set(cut["source_side"])
    capacity = {
        (e["from"], e["to"]): Fraction(e["capacity"])
        for e in instance.files["net.json"]["edges"]
    }
    crossing = sorted(pair for pair in capacity if pair[0] in side and pair[1] not in side)
    if sorted(tuple(pair) for pair in cut["edges"]) != crossing:
        return "min-cut edges are not the edges leaving its source side"
    if sum(capacity[pair] for pair in crossing) != value:
        return "max-flow value differs from the min-cut capacity"
    if Fraction(cut["capacity"]) != value:
        return "reported min-cut capacity differs from the max-flow value"
    paths = report["optimal_flow"]["paths"]
    if sum((Fraction(p["amount"]) for p in paths), Fraction(0)) != value:
        return "decomposed paths do not sum to the max-flow value"
    return None


def closed_forms(p1: Fraction, p2: Fraction, cost: Fraction, theta: Fraction) -> dict:
    """The Region III closed forms, evaluated by the benchmark itself."""
    return {
        "router_payoff": Fraction(0),
        "attacker_payoff": Fraction(0),
        "expected_initial_flow": theta / p2,
        "expected_transport_cost": cost * theta / p2,
        "expected_attack_cost": (1 - cost / p1) * theta,
        "expected_effective_flow": cost * theta / (p1 * p2),
        "expected_lost_flow": (1 - cost / p1) * theta / p2,
        "yield": cost / p1,
    }


def check_solve(instance: Instance, code: int, report: dict) -> str | None:
    """A verified equilibrium whose property checks all pass or do not
    apply, and closed forms equal to the formulas."""
    verification = report["verification"]
    if verification["is_ne"] is not True:
        return "constructed profile is not verified as an equilibrium"
    bad = [c["name"] for c in verification["property_checks"]
           if c["status"] not in ("pass", "not applicable")]
    if bad or not verification["property_checks"]:
        return "property checks failed: " + ", ".join(bad or ["none ran"])
    facts = instance.facts
    expected = closed_forms(
        Fraction(facts["p1"]), Fraction(facts["p2"]),
        Fraction(facts["path_cost"]), Fraction(facts["max_flow"]),
    )
    got = report["closed_forms"] or {}
    wrong = [name for name, value in expected.items() if Fraction(got[name]) != value]
    if wrong:
        return "closed forms differ from the formulas: " + ", ".join(wrong)
    return None


def check_verify(instance: Instance, code: int, report: dict) -> str | None:
    """Both gaps are nonnegative, and the verdict agrees with the gaps and
    the exit code."""
    router_gap = Fraction(report["router_gap"])
    attacker_gap = Fraction(report["attacker_gap"])
    if router_gap < 0 or attacker_gap < 0:
        return "negative best-response gap"
    is_ne = router_gap == 0 and attacker_gap == 0
    if report["is_ne"] is not is_ne:
        return "verdict disagrees with the gaps"
    if code != (EXIT_OK if is_ne else EXIT_NOT_NE):
        return "verdict disagrees with the exit code"
    return None


EXPECTED_CODES = {
    "solve-contested": {EXIT_OK},
    "verify-dense": {EXIT_OK, EXIT_NOT_NE},
    "analyze-grid": {EXIT_OK},
}

WORKLOAD_CHECKS = {
    "solve-contested": check_solve,
    "verify-dense": check_verify,
    "analyze-grid": check_analyze,
}
