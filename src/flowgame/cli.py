"""Command-line interface.

Subcommands: analyze, solve, verify, best-response, maximin. Reports go
to stdout as JSON (``--format json``) or aligned text (default); identical
inputs and flags produce byte-identical output. All numbers on the wire
are exact rational strings.

Exit codes: 0 success, 1 profile is not an equilibrium, 2 parse or
validation failure, 3 the network lacks a cheapest-path optimal routing
where one is required, 4 parameters on a region boundary, 5 enumeration
budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

from .equilibrium import (
    MAX_ATTACK_EDGES,
    MAX_PATHS,
    ClosedFormReport,
    EquilibriumProfile,
    VerificationReport,
    best_attacker_response,
    best_router_response,
    classify_region,
    closed_form_quantities,
    construct_equilibrium,
    maximin,
    minimax_certificate,
    verify_equilibrium,
)
from .errors import (
    BoundaryParams,
    CheapestRoutingRequired,
    EdgeBudgetExceeded,
    FlowGameError,
    InvalidParams,
    PathBudgetExceeded,
    ParseError,
)
from .flows import FlowAnalysis, analyze
from .game import (
    Attack,
    GameParams,
    MixedStrategy,
    PathFlow,
    attack,
    mixture,
    path_flow,
    transport_cost,
)
from .network import Cut, Network, network_from_json
from .rational import format_rational as _rat, parse_rational

EXIT_OK = 0
EXIT_NOT_NE = 1
EXIT_PARSE = 2
EXIT_ROUTING = 3
EXIT_BOUNDARY = 4
EXIT_BUDGET = 5


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _flow_json(net: Network, flow: PathFlow, cost=None) -> dict:
    """The flow's paths, value and transport cost; ``cost``, when given,
    is that transport cost, which is then not summed again."""
    if cost is None:
        cost = transport_cost(net, flow)
    return {
        "paths": [
            {"nodes": list(nodes), "amount": _rat(amount)}
            for nodes, amount in flow.paths
        ],
        "value": _rat(flow.value),
        "transport_cost": _rat(cost),
    }


def _attack_json(net: Network, atk: Attack) -> list:
    return [[tail, head] for tail, head in atk.pairs(net)]


def _cut_json(net: Network, cut: Cut) -> dict:
    return {
        "source_side": sorted(cut.s_side),
        "edges": [[net.edge(i).tail, net.edge(i).head] for i in cut.cut_set],
        "capacity": _rat(cut.capacity),
    }


def _strategy1_json(net: Network, strategy: MixedStrategy) -> list:
    return [
        {"prob": _rat(prob), "flow": _flow_json(net, flow)}
        for flow, prob in strategy.support
    ]


def _strategy2_json(net: Network, strategy: MixedStrategy) -> list:
    return [
        {"prob": _rat(prob), "attack": _attack_json(net, atk)}
        for atk, prob in strategy.support
    ]


def _profile_json(net: Network, profile: EquilibriumProfile) -> dict:
    return {
        "provenance": profile.provenance,
        "p1_strategy": _strategy1_json(net, profile.s1),
        "p2_strategy": _strategy2_json(net, profile.s2),
    }


def _closed_forms_json(report: ClosedFormReport) -> dict:
    return {
        "router_payoff": _rat(report.u1),
        "attacker_payoff": _rat(report.u2),
        "expected_initial_flow": _rat(report.exp_initial_flow),
        "expected_transport_cost": _rat(report.exp_transport_cost),
        "expected_attack_cost": _rat(report.exp_attack_cost),
        "expected_effective_flow": _rat(report.exp_effective_flow),
        "expected_lost_flow": _rat(report.exp_lost_flow),
        "yield": _rat(report.yield_ratio),
    }


def _verification_json(net: Network, report: VerificationReport) -> dict:
    return {
        "is_ne": report.is_ne,
        "router_payoff": _rat(report.u1),
        "attacker_payoff": _rat(report.u2),
        "router_gap": _rat(report.router_gap),
        "attacker_gap": _rat(report.attacker_gap),
        "router_best_response": {
            "value": _rat(report.router_best.value),
            "flow": _flow_json(net, report.router_best.action),
        },
        "attacker_best_response": {
            "value": _rat(report.attacker_best.value),
            "attack": _attack_json(net, report.attacker_best.action),
        },
        "property_checks": [
            {"name": check.name, "status": check.status, "detail": check.detail}
            for check in report.checks
        ],
    }


def _analysis_json(net: Network, analysis: FlowAnalysis) -> dict:
    # The optimal flow drops only the min-cost max-flow's cycles, which
    # cost 0 (see ``flows``), so it costs the min transport cost.
    optimal = _flow_json(net, analysis.optimal_flow, analysis.min_transport_cost)
    if analysis.cheapest_routing is None:
        routing = "not applicable"
        witness = None
    elif analysis.cheapest_routing:
        routing = True
        # The witness is the optimal flow itself.
        witness = {"kind": "cheapest-path flow", "flow": optimal}
    else:
        routing = False
        nodes, cost = analysis.routing_witness
        witness = {"kind": "costly path", "nodes": list(nodes), "cost": _rat(cost)}
    return {
        "network": {
            "nodes": len(net.nodes),
            "edges": len(net.edges),
            "source": net.source,
            "sink": net.sink,
        },
        "max_flow_value": _rat(analysis.max_flow_value),
        "cheapest_path_cost": (
            "infinite"
            if analysis.cheapest_path_cost is None
            else _rat(analysis.cheapest_path_cost)
        ),
        "min_cut": _cut_json(net, analysis.min_cut),
        "optimal_flow": optimal,
        "min_transport_cost": _rat(analysis.min_transport_cost),
        "cheapest_routing": routing,
        "routing_witness": witness,
    }


# ---------------------------------------------------------------------------
# Deserialization
# ---------------------------------------------------------------------------

def _load_json_file(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past the interpreter's
        # int-conversion digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_network(path: str) -> Network:
    return network_from_json(_load_json_file(path))


def _is_name_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(name, str) for name in value)


def parse_path_flow(net: Network, data) -> PathFlow:
    if not isinstance(data, dict) or not isinstance(data.get("paths"), list):
        raise ParseError("a flow must be an object with a 'paths' list")
    paths = []
    for entry in data["paths"]:
        try:
            nodes = entry["nodes"]
            amount = entry["amount"]
        except (TypeError, KeyError) as exc:
            raise ParseError("each path needs 'nodes' and 'amount'") from exc
        if not _is_name_list(nodes):
            raise ParseError("a path's 'nodes' must be a list of node names")
        paths.append((tuple(nodes), parse_rational(amount, what="path amount")))
    return path_flow(net, paths)


def parse_router_strategy(net: Network, entries) -> MixedStrategy:
    if not isinstance(entries, list) or not entries:
        raise ParseError("'p1_strategy' must be a nonempty list")
    support = []
    for entry in entries:
        try:
            prob = entry["prob"]
            flow = entry["flow"]
        except (TypeError, KeyError) as exc:
            raise ParseError("each p1_strategy entry needs 'prob' and 'flow'") from exc
        support.append((parse_path_flow(net, flow), parse_rational(prob, what="prob")))
    return mixture(support)


def parse_attacker_strategy(net: Network, entries) -> MixedStrategy:
    if not isinstance(entries, list) or not entries:
        raise ParseError("'p2_strategy' must be a nonempty list")
    support = []
    for entry in entries:
        try:
            prob = entry["prob"]
            edges = entry["attack"]
        except (TypeError, KeyError) as exc:
            raise ParseError("each p2_strategy entry needs 'prob' and 'attack'") from exc
        if not isinstance(edges, list) or not all(
            _is_name_list(pair) and len(pair) == 2 for pair in edges
        ):
            raise ParseError("'attack' must be a list of [from, to] pairs of node names")
        atk = attack(net, [tuple(pair) for pair in edges])
        support.append((atk, parse_rational(prob, what="prob")))
    return mixture(support)


def load_profile(net: Network, path: str) -> tuple:
    data = _load_json_file(path)
    if not isinstance(data, dict):
        raise ParseError("profile JSON must be an object")
    if "p1_strategy" not in data or "p2_strategy" not in data:
        raise ParseError("profile JSON needs 'p1_strategy' and 'p2_strategy'")
    return (
        parse_router_strategy(net, data["p1_strategy"]),
        parse_attacker_strategy(net, data["p2_strategy"]),
    )


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _inline(value) -> bool:
    """Scalars and flat lists print on one line; nesting gets indented."""
    if isinstance(value, dict):
        return not value
    if isinstance(value, list):
        return all(not isinstance(item, dict) and _inline(item) for item in value)
    return True


def _text_lines(value, indent: int, lines: list) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for key, item in value.items():
            if _inline(item):
                lines.append(f"{pad}{key}: {_scalar(item)}")
            else:
                lines.append(f"{pad}{key}:")
                _text_lines(item, indent + 1, lines)
    elif isinstance(value, list):
        for item in value:
            if _inline(item):
                lines.append(f"{pad}- {_scalar(item)}")
            else:
                lines.append(f"{pad}-")
                _text_lines(item, indent + 1, lines)
    else:
        lines.append(f"{pad}{_scalar(value)}")


def _scalar(item) -> str:
    if item is None:
        return "none"
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, list):
        return "[" + ", ".join(_scalar(v) for v in item) + "]"
    if isinstance(item, dict):
        return "{}"
    return str(item)


def _json_chunks(value, pad: str, out: list) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2)``
    writes it, its nested lines indented past ``pad``. It takes dicts with
    str keys, lists, tuples, str, int, bool and None, and raises TypeError
    on anything else. ``json.dumps`` uses its C encoder only without
    ``indent``, so this writes the same bytes faster."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        separator = "{\n" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _json_chunks(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        separator = "[\n" + inner
        for item in value:
            out.append(separator)
            _json_chunks(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + pad + "]")
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        out: list = []
        _json_chunks(report, "", out)
        out.append("\n")
        sys.stdout.write("".join(out))
    else:
        lines: list = []
        _text_lines(report, 0, lines)
        sys.stdout.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    net = load_network(args.network)
    report = _analysis_json(net, analyze(net))
    emit(report, args.format)
    return EXIT_OK


def _game_params(args) -> GameParams:
    params = GameParams(
        parse_rational(args.p1, what="--p1"), parse_rational(args.p2, what="--p2")
    )
    for flag, budget in (
        ("--max-paths", args.max_paths),
        ("--max-attack-edges", args.max_attack_edges),
    ):
        if budget < 0:
            raise InvalidParams(f"{flag} must be nonnegative, got {budget}")
    return params


def cmd_solve(args) -> int:
    net = load_network(args.network)
    params = _game_params(args)
    analysis = analyze(net)

    try:
        profile = construct_equilibrium(net, params, analysis)
    except BoundaryParams as exc:
        report = {
            "region": "boundary",
            "message": str(exc),
            "equilibria": [_profile_json(net, p) for p in exc.profiles],
        }
        emit(report, args.format)
        return EXIT_BOUNDARY

    verification = verify_equilibrium(
        net,
        profile.s1,
        profile.s2,
        params,
        max_paths=args.max_paths,
        max_attack_edges=args.max_attack_edges,
        analysis=analysis,
    )
    region_tag = classify_region(params, analysis.cheapest_path_cost).tag
    closed = None
    if region_tag == "III":
        closed = _closed_forms_json(
            closed_form_quantities(
                params, analysis.cheapest_path_cost, analysis.max_flow_value
            )
        )
    report = {
        "region": region_tag,
        "parameters": {"p1": _rat(params.p1), "p2": _rat(params.p2)},
        "equilibrium": _profile_json(net, profile),
        "closed_forms": closed,
        "verification": _verification_json(net, verification),
    }
    emit(report, args.format)
    return EXIT_OK if verification.is_ne else EXIT_NOT_NE


def cmd_verify(args) -> int:
    net = load_network(args.network)
    params = _game_params(args)
    s1, s2 = load_profile(net, args.profile)
    report = verify_equilibrium(
        net,
        s1,
        s2,
        params,
        max_paths=args.max_paths,
        max_attack_edges=args.max_attack_edges,
    )
    emit(_verification_json(net, report), args.format)
    return EXIT_OK if report.is_ne else EXIT_NOT_NE


def cmd_best_response(args) -> int:
    net = load_network(args.network)
    params = _game_params(args)
    data = _load_json_file(args.opponent)
    if not isinstance(data, dict):
        raise ParseError("opponent strategy JSON must be an object")

    if args.player == 1:
        if "p2_strategy" not in data:
            raise ParseError("player 1 responds to a 'p2_strategy'")
        opponent = parse_attacker_strategy(net, data["p2_strategy"])
        best = best_router_response(net, opponent, params, args.max_paths)
        action = {"flow": _flow_json(net, best.action)}
    else:
        if "p1_strategy" not in data:
            raise ParseError("player 2 responds to a 'p1_strategy'")
        opponent = parse_router_strategy(net, data["p1_strategy"])
        best = best_attacker_response(net, opponent, params, args.max_attack_edges)
        action = {"attack": _attack_json(net, best.action)}

    report = {"player": args.player, "value": _rat(best.value), **action}
    emit(report, args.format)
    return EXIT_OK


def _action_name(action) -> str:
    if isinstance(action, PathFlow):
        return "zero flow" if action.is_zero else "path flow"
    return "empty attack" if action.is_empty else "attack"


def cmd_maximin(args) -> int:
    net = load_network(args.network)
    params = _game_params(args)
    analysis = analyze(net)

    value1, action1 = maximin(net, params, 1)
    value2, action2 = maximin(net, params, 2)
    report = {
        "router_maximin": {"value": _rat(value1), "action": _action_name(action1)},
        "attacker_maximin": {"value": _rat(value2), "action": _action_name(action2)},
    }
    try:
        cap1, cert1 = minimax_certificate(
            net, params, 1, analysis, args.max_paths, args.max_attack_edges
        )
        cap2, cert2 = minimax_certificate(
            net, params, 2, analysis, args.max_paths, args.max_attack_edges
        )
    except (PathBudgetExceeded, EdgeBudgetExceeded):
        raise  # exit 5, as for every other exceeded budget
    except FlowGameError as exc:
        report["minimax_certificates"] = None
        report["minimax_note"] = str(exc)
    else:
        report["minimax_certificates"] = {
            "router_side": {
                "best_response_value": _rat(cap1),
                "attacker_mixture": _strategy2_json(net, cert1),
            },
            "attacker_side": {
                "best_response_value": _rat(cap2),
                "router_mixture": _strategy1_json(net, cert2),
            },
        }
    emit(report, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of printing the usage block and
    exiting, so that ``main`` reports them as one ``error:`` line."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flowgame",
        description=(
            "Exact solver and verifier for a two-player network routing "
            "and interdiction game"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, game_params=True):
        p.add_argument("network", help="network JSON file")
        p.add_argument("--format", choices=("json", "text"), default="text")
        if game_params:
            p.add_argument("--p1", required=True, help="router value per delivered unit")
            p.add_argument("--p2", required=True, help="attacker value per lost unit")
            p.add_argument("--max-paths", type=int, default=MAX_PATHS)
            p.add_argument("--max-attack-edges", type=int, default=MAX_ATTACK_EDGES)

    p = sub.add_parser("analyze", help="flow primitives and the routing check")
    common(p, game_params=False)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("solve", help="construct and verify the equilibrium")
    common(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("verify", help="check a strategy profile exactly")
    common(p)
    p.add_argument("profile", help="profile JSON file")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("best-response", help="optimal reply to an opponent mixture")
    common(p)
    p.add_argument("opponent", help="opponent strategy JSON file")
    p.add_argument("--player", type=int, choices=(1, 2), required=True)
    p.set_defaults(handler=cmd_best_response)

    p = sub.add_parser("maximin", help="maximin values and minimax certificates")
    common(p)
    p.set_defaults(handler=cmd_maximin)

    return parser


# Exit codes of the errors that are not parse or validation failures.
_ERROR_EXITS = (
    ((PathBudgetExceeded, EdgeBudgetExceeded), EXIT_BUDGET),
    (CheapestRoutingRequired, EXIT_ROUTING),
    (BoundaryParams, EXIT_BOUNDARY),
)

# Every character str.splitlines() breaks at, escaped, so that an error
# naming a node like "a\nb" still prints as one line.
_LINE_BREAKS = {
    ord(ch): ch.encode("unicode_escape").decode("ascii")
    for ch in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.handler(args)
    except FlowGameError as exc:
        print(f"error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return next(
            (code for kinds, code in _ERROR_EXITS if isinstance(exc, kinds)), EXIT_PARSE
        )


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
