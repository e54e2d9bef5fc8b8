"""Slow reference implementations that the fast algorithms in ``src/`` are
checked against."""

import itertools

from flowgame import Attack, BestResponse, EdgeBudgetExceeded, expected_edge_loads
from flowgame.network import ZERO


def brute_force_attacker_response(
    net, s1, params, max_attack_edges=20, exhaustive=False
):
    """The attacker's best response by scoring every subset of the
    candidate edges, with the tie rule of ``best_attacker_response``:
    the lexicographically smallest optimal edge-id tuple wins."""
    loads = expected_edge_loads(net, s1)
    if exhaustive:
        candidates = sorted(loads)
    else:
        candidates = [edge_id for edge_id in sorted(loads) if loads[edge_id] > 0]
    if len(candidates) > max_attack_edges:
        raise EdgeBudgetExceeded(
            f"{len(candidates)} candidate edges exceed the attack budget "
            f"of {max_attack_edges}"
        )

    flows_info = []
    for flow, p in s1.support:
        paths = [
            (frozenset(net.edge_ids_on_path(nodes)), amount)
            for nodes, amount in flow.paths
        ]
        flows_info.append((p, flow.value, paths))

    best_value = None
    best_ids = None
    for size in range(len(candidates) + 1):
        for ids in itertools.combinations(candidates, size):
            id_set = frozenset(ids)
            cost = sum((net.edge(i).capacity for i in ids), ZERO)
            lost = ZERO
            for p, total, paths in flows_info:
                surviving = sum(
                    (amount for edge_set, amount in paths if id_set.isdisjoint(edge_set)),
                    ZERO,
                )
                lost += p * (total - surviving)
            value = params.p2 * lost - cost
            if (
                best_value is None
                or value > best_value
                or (value == best_value and ids < best_ids)
            ):
                best_value = value
                best_ids = ids
    return BestResponse(best_value, Attack(best_ids))
