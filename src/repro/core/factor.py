"""Factoring (optimizing) Free Join plans (Section 4.1, Figure 10).

Factoring hoists probe subatoms ("lookups") from a node to the previous node
when all their variables are already available there.  Hoisting a lookup
filters out dangling tuples one loop level earlier, which the paper shows can
turn an :math:`O(n^2)` plan into an :math:`O(n)` one on skewed data (the
clover query example).

The hoisting is conservative, exactly as the paper prescribes: within a node,
lookups are considered in their original order and hoisting stops at the
first lookup that cannot move, so the lookup ordering chosen by the
cost-based optimizer is respected.  The cover of a node (its first subatom,
the one iterated over) is never hoisted.
"""

from __future__ import annotations

from typing import List, Set

from repro.core.plan import FreeJoinPlan
from repro.query.atoms import Subatom


def factor_plan(plan: FreeJoinPlan, max_passes: int = None) -> FreeJoinPlan:
    """Return a factored copy of ``plan``.

    Parameters
    ----------
    plan:
        The Free Join plan to optimize (typically the output of
        :func:`repro.core.convert.binary_to_free_join`).
    max_passes:
        Maximum number of full passes over the plan.  Hoisting a lookup into
        node ``i-1`` can enable further hoisting when node ``i-1`` is visited,
        and because the traversal is in reverse node order a single pass
        already propagates most moves; additional passes only help in rare
        chained cases.  ``None`` means "iterate to a fixed point".
    """
    nodes: List[List[Subatom]] = [list(node.subatoms) for node in plan.nodes]

    passes = 0
    while True:
        moved_any = _factor_pass(nodes)
        passes += 1
        if not moved_any:
            break
        if max_passes is not None and passes >= max_passes:
            break

    nonempty = [node for node in nodes if node]
    return FreeJoinPlan.from_lists(nonempty)


def _factor_pass(nodes: List[List[Subatom]]) -> bool:
    """One reverse pass of the factoring loop; returns whether anything moved."""
    moved_any = False
    for index in range(len(nodes) - 1, 0, -1):
        node = nodes[index]
        previous = nodes[index - 1]
        available = _available_variables(nodes, index)

        # Hoist a prefix of the lookups (everything after the cover).
        position = 1
        while position < len(node):
            subatom = node[position]
            can_move = (
                set(subatom.variables) <= available
                and not _contains_relation(previous, subatom.relation)
            )
            if not can_move:
                break
            node.pop(position)
            previous.append(subatom)
            moved_any = True
            # Do not advance ``position``: the next lookup shifted into it.
    return moved_any


def _available_variables(nodes: List[List[Subatom]], index: int) -> Set[str]:
    available: Set[str] = set()
    for node in nodes[:index]:
        for subatom in node:
            available.update(subatom.variables)
    return available


def _contains_relation(node: List[Subatom], relation: str) -> bool:
    return any(subatom.relation == relation for subatom in node)
