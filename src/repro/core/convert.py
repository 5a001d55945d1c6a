"""Converting binary join plans to Free Join plans (Section 4.1, Figure 9).

``binary_to_free_join`` translates a left-deep sequence of relations into the
equivalent Free Join plan: the left-most relation becomes the cover of the
first node, every subsequent relation contributes a probe subatom (over the
variables already available) to the current node and opens a new node with
its remaining variables.

Two small departures from the paper's Figure 9 pseudocode keep the produced
plans non-degenerate while preserving their meaning:

* A relation whose variables are all already available (a pure semijoin
  filter) does not open an empty node; subsequent probe subatoms are appended
  to the last real node instead.
* Probe subatoms with no variables (Cartesian products in the binary plan)
  are omitted; the relation's own node supplies the Cartesian iteration.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.errors import PlanError
from repro.core.plan import FreeJoinPlan
from repro.query.atoms import Atom, Subatom


def binary_to_free_join(
    order: Sequence[str],
    atoms: Mapping[str, Atom],
) -> FreeJoinPlan:
    """Convert a left-deep relation order into an equivalent Free Join plan.

    Parameters
    ----------
    order:
        Relation (atom) names in pipeline order; the first is iterated, the
        rest are probed in order.
    atoms:
        Atoms keyed by name; used to look up each relation's variables.
    """
    if not order:
        raise PlanError("cannot convert an empty binary plan")
    for name in order:
        if name not in atoms:
            raise PlanError(f"binary plan references unknown relation {name!r}")
    if len(set(order)) != len(order):
        raise PlanError(f"binary plan repeats a relation: {list(order)}")

    first = atoms[order[0]]
    nodes: List[List[Subatom]] = []
    current: List[Subatom] = [Subatom(first.name, first.variables)]
    available = set(first.variables)

    for name in order[1:]:
        atom = atoms[name]
        probe_vars = [v for v in atom.variables if v in available]
        remaining_vars = [v for v in atom.variables if v not in available]

        target = current if current is not None else nodes[-1]
        if probe_vars:
            target.append(Subatom(name, probe_vars))
        elif not remaining_vars:
            # A relation with no variables at all: nothing to join on and
            # nothing left to bind.  This cannot occur for well-formed atoms
            # (tables have at least one column), so treat it as a plan error.
            raise PlanError(f"relation {name!r} has no variables")

        if current is not None:
            nodes.append(current)

        available.update(atom.variables)
        if remaining_vars:
            current = [Subatom(name, remaining_vars)]
        elif not probe_vars:
            # Pure Cartesian product: the relation still needs its own node to
            # iterate over (its variables are new but nothing is shared).
            current = [Subatom(name, atom.variables)]
        else:
            current = None

    if current is not None:
        nodes.append(current)

    return FreeJoinPlan.from_lists(nodes)

