"""Free Join plans: nodes of subatoms (Section 3.2).

A Free Join plan is a list of *nodes*; each node is a list of subatoms.  The
subatoms of each atom across all nodes must partition the atom's variables
(Definition 3.5), and a *valid* plan additionally requires that (a) no two
subatoms of one node share a relation and (b) every node has a *cover*: a
subatom containing all variables introduced by that node (Definition 3.7).

The plan also determines the GHT schema used in the build phase (Section 3.3):
the levels of each relation's trie are its subatoms' variable lists, in node
order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PlanError
from repro.query.atoms import Subatom
from repro.query.conjunctive import ConjunctiveQuery


class FreeJoinNode:
    """One node of a Free Join plan: an ordered list of subatoms.

    The order is meaningful: the first subatom listed is the default cover
    (the relation iterated over), the rest are probed in order.  Dynamic
    cover selection (Section 4.4) may iterate over a different cover at run
    time, but the probe order is preserved otherwise.
    """

    __slots__ = ("subatoms",)

    def __init__(self, subatoms: Sequence[Subatom]) -> None:
        if not subatoms:
            raise PlanError("a Free Join node needs at least one subatom")
        self.subatoms: List[Subatom] = list(subatoms)

    def variables(self) -> List[str]:
        """vs(node): all variables of this node's subatoms, in order."""
        seen: Dict[str, None] = {}
        for subatom in self.subatoms:
            for var in subatom.variables:
                seen.setdefault(var, None)
        return list(seen)

    def relations(self) -> List[str]:
        """Relation names appearing in this node, in order."""
        return [subatom.relation for subatom in self.subatoms]

    def subatom_of(self, relation: str) -> Optional[Subatom]:
        """The subatom of the given relation, if present."""
        for subatom in self.subatoms:
            if subatom.relation == relation:
                return subatom
        return None

    def __len__(self) -> int:
        return len(self.subatoms)

    def __iter__(self):
        return iter(self.subatoms)

    def __getitem__(self, index: int) -> Subatom:
        return self.subatoms[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeJoinNode):
            return NotImplemented
        return self.subatoms == other.subatoms

    def __repr__(self) -> str:
        return "[" + ", ".join(repr(s) for s in self.subatoms) + "]"


class FreeJoinPlan:
    """A Free Join plan: an ordered list of :class:`FreeJoinNode`."""

    def __init__(self, nodes: Sequence[FreeJoinNode]) -> None:
        if not nodes:
            raise PlanError("a Free Join plan needs at least one node")
        self.nodes: List[FreeJoinNode] = [
            node if isinstance(node, FreeJoinNode) else FreeJoinNode(node)
            for node in nodes
        ]

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_lists(cls, nodes: Sequence[Sequence[Subatom]]) -> "FreeJoinPlan":
        """Build a plan from plain lists of subatoms."""
        return cls([FreeJoinNode(node) for node in nodes])

    # ------------------------------------------------------------------ #
    # Variable bookkeeping (Definition 3.5)
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, index: int) -> FreeJoinNode:
        return self.nodes[index]

    def node_variables(self, index: int) -> List[str]:
        """vs(node_index)."""
        return self.nodes[index].variables()

    def available_variables(self, index: int) -> Set[str]:
        """avs(node_index): variables bound by all preceding nodes."""
        available: Set[str] = set()
        for node in self.nodes[:index]:
            available.update(node.variables())
        return available

    def new_variables(self, index: int) -> Set[str]:
        """Variables introduced by the node: vs(node) - avs(node)."""
        return set(self.node_variables(index)) - self.available_variables(index)

    def covers(self, index: int) -> List[Subatom]:
        """All cover subatoms of a node (Definition 3.7)."""
        new_vars = self.new_variables(index)
        return [
            subatom
            for subatom in self.nodes[index]
            if new_vars <= set(subatom.variables)
        ]

    def all_variables(self) -> List[str]:
        """All variables bound anywhere in the plan, in binding order."""
        seen: Dict[str, None] = {}
        for node in self.nodes:
            for var in node.variables():
                seen.setdefault(var, None)
        return list(seen)

    def relations(self) -> List[str]:
        """All relation names appearing in the plan, in first-appearance order."""
        seen: Dict[str, None] = {}
        for node in self.nodes:
            for subatom in node:
                seen.setdefault(subatom.relation, None)
        return list(seen)

    def subatoms_of(self, relation: str) -> List[Subatom]:
        """All subatoms of a relation across the plan, in node order."""
        result = []
        for node in self.nodes:
            subatom = node.subatom_of(relation)
            if subatom is not None:
                result.append(subatom)
        return result

    def variable_order(self) -> List[str]:
        """The total variable order induced by the plan.

        This is the order Generic Join uses when asked to run "with the same
        variable order as Free Join" (Section 5.1): variables in the order the
        plan's nodes bind them.
        """
        return self.all_variables()

    # ------------------------------------------------------------------ #
    # Validation (Definitions 3.5 and 3.7)
    # ------------------------------------------------------------------ #

    def validate(self, query: ConjunctiveQuery) -> None:
        """Raise :class:`~repro.errors.PlanError` unless the plan is valid."""
        self._validate_partitioning(query)
        self._validate_nodes(query)

    def is_valid(self, query: ConjunctiveQuery) -> bool:
        """Whether the plan is valid for the query."""
        try:
            self.validate(query)
        except PlanError:
            return False
        return True

    def _validate_partitioning(self, query: ConjunctiveQuery) -> None:
        for atom in query.atoms:
            subatoms = self.subatoms_of(atom.name)
            if not subatoms:
                raise PlanError(f"plan never mentions atom {atom.name!r}")
            seen: Set[str] = set()
            for subatom in subatoms:
                unknown = set(subatom.variables) - set(atom.variables)
                if unknown:
                    raise PlanError(
                        f"subatom {subatom!r} uses variables {sorted(unknown)} "
                        f"that atom {atom.name!r} does not bind"
                    )
                overlap = seen & set(subatom.variables)
                if overlap:
                    raise PlanError(
                        f"variables {sorted(overlap)} of atom {atom.name!r} appear "
                        "in more than one subatom"
                    )
                seen.update(subatom.variables)
            missing = set(atom.variables) - seen
            if missing:
                raise PlanError(
                    f"variables {sorted(missing)} of atom {atom.name!r} are not "
                    "covered by any subatom"
                )

    def _validate_nodes(self, query: ConjunctiveQuery) -> None:
        for index, node in enumerate(self.nodes):
            relations = node.relations()
            if len(set(relations)) != len(relations):
                raise PlanError(
                    f"node {index} contains two subatoms of the same relation: {node!r}"
                )
            for relation in relations:
                if not query.has_atom(relation):
                    raise PlanError(
                        f"node {index} references unknown relation {relation!r}"
                    )
            if not self.covers(index):
                raise PlanError(
                    f"node {index} ({node!r}) has no cover: no subatom contains all "
                    f"of its new variables {sorted(self.new_variables(index))}"
                )

    # ------------------------------------------------------------------ #
    # Build-phase schemas (Section 3.3)
    # ------------------------------------------------------------------ #

    def ght_schemas(self, query: ConjunctiveQuery) -> Dict[str, List[Tuple[str, ...]]]:
        """Compute the GHT level schema of every atom.

        The levels of a relation's trie are its subatoms' variable tuples in
        node order.  Multiplicity of tuples that are only ever probed (never
        iterated) is recovered at execution time from the leaf vectors that
        forcing the last named level produces, so no explicit trailing empty
        level is added here.
        """
        schemas: Dict[str, List[Tuple[str, ...]]] = {}
        for atom in query.atoms:
            levels = [
                tuple(subatom.variables) for subatom in self.subatoms_of(atom.name)
            ]
            if not levels:
                raise PlanError(f"plan never mentions atom {atom.name!r}")
            schemas[atom.name] = levels
        return schemas

    # ------------------------------------------------------------------ #
    # Pretty printing
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeJoinPlan):
            return NotImplemented
        return self.nodes == other.nodes

    def __repr__(self) -> str:
        return "[" + ", ".join(repr(node) for node in self.nodes) + "]"
