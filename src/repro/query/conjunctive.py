"""Full conjunctive queries over bag semantics.

A :class:`ConjunctiveQuery` is the common representation consumed by the
optimizer and all three join engines.  It corresponds to Equation (1) in the
paper: ``Q(x) :- R1(x1), ..., Rm(xm)`` where the head contains all variables
(full query); selections have been pushed into the atoms' tables and
projections/aggregates happen after the join.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.query.atoms import Atom


class ConjunctiveQuery:
    """A full conjunctive query: a list of atoms plus an output variable order.

    Parameters
    ----------
    atoms:
        The query atoms.  Atom names (aliases) must be unique.
    output_variables:
        Head variables, in output order.  Defaults to all variables in order
        of first appearance.  Because the query is *full*, the head must
        cover every variable of every atom.  What a run actually *emits* is
        narrower: sessions pass the engines the variables the query reads
        after the join (``LogicalQuery.needed_variables``, as
        ``RunContext.output_variables``), and everything else is never
        decoded.
    name:
        Optional human-readable query name (used by the benchmark harness).
    """

    def __init__(
        self,
        atoms: Sequence[Atom],
        output_variables: Optional[Sequence[str]] = None,
        name: str = "",
    ) -> None:
        if not atoms:
            raise QueryError("a conjunctive query needs at least one atom")
        names = [a.name for a in atoms]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate atom names in query: {names}")
        self.atoms: List[Atom] = list(atoms)
        self.name = name
        self._atoms_by_name: Dict[str, Atom] = {a.name: a for a in self.atoms}

        all_vars = self._variables_in_order()
        if output_variables is None:
            self.output_variables: Tuple[str, ...] = tuple(all_vars)
        else:
            output_variables = tuple(output_variables)
            missing = set(all_vars) - set(output_variables)
            if missing:
                raise QueryError(
                    "a full conjunctive query must output every variable; "
                    f"missing {sorted(missing)}"
                )
            extra = set(output_variables) - set(all_vars)
            if extra:
                raise QueryError(f"unknown output variables {sorted(extra)}")
            self.output_variables = output_variables

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def _variables_in_order(self) -> List[str]:
        seen: Dict[str, None] = {}
        for atom in self.atoms:
            for var in atom.variables:
                seen.setdefault(var, None)
        return list(seen)

    @property
    def variables(self) -> Tuple[str, ...]:
        """All query variables, in order of first appearance."""
        return tuple(self._variables_in_order())

    @property
    def num_atoms(self) -> int:
        """Number of atoms."""
        return len(self.atoms)

    def atom(self, name: str) -> Atom:
        """Look up an atom by alias."""
        try:
            return self._atoms_by_name[name]
        except KeyError:
            raise QueryError(
                f"query has no atom named {name!r}; atoms: {sorted(self._atoms_by_name)}"
            ) from None

    def has_atom(self, name: str) -> bool:
        """Whether an atom with the given alias exists."""
        return name in self._atoms_by_name

    def atoms_with_variable(self, variable: str) -> List[Atom]:
        """All atoms that bind the given variable."""
        return [a for a in self.atoms if a.has_variable(variable)]

    def shared_variables(self, first: str, second: str) -> List[str]:
        """Variables bound by both named atoms, in the first atom's order."""
        second_vars = set(self.atom(second).variables)
        return [v for v in self.atom(first).variables if v in second_vars]

    def join_variables(self) -> List[str]:
        """Variables that appear in at least two atoms."""
        counts: Dict[str, int] = {}
        for atom in self.atoms:
            for var in atom.variables:
                counts[var] = counts.get(var, 0) + 1
        return [v for v in self._variables_in_order() if counts[v] >= 2]

    def rename(self, name: str) -> "ConjunctiveQuery":
        """Return the same query under a different name."""
        return ConjunctiveQuery(self.atoms, self.output_variables, name=name)

    def __repr__(self) -> str:
        body = ", ".join(repr(a) for a in self.atoms)
        head = ", ".join(self.output_variables)
        label = f"{self.name}: " if self.name else ""
        return f"{label}Q({head}) :- {body}"
