"""COLT: the Column-Oriented Lazy Trie (Section 4.2, Figures 11-12).

A :class:`LazyTrie` node stores either a vector of offsets into the base
table, or a hash map from keys to child nodes.  Vectors are *forced* into
hash maps on demand — the first ``get`` on a node pays the build cost, and
nodes that are never probed are never built.  The root node of a COLT is
special: it represents "the whole base table" without even materializing the
offset vector, so a relation that is only ever iterated (the left/cover
relation of a plan) incurs zero build cost.

Keys follow the column-oriented spirit of the paper's Rust implementation:
a level over a single variable is keyed by the bare value, a level over
several variables by the tuple of values.  :func:`level_key` and
:func:`make_key` centralize that convention so the executors and the trie
always agree on the key representation.

The same class also implements the two baseline strategies of the Figure 17
ablation:

* ``TrieStrategy.SIMPLE`` ("simple trie"): every level is forced eagerly at
  build time, like the classic Generic Join trie.
* ``TrieStrategy.SLT`` (simple lazy trie, Freitag et al.): the first level is
  forced eagerly, inner levels stay lazy.
* ``TrieStrategy.COLT``: everything is lazy.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.datatypes import Row
from repro.errors import PlanError
from repro.core.ght import GHT
from repro.query.atoms import Atom


def make_key(bindings: Dict[str, object], variables: Sequence[str]):
    """Build the probe key for a level from a binding environment.

    Single-variable levels use the bare value as the key; multi-variable
    levels use a tuple.  The executors must use this helper (or replicate its
    convention) so probe keys match the keys produced by :meth:`LazyTrie.force`.
    """
    if len(variables) == 1:
        return bindings[variables[0]]
    return tuple(bindings[var] for var in variables)


class TrieStrategy(str, Enum):
    """How eagerly trie levels are materialized (Figure 17 ablation)."""

    SIMPLE = "simple"  # fully expand every trie ahead of time
    SLT = "slt"        # expand the first level eagerly, inner levels lazily
    COLT = "colt"      # fully lazy, column-oriented

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class LazyTrie(GHT):
    """One node of a COLT over a single atom.

    Parameters
    ----------
    atom:
        The atom (base table + variable binding) this trie represents.
    schema:
        Remaining levels at and below this node: a list of variable tuples.
        The last level may be the empty tuple, representing a leaf that only
        carries multiplicity.
    offsets:
        Offsets into the base table represented by this node.  ``None`` means
        "all rows of the base table" and is only used at the root, so that a
        purely iterated relation never materializes even the offset vector.
    """

    __slots__ = ("relation", "atom", "schema", "vars", "_offsets", "_map", "_columns")

    def __init__(
        self,
        atom: Atom,
        schema: Sequence[Tuple[str, ...]],
        offsets: Optional[List[int]] = None,
    ) -> None:
        if not schema:
            raise PlanError(f"trie for {atom.name!r} needs at least one level")
        self.relation = atom.name
        self.atom = atom
        self.schema: Tuple[Tuple[str, ...], ...] = tuple(tuple(level) for level in schema)
        self.vars: Tuple[str, ...] = self.schema[0]
        self._offsets = offsets
        self._map: Optional[Dict[Row, "LazyTrie"]] = None
        self._columns: Optional[List[List]] = None

    # ------------------------------------------------------------------ #
    # Column access
    # ------------------------------------------------------------------ #

    def _level_columns(self) -> List[List]:
        """Column value vectors of the base table for this level's variables."""
        if self._columns is None:
            table = self.atom.table
            self._columns = [
                table.column(self.atom.column_for(var)).values for var in self.vars
            ]
        return self._columns

    # ------------------------------------------------------------------ #
    # GHT interface
    # ------------------------------------------------------------------ #

    def levels_remaining(self) -> int:
        return len(self.schema)

    def is_leaf(self) -> bool:
        return len(self.schema) == 1 and not self.vars

    def is_forced(self) -> bool:
        """Whether this node has been expanded into a hash map."""
        return self._map is not None

    def tuple_count(self) -> int:
        if self._map is not None:
            return sum(child.tuple_count() for child in self._map.values())
        if self._offsets is None:
            return self.atom.size
        return len(self._offsets)

    def key_count(self) -> int:
        if self._map is not None:
            return len(self._map)
        # Unforced vector: use the vector length as the estimate (Section 4.4).
        if self._offsets is None:
            return self.atom.size
        return len(self._offsets)

    def iter_entries(self) -> Iterator[Tuple[Row, Optional[GHT]]]:
        if self._map is not None:
            return iter(self._map.items())
        if len(self.schema) == 1:
            # Last level: iterate the stored tuples directly from the columns,
            # without building any auxiliary structure.
            return self._iter_vector(self._offsets)
        # Inner level still stored as a vector: force it first, then iterate.
        self.force()
        assert self._map is not None
        return iter(self._map.items())

    def _iter_vector(self, offsets: Optional[List[int]]) -> Iterator[Tuple[Row, None]]:
        columns = self._level_columns()
        iterator = iter(range(self.atom.size)) if offsets is None else iter(offsets)
        if len(columns) == 1:
            column = columns[0]
            for offset in iterator:
                yield column[offset], None
        else:
            for offset in iterator:
                yield tuple(column[offset] for column in columns), None

    def get(self, key: Row) -> Optional["LazyTrie"]:
        self.force()
        assert self._map is not None
        return self._map.get(key)

    # ------------------------------------------------------------------ #
    # Forcing (Figure 12)
    # ------------------------------------------------------------------ #

    def force(self) -> None:
        """Expand this node's vector of offsets into a hash map of children.

        A trie belongs to one query's task context, which one thread runs,
        so forcing needs no guard against a concurrent forcer.
        """
        if self._map is not None:
            return
        offsets = self._offsets
        columns = self._level_columns()
        child_schema = self.schema[1:] if len(self.schema) > 1 else ((),)
        mapping: Dict[Row, LazyTrie] = {}
        atom = self.atom
        source = range(atom.size) if offsets is None else offsets
        if len(columns) == 1:
            column = columns[0]
            for offset in source:
                key = column[offset]
                child = mapping.get(key)
                if child is None:
                    child = LazyTrie(atom, child_schema, offsets=[])
                    mapping[key] = child
                child._offsets.append(offset)
        else:
            for offset in source:
                key = tuple(column[offset] for column in columns)
                child = mapping.get(key)
                if child is None:
                    child = LazyTrie(atom, child_schema, offsets=[])
                    mapping[key] = child
                child._offsets.append(offset)
        self._map = mapping
        self._offsets = None

    def force_recursive(self) -> None:
        """Expand this node and every descendant (the "simple trie" baseline)."""
        if self.is_leaf():
            return
        self.force()
        assert self._map is not None
        for child in self._map.values():
            if not child.is_leaf():
                child.force_recursive()

    # ------------------------------------------------------------------ #
    # Introspection helpers (used by tests and by the harness)
    # ------------------------------------------------------------------ #

    def forced_node_count(self) -> int:
        """Number of forced (hash map) nodes in this subtree."""
        if self._map is None:
            return 0
        return 1 + sum(child.forced_node_count() for child in self._map.values())

    def __repr__(self) -> str:
        state = "map" if self._map is not None else "vector"
        return (
            f"LazyTrie({self.relation}, vars={list(self.vars)}, "
            f"levels={len(self.schema)}, state={state}, tuples={self.tuple_count()})"
        )


def build_trie(
    atom: Atom,
    schema: Sequence[Tuple[str, ...]],
    strategy: TrieStrategy = TrieStrategy.COLT,
) -> LazyTrie:
    """Build the trie for one atom with the given level schema and strategy."""
    trie = LazyTrie(atom, schema, offsets=None)
    if strategy is TrieStrategy.SIMPLE:
        trie.force_recursive()
    elif strategy is TrieStrategy.SLT:
        if not trie.is_leaf():
            trie.force()
    return trie


def build_tries(
    atoms: Dict[str, Atom],
    schemas: Dict[str, List[Tuple[str, ...]]],
    strategy: TrieStrategy = TrieStrategy.COLT,
) -> Dict[str, LazyTrie]:
    """Build one trie per atom (the build phase of Section 3.3).

    Parameters
    ----------
    atoms:
        Atoms keyed by name.
    schemas:
        GHT level schemas keyed by atom name, as computed by
        :meth:`repro.core.plan.FreeJoinPlan.ght_schemas`.
    strategy:
        Laziness strategy, see :class:`TrieStrategy`.
    """
    tries: Dict[str, LazyTrie] = {}
    for name, atom in atoms.items():
        schema = schemas.get(name)
        if schema is None:
            raise PlanError(f"no GHT schema for atom {name!r}")
        tries[name] = build_trie(atom, schema, strategy)
    return tries
