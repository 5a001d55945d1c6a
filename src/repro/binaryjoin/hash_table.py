"""Join hash tables for the binary hash join engine.

A :class:`JoinHashTable` maps a key (the values of the join variables) to the
offsets of the matching rows in the build-side table.  This mirrors the
two-level structure the paper identifies as a special case of the GHT: level
0 stores the keys and level 1 stores vectors of tuples (Section 3.1).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.datatypes import Row
from repro.query.atoms import Atom


class JoinHashTable:
    """A hash table over an atom, keyed on a subset of its variables."""

    __slots__ = ("atom", "key_variables", "_buckets", "_columns")

    def __init__(self, atom: Atom, key_variables: Sequence[str]) -> None:
        self.atom = atom
        self.key_variables: Tuple[str, ...] = tuple(key_variables)
        key_columns = [
            atom.table.column(atom.column_for(var)).values for var in self.key_variables
        ]
        self._columns = [
            atom.table.column(atom.column_for(var)).values for var in atom.variables
        ]
        buckets: Dict[Row, List[int]] = {}
        if len(key_columns) == 1:
            # Single-variable keys use the bare value, matching the key
            # convention of the COLT tries so all engines pay the same
            # hashing cost.
            column = key_columns[0]
            for offset in range(atom.size):
                buckets.setdefault(column[offset], []).append(offset)
        else:
            for offset in range(atom.size):
                key = tuple(column[offset] for column in key_columns)
                buckets.setdefault(key, []).append(offset)
        self._buckets = buckets

    def make_key(self, bindings: Dict[str, object]):
        """Build the probe key for this table from a binding environment."""
        if len(self.key_variables) == 1:
            return bindings[self.key_variables[0]]
        return tuple(bindings[var] for var in self.key_variables)

    def __len__(self) -> int:
        return len(self._buckets)

    def probe(self, key: Row) -> List[int]:
        """Row offsets matching the key (empty list when the probe misses)."""
        return self._buckets.get(key, [])

    def row_values(self, offset: int) -> Row:
        """All variable values of the row at ``offset``, in atom variable order."""
        return tuple(column[offset] for column in self._columns)
