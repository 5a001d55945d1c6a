"""Table and column statistics used by the cost-based optimizer."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict

from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.storage.table import Table


@dataclass
class ColumnStatistics:
    """Statistics of one column: cardinality, distinct count, min/max."""

    row_count: int
    distinct_count: int
    minimum: object = None
    maximum: object = None


@dataclass
class TableStatistics:
    """Statistics of one table: row count plus per-column statistics."""

    row_count: int
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    def distinct(self, column: str) -> int:
        """Distinct count of a column, defaulting to the row count."""
        stats = self.columns.get(column)
        if stats is None:
            return max(self.row_count, 1)
        return max(stats.distinct_count, 1)


def analyze_table(table: Table) -> TableStatistics:
    """Compute statistics for every column of a table."""
    stats = TableStatistics(row_count=table.num_rows)
    for column in table.columns:
        minimum, maximum = column.min_max()
        stats.columns[column.name] = ColumnStatistics(
            row_count=len(column),
            distinct_count=column.distinct_count(),
            minimum=minimum,
            maximum=maximum,
        )
    return stats


def collect_statistics(query: ConjunctiveQuery) -> Dict[str, TableStatistics]:
    """Compute statistics for every atom of a query, keyed by atom name.

    Statistics are computed over the atom's (already filtered) base table, so
    selection pushdown is reflected in the estimates — the same behaviour a
    real optimizer gets from sampling the filtered input.
    """
    return {atom.name: analyze_table(atom.table) for atom in query.atoms}


class StatisticsCache:
    """Memoizes per-table statistics keyed by column identity.

    Workload drivers run many queries over the same base tables; caching the
    scan avoids re-analyzing each table for every query.

    The key is the tuple of the table's column object ids, not ``id(table)``:
    the planner wraps every atom in a fresh per-query ``Table`` that *shares*
    the catalog table's column vectors, so column identity survives the
    wrapping (one analysis per base table across the whole workload) while
    per-query filtered tables — whose columns are new objects holding
    different data — get their own entries.  Each entry keeps a strong
    reference to the analyzed table so a dead object's ids can never be
    reused for a different table (id reuse after garbage collection
    previously produced stale statistics and nondeterministic plans).
    Entries are bounded FIFO so long sessions cannot pin unbounded per-query
    filtered data.
    """

    #: Maximum number of cached analyses (FIFO eviction beyond this).
    max_entries = 512

    def __init__(self) -> None:
        self._cache: Dict[tuple, tuple] = {}
        # The cache is shared by every query thread of the session
        # (execute_many, AsyncDatabase); the lock keeps the evict-then-insert
        # sequence atomic (analysis itself runs outside the lock, so a rare
        # concurrent miss costs one duplicate scan, never a wrong result).
        self._lock = threading.Lock()

    @staticmethod
    def _key(table: Table) -> tuple:
        # Lengths guard against in-place mutation (Table.append_rows grows
        # the column lists without replacing the column objects).
        return tuple((id(column), len(column)) for column in table.columns)

    def for_table(self, table: Table) -> TableStatistics:
        """Statistics of a table, computed once per distinct column set."""
        key = self._key(table)
        entry = self._cache.get(key)
        if entry is None:
            statistics = analyze_table(table)
            with self._lock:
                entry = self._cache.get(key)
                if entry is None:
                    while len(self._cache) >= self.max_entries:
                        self._cache.pop(next(iter(self._cache)))
                    entry = (table, statistics)
                    self._cache[key] = entry
        return entry[1]

    def for_atom(self, atom: Atom) -> TableStatistics:
        """Statistics of an atom's base table."""
        return self.for_table(atom.table)

    def for_query(self, query: ConjunctiveQuery) -> Dict[str, TableStatistics]:
        """Statistics for every atom of a query."""
        return {atom.name: self.for_atom(atom) for atom in query.atoms}

    def clear(self) -> None:
        """Drop all cached statistics."""
        self._cache.clear()
