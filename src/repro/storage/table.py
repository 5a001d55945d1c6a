"""Column-oriented tables with bag semantics.

A :class:`Table` is an ordered collection of equally long
:class:`~repro.storage.column.Column` vectors.  Duplicate rows are allowed
(bag semantics, Section 2.1 of the paper).  Tables are the common input to all
three join engines; the join engines access them through column references
and row offsets rather than materializing row objects.
"""

from __future__ import annotations

import hashlib
import pickle
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.datatypes import FLOAT, INT, Row, Value, columns_to_rows, rows_to_columns
from repro.errors import SchemaError
from repro.storage.column import Column


def packed_values(column: Column) -> Optional[memoryview]:
    """The column as one native buffer — a ``"q"`` (int64) or ``"d"``
    (float64) ``memoryview`` — or ``None`` when that would not round-trip.

    A packed column (a shared-memory attachment, see
    :mod:`repro.storage.shm`, or a materialized intermediate) is its own
    buffer.  A list column packs when every value comes back exactly:
    ``bool`` is excluded from the int path (it would come back as ``int``
    and change reprs), as are ints beyond int64, and ints are excluded
    from the float path (they would come back as floats).
    """
    values = column.values
    if isinstance(values, memoryview):
        return values
    if column.dtype == INT and all(type(v) is int for v in values):
        try:
            return memoryview(array("q", values))
        except OverflowError:
            pass
    if column.dtype == FLOAT and all(type(v) is float for v in values):
        return memoryview(array("d", values))
    return None


def _column_payload(column: Column):
    """A canonical byte encoding of a column's values for fingerprinting.

    The encoding must be *representation independent*: a list column and a
    packed ``memoryview`` over the same data must digest identically, so a
    cache key computed in the exporting process matches what a worker
    computes over its attachment, and an intermediate keys like
    ``Table.from_rows`` over its rows.  INT/FLOAT columns therefore digest
    their :func:`packed_values` buffer (the shm plane's layout), hashed in
    place; everything else falls back to a deterministic pickle of the value
    list.
    """
    packed = packed_values(column)
    if packed is not None:
        return packed
    return pickle.dumps(list(column.values), protocol=pickle.HIGHEST_PROTOCOL)


def _column_digest(column: Column) -> bytes:
    """The column's content digest, memoized **on the column object**.

    The planner wraps catalog tables in fresh per-query ``Table`` objects
    that share the underlying columns, so a per-table memo would be thrown
    away every query; caching the 16-byte digest per column keeps repeated
    fingerprinting O(columns) instead of O(data).  In-place mutation
    (:meth:`Table.append_rows`) clears the memo.
    """
    cached = getattr(column, "_digest", None)
    if cached is None:
        cached = hashlib.blake2b(_column_payload(column), digest_size=16).digest()
        try:
            column._digest = cached
        except AttributeError:  # exotic column without the slot: skip memo
            pass
    return cached


class Table:
    """An in-memory, column-oriented relation.

    Parameters
    ----------
    name:
        Relation name.
    columns:
        The column vectors, in schema order.  All columns must have distinct
        names and equal length.
    """

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {name!r}: {names}")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise SchemaError(
                f"columns of table {name!r} have differing lengths: "
                + ", ".join(f"{c.name}={len(c)}" for c in columns)
            )
        self.name = name
        self.columns: List[Column] = list(columns)
        self._by_name: Dict[str, Column] = {c.name: c for c in self.columns}
        #: Bumped by in-place mutation (:meth:`append_rows`); caches keyed by
        #: table identity (shm exports, statistics) use it for invalidation.
        self.version = 0
        self._fingerprint: Optional[str] = None
        #: Callbacks invoked after each :meth:`append_rows`; see
        #: :meth:`add_append_hook`.  The change-feed plane
        #: (:mod:`repro.views`) uses these to maintain standing queries.
        self._append_hooks: List[Callable[["Table", Sequence[Row], int], None]] = []

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_rows(
        cls, name: str, column_names: Sequence[str], rows: Sequence[Row]
    ) -> "Table":
        """Build a table from row tuples."""
        data = rows_to_columns(rows, len(column_names))
        columns = [Column(cname, values) for cname, values in zip(column_names, data)]
        if not columns:
            raise SchemaError("a table needs at least one column")
        return cls(name, columns)

    @classmethod
    def from_columns(cls, name: str, data: Dict[str, Sequence[Value]]) -> "Table":
        """Build a table from a mapping of column name to values."""
        columns = [Column(cname, list(values)) for cname, values in data.items()]
        if not columns:
            raise SchemaError("a table needs at least one column")
        return cls(name, columns)

    @classmethod
    def empty_like(cls, other: "Table", name: Optional[str] = None) -> "Table":
        """An empty table with the same schema as ``other``."""
        columns = [Column(c.name, [], dtype=c.dtype) for c in other.columns]
        return cls(name or other.name, columns)

    # ------------------------------------------------------------------ #
    # Schema accessors
    # ------------------------------------------------------------------ #

    @property
    def column_names(self) -> List[str]:
        """Column names in schema order."""
        return [c.name for c in self.columns]

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.columns)

    @property
    def num_rows(self) -> int:
        """Number of rows (with duplicates)."""
        return len(self.columns[0]) if self.columns else 0

    def __len__(self) -> int:
        return self.num_rows

    def has_column(self, name: str) -> bool:
        """Whether a column with the given name exists."""
        return name in self._by_name

    def column(self, name: str) -> Column:
        """Return the column with the given name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}; "
                f"available: {self.column_names}"
            ) from None

    def column_index(self, name: str) -> int:
        """Return the position of a column in schema order."""
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #

    def row(self, index: int) -> Row:
        """Materialize a single row as a tuple."""
        return tuple(c.values[index] for c in self.columns)

    def iter_rows(self) -> Iterator[Row]:
        """Iterate over all rows as tuples."""
        return zip(*[c.values for c in self.columns])

    def to_rows(self) -> List[Row]:
        """Materialize all rows."""
        return columns_to_rows([c.values for c in self.columns])

    def row_values(self, index: int, column_names: Sequence[str]) -> Row:
        """Materialize the given columns of one row as a tuple."""
        return tuple(self._by_name[name].values[index] for name in column_names)

    # ------------------------------------------------------------------ #
    # Relational operations (used for selection/projection pushdown)
    # ------------------------------------------------------------------ #

    def take(self, offsets: Sequence[int], name: Optional[str] = None) -> "Table":
        """Return a table containing the rows at the given offsets."""
        columns = [c.take(offsets) for c in self.columns]
        return Table(name or self.name, columns)

    def project(self, column_names: Sequence[str], name: Optional[str] = None) -> "Table":
        """Return a table with only the given columns (no deduplication).

        Bag semantics are preserved: projecting does not remove duplicates,
        matching the paper's treatment of projections as post-join operations
        except when explicitly requested via :meth:`distinct`.
        """
        columns = [self.column(cname) for cname in column_names]
        return Table(name or self.name, [Column(c.name, c.values, c.dtype) for c in columns])

    def rename_columns(self, mapping: Dict[str, str], name: Optional[str] = None) -> "Table":
        """Return a table with some columns renamed."""
        columns = [
            c.rename(mapping.get(c.name, c.name)) for c in self.columns
        ]
        return Table(name or self.name, columns)

    def filter(self, predicate: Callable[[Row], bool], name: Optional[str] = None) -> "Table":
        """Return a table with only the rows for which ``predicate`` holds.

        The predicate receives each row as a tuple in schema order.
        """
        offsets = [i for i, row in enumerate(self.iter_rows()) if predicate(row)]
        return self.take(offsets, name=name)

    def filter_offsets(self, predicate: Callable[[Row], bool]) -> List[int]:
        """Return the offsets of rows satisfying ``predicate``."""
        return [i for i, row in enumerate(self.iter_rows()) if predicate(row)]

    def distinct(self, name: Optional[str] = None) -> "Table":
        """Return a table with duplicate rows removed (first occurrence kept)."""
        seen = set()
        offsets = []
        for i, row in enumerate(self.iter_rows()):
            if row not in seen:
                seen.add(row)
                offsets.append(i)
        return self.take(offsets, name=name)

    def head(self, limit: int, name: Optional[str] = None) -> "Table":
        """Return the first ``limit`` rows."""
        return self.take(range(min(limit, self.num_rows)), name=name)

    # ------------------------------------------------------------------ #
    # Identity and mutation
    # ------------------------------------------------------------------ #

    def fingerprint(self) -> str:
        """A content hash stable across processes and storage representations.

        Covers the table name, schema (column names and dtypes), row count,
        and every cell value.  A table rebuilt in a worker from a
        shared-memory attachment fingerprints identically to its source, so
        the kernels' program and index caches key on it in every worker.  Cached
        per instance; in-place mutation (:meth:`append_rows`) invalidates it.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            schema = tuple((c.name, c.dtype) for c in self.columns)
            digest.update(repr((self.name, schema, self.num_rows)).encode())
            for column in self.columns:
                digest.update(_column_digest(column))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def approx_bytes(self) -> int:
        """A cheap estimate of the table's in-memory payload size.

        Used for cache byte budgets, not accounting: packed columns count
        their buffer size, everything else is approximated at 8 bytes per
        cell plus Python object overhead.
        """
        total = 0
        for column in self.columns:
            values = column.values
            if isinstance(values, memoryview):
                total += values.nbytes
            else:
                total += 8 * len(values) + 48
        return total

    def append_rows(self, rows: Sequence[Row]) -> None:
        """Append rows in place (bag semantics), bumping :attr:`version`.

        This is the one mutating operation tables support; every cache keyed
        by table identity (shared-memory exports, statistics, worker context
        caches) observes the version bump or the changed fingerprint and
        re-derives its state.  Tables backed by shared-memory views (worker
        attachments) are read-only and reject mutation.
        """
        for column in self.columns:
            if not isinstance(column.values, list):
                raise SchemaError(
                    f"table {self.name!r} is backed by shared storage and "
                    f"cannot be mutated in place"
                )
        for row in rows:
            if len(row) != self.arity:
                raise SchemaError(
                    f"cannot append row of arity {len(row)} to table "
                    f"{self.name!r} of arity {self.arity}"
                )
        for index, column in enumerate(self.columns):
            column.values.extend(row[index] for row in rows)
            column._digest = None
            column._kernel = None
        old_version = self.version
        self.version += 1
        self._fingerprint = None
        for hook in list(self._append_hooks):
            hook(self, rows, old_version)

    def add_append_hook(
        self, hook: Callable[["Table", Sequence[Row], int], None]
    ) -> None:
        """Register a callback fired after every :meth:`append_rows`.

        The hook runs *synchronously in the appender's thread*, after the
        rows are in place and :attr:`version` is bumped, as
        ``hook(table, rows, old_version)`` — ``old_version`` is the version
        the append replaced, so a listener tracking versions can detect a
        gap (appends it never saw).  ``rows`` is the appended sequence;
        hooks must treat it as read-only.  A hook that raises propagates to
        the appender.
        """
        self._append_hooks.append(hook)

    def remove_append_hook(
        self, hook: Callable[["Table", Sequence[Row], int], None]
    ) -> None:
        """Unregister a previously added append hook (no-op if absent)."""
        try:
            self._append_hooks.remove(hook)
        except ValueError:
            pass

    def concat(self, other: "Table", name: Optional[str] = None) -> "Table":
        """Append another table with an identical schema (bag union)."""
        if self.column_names != other.column_names:
            raise SchemaError(
                f"cannot concat {self.name!r} and {other.name!r}: "
                f"schemas differ ({self.column_names} vs {other.column_names})"
            )
        columns = [
            Column(c.name, list(c.values) + list(o.values), dtype=c.dtype)
            for c, o in zip(self.columns, other.columns)
        ]
        return Table(name or self.name, columns)

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def __getstate__(self):
        # Append hooks are process-local observers (change feeds hold
        # session state that does not pickle); a copy shipped to a worker
        # has no subscribers to notify.
        state = self.__dict__.copy()
        state["_append_hooks"] = []
        return state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self.name == other.name
            and self.column_names == other.column_names
            and all(a.values == b.values for a, b in zip(self.columns, other.columns))
        )

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, columns={self.column_names}, "
            f"rows={self.num_rows})"
        )

    def same_bag(self, other: "Table") -> bool:
        """Whether two tables contain the same multiset of rows.

        Column names are ignored; only arity and row contents matter.  Useful
        in tests comparing the output of different join engines.
        """
        if self.arity != other.arity or self.num_rows != other.num_rows:
            return False
        return sorted(self.iter_rows(), key=repr) == sorted(other.iter_rows(), key=repr)
