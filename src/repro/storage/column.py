"""A typed, in-memory column vector.

Columns are the unit of storage in this library (Section 4.2 of the paper:
"the raw data is stored column-wise, in main memory, and each column is
stored as a vector, as standard in column-oriented databases").
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

from repro.datatypes import Value, infer_column_type
from repro.errors import SchemaError


class Column:
    """A named vector of values of a single logical type.

    Parameters
    ----------
    name:
        Column name, unique within its table.
    values:
        The cell values.  A list is stored by reference, so callers that
        want isolation should pass a copy.  A ``memoryview`` cast to ``"q"``
        or ``"d"`` (packed INT / FLOAT storage: a shared-memory attachment,
        a table built from a join result) is kept as is, read-only.
    dtype:
        Optional logical type (``INT``/``FLOAT``/``TEXT``).  Inferred from the
        values when omitted.
    """

    __slots__ = ("name", "values", "dtype", "_digest", "_kernel")

    def __init__(
        self,
        name: str,
        values: Optional[Iterable[Value]] = None,
        dtype: Optional[str] = None,
    ) -> None:
        if not name:
            raise SchemaError("column name must be non-empty")
        self.name = name
        self.values: List[Value] = (
            values if isinstance(values, (list, memoryview)) else list(values or [])
        )
        self.dtype = dtype if dtype is not None else infer_column_type(self.values)
        # Memoized content digest (repro.storage.table.column_digest): the
        # planner wraps catalog tables in fresh per-query Table objects
        # *sharing* these column vectors, so the digest must live on the
        # column for fingerprinting and index-cache keys to stay O(1) per
        # repeated query.
        self._digest: Optional[bytes] = None
        # Memoized numpy encodings of this column (int64 / float64 / interner
        # codes), built on demand by repro.kernels.encoding.  Lives on the
        # column for the same reason as the digest: per-query Table wrappers
        # share column objects, so encoding a column is once per dataset.
        self._kernel: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Value]:
        return iter(self.values)

    def __getitem__(self, index: int) -> Value:
        return self.values[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return self.name == other.name and self.values == other.values

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self.values[:4])
        suffix = ", ..." if len(self.values) > 4 else ""
        return f"Column({self.name!r}, [{preview}{suffix}], dtype={self.dtype})"

    def append(self, value: Value) -> None:
        """Append a single value to the column."""
        self.values.append(value)

    def extend(self, values: Iterable[Value]) -> None:
        """Append many values to the column."""
        self.values.extend(values)

    def take(self, offsets: Sequence[int]) -> "Column":
        """Return a new column containing ``values[i]`` for each offset ``i``."""
        data = self.values
        return Column(self.name, [data[i] for i in offsets], dtype=self.dtype)

    def rename(self, new_name: str) -> "Column":
        """Return a column with the same values under a different name."""
        return Column(new_name, self.values, dtype=self.dtype)

    def distinct_count(self) -> int:
        """Number of distinct values (NULLs count as one value)."""
        return len(set(self.values))

    def min_max(self):
        """Return ``(min, max)`` over non-NULL values, or ``(None, None)``."""
        present = [v for v in self.values if v is not None]
        if not present:
            return None, None
        return min(present), max(present)

    def null_count(self) -> int:
        """Number of NULL cells."""
        return sum(1 for v in self.values if v is None)
