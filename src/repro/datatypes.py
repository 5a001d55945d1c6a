"""Value-domain helpers shared across the library.

The reproduction stores relational data as plain Python values.  A *value* is
an ``int``, ``float`` or ``str`` (the paper's benchmarks contain no NULLs, see
Section 5.1, but ``None`` is tolerated by the storage layer so that loaders do
not have to special-case missing cells).  A *row* is a tuple of values.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

Value = Union[int, float, str, None]
Row = Tuple[Value, ...]

#: Logical data types understood by the storage layer.
INT = "INT"
FLOAT = "FLOAT"
TEXT = "TEXT"

_TYPE_ORDER = {INT: 0, FLOAT: 1, TEXT: 2}


def infer_type(value: Value) -> Optional[str]:
    """Return the logical type of a single value, or ``None`` for NULL."""
    if value is None:
        return None
    if isinstance(value, bool):
        # Booleans are ints in Python; we store them as INT explicitly.
        return INT
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return TEXT
    raise TypeError(f"unsupported value type: {type(value).__name__}")


def unify_types(first: Optional[str], second: Optional[str]) -> Optional[str]:
    """Combine two logical types, widening INT to FLOAT and anything to TEXT.

    ``None`` (meaning "unknown, only NULLs seen so far") defers to the other
    argument.
    """
    if first is None:
        return second
    if second is None:
        return first
    if first == second:
        return first
    return first if _TYPE_ORDER[first] >= _TYPE_ORDER[second] else second


def infer_column_type(values: Sequence[Value]) -> str:
    """Infer the logical type of a column from its values.

    Decided from the *set of value types* — :func:`infer_type` once per
    distinct type, on its first value — so the cost per cell is one C-level
    ``type()``.  NULLs are ignored and a column of only NULLs defaults to
    TEXT; INT widens to FLOAT and anything to TEXT.  A value of an
    unsupported type is a ``TypeError`` wherever it stands in the column —
    also after a string, where a scan that stops at the first TEXT value
    would let it pass.
    """
    current: Optional[str] = None
    for kind in set(map(type, values)):
        representative = next(value for value in values if type(value) is kind)
        current = unify_types(current, infer_type(representative))
    return current if current is not None else TEXT


def parse_value(text: str) -> Value:
    """Parse a CSV cell into the narrowest value type that fits.

    Empty strings become ``None`` (missing).  Integers are preferred over
    floats, floats over text.
    """
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def format_value(value: Value) -> str:
    """Render a value for CSV output; ``None`` becomes the empty string."""
    if value is None:
        return ""
    return str(value)


def rows_to_columns(rows: Sequence[Row], arity: int) -> list:
    """Transpose a sequence of rows into ``arity`` column lists."""
    columns = [[] for _ in range(arity)]
    for row in rows:
        if len(row) != arity:
            raise ValueError(
                f"row arity {len(row)} does not match expected arity {arity}"
            )
        for i, value in enumerate(row):
            columns[i].append(value)
    return columns


def columns_to_rows(columns: Sequence[Sequence[Value]]) -> list:
    """Transpose equally long columns into a list of row tuples.

    The one columns→rows transposer (``Table.to_rows``, ``JoinResult.to_rows``
    and the sinks' row delivery all come here); no columns, no rows.
    """
    return list(zip(*columns))
