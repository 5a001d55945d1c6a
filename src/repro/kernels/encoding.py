"""Columnar value encodings for the batch-at-a-time join kernels.

The kernels join on numpy arrays, but the storage layer holds arbitrary
Python values (``int | float | str | None``, plus bools stored as INT).  The
join semantics the kernels must reproduce are *Python dict-key semantics*:
the row-at-a-time engines probe hash tables / tries keyed by raw values, so
``1``, ``1.0`` and ``True`` collapse to one key, ``None`` is an ordinary
key, and NaN behaves identity-style (the same NaN object matches itself,
two different NaN objects do not).

Three encodings cover that exactly:

``"i"``
    Pure-int columns (no bools, no NULLs, within int64) as an ``int64``
    array.  Integer equality is dict equality.
``"f"``
    Pure-float columns without NaN as ``float64``; int columns may be
    widened into this kind when a join variable mixes int and float
    columns, provided every int is exactly representable (|v| <= 2^53).
    IEEE equality then matches Python's cross-type numeric equality.
``"c"``
    Everything else as *interner codes*: a process-wide dict maps each
    distinct value to a dense ``int64`` code.  Because the mapping is a
    Python dict, code equality is exactly dict-key equality — including the
    1 == 1.0 == True collapse and per-object NaN identity.

Encoded arrays are memoized on the column object (``Column._kernel``), so
repeated queries over the same catalog encode each column once.
Shared-memory columns (``repro.storage.shm``) already hold int64/float64
memoryviews and convert zero-copy; a bushy plan's intermediates hold the
same packed storage, built from the kernels' own gathers
(:func:`gathered_column`) with their encoding memoized up front.
"""

from __future__ import annotations

import threading
from itertools import chain, repeat
from typing import List, Optional, Sequence

from repro.datatypes import FLOAT, INT
from repro.storage.column import Column

try:  # pragma: no cover - exercised by the fallback tests via REPRO_KERNELS
    import numpy as np
except Exception:  # pragma: no cover
    np = None

#: Largest integer magnitude exactly representable as a float64.
FLOAT_EXACT_INT = 2**53

KIND_INT = "i"
KIND_FLOAT = "f"
KIND_CODE = "c"


class ValueInterner:
    """Process-wide value <-> code mapping with dict-key equivalence.

    Codes are only ever used inside one process (probe keys never cross a
    boundary; outputs decode from the original column storage), so the
    mapping can grow monotonically for the process lifetime.
    """

    def __init__(self) -> None:
        self._codes: dict = {}
        self._lock = threading.Lock()

    def encode_all(self, values) -> List[int]:
        """Intern every value, returning its dense code."""
        codes = self._codes
        with self._lock:
            get = codes.get
            out = []
            append = out.append
            for value in values:
                code = get(value)
                if code is None:
                    code = len(codes)
                    codes[value] = code
                append(code)
        return out

    def size(self) -> int:
        return len(self._codes)


#: The process-wide interner all kernels share.
INTERNER = ValueInterner()


def _column_cache(column) -> dict:
    cache = getattr(column, "_kernel", None)
    if cache is None:
        cache = {}
        try:
            column._kernel = cache
        except AttributeError:
            pass  # column-like object without the slot: compute uncached
    return cache


def int_array(column) -> Optional["np.ndarray"]:
    """``int64`` view of a pure-int column, or ``None`` if not representable.

    Bools are excluded (they would silently coerce to 0/1 and change the
    values a query outputs), as are NULLs and out-of-range ints.
    """
    cache = _column_cache(column)
    if "i" in cache:
        return cache["i"]
    arr = None
    values = column.values
    if isinstance(values, memoryview):
        view = np.asarray(values)
        if view.dtype == np.int64:
            arr = view
    elif column.dtype == INT:
        if not any(type(v) is bool for v in values):
            try:
                arr = np.asarray(values, dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                arr = None
    cache["i"] = arr
    return arr


def float_array(column) -> Optional["np.ndarray"]:
    """``float64`` view of a pure-float, NaN-free column, or ``None``.

    NaN is rejected because IEEE comparisons would group NaNs while the
    row-at-a-time engines treat each NaN object as its own dict key; NaN
    columns take the interner-code encoding instead, which preserves that.
    """
    cache = _column_cache(column)
    if "f" in cache:
        return cache["f"]
    arr = None
    values = column.values
    if isinstance(values, memoryview):
        view = np.asarray(values)
        if view.dtype == np.float64 and not np.isnan(view).any():
            arr = view
    elif column.dtype == FLOAT:
        try:
            candidate = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            candidate = None
        if candidate is not None:
            if not any(type(v) is not float for v in values):
                if not np.isnan(candidate).any():
                    arr = candidate
    cache["f"] = arr
    return arr


def int_as_float_array(column) -> Optional["np.ndarray"]:
    """A pure-int column widened to ``float64``, exactly, or ``None``."""
    cache = _column_cache(column)
    if "if" in cache:
        return cache["if"]
    arr = None
    ints = int_array(column)
    if ints is not None and (
        ints.size == 0
        or (int(ints.min()) >= -FLOAT_EXACT_INT and int(ints.max()) <= FLOAT_EXACT_INT)
    ):
        arr = ints.astype(np.float64)
    cache["if"] = arr
    return arr


def code_array(column) -> "np.ndarray":
    """Interner codes for every cell.  Never fails (any value interns)."""
    cache = _column_cache(column)
    arr = cache.get("c")
    if arr is None:
        arr = np.asarray(INTERNER.encode_all(column.values), dtype=np.int64)
        cache["c"] = arr
    return arr


def choose_kind(columns: Sequence) -> str:
    """Pick one encoding for a join variable bound by ``columns``.

    All columns of the variable must encode into a *shared* key space, so
    the kind is the strongest one every participant supports.
    """
    kinds = []
    for column in columns:
        if int_array(column) is not None:
            kinds.append(KIND_INT)
        elif float_array(column) is not None:
            kinds.append(KIND_FLOAT)
        else:
            return KIND_CODE
    if all(kind == KIND_INT for kind in kinds):
        return KIND_INT
    # Mixed int/float: ints must widen exactly or IEEE equality diverges
    # from Python's arbitrary-precision comparison.
    for column, kind in zip(columns, kinds):
        if kind == KIND_INT and int_as_float_array(column) is None:
            return KIND_CODE
    return KIND_FLOAT


def key_array(column, kind: str) -> "np.ndarray":
    """The column's array in a variable's chosen key space."""
    if kind == KIND_INT:
        arr = int_array(column)
        if arr is None:
            raise ValueError(f"column {column.name!r} is not int-encodable")
        return arr
    if kind == KIND_FLOAT:
        arr = float_array(column)
        if arr is None:
            arr = int_as_float_array(column)
        if arr is None:
            raise ValueError(f"column {column.name!r} is not float-encodable")
        return arr
    return code_array(column)


def decode_gather(column, row_indices: "np.ndarray", packed: bool = False):
    """Gather original Python values for ``row_indices`` — always exact.

    Numeric columns decode through their numpy arrays (fast ``take`` +
    ``tolist``); everything else gathers from the raw storage, so outputs
    preserve each row's own value object (no interner canonicalization).
    With ``packed``, a numeric column's gather is returned as the
    ``int64`` / ``float64`` array itself, not listed.
    """
    numbers = int_array(column)
    if numbers is None:
        numbers = float_array(column)
    if numbers is not None:
        gathered = numbers[row_indices]
        return gathered if packed else gathered.tolist()
    values = column.values
    return [values[i] for i in row_indices.tolist()]


#: The storage dtype and ``memoryview`` format of each packed array dtype.
_PACKED = {"int64": (INT, "q", KIND_INT), "float64": (FLOAT, "d", KIND_FLOAT)}


def gathered_column(name: str, parts: Sequence, weights: Sequence) -> Column:
    """One column of a materialized result from its flat batches' parts.

    ``parts[i]`` is batch ``i``'s values, ``weights[i]`` its multiplicities
    (``None``: all 1).  When every part is a packed gather of one dtype
    (:func:`decode_gather`), the column is packed: one ``int64`` /
    ``float64`` buffer, held as the same cast ``memoryview`` the
    shared-memory plane attaches, with its dtype taken from the array and
    its kernel encoding memoized up front — nothing is listed, inferred or
    re-encoded.  Any other mix (row-path lists, TEXT, NULLs, no rows) is a
    list column, built exactly as ``Table.from_rows`` would.
    """
    dtypes = {str(getattr(part, "dtype", None)) for part in parts}
    if len(dtypes) == 1 and dtypes <= _PACKED.keys():
        arrays = [part if w is None else np.repeat(part, w) for part, w in zip(parts, weights)]
        packed = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        if packed.size:  # no rows: TEXT, like an empty list
            dtype, fmt, kind = _PACKED[dtypes.pop()]
            column = Column(name, memoryview(packed).cast("B").cast(fmt), dtype)
            column._kernel = {kind: packed}
            return column
    if len(parts) == 1 and weights[0] is None and isinstance(parts[0], list):
        return Column(name, parts[0])  # by reference: the producer's own list
    values: list = []
    for part, w in zip(parts, weights):
        part = part.tolist() if hasattr(part, "dtype") else part
        values.extend(part if w is None else chain.from_iterable(map(repeat, part, w)))
    return Column(name, values)
