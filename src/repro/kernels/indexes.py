"""Fingerprint-cached sorted join indexes for the batch kernels.

A :class:`ProbeIndex` replaces a relation's hash table / trie on the
vectorized path, as one multi-key level of the paper's generalized hash
trie: rows are stably sorted by the bound key columns (only), and each key
prefix gets dense codes over sorted dictionaries of distinct values.  A
batch probe looks each key up in its dictionary — by direct address where
an integer dictionary's value span is small (the degenerate perfect hash),
else by ``searchsorted`` — then gathers each full key's row range from
``starts``.  Ties keep the original row order — the same order hash
buckets and trie vectors iterate, which keeps the binary engine's output
byte-identical.

A :class:`DriverIndex` groups a relation's rows by a variable prefix in
*first-occurrence* order — exactly the iteration order of the hash maps the
row-at-a-time engines build (Python dicts preserve insertion order), which
is what lets the steal scheduler's entry ranges slice the same partition on
both paths.

Both are cached, in a bounded LRU, under what they are built from
(:func:`~repro.kernels.encoding.key_digest`): each key column's dtype and
content digest for an int or float key, the digest of its interner codes
for a code key, and the keys' encodings.  The key names no table: the aliases of a self-joined table
share one index per key content, and a table rebuilt from a shared-memory
attachment in a worker process hits the same entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.kernels.encoding import code_array, float_array, int_array, key_array, key_digest

try:  # pragma: no cover
    import numpy as np
except Exception:  # pragma: no cover
    np = None

#: Maximum cached indexes; eviction is least-recently-used.
INDEX_CACHE_CAPACITY = 256

_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_CACHE_LOCK = threading.Lock()


def index_cache_clear() -> None:
    """Drop every cached index (tests and memory pressure)."""
    with _CACHE_LOCK:
        _CACHE.clear()


def _cache_get(key: tuple):
    with _CACHE_LOCK:
        entry = _CACHE.get(key)
        if entry is not None:
            _CACHE.move_to_end(key)
        return entry


def _cache_put(key: tuple, entry) -> None:
    with _CACHE_LOCK:
        _CACHE[key] = entry
        _CACHE.move_to_end(key)
        while len(_CACHE) > INDEX_CACHE_CAPACITY:
            _CACHE.popitem(last=False)


def _dense_levels(arrays: Sequence, size: int):
    """Code every key prefix densely and stably sort the rows by the full key.

    Returns ``(perm, uniques, pairs, starts)``: ``uniques[j]`` holds the
    sorted distinct values of key ``j``, ``pairs[j - 1]`` the sorted
    distinct ``(prefix code, rank of key j)`` codes, ``perm`` the rows in
    full-key order with ties in original row order (``np.lexsort``'s
    permutation), and ``starts`` the ``perm`` offset of each full-key
    group plus a final ``size``.  Needs ``size > 0`` and at least one key.
    """
    uniques, pairs = [], []
    code = None
    for arr in arrays:
        values, rank = np.unique(arr, return_inverse=True)
        uniques.append(values)
        if code is None:
            code = rank
        else:
            # A prefix code is below ``size`` and a rank below
            # ``len(values) <= size``, so pair codes stay below ``size**2``
            # — no int64 overflow under ~3e9 rows.
            distinct, code = np.unique(code * len(values) + rank, return_inverse=True)
            pairs.append(distinct)
    # Sorting ``code * size + row`` (again below ``size**2``) orders rows by
    # full-key code with ties by row: a stable sort without an argsort.
    order = code * size
    order += np.arange(size, dtype=np.int64)
    order.sort()
    perm = order % size
    return perm, uniques, pairs, np.concatenate(([0], np.cumsum(np.bincount(code))))


#: An integer dictionary gets direct-address slots when its value span is at
#: most this many times its size, or at most :data:`SLOT_SPAN_FLOOR` values.
SLOT_SPAN_FACTOR = 8
SLOT_SPAN_FLOOR = 2**18


def _slots(table):
    """Direct-address slots of a sorted distinct dictionary, or ``None``.

    ``slots[v - table[0]]`` is ``np.searchsorted(table, v)`` for every ``v``
    in ``[table[0], table[-1]]``: a present value's position, an absent
    one's insertion point, so a lookup through the slots returns exactly
    what bisection returns.  Float dictionaries and wide spans get none.
    """
    if table.dtype.kind != "i" or not table.size:
        return None
    span = int(table[-1]) - int(table[0]) + 1
    if span > max(SLOT_SPAN_FACTOR * table.size, SLOT_SPAN_FLOOR):
        return None
    present = np.zeros(span, dtype=np.bool_)
    present[table - table[0]] = True
    # Positions below 2**16 fit two bytes: half the memory of int32 slots.
    slots = np.cumsum(present, dtype=np.uint16 if table.size < 2**16 else np.int32)
    slots -= present
    return slots


def _lookup(table, slots, keys):
    """Position of each key in the sorted distinct ``table``, and whether it is there.

    The position is ``searchsorted``'s, clamped to the last entry: read from
    ``slots`` with the keys clamped into the table's range first (so no
    subtraction can wrap), else bisected.
    """
    if slots is None:
        # Bisect in key order and scatter the positions back: each search
        # then starts near the last one, which roughly halves the branch and
        # cache misses on a random-order frontier of a few thousand keys,
        # net of the argsort (about even at 64 keys).
        order = np.argsort(keys)
        pos = np.empty(len(keys), dtype=np.int64)
        pos[order] = np.searchsorted(table, keys[order])
        np.minimum(pos, len(table) - 1, out=pos)
    else:
        first = table[0]
        idx = np.maximum(keys, first)
        np.minimum(idx, table[-1], out=idx)
        idx -= first
        pos = slots[idx].astype(np.int64)
    return pos, table[pos] == keys


class ProbeIndex:
    """A relation stably sorted by its bound key columns, one GHT level.

    ``uniques``, ``pairs`` and ``starts`` are :func:`_dense_levels`'s: a
    probe is one lookup per key over distinct values (and, past the first
    key, over the distinct prefix pairs) to a dense full-key code, then a
    ``starts`` gather for the code's row range in ``perm``.
    ``unique_slots`` / ``pair_slots`` hold each dictionary's
    :func:`_slots` (``None``: it is bisected), ``sizes`` each full-key
    group's row count.
    """

    __slots__ = (
        "perm", "uniques", "pairs", "starts", "size", "unique_slots", "pair_slots", "sizes"
    )

    def __init__(self, perm, uniques, pairs, starts, size: int) -> None:
        self.perm = perm
        self.uniques = uniques
        self.pairs = pairs
        self.starts = starts
        self.size = size
        self.unique_slots = [_slots(table) for table in uniques]
        self.pair_slots = [_slots(table) for table in pairs]
        self.sizes = np.diff(starts)

    def probe(
        self, frontier_cols: Sequence, frontier_size: int
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Match-range ``(lo, hi)`` per frontier element (half-open).

        ``frontier_size`` is the frontier length — needed explicitly for
        key-less (cross product) probes, where every frontier element
        matches the whole relation.
        """
        lo, counts = self.match(frontier_cols, frontier_size)
        return lo, lo + counts

    def match(
        self, frontier_cols: Sequence, frontier_size: int
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """:meth:`probe` as ``(lo, counts)``: each range's start and length."""
        if not self.uniques:
            lo = np.zeros(frontier_size, dtype=np.int64)
            return lo, np.full(frontier_size, self.size, dtype=np.int64)
        code, found = _lookup(self.uniques[0], self.unique_slots[0], frontier_cols[0])
        for values, slots, pairs, pair_slots, vals in zip(
            self.uniques[1:], self.unique_slots[1:], self.pairs, self.pair_slots, frontier_cols[1:]
        ):
            rank, hit = _lookup(values, slots, vals)
            found &= hit
            code, hit = _lookup(pairs, pair_slots, code * len(values) + rank)
            found &= hit
        counts = self.sizes[code]
        counts *= found
        return self.starts[code], counts


class DriverIndex:
    """A relation's rows grouped by a variable prefix, first-occurrence order."""

    __slots__ = ("perm", "starts", "group_count", "size")

    def __init__(self, perm, starts, group_count: int, size: int) -> None:
        self.perm = perm
        self.starts = starts
        self.group_count = group_count
        self.size = size

    def rows_for_groups(self, start: int, stop: int) -> "np.ndarray":
        """Row indices (original order within groups) of groups [start, stop)."""
        start = max(0, min(start, self.group_count))
        stop = max(start, min(stop, self.group_count))
        return self.perm[int(self.starts[start]) : int(self.starts[stop])]


def column_distinct_count(column) -> int:
    """Distinct-value count of a column under Python dict-key equivalence.

    Matches ``len(set(column.values))`` exactly (every encoding preserves
    dict equivalence), which is what the steal scheduler's entry totals are
    computed from — kernel drivers must agree with that count.
    """
    cache = getattr(column, "_kernel", None)
    if cache is not None and "distinct" in cache:
        return cache["distinct"]
    arr = int_array(column)
    if arr is None:
        arr = float_array(column)
    if arr is None:
        arr = code_array(column)
    count = int(np.unique(arr).size) if arr.size else 0
    if cache is None:
        cache = getattr(column, "_kernel", None)
    if cache is not None:
        cache["distinct"] = count
    return count


def _key_arrays(atom, key_vars: Sequence[str], kinds: Dict[str, str]) -> list:
    return [key_array(atom.table.column(atom.column_for(var)), kinds[var]) for var in key_vars]


def build_probe_index(atom, key_vars: Sequence[str], kinds: Dict[str, str]) -> ProbeIndex:
    size = atom.size
    if not key_vars or size == 0:
        # Key-less, or empty: every probe matches all ``size`` rows.
        starts = np.asarray([0, size], dtype=np.int64)
        return ProbeIndex(np.arange(size, dtype=np.int64), [], [], starts, size)
    perm, uniques, pairs, starts = _dense_levels(_key_arrays(atom, key_vars, kinds), size)
    return ProbeIndex(perm, uniques, pairs, starts, size)


def build_driver_index(
    atom, group_vars: Sequence[str], kinds: Dict[str, str]
) -> DriverIndex:
    size = atom.size
    if size == 0:
        return DriverIndex(
            np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), 0, 0
        )
    if not group_vars:
        perm = np.arange(size, dtype=np.int64)
        starts = np.asarray([0, size], dtype=np.int64)
        return DriverIndex(perm, starts, 1, size)
    perm, _, _, starts = _dense_levels(_key_arrays(atom, group_vars, kinds), size)
    # Reorder the value-ordered groups by first occurrence — the insertion
    # order a Python dict built over these rows would iterate in.  ``perm``
    # leads each group with its smallest row; ``rows`` lists each group's
    # ``perm`` offsets in the new group order.
    counts = np.diff(starts)
    order = np.argsort(perm[starts[:-1]])
    counts = counts[order]
    grouped = np.cumsum(counts)
    rows = np.repeat(starts[order] - (grouped - counts), counts)
    rows += np.arange(size, dtype=np.int64)
    starts = np.append(np.zeros(1, dtype=np.int64), grouped)
    return DriverIndex(perm[rows], starts, len(counts), size)


def _cached(build, tag: str, atom, variables: Sequence[str], kinds, stats):
    """``build(atom, variables, kinds)``, cached by what it is built from.

    The key is the kind tag, the row count (all a key-less index depends
    on), each key's :func:`~repro.kernels.encoding.key_digest` and each
    key's encoding — no table name, so every alias of one table shares the
    entry.
    """
    key = (
        tag,
        atom.size,
        tuple(key_digest(atom.table.column(atom.column_for(v)), kinds[v]) for v in variables),
        tuple(kinds[var] for var in variables),
    )
    entry = _cache_get(key)
    if entry is not None:
        if stats is not None:
            stats["index_hits"] = stats.get("index_hits", 0) + 1
        return entry
    if stats is not None:
        stats["index_misses"] = stats.get("index_misses", 0) + 1
    entry = build(atom, variables, kinds)
    _cache_put(key, entry)
    return entry


def probe_index(
    atom, key_vars: Sequence[str], kinds: Dict[str, str], stats: Optional[dict] = None
) -> ProbeIndex:
    """Cached :func:`build_probe_index` keyed by key-column content."""
    return _cached(build_probe_index, "probe", atom, key_vars, kinds, stats)


def driver_index(
    atom, group_vars: Sequence[str], kinds: Dict[str, str], stats: Optional[dict] = None
) -> DriverIndex:
    """Cached :func:`build_driver_index` keyed by key-column content."""
    return _cached(build_driver_index, "driver", atom, group_vars, kinds, stats)
