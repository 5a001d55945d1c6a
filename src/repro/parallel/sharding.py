"""Range-sharded views over Generalized Hash Tries.

Intra-query parallelism partitions the *root* node's cover trie: worker ``k``
of ``K`` sees only the entries with positions in ``[k*N/K, (k+1)*N/K)`` of the
cover's iteration order and runs the ordinary Free Join recursion below them.
Contiguous ranges (rather than hash partitioning) are used deliberately:

* every entry lands in exactly one shard, so the shard outputs partition the
  serial output bag, and
* iteration order within a shard matches the serial order, so concatenating
  shard outputs in shard order reproduces the serial row order exactly
  (byte-identical results) whenever cover selection is deterministic.

The view only filters :meth:`iter_entries`; probes (``get``) and the metadata
queries delegate to the wrapped trie, so dynamic cover selection at the root
sees the *full* key counts and therefore makes the same choice in every
worker as the serial executor does.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Tuple

from repro.core.ght import GHT
from repro.datatypes import Row


def shard_bounds(total: int, shard_index: int, shard_count: int) -> Tuple[int, int]:
    """The half-open slice ``[start, stop)`` of shard ``shard_index``.

    Work is spread as evenly as possible: the first ``total % shard_count``
    shards get one extra entry.  Concatenating all slices in shard order
    yields ``range(total)`` exactly.
    """
    if shard_count <= 0:
        raise ValueError(f"shard_count must be positive, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard index {shard_index} out of range for {shard_count} shards"
        )
    start = (total * shard_index) // shard_count
    stop = (total * (shard_index + 1)) // shard_count
    return start, stop


def entry_count(trie: GHT) -> int:
    """Number of entries :meth:`GHT.iter_entries` will yield for ``trie``.

    For a last-level node every stored tuple is one entry, so the count is
    the tuple count.  For inner nodes the entries are the distinct keys; the
    generic fallback simply walks the iterator once (iteration without
    recursion is cheap relative to the join work under each entry, and for a
    COLT node it forces at most this one level — which the subsequent
    iteration would force anyway).
    """
    if trie.levels_remaining() == 1:
        return trie.tuple_count()
    count = 0
    for _ in trie.iter_entries():
        count += 1
    return count


class RangeView(GHT):
    """A read-only slice of one trie level, presented as a GHT.

    Only :meth:`iter_entries` (and the batched variant inherited from
    :class:`GHT`) is filtered; everything else delegates to the wrapped trie.
    The slice is an explicit half-open entry range ``[start, stop)`` — the
    work-stealing scheduler decomposes a cover into many such ranges and
    hands each to whichever worker gets to it first.
    """

    def __init__(self, base: GHT, start: int, stop: int) -> None:
        if start < 0 or stop < start:
            raise ValueError(f"invalid entry range [{start}, {stop})")
        self.base = base
        self.relation = base.relation
        self.vars = base.vars
        self._bounds: Optional[Tuple[int, int]] = (start, stop)

    # ------------------------------------------------------------------ #
    # Structure (delegated)
    # ------------------------------------------------------------------ #

    def levels_remaining(self) -> int:
        return self.base.levels_remaining()

    def is_leaf(self) -> bool:
        return self.base.is_leaf()

    def tuple_count(self) -> int:
        return self.base.tuple_count()

    def key_count(self) -> int:
        # Deliberately the *full* count: dynamic cover selection must make
        # the same choice in every shard (and as the serial executor).
        return self.base.key_count()

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def bounds(self) -> Tuple[int, int]:
        """The entry slice this view exposes."""
        assert self._bounds is not None
        return self._bounds

    def iter_entries(self) -> Iterator[Tuple[Row, Optional[GHT]]]:
        start, stop = self.bounds()
        if start >= stop:
            return iter(())
        return itertools.islice(self.base.iter_entries(), start, stop)

    def get(self, key: Row) -> Optional[GHT]:
        # Probes are never sharded: a view used as a probe target must behave
        # exactly like the underlying trie.
        return self.base.get(key)

    def __repr__(self) -> str:
        start, stop = self.bounds()
        return f"RangeView({self.base!r}, [{start}, {stop}))"


class ShardView(RangeView):
    """A :class:`RangeView` addressed by ``(shard_index, shard_count)``.

    The slice is computed lazily on first iteration (from the wrapped trie's
    entry count), so constructing the view is free when the executor ends up
    never iterating it.  The work-stealing scheduler uses it for sub-root
    tasks, whose entry counts only the worker holding the sub-trie can know.
    """

    def __init__(self, base: GHT, shard_index: int, shard_count: int) -> None:
        if shard_count <= 0:
            raise ValueError(f"shard_count must be positive, got {shard_count}")
        if not 0 <= shard_index < shard_count:
            raise ValueError(
                f"shard index {shard_index} out of range for {shard_count} shards"
            )
        self.base = base
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.relation = base.relation
        self.vars = base.vars
        self._bounds: Optional[Tuple[int, int]] = None

    def bounds(self) -> Tuple[int, int]:
        """The entry slice this view exposes (computed on first use)."""
        if self._bounds is None:
            self._bounds = shard_bounds(
                entry_count(self.base), self.shard_index, self.shard_count
            )
        return self._bounds

    def __repr__(self) -> str:
        return (
            f"ShardView({self.base!r}, shard={self.shard_index}/{self.shard_count})"
        )


def shard_offsets(total: int, shard_count: int) -> List[Tuple[int, int]]:
    """All shard slices over ``range(total)``, in shard order.

    Convenience for drivers that enumerate every shard (e.g. the binary join
    pipeline, which shards the left relation's row offsets directly).
    """
    return [shard_bounds(total, index, shard_count) for index in range(shard_count)]
