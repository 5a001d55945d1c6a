"""Join output sinks: flat rows, counts, and the factorized representation.

All three join engines report their results through a *sink*.  The sink
decides how much of the output to materialize:

* :class:`RowSink` materializes the output: it keeps the flat column batches
  it is handed (with bag multiplicities); :class:`PackedRowSink`, a bushy
  plan's non-final pipeline's, takes the kernels' numeric gathers unlisted,
* :class:`CountSink` only counts output rows — the cheapest option, used by
  ``COUNT(*)`` queries and by benchmark drivers that do not need the rows,
* :class:`FactorizedSink` keeps the output factorized (Section 4.4,
  Figure 19): the same store, handed groups it never expands.

**One stored shape.**  The two materializing sinks are one body — a list of
batches in the shape below — and a :class:`JoinResult` is that list: each
column a vector (Section 4.2), of which row tuples are *views*
(:meth:`JoinResult.columns`, :meth:`~JoinResult.iter_rows`,
:meth:`~JoinResult.to_rows`, ...).  Nothing between a pipeline, the next
pipeline and the result table transposes; the one columns→rows ``zip`` left
(:func:`repro.datatypes.columns_to_rows`) sits where the contract *is* row
tuples — ``to_rows()``, ``iter_rows()`` and the default
:meth:`OutputSink.on_batch` on its way into a streaming sink's batches —
and it only ever sees flat column slices, however factorized the batch.

**One factorized shape.**  Factorized output is a *batch of groups* in
columnar form, ``(prefix_variables, prefix_columns, factors,
multiplicities)``: the prefix columns hold one value per group, and each
factor is ``(variables, columns, offsets)`` with *flat* columns segmented by
``groups + 1`` offsets — group ``i`` owns ``[offsets[i], offsets[i + 1])`` of
every column of that factor.  A group stands for prefix x factor1 x factor2
x ..., repeated ``multiplicities[i]`` times (``None`` means all 1).  A flat
columnar batch is the same shape with no factors.  The kernels emit many
groups per batch, the row path (``FreeJoinExecutor``) one group per batch,
the steal scheduler ships these batches across the worker boundary, and
exactly one function — :func:`expand_factorized_batch` — ever enumerates
the product, column-wise: as flat ``(columns, multiplicities)`` slices,
never as row tuples.

**One chain of defaults.**  A sink's producer surface is four entry points,
each defaulting to the one before it::

    on_row  <-  on_rows  <-  on_batch  <-  on_factorized_batch

``on_row`` takes one tuple (the row path's per-tuple call), ``on_rows`` a
list of tuples, ``on_batch`` one value column per output variable (zipped
into tuples), ``on_factorized_batch`` the shape above (a factor-free batch
is handed to ``on_batch``, anything else goes through the expander, whose
bounded column slices are handed to ``on_batch``).  A sink therefore
implements ``on_row`` and overrides the others only to be *cheaper* — a
count multiplies segment sizes, an aggregate folds factor columns — never to
be correct.  Sinks that gain from unexpanded groups advertise
``accepts_factorized``; producers only factorize into those.

**One transport.**  A sink is also how its content crosses a steal-task
boundary, and the scheduler never looks inside: :meth:`OutputSink.task_sink`
is a picklable recipe for the worker-side sink one task folds into, that
task sink's :meth:`~OutputSink.payload` is what crosses (a process boundary
included), and the parent sink takes it in (:meth:`~OutputSink.absorb`),
always on the submitting thread — as each task's result arrives
(``absorb_on_arrival``: the streaming and aggregate sinks, whose
first-batch latency depends on it; they still own a lock, so an
``absorb`` from several threads stays safe), or after the last task, in
task order (everything else: the result is in serial order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, islice, repeat
from math import prod
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.datatypes import Row, Value, columns_to_rows
from repro.errors import ExecutionError

#: One factor of a factorized batch: ``(variables, flat columns, offsets)``.
Factor = Tuple[Tuple[str, ...], Sequence[Sequence[Value]], Sequence[int]]

#: The one factorized shape: ``(prefix_variables, prefix_columns, factors,
#: multiplicities)`` — the argument list of ``on_factorized_batch``.
FactorizedBatch = Tuple[
    Sequence[str], Sequence[Sequence[Value]], Sequence[Factor], Optional[Sequence[int]]
]


def _factorized_group_count(prefix_columns, factors, multiplicities) -> int:
    """Number of groups in one factorized batch (any plane determines it)."""
    if prefix_columns:
        return len(prefix_columns[0])
    if factors:
        return len(factors[0][2]) - 1
    if multiplicities is not None:
        return len(multiplicities)
    return 0


def _is_array(values) -> bool:
    """Whether ``values`` is a kernel's numpy array (see ``packs_columns``)."""
    return hasattr(values, "dtype")


def count_factorized_batch(prefix_columns, factors, multiplicities) -> int:
    """Flat rows one factorized batch stands for, without enumerating them."""
    groups = _factorized_group_count(prefix_columns, factors, multiplicities)
    if not factors:
        if _is_array(multiplicities):
            return int(multiplicities.sum())
        return groups if multiplicities is None else sum(multiplicities)
    total = 0
    for i in range(groups):
        count = 1 if multiplicities is None else multiplicities[i]
        for _vars, _columns, offsets in factors:
            count *= offsets[i + 1] - offsets[i]
        total += count
    return total


def _factor_values(factor, column, offsets, sizes, counts):
    """Lazily, the values one factor's ``column`` takes over a batch's rows.

    Per kept group: each segment value repeated by the product of the later
    factors' segment sizes, the segment tiled by the product of the earlier
    ones — right-most factor fastest, as in ``itertools.product``.
    """
    if len(sizes) == 1:  # a group's rows are its segment: the column, less skipped groups
        values = islice(column, offsets[0], offsets[-1])
        if sum(counts) == offsets[-1] - offsets[0]:
            return values
        return compress(values, chain.from_iterable(map(repeat, map(bool, counts), sizes[0])))

    def group_values(i, group_sizes):
        values = column[offsets[i] : offsets[i + 1]]
        if factor:  # tile, lazily
            values = chain.from_iterable(repeat(values, prod(group_sizes[:factor])))
        inner = prod(group_sizes[factor + 1 :])
        return chain.from_iterable(map(repeat, values, repeat(inner))) if inner > 1 else values

    return chain.from_iterable(
        group_values(i, group_sizes) for i, group_sizes in enumerate(zip(*sizes)) if counts[i]
    )


def expand_factorized_batch(
    variables: Sequence[str],
    prefix_variables: Sequence[str],
    prefix_columns: Sequence[Sequence[Value]],
    factors: Sequence[Factor],
    multiplicities: Optional[Sequence[int]] = None,
    max_rows: Optional[int] = None,
) -> Iterator[Tuple[List[List[Value]], Optional[List[int]]]]:
    """Lazily expand one factorized batch into flat ``(columns, multiplicities)``.

    The one place a factorized Cartesian product is enumerated, a column at
    a time: each slice holds at most ``max_rows`` rows (``None``: the whole
    batch) as one value list per ``variables`` entry — ``on_batch``'s
    arguments, with ``multiplicities`` ``None`` when the batch's are (and
    explicit when there is no column to carry the row count).  Rows come out
    group by group, factors varying right-most fastest; groups with a
    non-positive multiplicity are skipped.  A prefix value is repeated, a
    factor segment repeated and tiled (:func:`_factor_values`) — no row tuple
    is built — and a slice only materializes its own rows, so a consumer
    never holds a large product, even inside one group.
    """
    sources: Dict[str, Tuple[int, int]] = {}  # variable -> (factor or -1, column index)
    for factor, names in enumerate([prefix_variables] + [f[0] for f in factors], -1):
        for index, var in enumerate(names):
            sources.setdefault(var, (factor, index))
    missing = [var for var in variables if var not in sources]
    if missing:
        raise ExecutionError(
            f"factorized batch does not bind output variables {missing}"
        )
    groups = _factorized_group_count(prefix_columns, factors, multiplicities)
    sizes = [[hi - lo for lo, hi in zip(offsets, offsets[1:])] for *_, offsets in factors]
    counts = list(map(prod, zip(*sizes))) if factors else [1] * groups
    if multiplicities is not None:
        counts = [count if weight > 0 else 0 for count, weight in zip(counts, multiplicities)]
    total = sum(counts)
    if not total:  # also a batch that stores no column for its variables
        return

    def per_group(column):  # one value per group -> one per row
        if factors:
            return chain.from_iterable(map(repeat, column, counts))
        return column if total == groups else compress(column, counts)

    def values(factor, index):
        if factor < 0:
            return per_group(prefix_columns[index])
        _vars, columns, offsets = factors[factor]
        return _factor_values(factor, columns[index], offsets, sizes, counts)

    streams = [iter(values(*sources[var])) for var in variables]
    weights = None if multiplicities is None else iter(per_group(multiplicities))
    step = max_rows or total
    for start in range(0, total, step):
        width = min(step, total - start)
        columns = [list(islice(stream, width)) for stream in streams]
        chunk = None if weights is None else list(islice(weights, width))
        yield columns, [1] * width if chunk is None and not columns else chunk


def rows_to_batch(rows: Sequence[Row], multiplicities: Optional[Sequence[int]] = None):
    """``(columns, multiplicities)`` of a row list: ``on_batch``'s arguments.

    The inverse of :meth:`OutputSink.on_batch`'s default, for sinks whose
    cheap entry point is the columnar one.  Zero-width rows have no column
    to carry their number, so they always get explicit multiplicities.
    """
    columns = list(map(list, zip(*rows)))
    if not columns and multiplicities is None:
        multiplicities = [1] * len(rows)
    return columns, multiplicities


class OutputSink:
    """Interface implemented by all sinks (see the module docstring)."""

    #: Whether the sink gains from :meth:`on_factorized_batch` groups left
    #: unexpanded.  Producers only factorize into sinks that advertise this.
    accepts_factorized = False

    #: Whether the sink reads only *how many* rows it is handed, never which:
    #: a plan policy may then fold every probe that binds nothing read later
    #: into multiplicities (binary join's ``compress``).
    counts_only = False

    #: When steal-task payloads are absorbed, on the submitting thread of
    #: either backend: as each task's result arrives, or (``False``) after
    #: the last task, in task order.  A constant of the sink class.
    absorb_on_arrival = False

    #: Whether the kernels may hand :meth:`on_batch` a numeric column as
    #: the ``int64`` / ``float64`` array they gathered, and multiplicities
    #: as an ``int64`` array, instead of lists.  Only the sink of a bushy
    #: plan's non-final pipeline (:class:`PackedRowSink`) does: every
    #: result a caller sees holds Python values.
    packs_columns = False

    #: What ``RunReport.details["output"]["mode"]`` calls a run into this sink.
    mode = "rows"

    #: Rows the default :meth:`on_factorized_batch` expands per
    #: :meth:`on_batch` call — all of a large product it ever holds at once.
    expand_rows = 1024

    def __init__(self, variables: Sequence[str]) -> None:
        #: Output variables, in the order rows are reported.
        self.variables: Tuple[str, ...] = tuple(variables)

    def on_row(self, row: Row, multiplicity: int = 1) -> None:
        """Report one fully bound output row with a bag multiplicity."""
        raise NotImplementedError

    def on_rows(
        self, rows: Sequence[Row], multiplicities: Optional[Sequence[int]] = None
    ) -> None:
        """Report many rows at once (``multiplicities=None`` means all 1)."""
        if multiplicities is None:
            for row in rows:
                self.on_row(row, 1)
        else:
            for row, multiplicity in zip(rows, multiplicities):
                self.on_row(row, multiplicity)

    def on_batch(
        self,
        columns: Sequence[Sequence[Value]],
        multiplicities: Optional[Sequence[int]] = None,
    ) -> None:
        """Report a columnar batch: one value column per output variable.

        ``columns`` aligns with :attr:`variables` (same order, equal
        lengths).  A batch without columns has one empty row per
        multiplicity.
        """
        rows = columns_to_rows(columns) if columns else [()] * len(multiplicities or ())
        self.on_rows(rows, multiplicities)

    def on_factorized_batch(
        self,
        prefix_variables: Sequence[str],
        prefix_columns: Sequence[Sequence[Value]],
        factors: Sequence[Factor],
        multiplicities: Optional[Sequence[int]] = None,
    ) -> None:
        """Report a batch of factorized groups (the module docstring's shape)."""
        if not factors and tuple(prefix_variables) == self.variables:
            self.on_batch(prefix_columns, multiplicities)
            return
        batch = (prefix_variables, prefix_columns, factors, multiplicities)
        for columns, weights in expand_factorized_batch(self.variables, *batch, self.expand_rows):
            self.on_batch(columns, weights)

    def result(self) -> "JoinResult":
        """Finalize and return the collected result."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # The worker -> parent transport (see the module docstring)
    # ------------------------------------------------------------------ #

    def task_sink(self) -> Callable[[], "OutputSink"]:
        """A picklable recipe for the sink one steal task of this sink fills.

        The default suits any sink: a :class:`FactorizedSink`, whose stored
        batches cross the worker boundary unexpanded.
        """
        return partial(FactorizedSink, self.variables)

    def payload(self):
        """A task sink's picklable content, for the parent's :meth:`absorb`."""
        raise NotImplementedError

    def absorb(self, payload) -> None:
        """Take in one task's :meth:`payload` (of a :meth:`task_sink` sink).

        The default replays a :class:`FactorizedSink`'s batches through
        :meth:`on_factorized_batch`, so groups expand — if at all — only
        here, at the delivery boundary.
        """
        for batch in payload:
            self.on_factorized_batch(*batch)

    def stats(self) -> Dict[str, object]:
        """Delivery / fold telemetry for ``details["parallel"][i]["stream"]``."""
        return {}


class RowSink(OutputSink):
    """Materializes the output: keeps the column batches it is handed.

    The store is a list of batches in the one factorized shape, verbatim —
    no per-row tuple, no copy, no Cartesian expansion; only a flat batch's
    entries with a non-positive multiplicity are dropped — and :meth:`result`
    hands it to a :class:`JoinResult`, of which rows are a view.  A steal
    task of it fills another one, whose batches — picklable lists — cross
    the worker boundary as they are and are appended in task order.

    Row-at-a-time producers (trie recursion, probe loops) still work: their
    rows are buffered and stored as one factor-free batch, in arrival order.
    Nothing *produces* factorized groups into this sink (it does not
    advertise ``accepts_factorized``); :class:`FactorizedSink` is the same
    store that does.
    """

    def __init__(self, variables: Sequence[str]) -> None:
        super().__init__(variables)
        self._batches: List[FactorizedBatch] = []
        self._rows: List[Row] = []
        self._multiplicities: List[int] = []

    def on_row(self, row: Row, multiplicity: int = 1) -> None:
        if multiplicity > 0:
            self._rows.append(row)
            self._multiplicities.append(multiplicity)

    def _flush_rows(self) -> None:
        """Store the buffered rows as one factor-free batch (keeps arrival order)."""
        if self._rows:
            columns, multiplicities = rows_to_batch(self._rows, self._multiplicities)
            self._batches.append((self.variables, columns, [], multiplicities))
            self._rows = []
            self._multiplicities = []

    def on_batch(
        self,
        columns: Sequence[Sequence[Value]],
        multiplicities: Optional[Sequence[int]] = None,
    ) -> None:
        self.on_factorized_batch(self.variables, columns, [], multiplicities)

    def on_factorized_batch(
        self,
        prefix_variables: Sequence[str],
        prefix_columns: Sequence[Sequence[Value]],
        factors: Sequence[Factor],
        multiplicities: Optional[Sequence[int]] = None,
    ) -> None:
        self._flush_rows()
        # (A kernel's int64 multiplicities are match counts, never below one.)
        if not factors and not _is_array(multiplicities) and min(multiplicities or [1]) <= 0:
            # Not in the bag: dropped here as in on_row, so count() == len(to_rows()).
            keep = [multiplicity > 0 for multiplicity in multiplicities]
            prefix_columns = [list(compress(column, keep)) for column in prefix_columns]
            multiplicities = list(compress(multiplicities, keep))
        self._batches.append(
            (tuple(prefix_variables), prefix_columns, factors, multiplicities)
        )

    def result(self) -> "JoinResult":
        return JoinResult(self.variables, self.payload())

    def task_sink(self):
        return partial(RowSink, self.variables)

    def payload(self):
        self._flush_rows()
        return self._batches

    def absorb(self, payload) -> None:
        self._flush_rows()
        self._batches.extend(payload)


class PackedRowSink(RowSink):
    """:class:`RowSink` for a non-final pipeline: numeric columns stay packed.

    The kernels hand it the ``int64`` / ``float64`` gathers themselves
    (``packs_columns``), which it stores — and a steal task ships, as
    buffers — like any batch; the pipeline driver then concatenates them
    into the packed columns of the intermediate table
    (:func:`repro.kernels.encoding.gathered_column`).  Row-path batches stay
    lists, as in a :class:`RowSink`.
    """

    packs_columns = True

    def task_sink(self):
        return partial(PackedRowSink, self.variables)


class CountSink(OutputSink):
    """Counts output rows without materializing them."""

    accepts_factorized = True
    counts_only = True
    mode = "count"

    def __init__(self, variables: Sequence[str]) -> None:
        super().__init__(variables)
        self._count = 0

    def on_row(self, row: Row, multiplicity: int = 1) -> None:
        self._count += multiplicity

    def on_rows(
        self, rows: Sequence[Row], multiplicities: Optional[Sequence[int]] = None
    ) -> None:
        if multiplicities is None:
            self._count += len(rows)
        else:
            self._count += sum(multiplicities)

    def on_batch(
        self,
        columns: Sequence[Sequence[Value]],
        multiplicities: Optional[Sequence[int]] = None,
    ) -> None:
        if multiplicities is not None:
            self._count += sum(multiplicities)
        elif columns:
            self._count += len(columns[0])

    def on_factorized_batch(
        self,
        prefix_variables: Sequence[str],
        prefix_columns: Sequence[Sequence[Value]],
        factors: Sequence[Factor],
        multiplicities: Optional[Sequence[int]] = None,
    ) -> None:
        self._count += count_factorized_batch(prefix_columns, factors, multiplicities)

    def result(self) -> "JoinResult":
        return JoinResult(self.variables, count_only=self._count)

    def task_sink(self):
        return partial(CountSink, self.variables)

    def payload(self):
        return self._count

    def absorb(self, payload) -> None:
        self._count += payload


class FactorizedSink(RowSink):
    """Keeps the output factorized (Section 4.4, Figure 19).

    :class:`RowSink`'s store, advertised to the producers: they hand it
    groups unexpanded, and the :class:`JoinResult` counts, folds or lazily
    expands them.  It is also the default :meth:`~OutputSink.task_sink`: a
    steal task of a streaming sink (or of any sink that names no cheaper
    one) fills one, and the parent sink's :meth:`~OutputSink.absorb` replays
    the batches.
    """

    accepts_factorized = True
    mode = "factorized"
    task_sink = OutputSink.task_sink  # the default recipe: this very class


@dataclass
class JoinResult:
    """The result of a join: the column batches a sink kept, or a count.

    Rows are a *view* of :attr:`batches`: :meth:`columns` is the flat
    columnar one, :meth:`iter_rows` / :meth:`to_rows` the tuple ones.
    """

    variables: Tuple[str, ...]
    #: Batches in the one factorized shape, exactly as the sink received
    #: them and in that order (empty for a count or a folded aggregate).
    batches: List[FactorizedBatch] = field(default_factory=list)
    count_only: Optional[int] = None
    #: The folded :class:`~repro.engine.aggregates.GroupedAggregateState` of
    #: an aggregate sink (else ``None``): the rows were aggregated where they
    #: were produced, ``count_only`` is the join cardinality they stood for.
    partial: Optional[object] = None

    @classmethod
    def from_rows(
        cls,
        variables: Sequence[str],
        rows: Sequence[Row],
        multiplicities: Optional[Sequence[int]] = None,
    ) -> "JoinResult":
        """A result holding ``rows`` (laid out as ``variables``) as one flat batch."""
        variables = tuple(variables)
        columns, multiplicities = rows_to_batch(rows, multiplicities)
        return cls(variables, [(variables, columns, [], multiplicities)] if rows else [])

    # ------------------------------------------------------------------ #
    # Cardinality
    # ------------------------------------------------------------------ #

    def count(self) -> int:
        """Total number of output rows (respecting bag multiplicities)."""
        if self.count_only is not None:
            return self.count_only
        return sum(
            count_factorized_batch(prefix_columns, factors, multiplicities)
            for _vars, prefix_columns, factors, multiplicities in self.batches
        )

    def is_factorized(self) -> bool:
        """Whether some stored batch still holds unexpanded factors."""
        return any(factors for _vars, _columns, factors, _multiplicities in self.batches)

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #

    def _stored(self) -> List[FactorizedBatch]:
        if self.count_only is not None:
            raise ExecutionError("count-only results have no rows to iterate")
        return self.batches

    def iter_rows(self) -> Iterator[Row]:
        """Iterate over flat output rows, expanding factorized batches lazily."""
        for batch in self._stored():
            for columns, multiplicities in expand_factorized_batch(
                self.variables, *batch, max_rows=OutputSink.expand_rows
            ):
                rows = columns_to_rows(columns) if columns else repeat(())
                if multiplicities is None:
                    yield from rows
                else:
                    yield from chain.from_iterable(map(repeat, rows, multiplicities))

    def flat_batches(self) -> Iterator[Tuple[Sequence[Sequence[Value]], Optional[Sequence[int]]]]:
        """The stored batches as flat ``(columns, multiplicities)`` in ``variables`` order.

        ``on_batch``'s arguments: a flat batch laid out as :attr:`variables`
        is yielded as it is stored; anything else (factors, another layout)
        as :func:`expand_factorized_batch`'s slices.
        """
        for batch in self._stored():
            prefix_variables, columns, factors, multiplicities = batch
            if factors or tuple(prefix_variables) != self.variables:
                yield from expand_factorized_batch(self.variables, *batch)
            else:
                yield columns, multiplicities

    def columns(self) -> List[List[Value]]:
        """Flat value columns, one per variable, bag multiplicities applied.

        A result that is one flat batch without multiplicities comes back
        *by reference* — the values are the very objects the producer
        decoded — and several batches are concatenated once.
        """
        flatten = chain.from_iterable
        chunks = []
        for columns, multiplicities in self.flat_batches():
            if multiplicities is not None:
                columns = [list(flatten(map(repeat, column, multiplicities))) for column in columns]
            if columns and len(columns[0]):
                chunks.append(columns)
        if len(chunks) == 1:
            return list(chunks[0])
        return [list(flatten(parts)) for parts in zip(*chunks)] or [[] for _ in self.variables]

    def to_rows(self) -> List[Row]:
        """Materialize all flat output rows."""
        if not self.variables:  # no column carries the row count
            return list(self.iter_rows())
        return columns_to_rows(self.columns())

    def distinct_rows(self) -> set:
        """The set of distinct output rows (ignores multiplicities)."""
        return set(self.iter_rows())

    def sorted_rows(self) -> List[Row]:
        """All rows sorted lexicographically (useful for comparing engines)."""
        return sorted(self.iter_rows(), key=repr)

    def same_bag(self, other: "JoinResult") -> bool:
        """Whether two results contain the same multiset of rows.

        Both results must report the same variables (possibly in a different
        order); rows of ``other`` are permuted to match ``self``.
        """
        if set(self.variables) != set(other.variables):
            return False
        permutation = [other.variables.index(v) for v in self.variables]
        ours = sorted(self.iter_rows(), key=repr)
        theirs = sorted(
            (tuple(row[i] for i in permutation) for row in other.iter_rows()), key=repr
        )
        return ours == theirs
