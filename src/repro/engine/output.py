"""Join output sinks: flat rows, counts, and the factorized representation.

All three join engines report their results through a *sink*.  The sink
decides how much of the output to materialize:

* :class:`RowSink` materializes the output: it keeps the flat column batches
  it is handed (with bag multiplicities), the kernels' numeric gathers as
  the arrays they gathered (``packs_columns``),
* :class:`CountSink` only counts output rows — the cheapest option, used by
  ``COUNT(*)`` queries and by benchmark drivers that do not need the rows,
* :class:`FactorizedSink` keeps the output factorized (Section 4.4,
  Figure 19): the same store, handed groups it never expands.

**One stored shape.**  The two materializing sinks are one body — a list of
batches in the shape below — and a :class:`JoinResult` is that list: each
column a vector (Section 4.2), of which row tuples are *views*
(:meth:`JoinResult.columns`, :meth:`~JoinResult.iter_rows`,
:meth:`~JoinResult.to_rows`, ...).  Nothing between a pipeline, the next
pipeline and the result table transposes: every table built from a result —
an intermediate or a query's result table — is one column build over
:meth:`JoinResult.flat_batches` (:func:`repro.engine.pipeline.result_table`),
which keeps a :class:`RowSink`'s numeric arrays packed.  The row views list
packed parts as they read them (:func:`listed_batch`), so no caller ever sees
a numpy scalar.  The one columns→rows ``zip`` left
(:func:`repro.datatypes.columns_to_rows`) sits where the contract *is* row
tuples — ``to_rows()``, ``iter_rows()`` and a streaming sink's
``on_batch`` on its way into its delivered batches — and it only ever sees
flat column slices, however factorized the batch.

**One factorized shape.**  Factorized output is a *batch of groups* in
columnar form, ``(prefix_variables, prefix_columns, factors,
multiplicities)``: the prefix columns hold one value per group, and each
factor is ``(variables, columns, offsets)`` with *flat* columns segmented by
``groups + 1`` offsets — group ``i`` owns ``[offsets[i], offsets[i + 1])`` of
every column of that factor.  A group stands for prefix x factor1 x factor2
x ..., repeated ``multiplicities[i]`` times (``None`` means all 1).  A flat
columnar batch is the same shape with no factors.  The kernels emit many
groups per batch, the trie recursion (``FreeJoinExecutor``) one group per
batch, the steal scheduler ships these batches across the worker boundary, and
exactly one function — :func:`expand_factorized_batch` — ever enumerates
the product, column-wise: as flat ``(columns, multiplicities)`` slices,
never as row tuples.

**One producer contract.**  A sink's producer surface is two entry points,
the second defaulting to the first::

    on_batch  <-  on_factorized_batch

``on_batch`` takes one value column per output variable,
``on_factorized_batch`` the shape above (a factor-free batch is handed to
``on_batch``, anything else goes through the expander, whose bounded column
slices are handed to ``on_batch``).  A sink therefore implements ``on_batch`` and overrides
``on_factorized_batch`` only to be *cheaper* — a count multiplies segment
sizes, an aggregate folds factor columns — never to be correct.  Sinks that
gain from unexpanded groups advertise ``accepts_factorized``; producers only
factorize into those.  The row paths, which bind one output tuple at a time,
hand theirs to a :class:`RowBatcher`, which calls ``on_batch`` every
:attr:`OutputSink.expand_rows` rows: no sink has a per-row entry point.

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


def _listed(values):
    """A packed part (a kernel's numpy array) as a list of Python values."""
    return values.tolist() if _is_array(values) else values


def listed_batch(batch: FactorizedBatch) -> FactorizedBatch:
    """One batch with its packed parts listed, factor columns and offsets included.

    A *stored* batch never holds a packed factor: only the aggregate sinks
    and the streamed top-k are handed packed factors, and they fold or cut
    batches rather than store them (:class:`RowSink` takes no factorized
    batch, :class:`FactorizedSink` does not pack), so for a stored batch
    only the prefix and the multiplicities can be arrays.
    """
    variables, columns, factors, multiplicities = batch
    factors = [(names, list(map(_listed, cols)), _listed(offs)) for names, cols, offs in factors]
    return variables, list(map(_listed, columns)), factors, _listed(multiplicities)


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

    Zero-width rows have no column to carry their number, so they always get
    explicit multiplicities.
    """
    columns = list(map(list, zip(*rows)))
    if not columns and multiplicities is None:
        multiplicities = [1] * len(rows)
    return columns, multiplicities


def batch_to_rows(columns: Sequence[Sequence[Value]], multiplicities=None) -> List[Row]:
    """The flat rows of an ``on_batch`` batch, each repeated by its multiplicity.

    The inverse of :func:`rows_to_batch`; rows with a non-positive
    multiplicity are not in the bag.
    """
    rows = columns_to_rows(columns) if columns else [()] * len(multiplicities or ())
    if multiplicities is None:
        return rows
    return list(chain.from_iterable(map(repeat, rows, multiplicities)))


class RowBatcher:
    """The row paths' producer buffer: tuples in, column batches out.

    The trie recursion, the binary probe loop and Generic Join bind one
    output tuple at a time; they :meth:`emit` it here, and every
    ``sink.expand_rows`` rows the batcher hands the sink one
    :meth:`OutputSink.on_batch`, in arrival order.  A producer calls
    :meth:`flush` before it hands the sink anything else (a factorized
    group) and when its run completes.
    """

    __slots__ = ("sink", "size", "rows", "multiplicities")

    def __init__(self, sink: "OutputSink") -> None:
        self.sink = sink
        self.size = sink.expand_rows
        self.rows: List[Row] = []
        self.multiplicities: List[int] = []

    def emit(self, row: Row, multiplicity: int) -> None:
        self.rows.append(row)
        self.multiplicities.append(multiplicity)
        if len(self.rows) >= self.size:
            self.flush()

    def flush(self) -> None:
        """Hand the buffered rows to the sink as one batch."""
        if self.rows:
            rows, multiplicities = self.rows, self.multiplicities
            self.rows, self.multiplicities = [], []
            self.sink.on_batch(*rows_to_batch(rows, multiplicities))


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

    #: Whether the kernels may hand a numeric column as the ``int64`` /
    #: ``float64`` array they gathered — a prefix column, and for
    #: :meth:`on_factorized_batch` a factor column with ``int64`` offsets —
    #: and multiplicities as an ``int64`` array, instead of lists.
    #: :class:`RowSink` does (its arrays become packed table columns, and its
    #: result's row views list them), and so do the aggregate sinks
    #: (:class:`~repro.engine.aggregates.AggregateFold`: they reduce the
    #: arrays and fold Python scalars), and so does the streamed top-k
    #: (:class:`~repro.engine.streaming.StreamingTopKSink`: it cuts on the
    #: arrays and lists the survivors), so every row a caller sees holds
    #: Python values.
    packs_columns = False

    #: What ``RunReport.details["output"]["mode"]`` calls a run into this sink.
    mode = "rows"

    #: Rows the default :meth:`on_factorized_batch` expands per
    #: :meth:`on_batch` call — all of a large product it ever holds at once.
    expand_rows = 1024

    def __init__(self, variables: Sequence[str]) -> None:
        #: Output variables, in the order rows are reported.
        self.variables: Tuple[str, ...] = tuple(variables)

    def on_batch(
        self,
        columns: Sequence[Sequence[Value]],
        multiplicities: Optional[Sequence[int]] = None,
    ) -> None:
        """Report a columnar batch: one value column per output variable.

        ``columns`` aligns with :attr:`variables` (same order, equal
        lengths); ``multiplicities=None`` means all 1.  A batch without
        columns has one empty row per multiplicity.
        """
        raise NotImplementedError

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
    hands it to a :class:`JoinResult`, of which rows are a view.  It
    ``packs_columns``: the kernels hand it their ``int64`` / ``float64``
    gathers, which the result's table keeps as packed columns
    (:func:`repro.engine.pipeline.result_table`).  A steal task of it fills
    another one, whose batches — arrays and lists — cross the worker
    boundary as they are (a process boundary as buffers) and are appended in
    task order.  Row-path batches stay lists.

    Nothing *produces* factorized groups into this sink (it does not
    advertise ``accepts_factorized``); :class:`FactorizedSink` is the same
    store that does.
    """

    packs_columns = True

    def __init__(self, variables: Sequence[str]) -> None:
        super().__init__(variables)
        self._batches: List[FactorizedBatch] = []

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
        # (A kernel's int64 multiplicities are match counts, never below one.)
        if not factors and not _is_array(multiplicities) and min(multiplicities or [1]) <= 0:
            # Not in the bag: dropped here, so count() == len(to_rows()).
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
        return self._batches

    def absorb(self, payload) -> None:
        self._batches.extend(payload)


class CountSink(OutputSink):
    """Counts output rows without materializing them."""

    accepts_factorized = True
    counts_only = True
    mode = "count"

    def __init__(self, variables: Sequence[str]) -> None:
        super().__init__(variables)
        self._count = 0

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
    the batches — so it keeps lists (no ``packs_columns``): the sinks it
    replays into take Python values.
    """

    accepts_factorized = True
    packs_columns = False
    mode = "factorized"
    task_sink = OutputSink.task_sink  # the default recipe: this very class


@dataclass
class JoinResult:
    """The result of a join: the column batches a sink kept, or a count.

    Rows are a *view* of :attr:`batches`: :meth:`columns` is the flat
    columnar one, :meth:`iter_rows` / :meth:`to_rows` the tuple ones.  The
    views list a :class:`RowSink`'s packed parts as they read them, so they
    hold Python values only; :meth:`flat_batches` hands the parts as stored.
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
                self.variables, *listed_batch(batch), max_rows=OutputSink.expand_rows
            ):
                rows = columns_to_rows(columns) if columns else repeat(())
                if multiplicities is None:
                    yield from rows
                else:
                    yield from chain.from_iterable(map(repeat, rows, multiplicities))

    def flat_batches(self) -> Iterator[Tuple[Sequence[Sequence[Value]], Optional[Sequence[int]]]]:
        """The stored batches as flat ``(columns, multiplicities)`` in ``variables`` order.

        ``on_batch``'s arguments: a flat batch laid out as :attr:`variables`
        is yielded as it is stored, packed parts included; anything else
        (factors, another layout) as :func:`expand_factorized_batch`'s
        slices of its listed values.
        """
        for batch in self._stored():
            prefix_variables, columns, factors, multiplicities = batch
            if factors or tuple(prefix_variables) != self.variables:
                yield from expand_factorized_batch(self.variables, *listed_batch(batch))
            else:
                yield columns, multiplicities

    def columns(self) -> List[List[Value]]:
        """Flat value columns, one per variable, bag multiplicities applied.

        A result that is one flat list batch without multiplicities comes
        back *by reference* — the values are the very objects the producer
        decoded — and several batches are concatenated once.
        """
        flatten = chain.from_iterable
        chunks = []
        for columns, multiplicities in self.flat_batches():
            columns, multiplicities = list(map(_listed, columns)), _listed(multiplicities)
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
