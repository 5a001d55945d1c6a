"""Everything after the join: partial aggregates and the post-join pass.

The paper's benchmark queries (JOB, LSQB) are full joins followed by a simple
aggregate — typically ``MIN`` over a few columns or ``COUNT(*)`` — and an
optional group-by (Section 5.1), and its output stays compressed when an
aggregate follows (Section 4.4).  So aggregates are folded *where the join
produces its rows*: the final pipeline decodes only the variables the query
reads after the join
(:meth:`~repro.query.planner.LogicalQuery.needed_variables`) and its sink is
chosen by :func:`output_mode` — a count, the folding
:class:`PartialAggregateSink`, or materialized rows — whatever residual
predicates or LEFT JOINs the query has: :class:`PostJoinSink` runs those in
front of the chosen sink.

**The partial-aggregate plane** is what every aggregate folds through:

* :class:`_AggregateState` is *mergeable*: :meth:`~_AggregateState.as_tuple`
  serializes a running state as a plain tuple that crosses process
  boundaries and :meth:`~_AggregateState.merge_tuple` folds one into
  another (``AVG`` is carried as sum + count, so merging never loses
  precision).
* :class:`AggregateSpec` is the pickle-able description of one query's
  aggregation (SELECT items, group-by variables, join-row layout).
* :class:`GroupedAggregateState` holds per-group-key partials.
  :meth:`~GroupedAggregateState.fold_columns` is the one fold of a flat
  batch — a column at a time, ``MIN``/``MAX``/``COUNT`` as C-level
  reductions — and :func:`fold_factorized_batch` folds factorized batches
  straight off their factor segments, without enumerating a Cartesian
  product (a batch whose group key hides inside a factor is expanded column
  slice by column slice and folded flat).
  :meth:`~GroupedAggregateState.fold_row` is their row-at-a-time
  reference; only the row paths' per-tuple ``on_row`` still calls it.
* :class:`AggregateFold` is the sink-side fold (every reporting entry point
  plus the sink transport — ``task_sink`` / ``payload`` / ``absorb``), mixed
  into two sinks.
  :class:`PartialAggregateSink` is the sink of every aggregate ``execute()``
  and of every steal task of an aggregate query: serially it folds the whole
  join, in a worker one task's share, whose serialized partial the
  parent-side sink (this one, or the streaming
  :class:`~repro.engine.streaming.StreamingAggregateSink`, the same fold
  over a delivery queue) absorbs.  Its
  :class:`~repro.engine.output.JoinResult` carries the folded state.

**The post-join sink** (:class:`PostJoinSink`) wraps the final pipeline's
sink when the query has residual predicates or LEFT JOINs, or when a
stream's SELECT list is not the layout the join produces: per batch it runs
the residual mask, then the LEFT OUTER JOIN hash extensions, then hands the
wrapped sink only the columns it names — so a residual aggregate still
folds where the join produces its rows, and a stream receives its SELECT
projection.  :meth:`repro.engine.session.Database.run_join` is the one place
it is built.  After the join, two calls turn the sink's result into a
result table: :func:`aggregate_result` (projection / aggregation /
group-by), then :func:`finalize_output` (HAVING / DISTINCT / ORDER BY /
LIMIT).  ``execute()``, the streaming materialize fallback and
standing-query re-execution all run it; streams that deliver mid-join apply
the same ORDER BY / LIMIT tail (:func:`order_and_limit`) per prune.

Every plane folds through one :class:`GroupedAggregateState`, so serial,
streamed, parallel and incrementally maintained aggregates are equal by
construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datatypes import Row, Value, columns_to_rows
from repro.engine.output import (
    Factor,
    JoinResult,
    OutputSink,
    _factorized_group_count,
    expand_factorized_batch,
    rows_to_batch,
)
from repro.errors import ExecutionError, QueryError
from repro.kernels.predicates import compile_batch_predicate
from repro.query.planner import LogicalQuery
from repro.storage.column import Column
from repro.storage.table import Table


class _AggregateState:
    """Running (and mergeable) state of one aggregate function.

    Each function keeps only what it finalizes from: ``MIN``/``MAX`` their
    extreme, ``COUNT`` the count, ``SUM``/``AVG`` total and count.
    """

    __slots__ = ("function", "count", "total", "minimum", "maximum")

    def __init__(self, function: str) -> None:
        self.function = function
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[Value] = None
        self.maximum: Optional[Value] = None

    def update(self, value: Value, multiplicity: int) -> None:
        """Fold one value with its bag multiplicity (NULLs are skipped)."""
        if value is None:
            return
        function = self.function
        if function == "MIN":
            if self.minimum is None or value < self.minimum:
                self.minimum = value
        elif function == "MAX":
            if self.maximum is None or value > self.maximum:
                self.maximum = value
        else:
            self.count += multiplicity
            if function != "COUNT":
                self.total += float(value) * multiplicity

    def update_column(self, values: Sequence[Value], weights) -> None:
        """Fold a run of values, equal to :meth:`update` on each in order.

        ``weights`` is one positive multiplicity per value, or a single
        ``int`` that weighs every value.  ``MIN``/``MAX``/``COUNT`` are one
        C-level reduction over the run; ``SUM``/``AVG`` accumulate left to
        right, so their floating-point result is bit-identical to the
        row-at-a-time fold (builtin ``sum()`` is compensated from Python
        3.12 on and would not be).
        """
        uniform = isinstance(weights, int)
        if None in values:
            if not uniform:
                weights = [w for value, w in zip(values, weights) if value is not None]
            values = [value for value in values if value is not None]
        if not values:
            return
        if self.function == "MIN":
            self.update(min(values), 1)
        elif self.function == "MAX":
            self.update(max(values), 1)
        else:
            self.count += len(values) * weights if uniform else sum(weights)
            if self.function != "COUNT":
                total = self.total
                for value, weight in zip(values, repeat(weights) if uniform else weights):
                    total += float(value) * weight
                self.total = total

    def as_tuple(self) -> Tuple[int, float, Value, Value]:
        """Serialize as a plain tuple (crosses process boundaries)."""
        return (self.count, self.total, self.minimum, self.maximum)

    def merge_tuple(self, packed: Tuple[int, float, Value, Value]) -> None:
        """Merge a serialized partial (the inverse of :meth:`as_tuple`)."""
        count, total, minimum, maximum = packed
        self.count += count
        self.total += total
        if minimum is not None and (self.minimum is None or minimum < self.minimum):
            self.minimum = minimum
        if maximum is not None and (self.maximum is None or maximum > self.maximum):
            self.maximum = maximum

    def finalize(self) -> Value:
        if self.function == "COUNT":
            return self.count
        if self.function == "MIN":
            return self.minimum
        if self.function == "MAX":
            return self.maximum
        if self.function == "SUM":
            return self.total if self.count else None
        if self.function == "AVG":
            return self.total / self.count if self.count else None
        raise QueryError(f"unsupported aggregate function {self.function!r}")


# --------------------------------------------------------------------------- #
# The partial-aggregate plane
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class AggregateSpec:
    """A pickle-able description of one query's aggregation.

    ``items`` mirrors the SELECT list as ``(function, variable, label)``
    tuples (``function`` is ``None`` for plain group-by columns,
    ``variable`` is ``None`` for ``COUNT(*)``); ``group_by`` names the
    grouping variables and ``variables`` the join-row layout rows are folded
    from.  The spec crosses process boundaries with the task setup, so steal
    workers can fold rows into partials without seeing the logical query.
    """

    items: Tuple[Tuple[Optional[str], Optional[str], str], ...]
    group_by: Tuple[str, ...]
    variables: Tuple[str, ...]
    #: :meth:`LogicalQuery.only_count_star` of the query the spec came from:
    #: the one aggregation a count-only join result can feed.
    count_star_only: bool = False

    def labels(self) -> List[str]:
        """Output column labels, in SELECT order."""
        return [label for _function, _variable, label in self.items]

    def key_positions(self) -> List[int]:
        """Positions of the group-by columns within the *output* rows.

        Returned in **GROUP BY order** (not SELECT order), so a key tuple
        built from them equals the fold's internal group key — which is what
        makes :func:`repro.engine.streaming.collapse_grouped_batches` sort
        its collapsed rows in exactly the final snapshot's (and the serial
        table's) deterministic group-key order.  Raises
        :class:`~repro.errors.QueryError` when a group-by variable is not in
        the SELECT list; such queries cannot stream deltas (the session
        routes them through the materialize fallback).
        """
        item_position: Dict[str, int] = {}
        for index, (function, variable, _label) in enumerate(self.items):
            if function is None and variable not in item_position:
                item_position[variable] = index
        missing = [var for var in self.group_by if var not in item_position]
        if missing:
            raise QueryError(
                f"group-by variables {missing} are not in the SELECT list; "
                f"delivered rows carry no usable group key"
            )
        return [item_position[var] for var in self.group_by]


def aggregate_spec(
    logical: LogicalQuery, variables: Sequence[str]
) -> AggregateSpec:
    """Build (and validate) the :class:`AggregateSpec` of a logical query.

    ``variables`` is the join-result row layout.  Raises
    :class:`~repro.errors.ExecutionError` when the SELECT list references
    variables absent from the join result and
    :class:`~repro.errors.QueryError` for SELECT lists the aggregation
    semantics reject (non-aggregate items without a matching GROUP BY).
    """
    items = logical.select_items
    group_variables = tuple(logical.group_by)
    variables = tuple(variables)

    missing = [
        item.variable
        for item in items
        if item.variable is not None and item.variable not in variables
    ]
    missing += [var for var in group_variables if var not in variables]
    if missing:
        raise ExecutionError(
            f"aggregation references variables {missing} absent from the join result"
        )
    for item in items:
        if item.is_aggregate():
            continue
        if not group_variables:
            raise QueryError(
                "non-aggregate SELECT items require a GROUP BY over the same variables"
            )
        if item.variable not in group_variables:
            raise QueryError(
                f"non-aggregate SELECT item {item.label!r} is not in the GROUP BY list"
            )
    return AggregateSpec(
        items=tuple((item.function, item.variable, item.label) for item in items),
        group_by=group_variables,
        variables=variables,
        count_star_only=logical.only_count_star(),
    )


class GroupedAggregateState:
    """Mergeable per-group-key partial aggregates for one query.

    This is the shared fold implementation: an aggregate sink folds the
    join output into one as it is produced, steal-pool workers fold their
    task's share and ship its :meth:`payload`, and the parent-side sink (or
    a standing query's state) merges those payloads back in
    (:meth:`merge_payload`).  Merging is commutative and associative on
    every aggregate function, so partials merge in any completion order;
    ``AVG`` is carried as sum + count.
    """

    __slots__ = ("spec", "groups", "rows", "_group_positions", "_fold_items", "_key_slots")

    def __init__(self, spec: AggregateSpec) -> None:
        self.spec = spec
        #: Join rows folded in so far, bag multiplicities included — the
        #: join cardinality an aggregate sink reports in place of rows.
        self.rows = 0
        self._group_positions = tuple(
            spec.variables.index(var) for var in spec.group_by
        )
        #: Per SELECT item: ``None`` for a plain group-by column (its value
        #: comes from the key, slot ``_key_slots[i]``), else the function and
        #: the join-row position it folds (``None``: ``COUNT(*)``).
        self._fold_items = tuple(
            None
            if function is None
            else (function, None if variable is None else spec.variables.index(variable))
            for function, variable, _label in spec.items
        )
        self._key_slots = tuple(
            spec.group_by.index(variable) if function is None else None
            for function, variable, _label in spec.items
        )
        #: Group key -> one :class:`_AggregateState` per SELECT item.
        self.groups: Dict[Row, List[_AggregateState]] = {}

    def _new_states(self) -> List[_AggregateState]:
        return [
            _AggregateState(function or "")
            for function, _variable, _label in self.spec.items
        ]

    def group_states(self, key: Row) -> List[_AggregateState]:
        """The (created-on-demand) aggregate states of one group."""
        states = self.groups.get(key)
        if states is None:
            states = self._new_states()
            self.groups[key] = states
        return states

    # ------------------------------------------------------------------ #
    # Folding and merging
    # ------------------------------------------------------------------ #

    def fold_row(self, row: Row, multiplicity: int = 1) -> Row:
        """Fold one join row; returns the group key it landed in.

        The row-at-a-time reference of :meth:`fold_columns`, and what the
        row paths' per-tuple ``on_row`` folds through.
        """
        key = tuple(row[p] for p in self._group_positions)
        states = self.group_states(key)
        self.rows += multiplicity
        for fold_item, state in zip(self._fold_items, states):
            if fold_item is None:
                continue
            _function, position = fold_item
            if position is None:
                state.count += multiplicity
            else:
                state.update(row[position], multiplicity)
        return key

    def fold_columns(
        self,
        columns: Sequence[Sequence[Value]],
        multiplicities: Optional[Sequence[int]] = None,
    ) -> List[Row]:
        """Fold one flat columnar batch; returns the distinct touched keys.

        ``columns`` aligns with ``spec.variables`` (a batch without columns
        has one empty row per multiplicity, as in ``OutputSink.on_batch``);
        rows with a non-positive multiplicity are not in the bag.  The one
        fold of a flat batch: rows are bucketed by the key columns alone —
        no full-width tuple is built — and every aggregate input is folded
        a column segment at a time (:meth:`_AggregateState.update_column`),
        in row order, so the result equals :meth:`fold_row` over the rows.
        """
        if multiplicities and min(multiplicities) <= 0:
            keep = [multiplicity > 0 for multiplicity in multiplicities]
            columns = [list(compress(column, keep)) for column in columns]
            multiplicities = list(compress(multiplicities, keep))
        size = len(columns[0]) if columns else len(multiplicities or ())
        if not size:
            return []
        if not self._group_positions:
            self._fold_segment((), columns, multiplicities, size)
            return [()]
        members: Dict[Row, List[int]] = {}
        for index, key in enumerate(zip(*[columns[p] for p in self._group_positions])):
            try:
                members[key].append(index)
            except KeyError:
                members[key] = [index]
        reads = {item[1] for item in self._fold_items if item and item[1] is not None}
        for key, indices in members.items():
            self._fold_segment(
                key,
                {p: [columns[p][i] for i in indices] for p in reads},
                multiplicities and [multiplicities[i] for i in indices],
                len(indices),
            )
        return list(members)

    def _fold_segment(self, key: Row, columns, multiplicities, size: int) -> None:
        """Fold ``size`` rows of one group; ``columns`` is indexed by position."""
        total = size if multiplicities is None else sum(multiplicities)
        self.rows += total
        weights = 1 if multiplicities is None else multiplicities
        for fold_item, state in zip(self._fold_items, self.group_states(key)):
            if fold_item is None:
                continue
            position = fold_item[1]
            if position is None:
                state.count += total
            else:
                state.update_column(columns[position], weights)

    def payload(self) -> Tuple[int, List[Tuple[Row, Tuple[Tuple, ...]]]]:
        """Serialize as plain data (pickles across processes): rows, groups."""
        return self.rows, [
            (key, tuple(state.as_tuple() for state in states))
            for key, states in self.groups.items()
        ]

    def merge_payload(
        self, payload: Tuple[int, Sequence[Tuple[Row, Sequence[Tuple]]]]
    ) -> List[Row]:
        """Merge a serialized partial in; returns the touched group keys."""
        rows, groups = payload
        self.rows += rows
        touched = []
        for key, packed_states in groups:
            states = self.group_states(key)
            for state, packed in zip(states, packed_states):
                state.merge_tuple(packed)
            touched.append(key)
        return touched

    # ------------------------------------------------------------------ #
    # Finalization
    # ------------------------------------------------------------------ #

    def finalize_key(self, key: Row) -> Row:
        """The output row of one group, in SELECT order."""
        states = self.groups[key]
        values: List[Value] = []
        for fold_item, key_slot, state in zip(
            self._fold_items, self._key_slots, states
        ):
            if fold_item is None:
                values.append(key[key_slot])
            else:
                values.append(state.finalize())
        return tuple(values)

    def finalize_rows(self) -> List[Row]:
        """All output rows, in the serial pass's deterministic key order.

        Matches :func:`aggregate_result` exactly, including the one row of
        empty aggregates a grouping-free aggregate produces on empty input.
        """
        if not self.groups and not self.spec.group_by:
            empty = self._new_states()
            return [tuple(state.finalize() for state in empty)]
        return [self.finalize_key(key) for key in sorted(self.groups, key=repr)]


def fold_factorized_batch(
    state: GroupedAggregateState,
    prefix_variables: Sequence[str],
    prefix_columns: Sequence[Sequence[Value]],
    factors: Sequence[Factor],
    multiplicities: Optional[Sequence[int]] = None,
) -> Optional[List[Row]]:
    """Fold a factorized batch into ``state`` without expanding it.

    Works whenever every group-by variable is bound by the prefix columns
    (the group key is then shared by a group's whole Cartesian product) and
    every aggregate input by the prefix or a factor: ``COUNT``/``SUM``/
    ``AVG`` weight each value by the product of the *other* factors'
    segment sizes, ``MIN``/``MAX`` scan each factor's values once — the
    product is never enumerated, and without a GROUP BY the whole batch
    folds with one reduction per column.  Returns the touched group keys, or
    ``None`` when the caller must expand the batch into rows instead (a
    group key living inside a factor, or an unbound aggregate input).  A
    factor-free batch in the spec's own layout is a flat one:
    :meth:`GroupedAggregateState.fold_columns` folds it.
    """
    if not factors and tuple(prefix_variables) == state.spec.variables:
        return state.fold_columns(prefix_columns, multiplicities)
    prefix_index = {var: i for i, var in enumerate(prefix_variables)}
    factor_index = {
        var: (position, offset)
        for position, (factor_vars, _columns, _offsets) in enumerate(factors)
        for offset, var in enumerate(factor_vars)
    }
    if any(var not in prefix_index for var in state.spec.group_by) or any(
        function and variable and variable not in prefix_index and variable not in factor_index
        for function, variable, _label in state.spec.items
    ):
        return None

    groups = _factorized_group_count(prefix_columns, factors, multiplicities)
    # Join rows each batch group stands for; non-positive: not in the bag.
    totals = [1] * groups if multiplicities is None else list(multiplicities)
    for _vars, _columns, offsets in factors:
        totals = [t * (hi - lo) for t, lo, hi in zip(totals, offsets, offsets[1:])]
    # Batch groups fold in runs that share one group key: each on its own
    # under a GROUP BY, the whole batch at once without one — then every
    # reduction below spans whole columns, not one factor segment.
    if state.spec.group_by or min(totals, default=1) <= 0:
        runs = [(i, i + 1) for i in range(groups) if totals[i] > 0]
    else:
        runs = [(0, groups)] if groups else []
    key_columns = [prefix_columns[prefix_index[var]] for var in state.spec.group_by]
    touched: List[Row] = []
    for lo, hi in runs:
        key = tuple(column[lo] for column in key_columns)
        total = sum(totals[lo:hi])
        state.rows += total
        touched.append(key)
        for (function, variable, _label), item_state in zip(
            state.spec.items, state.group_states(key)
        ):
            if function is None:
                continue
            if variable is None:
                item_state.count += total
            elif variable in prefix_index:
                item_state.update_column(
                    prefix_columns[prefix_index[variable]][lo:hi], totals[lo:hi]
                )
            else:
                # One reduction over the run's factor segments, each value
                # weighted by the product of everything else in its group.
                position, column_offset = factor_index[variable]
                _vars, columns, offsets = factors[position]
                weights = 1  # MIN / MAX ignore them
                if function not in ("MIN", "MAX"):
                    weights = [
                        t // (b - a)
                        for t, a, b in zip(totals[lo:hi], offsets[lo:hi], offsets[lo + 1 :])
                        for _ in range(b - a)
                    ]
                item_state.update_column(
                    columns[column_offset][offsets[lo] : offsets[hi]], weights
                )
    return touched


def fold_join_result(
    state: GroupedAggregateState, result: JoinResult
) -> List[Row]:
    """Fold a :class:`JoinResult` into ``state``.

    Handles all three result shapes — the already folded partial of an
    aggregate sink (merged by group key, so the two sides' join-row layouts
    never have to agree), stored batches (flat ones folded a column at a
    time, factorized ones without Cartesian expansion whenever
    :func:`fold_factorized_batch` allows), and count-only results (legal
    only for grouping-free ``COUNT(*)``-only specs) — and returns the
    touched group keys (with repeats).  This is the one fold the serial pass
    (:func:`_aggregate`) and the standing-query plane (:mod:`repro.views`)
    share, which is what makes an incrementally maintained snapshot
    byte-identical to ``execute()``'s.
    """
    if result.partial is not None:
        return state.merge_payload(result.partial.payload())
    touched: List[Row] = []
    if result.count_only is None:
        for batch in result.batches:
            keys = fold_factorized_batch(state, *batch)
            if keys is None:
                keys = []
                for columns, multiplicities in expand_factorized_batch(
                    state.spec.variables, *batch, max_rows=OutputSink.expand_rows
                ):
                    keys += state.fold_columns(columns, multiplicities)
            touched.extend(keys)
        return touched
    # Count-only sink: a bare total can only feed grouping-free COUNT(*).
    if not state.spec.count_star_only:
        raise ExecutionError(
            "cannot compute value aggregates from a count-only join result"
        )
    if result.count_only:
        state.rows += result.count_only
        for item_state in state.group_states(()):
            item_state.count += result.count_only
        touched.append(())
    return touched


class AggregateFold:
    """The folding half of an aggregate sink, mixed into an :class:`OutputSink`.

    Rows are aggregated where they are produced, a column at a time, and
    never materialized: flat batches go through
    :meth:`GroupedAggregateState.fold_columns`, factorized batches through
    :func:`fold_factorized_batch` (no expansion) whenever the group key
    lives in the prefix; only the row paths' per-tuple :meth:`on_row` folds
    a row at a time.  As a transport (see :mod:`repro.engine.output`): a
    steal task of either host folds into a :class:`PartialAggregateSink`
    (:meth:`task_sink`) and ships its (tiny) serialized partial
    (:meth:`payload`) instead of raw rows, and the parent-side sink merges it
    (:meth:`absorb`) as each task finishes — merging is commutative, and a
    grouped stream's delta per merged partial depends on it.  The host sink
    owns ``_lock`` (so :meth:`absorb` is safe from any thread) and
    ``factorized_batches``, calls :meth:`_init_fold`, and may hook
    :meth:`_folded`; the two hosts are :class:`PartialAggregateSink` and
    :class:`~repro.engine.streaming.StreamingAggregateSink`.
    """

    accepts_factorized = True
    absorb_on_arrival = True
    mode = "aggregate"

    def _init_fold(self, spec: AggregateSpec) -> None:
        self.spec = spec
        self.state = GroupedAggregateState(spec)
        #: Row/group reports folded and task partials merged: telemetry.
        #: The join cardinality is ``state.rows``.
        self.folded = 0
        self.partials_merged = 0

    def _folded(self, touched: Sequence[Row], reports: int) -> None:
        """``reports`` folds landed in the ``touched`` groups (lock held)."""
        self.folded += reports

    def on_row(self, row: Row, multiplicity: int = 1) -> None:
        if multiplicity > 0:
            with self._lock:
                self._folded((self.state.fold_row(row, multiplicity),), 1)

    def on_rows(self, rows, multiplicities=None) -> None:
        self.on_batch(*rows_to_batch(rows, multiplicities))

    def on_batch(self, columns, multiplicities=None) -> None:
        with self._lock:
            self._folded(
                self.state.fold_columns(columns, multiplicities),
                len(columns[0]) if columns else len(multiplicities or ()),
            )

    def on_factorized_batch(
        self, prefix_variables, prefix_columns, factors, multiplicities=None
    ) -> None:
        batch = (prefix_variables, prefix_columns, factors, multiplicities)
        with self._lock:
            touched = fold_factorized_batch(self.state, *batch)
            if touched is not None:
                self.factorized_batches += 1
                self._folded(touched, len(touched))
                return
        # Group key (or an aggregate input) inside a factor: the host's own
        # handling expands the batch into rows (and raises for unbound
        # variables), which come back through on_rows.
        super().on_factorized_batch(*batch)

    def task_sink(self):
        return partial(PartialAggregateSink, self.spec)

    def payload(self):
        """The serialized partial this sink accumulated."""
        return self.state.payload()

    def absorb(self, payload) -> None:
        """Merge one steal task's serialized partial.

        Called on the submitting thread as each task's result arrives, on
        either backend — for ``execute()`` and for grouped streams alike.
        """
        with self._lock:
            self.partials_merged += 1
            if payload:
                self._folded(self.state.merge_payload(payload), 0)

    def aggregate_stats(self) -> Dict[str, object]:
        return {
            "groups": len(self.state.groups),
            "folded_rows": self.folded,
            "partials_merged": self.partials_merged,
        }


class PartialAggregateSink(AggregateFold, OutputSink):
    """A sink that folds the join output into grouped partial aggregates.

    The final pipeline's sink of every aggregate ``execute()``
    (:func:`output_mode` ``"aggregate"``) and of every steal task of an
    aggregate query: :class:`AggregateFold` and nothing else, so its
    :class:`~repro.engine.output.JoinResult` is the folded state.
    """

    def __init__(self, spec: AggregateSpec) -> None:
        super().__init__(spec.variables)
        self._init_fold(spec)
        self.factorized_batches = 0
        self._lock = threading.Lock()

    def stats(self) -> Dict[str, object]:
        """Telemetry merged into ``RunReport.details["parallel"]``."""
        return {"aggregate": self.aggregate_stats()}

    def result(self) -> JoinResult:
        """The folded state, under the join cardinality it stands for."""
        return JoinResult(self.variables, count_only=self.state.rows, partial=self.state)


# --------------------------------------------------------------------------- #
# The post-join pass
# --------------------------------------------------------------------------- #


def output_mode(logical: LogicalQuery) -> str:
    """The cheapest sink mode that still supports the query's post-join pass.

    ``"count"`` for grouping-free ``COUNT(*)``, ``"aggregate"`` (fold in the
    sink, :class:`PartialAggregateSink`) for every other aggregate query,
    ``"rows"`` for plain projections.  Residual predicates and LEFT JOINs do
    not change it: :class:`PostJoinSink` runs them in front of that sink.
    """
    if logical.only_count_star():
        return "count"
    return "aggregate" if logical.has_aggregates() else "rows"


class PostJoinSink(OutputSink):
    """Residual mask, LEFT OUTER JOIN extension and projection, in front of a sink.

    The final pipeline reports its rows here, laid out as
    :meth:`~repro.query.planner.LogicalQuery.needed_variables`.  Each batch
    is masked by the query's residual predicates (compiled once,
    :func:`~repro.kernels.predicates.compile_batch_predicate`), extended by
    every :class:`~repro.query.planner.LeftJoinSpec` in FROM-clause order —
    the core rows probe a hash index of the optional table: one output row
    per match, in optional-table order, bag multiplicities kept, and one
    NULL-padded row for an unmatched or NULL-keyed core row — and ``inner``
    is handed only the columns its :attr:`~OutputSink.variables` name, which
    for a stream is the SELECT projection.

    It reads every row it is handed, so it never claims ``counts_only`` or
    ``accepts_factorized``, and it keeps lists (no ``packs_columns``).  Rows
    reported one at a time (the row paths, which run serially into the final
    sink) are buffered into batches of ``expand_rows``, the last one flushed
    by :meth:`result`.  Steal tasks fill the default
    :class:`~repro.engine.output.FactorizedSink` and the parent replays their
    batches through this sink (the default :meth:`~OutputSink.absorb`) on
    the submitting thread, as each arrives when ``inner`` absorbs on
    arrival.  The extension counters (:meth:`summary`) sit under a lock, so
    a caller absorbing from several threads still counts every row.
    """

    def __init__(self, inner: OutputSink, logical: LogicalQuery) -> None:
        super().__init__(logical.needed_variables())
        self.inner = inner
        self.mode = inner.mode
        self.absorb_on_arrival = inner.absorb_on_arrival
        self._mask = compile_batch_predicate(
            logical.residual_predicates, [f"_var.{var}" for var in self.variables]
        )
        layout = list(self.variables)
        #: Per LEFT JOIN: (spec, key -> matching optional rows, key positions).
        self._extensions = []
        for spec in logical.left_joins:
            index: Dict[Row, List[Row]] = {}
            for optional_row in spec.table.to_rows():
                key = tuple(optional_row[column] for _var, column in spec.keys)
                if None not in key:  # NULL never matches in SQL equality
                    index.setdefault(key, []).append(optional_row)
            positions = [layout.index(var) for var, _column in spec.keys]
            self._extensions.append((spec, index, positions))
            layout.extend(spec.variables)
        self._picks = [layout.index(var) for var in inner.variables]
        self._lock = threading.Lock()
        self._matched = [0] * len(self._extensions)
        self._rows_after = [0] * len(self._extensions)
        self._rows: List[Row] = []
        self._weights: List[int] = []

    def on_row(self, row: Row, multiplicity: int = 1) -> None:
        self._rows.append(row)
        self._weights.append(multiplicity)
        if len(self._rows) >= self.expand_rows:
            self._flush_rows()

    def _flush_rows(self) -> None:
        """Hand the buffered rows on as one batch (keeps arrival order)."""
        if self._rows:
            rows, weights = self._rows, self._weights
            self._rows, self._weights = [], []
            self._apply(*rows_to_batch(rows, weights))

    def on_rows(self, rows, multiplicities=None) -> None:
        self.on_batch(*rows_to_batch(rows, multiplicities))

    def on_batch(self, columns, multiplicities=None) -> None:
        self._flush_rows()
        self._apply(columns, multiplicities)

    def _apply(self, columns, multiplicities) -> None:
        """Mask, extend and project one batch into the wrapped sink."""
        size = len(columns[0]) if columns else len(multiplicities or ())
        if self._mask is not None and size:
            keep = self._mask(columns_to_rows(columns) if columns else [()] * size)
            columns = [list(compress(column, keep)) for column in columns]
            if multiplicities is not None:
                multiplicities = list(compress(multiplicities, keep))
            size = sum(keep)
        if not size:
            return
        for position in range(len(self._extensions)):
            columns, multiplicities = self._extend(position, columns, multiplicities)
        picked = [columns[p] for p in self._picks]
        if not picked and multiplicities is None:  # no column carries the row count
            multiplicities = [1] * len(columns[0])
        self.inner.on_batch(picked, multiplicities)

    def _extend(self, position: int, columns, multiplicities):
        """One LEFT JOIN's hash extension of a masked batch."""
        spec, index, key_positions = self._extensions[position]
        padding = (None,) * len(spec.variables)
        take: List[int] = []  # the core row behind each output row
        optional: List[Row] = []
        matched = 0
        for row, key in enumerate(zip(*[columns[p] for p in key_positions])):
            matches = None if None in key else index.get(key)
            if matches:
                matched += 1 if multiplicities is None else multiplicities[row]
                take.extend(repeat(row, len(matches)))
                optional.extend(matches)
            else:
                take.append(row)
                optional.append(padding)
        columns = [[column[row] for row in take] for column in columns]
        columns += map(list, zip(*optional))
        if multiplicities is not None:
            multiplicities = [multiplicities[row] for row in take]
        after = len(take) if multiplicities is None else sum(multiplicities)
        with self._lock:
            self._matched[position] += matched
            self._rows_after[position] += after
        return columns, multiplicities

    def summary(self) -> Dict[str, object]:
        """``details["post_join"]``: one entry per LEFT JOIN extension."""
        return {
            "left_joins": [
                {"alias": spec.alias, "matched_core_rows": matched, "rows_after": after}
                for (spec, _index, _positions), matched, after in zip(
                    self._extensions, self._matched, self._rows_after
                )
            ]
        }

    def result(self) -> JoinResult:
        self._flush_rows()
        return self.inner.result()

    def stats(self) -> Dict[str, object]:
        return self.inner.stats()


def aggregate_result(result: JoinResult, logical: LogicalQuery) -> Table:
    """Apply the SELECT list (projection/aggregation/group-by) to a join result."""
    if logical.select_star:
        return _project(result, list(result.variables), list(result.variables))

    if not logical.has_aggregates():
        variables = [item.variable for item in logical.select_items]
        labels = [item.label for item in logical.select_items]
        return _project(result, variables, labels)

    return _aggregate(result, logical)


def _project(result: JoinResult, variables: Sequence[str], labels: Sequence[str]) -> Table:
    """A column select: the result table adopts the join result's columns."""
    columns = dict(zip(result.variables, result.columns()))
    # A variable selected twice gets a list of its own per column.
    picked = [columns[v] if variables.count(v) == 1 else list(columns[v]) for v in variables]
    return Table("result", [Column(label, values) for label, values in zip(labels, picked)])


def _aggregate(result: JoinResult, logical: LogicalQuery) -> Table:
    # An aggregate sink already folded the rows where they were produced;
    # anything else — a bare count (grouping-free COUNT(*)), factorized
    # batches — is folded here, through the same GroupedAggregateState, so
    # every plane agrees.
    state = result.partial
    if state is None:
        state = GroupedAggregateState(aggregate_spec(logical, result.variables))
        fold_join_result(state, result)
    return Table.from_rows("result", state.spec.labels(), state.finalize_rows())


# --------------------------------------------------------------------------- #
# The final pass: HAVING, DISTINCT, ORDER BY, LIMIT
# --------------------------------------------------------------------------- #


def apply_having(rows: List[Row], having) -> List[Row]:
    """Filter finalized output rows with a resolved HAVING condition.

    The planner rewrites every HAVING operand to
    ``ColumnRef("_out.<position>")`` over the final output row, so
    evaluation needs nothing but the row itself.  Three-valued logic
    matches WHERE: a row is kept only when the condition is *true* (NULL
    comparisons drop the row).
    """
    if having is None:
        return rows
    kept: List[Row] = []
    for row in rows:
        env = {f"_out.{position}": value for position, value in enumerate(row)}
        if having.evaluate(env):
            kept.append(row)
    return kept


def _value_key(value: Value):
    """A total order over heterogeneous SQL values (NULLs first).

    Values are ranked by type class (NULL < numbers < strings < other) and
    compared within the class, so mixed-type columns sort identically on
    every engine and platform instead of raising ``TypeError``.
    """
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, float(value))
    if isinstance(value, str):
        return (2, value)
    return (3, repr(value))


def _canonical_row_key(row: Row):
    """Deterministic whole-row sort key (used as the ORDER BY tiebreak)."""
    return tuple(_value_key(value) for value in row) + (repr(row),)


def order_rows(rows: List[Row], order_by) -> List[Row]:
    """Sort output rows by the resolved ORDER BY keys, deterministically.

    SQL leaves the order of peer rows (equal ORDER BY keys) unspecified;
    here peers are broken by the canonical whole-row key so the same query
    yields the same row sequence on every engine, kernel path, and worker
    count — which is what lets the differential harness compare
    ORDER BY + LIMIT results exactly.
    """
    if not order_by:
        return rows
    return _sort_by_keys(sorted(rows, key=_canonical_row_key), order_by)


def _order_keys(row: Row, order_by) -> List:
    """A row's ORDER BY sort keys: equal for peers."""
    return [_value_key(row[item.position]) for item in order_by]


def _sort_by_keys(rows: List[Row], order_by) -> List[Row]:
    """Stable sort by the ORDER BY keys alone (peers keep their order)."""
    for item in reversed(order_by):
        rows = sorted(
            rows,
            key=lambda row, position=item.position: _value_key(row[position]),
            reverse=item.descending,
        )
    return rows


def order_and_limit(rows: List[Row], order_by, limit: Optional[int]) -> List[Row]:
    """The ORDER BY + LIMIT tail of the final pass.

    A LIMIT without ORDER BY would expose engine-dependent row order, so the
    rows are put in canonical order first — making LIMIT deterministic
    across engines at the cost of not preserving arrival order (which SQL
    does not promise anyway).  With both, the rows are sorted by the ORDER
    BY keys only and cut at ``limit``, extended through the peers of the
    ``limit``-th row; only that prefix gets the canonical tiebreak.  Because
    the order is total, the kept rows are a closed prefix — ``tail(A | B) ==
    tail(tail(A) | B)`` — which is what lets
    :class:`~repro.engine.streaming.StreamingTopKSink` prune candidates
    mid-join with this same function.
    """
    if limit is None:
        return order_rows(rows, order_by)
    if not order_by:
        return sorted(rows, key=_canonical_row_key)[:limit]
    rows = _sort_by_keys(rows, order_by)
    end = limit
    if 0 < limit < len(rows):
        boundary = _order_keys(rows[limit - 1], order_by)
        while end < len(rows) and _order_keys(rows[end], order_by) == boundary:
            end += 1
    return order_rows(rows[:end], order_by)[:limit]


def finalize_output(table: Table, logical: LogicalQuery) -> Table:
    """Apply HAVING, DISTINCT, ORDER BY and LIMIT to the final table.

    The last step after the join, in SQL's logical order: HAVING
    filters finalized groups, DISTINCT dedups (first occurrence wins),
    :func:`order_and_limit` sorts and truncates.  Queries without any of
    these features return ``table`` unchanged.
    """
    if not logical.needs_final_pass():
        return table
    rows = apply_having(table.to_rows(), logical.having)
    if logical.distinct:
        rows = list(dict.fromkeys(rows))
    rows = order_and_limit(rows, logical.order_by, logical.limit)
    return Table.from_rows(table.name, list(table.column_names), rows)
