"""Streaming execution: sink-to-queue delivery of join results.

The materializing sinks in :mod:`repro.engine.output` collect the whole
result before the first row reaches a consumer, so a serving layer pays
worst-case memory and time-to-first-byte on every large output.  This module
provides the streaming counterpart:

* :class:`StreamingSink` is an :class:`~repro.engine.output.OutputSink` that
  zips reported column batches into rows, slices them into fixed-size
  batches and pushes them into a **bounded** queue as the join produces
  them.  A full queue blocks
  the producer (backpressure): a slow consumer throttles the join instead of
  letting it race ahead and buffer the entire result.  The sink accepts
  factorized batches (``accepts_factorized``): producers ship shared
  prefixes plus flat factor columns and the Cartesian product is enumerated
  only here, at the delivery boundary — lazily, one column slice of
  ``batch_rows`` rows at a time through the sink's inherited default, so
  backpressure and deadline checks apply inside a single huge group too,
  and row tuples are built one delivery batch at a time.
* :class:`StreamingAggregateSink` is the **aggregate mode** of the sink:
  instead of shipping raw join rows it folds them (and merged worker
  partials — see :mod:`repro.engine.aggregates`) into per-group-key partial
  aggregates and pushes **group deltas** through the same bounded queue, so
  ``GROUP BY`` queries stream progressive results *mid-join*.  Batches are
  ordered by group key; each delivered row supersedes any earlier row with
  the same group key (last-write-wins — :func:`collapse_grouped_batches`),
  and the stream always ends with a full, final snapshot in deterministic
  group-key order, identical to the serial ``execute()`` result.
* :class:`StreamingTopKSink` is the **top-k mode**: ``ORDER BY ... LIMIT n``
  folds rows into a candidate set pruned to the ``n`` best, and cuts the
  kernels' batches on their first ORDER BY key *before* the expander — on
  their packed parts (``packs_columns``), so a factorized group's strictly
  worse factor values are never expanded, listed or turned into tuples.
* :class:`StreamingResult` runs the join on a producer thread and iterates
  the batches on the consumer side.  One
  :class:`~repro.parallel.cancellation.DeadlineToken` covers *both* phases:
  a deadline expires the join **and** the delivery (a stalled consumer can
  no longer pin a worker slot forever), and closing the iterator early
  cancels the token so the producer — including any steal-pool tasks it
  fanned out — unwinds cooperatively and the pools drain clean and warm.

Blocking queue operations never wait uninterruptibly: both sides poll in
:data:`POLL_SECONDS` slices and consult the token in between, so
cancellation and deadline expiry propagate within one slice.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from itertools import compress
from math import prod
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence

from repro.datatypes import Row
from repro.engine.aggregates import (
    AggregateFold,
    AggregateSpec,
    numeric_keys,
    order_and_limit,
    topk_keep,
)
from repro.engine.output import (
    JoinResult,
    OutputSink,
    _factorized_group_count,
    _is_array,
    batch_to_rows,
    listed_batch,
)
from repro.errors import ExecutionError, QueryError
from repro.kernels.encoding import np

if TYPE_CHECKING:  # pragma: no cover - import would be circular at runtime
    # repro.parallel imports the executors, which import this package's
    # output module; tokens are therefore referenced by (string) annotation
    # only and always passed in by the caller.
    from repro.parallel.cancellation import DeadlineToken

#: Default rows per delivered batch.
DEFAULT_BATCH_ROWS = 1024

#: Default bound of the delivery queue, in batches.  The producer runs at
#: most ``max_batches * batch_rows`` rows ahead of the consumer (plus one
#: partially filled buffer).
DEFAULT_MAX_BATCHES = 8

#: Queue poll slice; the upper bound on how stale a cancellation/deadline
#: check can be while either side blocks on the queue.
POLL_SECONDS = 0.05

#: End-of-stream marker (the producer's last queue item).
_DONE = object()

#: Inboxes of idle producer threads (list appends and pops are atomic).  A
#: producer thread is reused, not started per stream: a fresh thread took
#: ~1 000 more minor page faults per drain (its memory arena grew again),
#: which made a drained stream slower than the same query's ``execute()``.
#: A forked child has none of its parent's threads.
_IDLE_PRODUCERS: List["queue.SimpleQueue"] = []
os.register_at_fork(after_in_child=_IDLE_PRODUCERS.clear)


def _start_producer(produce: Callable[[], None]) -> None:
    """Run ``produce`` on an idle producer thread, or on a new daemon one."""
    try:
        inbox = _IDLE_PRODUCERS.pop()
    except IndexError:
        inbox = queue.SimpleQueue()
        threading.Thread(
            target=_producer_loop, args=(inbox,), name="repro-stream-producer", daemon=True
        ).start()
    inbox.put(produce)


def _producer_loop(inbox: "queue.SimpleQueue") -> None:
    # ``produce`` records its own failure: nothing escapes into this loop.
    while True:
        inbox.get()()
        _IDLE_PRODUCERS.append(inbox)


class StreamingSink(OutputSink):
    """A sink that ships row batches through a bounded queue.

    Thread-safety: the engines report rows from whatever thread runs them,
    and a caller may :meth:`absorb` from several threads (the steal
    scheduler absorbs each task's batches on its submitting thread), so the
    internal buffer is lock-protected; the queue itself is thread-safe.

    ``interrupt`` is the query's deadline token.  Every blocking put checks
    it, so a cancelled or over-budget query aborts instead of waiting on a
    consumer that will never drain the queue.
    """

    accepts_factorized = True
    #: Steal tasks' batches are delivered as each task's result arrives:
    #: consumers see a first batch while sibling tasks still run.
    absorb_on_arrival = True

    def __init__(
        self,
        variables: Sequence[str],
        *,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        max_batches: int = DEFAULT_MAX_BATCHES,
        interrupt: Optional[DeadlineToken] = None,
    ) -> None:
        super().__init__(variables)
        if batch_rows < 1:
            raise QueryError(f"batch_rows must be at least 1, got {batch_rows}")
        if max_batches < 1:
            raise QueryError(f"max_batches must be at least 1, got {max_batches}")
        self.batch_rows = batch_rows
        #: Factorized batches expand one delivery batch at a time.
        self.expand_rows = batch_rows
        self.interrupt = interrupt
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_batches)
        self._buffer: List[Row] = []
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._error: Optional[BaseException] = None
        #: Monotonic timestamp of the first completed put, for telemetry.
        self.first_batch_at: Optional[float] = None
        self.batches_put = 0
        self.rows_put = 0
        self.put_wait_seconds = 0.0
        #: Factorized batches received (expanded at the delivery boundary).
        self.factorized_batches = 0

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #

    def on_batch(self, columns, multiplicities=None) -> None:
        self.put_rows(batch_to_rows(columns, multiplicities))

    def put_rows(self, rows: Sequence[Row]) -> None:
        """Queue finished rows, delivering every full ``batch_rows`` slice.

        The one row-list primitive: :meth:`on_batch` zips into it, and
        producers of finished rows (a standing query's deltas, the
        materialize-then-stream fallback) push into it directly.
        """
        with self._lock:
            buffer = self._buffer
            buffer.extend(rows)
            while len(buffer) >= self.batch_rows:
                self._put(buffer[: self.batch_rows])
                del buffer[: self.batch_rows]

    def on_factorized_batch(
        self, prefix_variables, prefix_columns, factors, multiplicities=None
    ) -> None:
        """Count the batch, then expand it through the inherited default.

        The stream's contract is flat rows, so this is where the Cartesian
        product is finally enumerated, as column slices of ``batch_rows``
        rows zipped by ``on_batch`` — the producer side (kernel frontier,
        worker tasks) never materialized it.
        """
        if factors:
            self.factorized_batches += 1
        super().on_factorized_batch(
            prefix_variables, prefix_columns, factors, multiplicities
        )

    def _put(self, item) -> None:
        """Blocking put with backpressure, interruptible via the token."""
        started = time.monotonic()
        while True:
            if self.interrupt is not None:
                self.interrupt.check()
            try:
                self._queue.put(item, timeout=POLL_SECONDS)
                break
            except queue.Full:
                continue
        self.put_wait_seconds += time.monotonic() - started
        if item is not _DONE:
            if self.first_batch_at is None:
                self.first_batch_at = time.monotonic()
            self.batches_put += 1
            self.rows_put += len(item)

    def flush(self) -> None:
        """Deliver any buffered rows now, without ending the stream.

        The standing-query plane (:mod:`repro.views`) pushes one group-delta
        batch per append: each refresh emits its rows and flushes, so
        subscribers see the whole delta immediately instead of waiting for a
        full ``batch_rows`` buffer.
        """
        with self._lock:
            if self._buffer:
                self._put(list(self._buffer))
                self._buffer.clear()

    def finish(self) -> None:
        """Flush the partial batch and mark the stream complete."""
        with self._lock:
            if self._buffer:
                self._put(list(self._buffer))
                self._buffer.clear()
            self._put(_DONE)
            self._finished.set()

    def finish_nowait(self) -> None:
        """Mark end-of-stream without blocking (and without flushing).

        The standing-query close path: the caller has already cancelled the
        producer token and drained the queue, so the best-effort ``_DONE``
        almost always lands; even when the queue refills concurrently,
        consumers also observe the finished event once drained.
        """
        with self._lock:
            self._buffer.clear()
            self._finished.set()
        try:
            self._queue.put_nowait(_DONE)
        except queue.Full:
            pass

    def fail(self, error: BaseException) -> None:
        """Record a producer failure; the consumer re-raises it."""
        self._error = error
        self._finished.set()
        # Best effort: wake a blocked consumer without risking a block on a
        # full queue (the consumer also watches the finished event).
        try:
            self._queue.put_nowait(_DONE)
        except queue.Full:
            pass

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #

    def next_batch(self, interrupt: Optional[DeadlineToken] = None) -> Optional[List[Row]]:
        """Dequeue the next batch, or ``None`` at end of stream.

        Raises the producer's recorded error once the queue is drained, and
        :class:`~repro.errors.DeadlineExceeded` /
        :class:`~repro.errors.QueryCancelled` when ``interrupt`` (defaulting
        to the sink's own token) trips while waiting — the delivery phase
        shares the query's budget.
        """
        token = interrupt if interrupt is not None else self.interrupt
        while True:
            try:
                item = self._queue.get(timeout=POLL_SECONDS)
            except queue.Empty:
                if self._finished.is_set() and self._queue.empty():
                    item = _DONE
                else:
                    if token is not None:
                        token.check()
                    continue
            if item is _DONE:
                if self._error is not None:
                    raise self._error
                return None
            return item

    def drain(self) -> None:
        """Discard queued batches so a blocked producer can finish."""
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                return

    def pending_batches(self) -> List[List[Row]]:
        """Dequeue everything currently queued, without blocking.

        A standing-query consumer polls deliveries between appends (the
        producer is the appender's thread, so after ``append_rows`` returns
        every delta batch is already queued).  Unlike :meth:`next_batch`
        this never waits and never signals end-of-stream; an end marker
        encountered mid-drain is swallowed (the caller tracks closure via
        the standing query itself).
        """
        batches: List[List[Row]] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return batches
            if item is not _DONE:
                batches.append(item)

    # ------------------------------------------------------------------ #
    # Sink interface / telemetry
    # ------------------------------------------------------------------ #

    def result(self) -> JoinResult:
        """A count-only placeholder: streamed rows are gone once delivered."""
        return JoinResult(self.variables, count_only=self.rows_put + len(self._buffer))

    def stats(self) -> Dict[str, object]:
        """Telemetry merged into ``RunReport.details["parallel"]``."""
        return {
            "batches": self.batches_put,
            "rows": self.rows_put,
            "batch_rows": self.batch_rows,
            "max_batches": self._queue.maxsize,
            "put_wait_seconds": self.put_wait_seconds,
            "factorized_batches": self.factorized_batches,
        }


class StreamingAggregateSink(AggregateFold, StreamingSink):
    """Aggregate mode: fold join rows into partials, stream group deltas.

    The folding half is :class:`~repro.engine.aggregates.AggregateFold` —
    the very fold ``execute()`` aggregates with, fed the same way: serial
    engines report columnar batches (folded a column at a time — the row
    paths' too, through their batcher) and factorized batches (folded
    without expansion whenever the group key is bound by the prefix); the
    steal scheduler
    ships each task's *serialized partial* to :meth:`absorb`, so raw
    join rows never cross the worker boundary.  The delivery half is
    :class:`StreamingSink`'s bounded queue: every fold marks its groups
    dirty, and their current rows are flushed as a delta at the first batch
    boundary after ``batch_rows`` folds and after every merged partial — so
    a grouped query streams progressive results mid-join, serial or parallel.

    Delivery contract: every batch holds finalized output rows (SELECT
    order) sorted by group key; a row supersedes earlier rows with the same
    key (last-write-wins, :func:`collapse_grouped_batches`); after the join
    completes, :meth:`finish` delivers one full snapshot in deterministic
    group-key order — byte-identical to the serial aggregate table — before
    the end-of-stream marker.  Backpressure, deadline checks and
    cancellation behave exactly like the row sink's: every blocking put
    consults the query token.
    """

    def __init__(self, spec: AggregateSpec, **delivery) -> None:
        # ``variables`` is the layout rows are reported in (the spec's), not
        # the labels delivered; ``delivery`` is StreamingSink's keywords.
        super().__init__(spec.variables, **delivery)
        self._init_fold(spec)
        self._dirty: set = set()
        self._since_flush = 0
        # Telemetry (reported under stats()["aggregate"]).
        self.delta_batches = 0
        self.snapshot_rows = 0

    def _folded(self, touched, reports: int) -> None:
        super()._folded(touched, reports)
        self._dirty.update(touched)
        # Serial fold granularity: a delta flush at the first batch boundary
        # after ``batch_rows`` folded reports (one per row of a flat batch,
        # per group of a factorized one), so even a single-threaded join of
        # several batches streams mid-execution.
        self._since_flush += reports
        if self._since_flush >= self.batch_rows:
            self._flush_deltas_locked()

    def absorb(self, payload) -> None:
        """Merge one worker task's partial and flush its deltas at once, so
        consumers see progressive aggregates while sibling tasks still run."""
        super().absorb(payload)
        with self._lock:
            self._flush_deltas_locked()

    def _flush_deltas_locked(self) -> None:
        """Deliver the dirty groups' current rows, ordered by group key."""
        self._since_flush = 0
        if not self._dirty:
            return
        keys = sorted(self._dirty, key=repr)
        self._dirty.clear()
        rows = [self.state.finalize_key(key) for key in keys]
        for start in range(0, len(rows), self.batch_rows):
            self._put(rows[start : start + self.batch_rows])
            self.delta_batches += 1

    def finish(self) -> None:
        """Deliver the final snapshot (all groups, key-ordered) and close."""
        with self._lock:
            self._dirty.clear()
            rows = self.state.finalize_rows()
            self.snapshot_rows = len(rows)
            for start in range(0, len(rows), self.batch_rows):
                self._put(rows[start : start + self.batch_rows])
            self._put(_DONE)
            self._finished.set()

    def aggregate_stats(self) -> Dict[str, object]:
        return dict(
            super().aggregate_stats(),
            delta_batches=self.delta_batches,
            snapshot_rows=self.snapshot_rows,
        )

    def stats(self) -> Dict[str, object]:
        """Base stream telemetry plus the partial-merge counters."""
        return dict(super().stats(), aggregate=self.aggregate_stats())


class StreamingTopKSink(StreamingSink):
    """Bounded top-k: ``ORDER BY ... LIMIT n`` without materializing.

    Instead of the materialize-then-stream fallback, every reported row —
    flat batches, factorized groups, forwarded worker batches — folds into
    a candidate set pruned back to the ``limit`` best rows
    (:func:`~repro.engine.aggregates.order_and_limit`, the final pass's own
    ORDER BY / LIMIT tail and the only ordering authority) whenever it
    outgrows its bound, so memory stays ``O(limit + batch_rows)`` however
    large the join output is.  Rows arrive in the final SELECT layout
    (ORDER BY positions address it): the session's
    :class:`~repro.engine.aggregates.PostJoinSink` masks and projects in
    front of this sink.

    Every batch is *cut* before anything else happens to it
    (:meth:`_cut`): where the first ORDER BY key is bound — a prefix
    column, one factor's column, a flat column — its values are compared
    in ``float64`` (as the sort compares numbers) against a *cutoff*, the
    tighter of the running one and the batch's own bound
    (:func:`~repro.engine.aggregates.topk_keep`: the ``limit``-th best
    finite value among positions that stand for at least one row).  Groups
    and factor values strictly worse are dropped and the factor offsets
    rebuilt, all on the kernels' packed arrays (``packs_columns``); only
    then are the survivors listed and expanded
    (:func:`~repro.engine.output.expand_factorized_batch`, one column slice
    of ``batch_rows`` rows at a time, back through :meth:`on_batch`).  Ties
    and NaN stay; a key column holding a NULL, a string, a ``bool`` (which
    ranks after strings) or an int no float holds is not cut.  A listed
    batch with fewer key values than ``limit`` cannot bound itself and is
    not cut (numpy's fixed cost per call outweighs a few rows): each prune
    cuts the candidates the same way, with their own bound, before it sorts
    them.  The cutoff only tightens, so a reader on another thread that
    sees an older one cuts less, never wrongly.

    Delivery is necessarily terminal — no row is safe to ship until every
    candidate has been seen — but the fold happens mid-join: the finalize
    pass (:meth:`finish`) only sorts the surviving candidates and delivers
    the ordered prefix, byte-identical to ``execute()``'s final table.
    """

    #: The kernels hand numeric prefix and factor columns, offsets and
    #: multiplicities as their arrays: :meth:`_cut` reads them in numpy and
    #: lists only the survivors.
    packs_columns = True

    def __init__(
        self,
        variables: Sequence[str],
        *,
        limit: int,
        order_by=(),
        batch_rows: int = DEFAULT_BATCH_ROWS,
        max_batches: int = DEFAULT_MAX_BATCHES,
        interrupt: Optional[DeadlineToken] = None,
    ) -> None:
        super().__init__(
            variables,
            batch_rows=batch_rows,
            max_batches=max_batches,
            interrupt=interrupt,
        )
        if limit < 0:
            raise QueryError(f"limit must be non-negative, got {limit}")
        self.limit = limit
        self.order_by = list(order_by)
        #: Whether batches are cut (not without ORDER BY or numpy).
        self._filters = bool(self.order_by) and np is not None
        self._cutoff: Optional[float] = None
        self._candidates: List[Row] = []
        # Prune bound: enough slack that sorting amortizes over many emits
        # (a tiny delivery batch size must not force a sort per report).
        self._prune_at = max(2 * limit, batch_rows, 4096)
        # Telemetry.
        self.candidate_rows = 0
        self.prunes = 0
        self.skipped_rows = 0

    # ------------------------------------------------------------------ #
    # Producer side: every batch is cut, then folds into the candidate set
    # ------------------------------------------------------------------ #

    def on_batch(self, columns, multiplicities=None) -> None:
        """Cut the batch, then fold the surviving rows."""
        batch = listed_batch(self._cut(self.variables, columns, (), multiplicities))
        rows = batch_to_rows(batch[1], batch[3])
        if not rows:
            return
        with self._lock:
            if self.interrupt is not None:
                self.interrupt.check()
            self._candidates.extend(rows)
            self.candidate_rows += len(rows)
            if len(self._candidates) > self._prune_at:  # cut, then sort what is left
                first = self.order_by[0] if self._filters else None
                keys = first and numeric_keys([row[first.position] for row in self._candidates])
                if keys is not None:  # the candidates are rows: a bound of their own
                    self._cutoff, keep = topk_keep(keys, self.limit, first, None, self._cutoff)
                    if keep is not None:
                        self._candidates = _kept(self._candidates, keep)
                self._candidates = order_and_limit(self._candidates, self.order_by, self.limit)
                self.prunes += 1

    def on_factorized_batch(self, *batch) -> None:
        """Cut the kernels' packed groups, then list and expand the survivors.

        Every other batch — a replayed flat one, a row path's one-group batch
        (list offsets: numpy's fixed cost per call outweighs one group) — is
        expanded as it is and its rows cut once, by :meth:`on_batch` or, a
        few at a time, by the next prune.  (The kernels hand a flat batch to
        :meth:`on_batch` directly.)
        """
        if batch[2] and _is_array(batch[2][0][2]):
            batch = listed_batch(self._cut(*batch))
        super().on_factorized_batch(*batch)

    def _cut(self, prefix_variables, prefix_columns, factors, multiplicities=None):
        """The batch less what its first ORDER BY key rules out, unexpanded.

        The key is a prefix column (one value per group) or one factor's
        column (one per segment value).  A position stands for its group's
        multiplicity times every *other* factor's segment size in rows; it
        counts toward the bound when that is positive, and the cutoff
        tightens to :func:`~repro.engine.aggregates.topk_keep`'s.  Groups or
        factor values strictly worse are dropped (those standing for no row
        too), emptied groups whole, and each factor's offsets rebuilt from
        the cumulative sum of its keep mask.
        """
        first = self.order_by[0] if self._filters else None
        var = first and self.variables[first.position]
        planes = [prefix_variables] + [names for names, _columns, _offsets in factors]
        plane = next((i for i, names in enumerate(planes) if var in names), None)
        batch = prefix_variables, prefix_columns, factors, multiplicities
        if plane is None or not _factorized_group_count(prefix_columns, factors, multiplicities):
            return batch  # no cut, unbound (the expander raises), or empty
        column = (factors[plane - 1][1] if plane else prefix_columns)[planes[plane].index(var)]
        if len(column) < self.limit and (self._cutoff is None or not _is_array(column)):
            return batch  # too short to bound itself: cut if packed, else at the next prune
        if (keys := numeric_keys(column)) is None:
            return batch
        offsets = [np.asarray(offs, dtype=np.int64) for *_, offs in factors]
        sizes = [np.diff(offs) for offs in offsets]
        rows = live = None  # rows per key position; None: one each (flat, unweighted)
        if factors or multiplicities is not None:
            weights = np.ones_like(sizes[0]) if multiplicities is None else np.array(multiplicities)
            share = prod([n for f, n in enumerate(sizes, 1) if f != plane], start=weights.clip(0))
            rows = np.repeat(share, sizes[plane - 1]) if plane else share
            live = rows > 0
        with self._lock:
            self._cutoff, keep = topk_keep(keys, self.limit, first, live, self._cutoff)
            keep = live if keep is None else keep if live is None else live & keep
            if keep is None or (kept := np.count_nonzero(keep)) == keep.size:
                return batch
            self.skipped_rows += int(keep.size - kept if rows is None else rows[~keep].sum())
        if plane:  # the key factor's kept values, then the groups left any
            values = keep
            keep = np.diff(np.concatenate(([0], np.cumsum(values)))[offsets[plane - 1]]) > 0
        cut = []
        for f, ((names, columns, _), offs, size) in enumerate(zip(factors, offsets, sizes), 1):
            mask = values if f == plane else np.repeat(keep, size)
            ends = np.concatenate(([0], np.cumsum(mask)))[np.append(offs[:-1][keep], offs[-1])]
            cut.append((names, [_kept(column, mask) for column in columns], ends))
        multiplicities = None if multiplicities is None else weights[keep]
        return prefix_variables, [_kept(c, keep) for c in prefix_columns], cut, multiplicities

    def finish(self) -> None:
        """Sort the survivors, deliver the ordered prefix, close the stream."""
        with self._lock:
            rows = order_and_limit(self._candidates, self.order_by, self.limit)
            self._candidates = []
            for start in range(0, len(rows), self.batch_rows):
                self._put(rows[start : start + self.batch_rows])
            self._put(_DONE)
            self._finished.set()

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, object]:
        merged = super().stats()
        merged["topk"] = {
            "limit": self.limit,
            "candidate_rows": self.candidate_rows,
            "prunes": self.prunes,
            "skipped_rows": self.skipped_rows,
        }
        return merged


def _kept(column, mask):
    """The ``mask`` positions of a packed or listed column, as it was."""
    return column[mask] if _is_array(column) else list(compress(column, mask.tolist()))


def collapse_grouped_batches(
    batches: Sequence[List[Row]], key_positions: Sequence[int]
) -> List[Row]:
    """Last-write-wins fold of streamed grouped-aggregate delta batches.

    ``key_positions`` are the group-by columns within the delivered rows
    (:meth:`~repro.engine.aggregates.AggregateSpec.key_positions`; the empty
    tuple for grouping-free aggregates).  Because every stream ends with a
    full snapshot, the collapsed rows equal the serial aggregate table, in
    the same deterministic group-key order.
    """
    final: Dict[Row, Row] = {}
    for batch in batches:
        for row in batch:
            final[tuple(row[p] for p in key_positions)] = row
    return [final[key] for key in sorted(final, key=repr)]


class StreamingResult:
    """Iterator over the batches of one streaming query.

    The producer (``run``, typically a closure over
    :meth:`Database.run_join`) executes on a producer thread, reused across
    streams (:func:`_start_producer`) — or on a caller
    supplied executor slot, which is how :class:`repro.serve.AsyncDatabase`
    keeps streamed queries inside its concurrency bound — while the consumer
    iterates batches as they arrive.

    Closing the iterator before exhaustion cancels the query's token: the
    producer and any steal-pool tasks abort cooperatively, the pools drain
    and stay warm, and :meth:`close` waits briefly for the producer to
    acknowledge so no producer is left running behind a test or request.
    """

    def __init__(
        self,
        sink: StreamingSink,
        token: DeadlineToken,
        run: Callable[[], object],
        *,
        executor=None,
    ) -> None:
        self.sink = sink
        self.token = token
        #: The producer's RunReport (or QueryOutcome), set on completion.
        self.report: Optional[object] = None
        self._exhausted = False
        self._producer_done = threading.Event()
        self._future = None

        def produce() -> None:
            try:
                self.report = run()
                # finish() flushes the tail with backpressure, so it can
                # itself raise (deadline lapse, close() cancelling the
                # token): keep it inside the try so the error is recorded
                # for the consumer instead of escaping the thread.
                sink.finish()
            except BaseException as exc:  # noqa: BLE001 - re-raised consumer-side
                sink.fail(exc)
            finally:
                self._producer_done.set()

        if executor is not None:
            self._future = executor.submit(produce)
        else:
            _start_producer(produce)

    @property
    def finished(self) -> bool:
        """Whether the producer has completed (successfully or not)."""
        return self._producer_done.is_set()

    def next_batch(self) -> Optional[List[Row]]:
        """The next delivered batch, or ``None`` at end of stream."""
        if self._exhausted:
            return None
        batch = self.sink.next_batch(self.token)
        if batch is None:
            self._exhausted = True
        return batch

    def __iter__(self) -> Iterator[List[Row]]:
        return self

    def __next__(self) -> List[Row]:
        batch = self.next_batch()
        if batch is None:
            raise StopIteration
        return batch

    def close(self, wait_seconds: float = 5.0) -> None:
        """Cancel (if still running) and release the producer.

        Safe to call repeatedly and after normal exhaustion (then a no-op
        besides joining the already finished producer).
        """
        if not self._producer_done.is_set():
            self.token.cancel()
        if self._future is not None and self._future.cancel():
            # The producer was still queued behind a saturated executor and
            # never started: nothing to unwind or drain — a client that
            # disconnects while waiting for a slot must not look like a
            # stuck producer.
            self._producer_done.set()
            self._exhausted = True
            return
        # Keep draining while the producer unwinds: it may be blocked on a
        # put and needs queue space to observe the cancellation promptly.
        deadline = time.monotonic() + wait_seconds
        while not self._producer_done.wait(timeout=POLL_SECONDS):
            self.sink.drain()
            if time.monotonic() >= deadline:  # pragma: no cover - stuck producer
                raise ExecutionError(
                    "streaming producer did not stop within "
                    f"{wait_seconds:.1f}s of cancellation"
                )
        self.sink.drain()
        self._exhausted = True

    def __enter__(self) -> "StreamingResult":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
