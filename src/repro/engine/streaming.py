"""Streaming execution: sink-to-queue delivery of join results.

The materializing sinks in :mod:`repro.engine.output` collect the whole
result before the first row reaches a consumer, so a serving layer pays
worst-case memory and time-to-first-byte on every large output.  This module
provides the streaming counterpart:

* :class:`StreamingSink` is an :class:`~repro.engine.output.OutputSink` that
  slices reported rows into fixed-size batches and pushes them into a
  **bounded** queue as the join recursion produces them.  A full queue blocks
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

import math
import queue
import threading
import time
from itertools import compress
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence

from repro.datatypes import Row
from repro.engine.aggregates import AggregateFold, AggregateSpec, order_and_limit
from repro.engine.output import JoinResult, OutputSink
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

    def on_row(self, row: Row, multiplicity: int = 1) -> None:
        if multiplicity <= 0:
            return
        with self._lock:
            buffer = self._buffer
            for _ in range(multiplicity):
                buffer.append(row)
                if len(buffer) >= self.batch_rows:
                    self._put(buffer[: self.batch_rows])
                    del buffer[: self.batch_rows]

    def on_rows(
        self, rows: Sequence[Row], multiplicities: Optional[Sequence[int]] = None
    ) -> None:
        with self._lock:
            buffer = self._buffer
            if multiplicities is None:
                buffer.extend(rows)
            else:
                for row, multiplicity in zip(rows, multiplicities):
                    buffer.extend([row] * multiplicity)
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
    engines report columnar batches (folded a column at a time), factorized
    batches (folded without expansion whenever the group key is bound by
    the prefix) and, on the row paths, single tuples; the steal scheduler
    ships each task's *serialized partial* to :meth:`absorb`, so raw
    join rows never cross the worker boundary.  The delivery half is
    :class:`StreamingSink`'s bounded queue: every fold marks its groups
    dirty, and their current rows are flushed as a delta at the first batch
    boundary after ``flush_rows`` folds and after every merged partial — so
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

    def __init__(
        self, spec: AggregateSpec, *, flush_rows: Optional[int] = None, **delivery
    ) -> None:
        # ``variables`` is the layout rows are reported in (the spec's), not
        # the labels delivered; ``delivery`` is StreamingSink's keywords.
        super().__init__(spec.variables, **delivery)
        self._init_fold(spec)
        if flush_rows is not None and flush_rows < 1:
            raise QueryError(f"flush_rows must be at least 1, got {flush_rows}")
        #: Serial fold granularity: a delta flush at the first batch
        #: boundary after this many folded reports (one report per row of a
        #: flat batch, per group of a factorized one), so even a
        #: single-threaded join of several batches streams mid-execution.
        self.flush_rows = flush_rows if flush_rows is not None else self.batch_rows
        self._dirty: set = set()
        self._since_flush = 0
        # Telemetry (reported under stats()["aggregate"]).
        self.delta_batches = 0
        self.snapshot_rows = 0

    def _folded(self, touched, reports: int) -> None:
        super()._folded(touched, reports)
        self._dirty.update(touched)
        self._since_flush += reports
        if self._since_flush >= self.flush_rows:
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
    flat batches, factorized groups (expanded a column slice at a time by
    the inherited :meth:`on_factorized_batch`), forwarded worker batches —
    folds into a candidate set pruned back to the ``limit`` best rows
    (:func:`~repro.engine.aggregates.order_and_limit`, the final pass's own
    ORDER BY / LIMIT tail) whenever it outgrows its bound, so memory stays
    ``O(limit + batch_rows)`` however large the join output is.  Rows
    arrive in the final SELECT layout (ORDER BY positions address it): the
    session's :class:`~repro.engine.aggregates.PostJoinSink` masks and
    projects in front of this sink.

    Each prune leaves a *cutoff*: the first ORDER BY value of the
    ``limit``-th candidate, when it is a finite number.  A row whose first
    key is strictly worse cannot win, so :meth:`on_batch` drops it with one
    numpy comparison over that key's column before any tuple is built; ties
    and NaN stay.  A column numpy cannot hold as numbers (NULLs, strings,
    ints beyond int64) or holding a ``bool`` (which ranks after strings) is
    not filtered.  The cutoff only tightens, so a reader on another thread
    that sees an older one filters less, never wrongly.

    Delivery is necessarily terminal — no row is safe to ship until every
    candidate has been seen — but the fold happens mid-join: the finalize
    pass (:meth:`finish`) only sorts the surviving candidates and delivers
    the ordered prefix, byte-identical to ``execute()``'s final table.
    """

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
        #: Whether prunes leave a cutoff (not without ORDER BY or numpy).
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
    # Producer side: every entry point folds into the candidate set
    # ------------------------------------------------------------------ #

    def on_batch(self, columns, multiplicities=None) -> None:
        """Drop the rows the cutoff rules out, then fold the rest as rows."""
        cutoff = self._cutoff
        if cutoff is not None:
            first = self.order_by[0]
            keys = columns[first.position]
            values = np.asarray(keys)
            if values.dtype.kind in "iuf" and bool not in set(map(type, keys)):
                values = values.astype(np.float64, copy=False)
                worse = values < cutoff if first.descending else values > cutoff
                dropped = int(worse.sum())
                if dropped:
                    keep = (~worse).tolist()
                    columns = [list(compress(column, keep)) for column in columns]
                    if multiplicities is not None:
                        multiplicities = list(compress(multiplicities, keep))
                    with self._lock:
                        self.skipped_rows += dropped
        super().on_batch(columns, multiplicities)

    def on_row(self, row: Row, multiplicity: int = 1) -> None:
        if multiplicity <= 0:
            return
        self.on_rows([row] * multiplicity)

    def on_rows(
        self, rows: Sequence[Row], multiplicities: Optional[Sequence[int]] = None
    ) -> None:
        if multiplicities is not None:
            expanded: List[Row] = []
            for row, multiplicity in zip(rows, multiplicities):
                if multiplicity > 0:
                    expanded.extend([row] * multiplicity)
            rows = expanded
        else:
            rows = list(rows)
        if not rows:
            return
        with self._lock:
            if self.interrupt is not None:
                self.interrupt.check()
            self._candidates.extend(rows)
            self.candidate_rows += len(rows)
            if len(self._candidates) > self._prune_at:
                self._candidates = order_and_limit(self._candidates, self.order_by, self.limit)
                self.prunes += 1
                # The cutoff: the limit-th candidate's first key (it only tightens).
                if self._filters and 0 < self.limit == len(self._candidates):
                    value = self._candidates[-1][self.order_by[0].position]
                    if type(value) in (int, float) and math.isfinite(value):
                        self._cutoff = float(value)

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
    :meth:`Database.run_join`) executes on its own thread — or on a caller
    supplied executor slot, which is how :class:`repro.serve.AsyncDatabase`
    keeps streamed queries inside its concurrency bound — while the consumer
    iterates batches as they arrive.

    Closing the iterator before exhaustion cancels the query's token: the
    producer and any steal-pool tasks abort cooperatively, the pools drain
    and stay warm, and :meth:`close` waits briefly for the producer to
    acknowledge so no daemon thread lingers behind a test or request.
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
            thread = threading.Thread(
                target=produce, name="repro-stream-producer", daemon=True
            )
            thread.start()

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
