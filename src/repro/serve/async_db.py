"""An asyncio facade over :class:`~repro.engine.session.Database`.

:class:`AsyncDatabase` turns the synchronous session into a serving layer:
queries run on a bounded thread pool, all on the one wrapped session (their
knobs travel per call in a frozen
:class:`~repro.engine.options.ExecOptions`, so concurrent requests share
only what is meant to be shared: catalog, statistics cache, router, pools
and caches), the event loop stays free, and every query carries a
:class:`~repro.parallel.cancellation.DeadlineToken` that makes the two
serving guarantees real:

* **deadlines** — ``await db.execute(sql, options=ExecOptions(timeout=0.1))``
  aborts the join *mid-execution* once the budget is spent, raising
  :class:`~repro.errors.DeadlineExceeded`; on parallel sessions the token is
  pushed into the steal pools so in-flight tasks die with it.
* **cancellation** — cancelling the awaiting asyncio task flips the token,
  and the worker thread (plus any steal-pool tasks it fanned out) unwinds at
  its next trie-expansion check instead of running to completion.  The
  thread-pool slot frees promptly, so a cancelled request cannot clog the
  server.

Throughput on CPython is still bounded by the GIL for thread-backed
execution; sessions configured with ``parallelism > 1`` (process steal
pools) push the join work out of the serving process, which is the intended
production shape.  Repeated queries additionally hit the kernels'
content-keyed index cache (:mod:`repro.kernels`), per process
and so per steal worker too, so a warm serving process skips per-query
index builds.

Two more serving-layer pieces compose with the pool:

* **admission control** — pass ``admission=AdmissionGate(...)`` and every
  query must clear the gate before it takes a pool slot: over-limit
  requests fail *immediately* with
  :class:`~repro.errors.AdmissionRejected` (load shedding) instead of
  queueing toward a slow ``DeadlineExceeded``.  The gate also feeds
  queue-depth-aware worker sizing: under concurrent load each admitted
  query gets a proportionally smaller intra-query worker slice — a cap on
  what the router may choose and the default for unrouted queries; an
  explicit ``ExecOptions.parallelism`` is not capped.
* **routing** — ``engine="auto"`` requests served concurrently all go
  through the wrapped database's one
  :class:`~repro.router.policy.QueryRouter`, a stateless rule, so a
  request's route never depends on what else is in flight.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import TYPE_CHECKING, AsyncIterator, Dict, Iterable, List, Optional, Union

from repro.engine.options import ExecOptions
from repro.engine.session import Database, QueryOutcome
from repro.errors import DeadlineExceeded, QueryError
from repro.parallel.workload import normalize_queries
from repro.router.admission import AdmissionGate, AdmissionTicket, classify_sql

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.views.standing import StandingQuery

#: Default size of the serving thread pool.
DEFAULT_CONCURRENCY = 8
#: ``gather_many`` retry policy for transient admission rejections: at most
#: this many re-attempts per query, with exponential backoff between them.
ADMISSION_RETRIES = 4
ADMISSION_BACKOFF_INITIAL = 0.02
ADMISSION_BACKOFF_MAX = 0.2


class AsyncDatabase:
    """Async serving wrapper: ``await``-able queries with deadlines.

    Parameters
    ----------
    database:
        The session to serve.  When omitted, a fresh :class:`Database` is
        created from ``db_options`` (which are forwarded verbatim, e.g.
        ``parallelism=4, parallel_mode="process"``).
    max_concurrency:
        Size of the worker thread pool — the hard cap on queries executing
        simultaneously.  ``gather_many`` can bound itself further per call.
    admission:
        Optional :class:`~repro.router.admission.AdmissionGate`.  When set,
        every query (awaited or streamed) must be admitted before it takes
        a pool slot; rejected queries raise
        :class:`~repro.errors.AdmissionRejected` without executing, and
        per-query intra-query parallelism shrinks with queue depth via
        :meth:`AdmissionGate.suggest_workers`.  ``None`` (the default)
        admits everything, preserving the pre-gate behavior.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        *,
        max_concurrency: int = DEFAULT_CONCURRENCY,
        admission: Optional[AdmissionGate] = None,
        **db_options,
    ) -> None:
        if max_concurrency < 1:
            raise QueryError(
                f"max_concurrency must be at least 1, got {max_concurrency}"
            )
        if database is not None and db_options:
            raise QueryError(
                "pass either an existing database or session options, not both"
            )
        self.database = database or Database(**db_options)
        self.max_concurrency = max_concurrency
        self.admission = admission
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="repro-serve"
        )
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def close(self, close_database: bool = False) -> None:
        """Stop accepting queries and release the serving thread pool.

        ``close_database=True`` additionally tears down the process-wide
        parallel resources (steal pools, shm exports, the resource tracker) via
        :meth:`Database.close` — only do that when this is the last session.
        """
        self._closed = True
        # Waiting would block the event loop; threads drain in the
        # background, and cancelled queries unwind at their next token check.
        self._executor.shutdown(wait=False)
        if close_database:
            await asyncio.get_running_loop().run_in_executor(
                None, self.database.close
            )

    async def __aenter__(self) -> "AsyncDatabase":
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    async def execute(
        self,
        sql: str,
        *,
        options: Optional[ExecOptions] = None,
        name: str = "",
        query_class: Optional[str] = None,
    ) -> QueryOutcome:
        """Execute one query off-loop; deadline-enforced, cancellation-safe.

        Per-query knobs travel in ``options``
        (:class:`~repro.engine.options.ExecOptions`).

        Raises :class:`~repro.errors.DeadlineExceeded` when the budget
        expires mid-query.  If the awaiting task is cancelled, the query's
        deadline token is cancelled too, so the worker thread aborts promptly
        (the ``CancelledError`` still propagates to the caller).

        With an admission gate configured, raises
        :class:`~repro.errors.AdmissionRejected` *before* taking a pool slot
        when the server is saturated.  ``query_class`` overrides the default
        SQL-shape classification (``"point"`` / ``"analytic"``).
        """
        if self._closed:
            raise QueryError("AsyncDatabase is closed")
        opts = options or ExecOptions()
        ticket = self._admit(sql, query_class)
        try:
            token = opts.resolve_deadline(always=True)
            loop = asyncio.get_running_loop()
            future = loop.run_in_executor(
                self._executor,
                lambda: self._execute_blocking(sql, opts, name, token, ticket),
            )
            try:
                return await future
            except asyncio.CancelledError:
                # Ordering matters: flip the token *before* re-raising, so by
                # the time the caller observes the cancellation the worker
                # thread is already unwinding.
                token.cancel()
                raise
        finally:
            self._release(ticket)

    def _admit(self, sql: str, query_class: Optional[str]) -> Optional[AdmissionTicket]:
        """Clear the gate (or raise AdmissionRejected); no-op without one."""
        if self.admission is None:
            return None
        return self.admission.admit(query_class or classify_sql(sql))

    def _release(self, ticket: Optional[AdmissionTicket]) -> None:
        if ticket is not None:
            self.admission.release(ticket)

    def admission_stats(self) -> Optional[Dict[str, object]]:
        """The gate's telemetry snapshot, or ``None`` without a gate."""
        return self.admission.snapshot() if self.admission is not None else None

    def _admitted_workers(self, ticket: Optional[AdmissionTicket]) -> Optional[int]:
        """Queue-depth-aware worker cap (None = the session's own)."""
        if ticket is None:
            return None
        return self.admission.suggest_workers(self.database.parallelism)

    def _execute_blocking(
        self, sql, opts: ExecOptions, name, token, ticket=None
    ) -> QueryOutcome:
        cap = self._admitted_workers(ticket)
        outcome = self.database._execute(
            sql, replace(opts, deadline=token, timeout=None), name=name, max_workers=cap
        )
        if ticket is not None:
            # Routed queries already carry a "router" record; admitted
            # explicit-engine queries get one holding just the gate's view.
            detail = outcome.report.details.setdefault("router", {})
            detail["admission"] = {
                "query_class": ticket.query_class,
                "depth_at_admit": ticket.depth_at_admit,
                # Explicit per-query parallelism wins over the gate's cap.
                "workers": cap if opts.parallelism is None else opts.parallelism,
            }
        return outcome

    async def execute_stream(
        self,
        sql: str,
        *,
        options: Optional[ExecOptions] = None,
        name: str = "",
        query_class: Optional[str] = None,
    ) -> AsyncIterator[List[tuple]]:
        """Stream a query's result rows in batches of ``options.batch_rows``.

        Per-query knobs travel in ``options``
        (:class:`~repro.engine.options.ExecOptions`; ``batch_rows`` and
        ``max_batches`` default to 1024 and 8 when unset).

        A true execution stream: the join runs on one serving-pool slot
        (counted against ``max_concurrency`` like any other query) and
        pushes batches into a bounded queue — ``max_batches`` deep — as it
        produces them, so the first batch is yielded *while the join is
        still running* and a slow consumer backpressures the producer
        instead of buffering the whole result.

        Grouped-aggregate queries stream **group deltas** through the same
        queue (the partial-aggregate plane of
        :meth:`~repro.engine.session.Database.execute_iter`): each yielded
        row carries a group's current aggregate values, later rows supersede
        earlier ones with the same group key (last-write-wins; collapse with
        :func:`repro.engine.streaming.collapse_grouped_batches`), and the
        stream ends with a full final snapshot in deterministic group-key
        order — so a dashboard can render progressive aggregates mid-join
        and still finish with the exact ``execute()`` result.

        ``timeout`` covers execution **and** delivery: a consumer that
        stalls past the budget gets :class:`~repro.errors.DeadlineExceeded`
        and the producer aborts, freeing its slot instead of staying pinned
        behind a dead client.  Breaking out of the ``async for`` (or
        cancelling the consuming task) cancels the query cooperatively; the
        producer and any steal-pool tasks it fanned out unwind promptly and
        the pools stay warm.
        """
        if self._closed:
            raise QueryError("AsyncDatabase is closed")
        opts = options or ExecOptions()
        ticket = self._admit(sql, query_class)
        try:
            token = opts.resolve_deadline(always=True)
            loop = asyncio.get_running_loop()
            cap = self._admitted_workers(ticket)

            def open_stream():
                # The producer occupies one serving slot (self._executor), so
                # streamed queries count against max_concurrency like awaited
                # ones.  Batch fetches below use the default executor instead —
                # taking a second serving slot per get would deadlock a
                # max_concurrency=1 server against its own producer.
                return self.database._execute_iter(
                    sql,
                    replace(opts, deadline=token, timeout=None),
                    name=name,
                    executor=self._executor,
                    max_workers=cap,
                )

            # Planning (and a cold statistics scan) happens inside
            # execute_iter, so open off-loop too.
            stream = await loop.run_in_executor(None, open_stream)
            try:
                while True:
                    batch = await loop.run_in_executor(None, stream.next_batch)
                    if batch is None:
                        break
                    yield batch
            except asyncio.CancelledError:
                # Flip the token before surfacing the cancel so the producer
                # (and its pool tasks) is already unwinding.
                token.cancel()
                raise
            finally:
                await loop.run_in_executor(None, stream.close)
        finally:
            self._release(ticket)

    async def subscribe_stream(
        self,
        sql: str,
        *,
        options: Optional[ExecOptions] = None,
        name: str = "",
    ) -> AsyncIterator[List[tuple]]:
        """Subscribe to a standing query and stream its delta batches.

        Wraps :meth:`Database.subscribe` on the underlying session: the
        first yielded batch carries the seed
        snapshot, every later one the group deltas of an append — rows
        upsert by group key, same contract as
        :meth:`~repro.views.StandingQuery.next_batch`.

        The blocking waits run on the *default* executor, not the serving
        pool, so an idle subscription never pins a ``max_concurrency`` slot.
        Exiting the ``async for`` (or cancelling the task) closes the
        subscription and detaches its table hooks.
        """
        if self._closed:
            raise QueryError("AsyncDatabase is closed")
        loop = asyncio.get_running_loop()
        standing = await loop.run_in_executor(
            None, lambda: self.database.subscribe(sql, options=options, name=name)
        )
        try:
            # Deltas delivered while we read the seed re-arrive as upserts,
            # so the snapshot-then-stream handoff cannot drop a group.
            yield await loop.run_in_executor(
                None, lambda: standing.snapshot().to_rows()
            )
            while True:
                batch = await loop.run_in_executor(None, standing.next_batch)
                if batch is None:
                    break
                yield batch
        finally:
            await loop.run_in_executor(None, standing.close)

    async def gather_many(
        self,
        queries: Iterable,
        *,
        options: Optional[ExecOptions] = None,
        max_concurrency: Optional[int] = None,
        return_exceptions: bool = False,
    ) -> List[Union[QueryOutcome, BaseException]]:
        """Run a workload concurrently with bounded concurrency.

        ``queries`` accepts the same shapes as
        :meth:`Database.execute_many` (SQL strings, ``(name, sql)`` pairs,
        objects with ``name``/``sql``).  ``options`` applies to every query;
        ``options.timeout`` is a per-query budget.

        With an admission gate configured, a query rejected by the gate
        (:class:`~repro.errors.AdmissionRejected` — load shedding, expected
        to clear as siblings finish) is retried up to
        :data:`ADMISSION_RETRIES` times with exponential backoff.  The
        retries honor the per-query deadline: backoff never sleeps past the
        remaining budget, re-attempts run with the budget that is left, and
        a query whose budget is exhausted by rejections surfaces the last
        ``AdmissionRejected`` rather than waiting further.

        With ``return_exceptions=False`` (default) the first failure —
        including a per-query ``DeadlineExceeded`` — cancels every sibling
        (in-flight siblings abort mid-execution via their tokens) and
        re-raises; with ``True`` each slot holds its outcome or exception,
        aligned with the input order.
        """
        from repro.errors import AdmissionRejected

        normalized = normalize_queries(queries)
        opts = options or ExecOptions()
        timeout = opts.timeout
        limit = max_concurrency or self.max_concurrency
        if limit < 1:
            raise QueryError(f"max_concurrency must be at least 1, got {limit}")
        semaphore = asyncio.Semaphore(limit)
        loop = asyncio.get_running_loop()

        async def run_one(name: str, sql: str):
            async with semaphore:
                started = loop.time()
                delay = ADMISSION_BACKOFF_INITIAL
                for attempt in range(ADMISSION_RETRIES + 1):
                    if timeout is None:
                        remaining = None
                    else:
                        # The budget covers the whole admission+execution
                        # span, so retried queries never outlive the
                        # deadline a first-try query would get.
                        remaining = timeout - (loop.time() - started)
                        remaining = timeout if attempt == 0 else remaining
                        if remaining <= 0:
                            raise DeadlineExceeded(
                                f"query {name!r}: {timeout}s budget exhausted "
                                f"while retrying admission"
                            )
                    try:
                        return await self.execute(
                            sql, name=name, options=replace(opts, timeout=remaining)
                        )
                    except AdmissionRejected:
                        if attempt == ADMISSION_RETRIES:
                            raise
                        if remaining is not None and delay >= remaining:
                            raise  # no budget left to wait out the gate
                        await asyncio.sleep(delay)
                        delay = min(delay * 2, ADMISSION_BACKOFF_MAX)

        tasks = [
            asyncio.create_task(run_one(name, sql), name=f"repro-serve-{name}")
            for name, sql in normalized
        ]
        try:
            return await asyncio.gather(*tasks, return_exceptions=return_exceptions)
        except BaseException:
            # One query failed (or the caller was cancelled): tear the
            # siblings down before surfacing the error, so no stray query
            # keeps burning worker threads in the background.
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
